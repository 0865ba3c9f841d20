"""Self-adjoint ordinary differential boundary value families on [0, T].

Two kinds of family are supported.  A *first-order* (linear Hamiltonian)
family is

    (A_s x)(t) = -j(s,t) x'(t) - b(s,t) x(t) - (1/2) (d/dt j)(s,t) x(t),

with j skew-Hermitian invertible and b Hermitian; the eigenvalue equation
``A_s x = lambda x`` becomes ``x' = -j^{-1}(b + j_dot/2 + lambda) x``.  A
*second-order* (Lagrangian) family is

    (L_s x)(t) = -(d/dt)(p x' + q x) + q* x' + r x,

with p Hermitian invertible and r Hermitian; in the phase-space variable
``u = (p x' + q x, x)`` the eigenvalue equation becomes the Hamiltonian
system ``u' = J b_lam(t) u`` with the standard ``J = [[0, -I], [I, 0]]``.

Both reductions share one numerical object: a linear system ``x' = (C0(t) +
lambda C1(t)) x`` integrated by classical RK4 on a uniform grid, with no
loop over steps.  The system is affine in lambda, so every RK4 step matrix
is a degree-4 matrix polynomial in lambda, built once per system; a batch of
lambdas evaluates the step matrices and multiplies them in a log-depth
product tree, or, for the solution at every grid time, in a log-depth
prefix scan whose last entry is the tree's product bit for bit.
Constant-coefficient systems take an exact matrix-exponential shortcut.
Formal self-adjointness shows up numerically as symplectic transport: the
fundamental solution intertwines the endpoint forms, which is checked
rather than assumed.

On top of the propagator sit the two index pipelines:

* ``sf_bvp`` localizes eigenvalues near 0 for each s by shooting (the graph
  of the fundamental solution meets the boundary condition subspace exactly
  at eigenvalues) and feeds the resulting crossing coordinates to the
  adaptive flow engine;
* ``mas_bvp`` forms the boundary symplectic space, the path of solution
  graphs, and the boundary condition path, and hands them to the Maslov
  index.

The two integers are produced by disjoint code paths (real eigenvalue
branches vs. unitary eigenphases) and their agreement is the content of the
identities this package exists to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import scipy.linalg as la

from .core import (
    Subspace,
    intersection_dim,
    make_space,
    orthogonal_complement,
    require_hermitian,
    require_nonsingular,
    subspace_from_span,
)
from .errors import (
    NonFinite,
    NotSkewHermitian,
    RootCluster,
    SingularJ,
    SingularP,
    WindowBoundaryEigenvalue,
)
from .flow import FlowOpts, flow_from_sampler
from .maslov import PairPath, _as_fun, maslov_index

TOL_ODE = 1e-8  # symplectic transport budget at the default 2048 steps

# Detector thresholds for shooting: a refined minimum of sigma_min below
# ACCEPT is an eigenvalue; between ACCEPT and RETRY it gets re-polished on
# the exact propagator before deciding; ``eigen_count`` requires both
# endpoints of its window to sit above ACCEPT.
_ACCEPT = 1e-6
_RETRY = 1e-3

# RK4 propagation takes the lambdas in chunks whose (chunk, steps, d, d)
# stack of step matrices holds at most this many complex entries (256 KiB),
# one lambda at least: memory stays flat in the batch size.
_STACK_ENTRIES = 2 ** 14


@dataclass(frozen=True)
class FirstOrderFamily:
    """Coefficients of a linear Hamiltonian family.

    ``j`` and ``b`` map ``(s, t)`` to m x m matrices (scalar t; an
    implementation may also accept a t-array and return ``(nt, m, m)``,
    which is used for speed when available).  The t-derivative of ``j``
    is a central difference with step ``T / (8 * steps)``.
    """

    m: int
    T: float
    j: Callable
    b: Callable


@dataclass(frozen=True)
class SecondOrderFamily:
    """Coefficients p, q, r of a formally self-adjoint second-order family;
    p(s,t) Hermitian invertible, r(s,t) Hermitian, q arbitrary."""

    m: int
    T: float
    p: Callable
    q: Callable
    r: Callable


def std_j(m):
    """The standard real symplectic structure [[0, -I], [I, 0]] on C^{2m}."""
    j = np.zeros((2 * m, 2 * m), dtype=complex)
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def _eval_grid(f, s, ts, m):
    """Evaluate a coefficient callable on a t-grid, vectorized if it allows."""
    ts = np.asarray(ts, dtype=float)
    try:
        out = np.asarray(f(s, ts), dtype=complex)
        if out.shape == (len(ts), m, m):
            return out
    except (ValueError, TypeError):
        pass
    out = np.empty((len(ts), m, m), dtype=complex)
    for i, t in enumerate(ts):
        out[i] = np.asarray(f(s, float(t)), dtype=complex).reshape(m, m)
    return out


class _ShootingSystem:
    """x' = (C0(t) + lambda C1(t)) x on [0, T], integrated without a loop
    over steps.

    ``c0``/``c1`` are sampled on the doubled grid t_k = k T / (2 steps) so a
    step has its midpoint value available.  Constant-coefficient systems are
    detected and integrated exactly with the matrix exponential.  For any
    other system the RK4 step matrices are built here once: the system is
    affine in lambda, so the step matrix of step k is a degree-4 matrix
    polynomial M_k(lambda) = sum_p lambda^p N[p, k] (``self.poly``, shape
    ``(5, steps, d, d)``).
    """

    def __init__(self, c0, c1, T, steps):
        self.T = float(T)
        self.steps = int(steps)
        self.h = self.T / self.steps
        self.d = c0.shape[1]
        dev0 = float(np.abs(c0 - c0[0]).max())
        dev1 = float(np.abs(c1 - c1[0]).max())
        ref = 1.0 + float(max(np.abs(c0).max(), np.abs(c1).max()))
        self.const = max(dev0, dev1) <= 1e-13 * ref
        if self.const:
            self.c0, self.c1 = c0[0], c1[0]
        else:
            self.poly = _rk4_step_polynomial(c0, c1, self.h)

    def propagate(self, lams, checkpoints=False):
        """Fundamental solutions at T for a batch of shooting parameters.

        Returns ``(L, d, d)``, or ``(steps + 1, L, d, d)`` when
        ``checkpoints`` is set (values at the grid times
        ``linspace(0, T, steps + 1)``, the last of which is T itself).  A
        constant system is propagated by the exact matrix exponential.  Any
        other gets its RK4 step matrices M_k(lambda) by Horner's rule on the
        step polynomial and multiplies them in a pairwise product tree,
        ceil(log2 steps) batched matmuls; checkpoints come from a
        Hillis-Steele prefix scan instead, whose last entry equals the
        tree's product bit for bit.  The lambdas go through in chunks whose
        ``(chunk, steps, d, d)`` stack holds at most ``_STACK_ENTRIES``
        entries (one lambda at least), so memory stays flat in the batch,
        and each result is the same whatever batch it came in.
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        if self.const:
            a = self.c0 + lams[:, None, None] * self.c1
            if checkpoints:
                ts = np.linspace(0.0, self.T, self.steps + 1)
                return la.expm(a * ts[:, None, None, None])
            return la.expm(a * self.T)
        L, steps, d = len(lams), self.steps, self.d
        if checkpoints:
            out = np.empty((steps + 1, L, d, d), dtype=complex)
            out[0] = np.eye(d)
        else:
            out = np.empty((L, d, d), dtype=complex)
        chunk = max(1, _STACK_ENTRIES // (steps * d * d))
        for i in range(0, L, chunk):
            lam = lams[i:i + chunk, None, None, None]
            m = lam * self.poly[4]
            for p in (3, 2, 1, 0):
                m += self.poly[p]
                if p:
                    m *= lam
            if checkpoints:
                out[1:, i:i + chunk] = _prefix_products(m).swapaxes(0, 1)
            else:
                out[i:i + chunk] = _tree_product(m)
        return out


def _rk4_step_polynomial(c0, c1, h):
    """Coefficients ``(5, steps, d, d)`` of the RK4 step matrices of
    x' = (C0 + lambda C1) x, M_k(lambda) = sum_p lambda^p N[p, k].

    With a = C0 + lambda C1 at the start, middle and end of a step, RK4 is
    x -> M x for M = I + h/6 (a0 + 2 (K2 + K3) + K4), K2 = am (I + h/2 a0),
    K3 = am (I + h/2 K2), K4 = a1 (I + h K3); the polynomials are expanded as
    coefficient lists, every product batched over steps.
    """
    eye = np.eye(c0.shape[1])

    def times(a, poly):  # a poly, for a = (A0, A1) of degree 1
        out = [a[0] @ c for c in poly] + [a[1] @ poly[-1]]
        for p, c in enumerate(poly[:-1]):
            out[p + 1] += a[1] @ c
        return out

    am, a1 = (c0[1::2], c1[1::2]), (c0[2::2], c1[2::2])
    n = np.zeros((5,) + am[0].shape, dtype=complex)
    n[0], n[1] = c0[0:-1:2], c1[0:-1:2]
    k = [(0.5 * h) * n[0], (0.5 * h) * n[1]]  # h/2 a0
    for a, w, f in ((am, 2.0, 0.5 * h), (am, 2.0, h), (a1, 1.0, 0.0)):
        k[0] += eye
        k = times(a, k)  # K2, K3, K4
        for p, c in enumerate(k):
            n[p] += w * c
            c *= f  # f K, so the next stage forms I + f K
    n *= h / 6.0
    n[0] += eye
    return n


def _tree_product(m):
    """M_{n-1} ... M_0 of a stack ``(L, n, d, d)``, pairing from the top end,
    (M_{n-1} M_{n-2}), (M_{n-3} M_{n-4}), ..., with M_0 carried when n is
    odd: ceil(log2 n) batched matmuls."""
    while m.shape[1] > 1:
        odd = m.shape[1] % 2
        pairs = m[:, 1 + odd::2] @ m[:, odd::2]
        m = np.concatenate([m[:, :1], pairs], axis=1) if odd else pairs
    return m[:, 0]


def _prefix_products(m):
    """Every prefix product M_k ... M_0 of a stack ``(L, n, d, d)``, in place,
    by a Hillis-Steele scan; its blocks pair from the top end as in
    ``_tree_product``, so the last prefix is that product bit for bit."""
    s = 1
    while s < m.shape[1]:
        m[:, s:] = m[:, s:] @ m[:, :-s]
        s *= 2
    return m


def _build_first_order(fam, s, steps):
    ts = np.linspace(0.0, fam.T, 2 * steps + 1)
    jg = _eval_grid(fam.j, s, ts, fam.m)
    require_hermitian(jg, f"j(s={s:.6g}, t) on the t-grid", NotSkewHermitian, sign=-1)
    require_nonsingular(np.linalg.svd(jg, compute_uv=False), SingularJ,
                        f"j(s={s:.6g}, t) at a grid point")
    bg = require_hermitian(_eval_grid(fam.b, s, ts, fam.m), f"b(s={s:.6g}, t) on the t-grid")
    hd = fam.T / (8.0 * steps)
    jd = (_eval_grid(fam.j, s, ts + hd, fam.m)
          - _eval_grid(fam.j, s, ts - hd, fam.m)) / (2.0 * hd)
    jinv = np.linalg.inv(jg)
    c0 = -jinv @ (bg + 0.5 * jd)
    c1 = -jinv
    return _ShootingSystem(c0, c1, fam.T, steps)


def _build_second_order(fam, s, steps):
    m = fam.m
    ts = np.linspace(0.0, fam.T, 2 * steps + 1)
    pg = require_hermitian(_eval_grid(fam.p, s, ts, m), f"p(s={s:.6g}, t) on the t-grid")
    require_nonsingular(np.linalg.svd(pg, compute_uv=False), SingularP,
                        f"p(s={s:.6g}, t) at a grid point")
    qg = _eval_grid(fam.q, s, ts, m)
    if not np.all(np.isfinite(qg)):
        raise NonFinite(f"q(s={s:.6g}, t) is not finite at a grid point")
    rg = require_hermitian(_eval_grid(fam.r, s, ts, m), f"r(s={s:.6g}, t) on the t-grid")
    pinv = np.linalg.inv(pg)
    nt = len(ts)
    b0 = np.zeros((nt, 2 * m, 2 * m), dtype=complex)
    b0[:, :m, :m] = pinv
    b0[:, :m, m:] = -pinv @ qg
    b0[:, m:, :m] = -qg.conj().transpose(0, 2, 1) @ pinv
    b0[:, m:, m:] = qg.conj().transpose(0, 2, 1) @ pinv @ qg - rg
    jstd = std_j(m)
    c0 = jstd @ b0
    # The lambda shift replaces r by r - lambda, adding J @ diag(0, I).
    shift = np.zeros((2 * m, 2 * m), dtype=complex)
    shift[:m, m:] = -np.eye(m)
    c1 = np.broadcast_to(shift, (nt, 2 * m, 2 * m)).copy()
    return _ShootingSystem(c0, c1, fam.T, steps)


def _system(fam, s, steps):
    if isinstance(fam, FirstOrderFamily):
        return _build_first_order(fam, float(s), int(steps))
    if isinstance(fam, SecondOrderFamily):
        return _build_second_order(fam, float(s), int(steps))
    raise TypeError(f"unsupported family type {type(fam).__name__}")


# ---------------------------------------------------------------------------
# Public building blocks
# ---------------------------------------------------------------------------

def transfer_matrix(fam, s, lam=0.0, steps=2048):
    """Fundamental solution at t = T for one (s, lambda).

    For a first-order family this is the m x m matrix with
    ``Gamma(0) = I``; for a second-order family, the 2m x 2m phase-space
    fundamental solution of the reduced Hamiltonian system.
    """
    return _system(fam, s, steps).propagate([lam])[0]


def _end_forms(fam, s):
    """The structure matrices at t = 0 and t = T: (j(s,0), j(s,T)) for a
    first-order family, (J, J) with the standard J for a second-order one."""
    if isinstance(fam, FirstOrderFamily):
        return tuple(np.asarray(fam.j(s, t), dtype=complex).reshape(fam.m, fam.m)
                     for t in (0.0, fam.T))
    j = std_j(fam.m)
    return j, j


def transport_residual(fam, s, gamma):
    """Deviation of a fundamental solution from symplectic transport:
    max |Gamma* j(T) Gamma - j(0)| (first-order) or |Gamma* J Gamma - J|."""
    j0, jT = _end_forms(fam, s)
    return float(np.abs(gamma.conj().T @ jT @ gamma - j0).max())


def boundary_space(fam, s):
    """The boundary symplectic space the traces of solutions live in.

    First-order: (C^{2m}, diag(-j(s,0), j(s,T))).  Second-order:
    (C^{4m}, diag(-J, J)) with the standard J, independent of s.
    """
    j0, jT = _end_forms(fam, s)
    d = len(j0)
    jb = np.zeros((2 * d, 2 * d), dtype=complex)
    jb[:d, :d], jb[d:, d:] = -j0, jT
    return make_space(jb)


def graph_subspace(gamma):
    """The graph {(z, Gamma z)} as a subspace of the doubled space."""
    gamma = np.asarray(gamma, dtype=complex)
    d = gamma.shape[0]
    return subspace_from_span(np.vstack([np.eye(d, dtype=complex), gamma]))


def w_of_r(r, m=None):
    """The boundary condition Lagrangian W(R) ⊂ C^{4m} attached to a
    subspace R of position traces (x(0), x(T)) ∈ C^{2m}.

    W(R) consists of the boundary vectors (w0, x0, wT, xT) with positions
    (x0, xT) in R and momenta satisfying (w0, -wT) ⟂ R.  It is Lagrangian
    for the boundary form diag(-J, J) whatever R is; R = {0} gives Dirichlet
    conditions, R = C^{2m} Neumann-type, R = diagonal periodic-type.

    ``r`` may be a Subspace of C^{2m}, a spanning set (a frame matrix, or a
    single vector), or None for R = {0} (in which case ``m`` is required).
    """
    if r is None:
        if m is None:
            raise ValueError("R = {0} needs the block size m")
        rsub = Subspace(frame=np.zeros((2 * m, 0), dtype=complex))
    elif isinstance(r, Subspace):
        rsub = r
    else:
        rsub = subspace_from_span(r)
    two_m = rsub.ambient_dim
    if two_m % 2:
        raise ValueError("R must live in C^{2m}")
    mm = two_m // 2
    rperp = orthogonal_complement(rsub)
    cols = []
    for i in range(rperp.dim):
        rho = rperp.frame[:, i]
        cols.append(np.concatenate([rho[:mm], np.zeros(mm), -rho[mm:], np.zeros(mm)]))
    for i in range(rsub.dim):
        sig = rsub.frame[:, i]
        cols.append(np.concatenate([np.zeros(mm), sig[:mm], np.zeros(mm), sig[mm:]]))
    return subspace_from_span(np.column_stack(cols))


# ---------------------------------------------------------------------------
# Eigenvalue localization by shooting
# ---------------------------------------------------------------------------

def _graph_detector(wperp_frame, gammas):
    """sigma_min of W_perp* @ orth[I; Gamma] for a stack ``(P, d, d)`` of
    Gammas; returns ``(P,)``."""
    P, d, _ = gammas.shape
    stacked = np.empty((P, 2 * d, d), dtype=complex)
    stacked[:, :d] = np.eye(d)
    stacked[:, d:] = gammas
    q = np.linalg.qr(stacked)[0]
    return np.linalg.svd(wperp_frame.conj().T[None] @ q, compute_uv=False)[:, -1]


def _golden_min(f, a, b, xtol):
    """Golden-section minimizer; f is a scalar function, deterministic."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


class _GammaEvaluator:
    """Chebyshev-interpolated Gamma(lambda) on a window, when certified.

    The transfer matrix is entire in lambda, so on a bounded window its
    Chebyshev coefficients decay superexponentially; once the tail is below
    1e-12 of the leading coefficient the interpolant is a faithful stand-in
    for root *location*, and every accepted root is still verified against
    the exactly integrated matrix.
    """

    def __init__(self, system, lo, hi, nodes):
        self.system = system
        self.lo, self.hi = lo, hi
        self.coef = None
        n = nodes
        while True:
            pts = ncheb.chebpts1(n)
            lams = 0.5 * (hi + lo) + 0.5 * (hi - lo) * pts
            vals = system.propagate(lams)
            coef = ncheb.chebfit(pts, vals.reshape(n, -1), n - 1)
            top = float(np.abs(coef).max())
            tail = float(np.abs(coef[-5:]).max())
            if top == 0.0 or tail <= 1e-12 * top:
                self.coef = coef
                break
            if n >= 257:
                break  # interpolation not certified; exact evals only
            n = 2 * n - 1

    def certified(self):
        return self.coef is not None

    def gamma_proxy(self, lams):
        u = (2.0 * np.asarray(lams) - (self.hi + self.lo)) / (self.hi - self.lo)
        vals = ncheb.chebval(u, self.coef)  # (d*d, P)
        d = self.system.d
        return np.moveaxis(vals, -1, 0).reshape(np.shape(lams) + (d, d))


def eigen_count(fam, s, w, window, steps=2048):
    """Eigenvalues (with multiplicity) of the boundary value problem at
    parameter s inside a real window.

    An eigenvalue is a shooting parameter where the graph of the fundamental
    solution meets the boundary subspace ``w``; the detector is the smallest
    singular value of ``frame(w)^perp* @ frame(graph)``, whose V-shaped local
    minima are refined by golden section to ``1e-9 * window width`` and then
    verified on the exactly integrated transfer matrix.

    Returns a sorted list of ``(lambda, multiplicity)`` pairs.

    Raises
    ------
    WindowBoundaryEigenvalue
        If the detector at a window endpoint is below the safety margin.
        The check is made here, on the exact propagator, before the count;
        the detector pass that ``sf_bvp`` runs does not make it.
    RootCluster
        If two distinct roots are closer than 10x the root tolerance.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"empty window {window}")
    system = _system(fam, s, steps)
    ends = system.propagate([lo, hi])
    if _graph_detector(orthogonal_complement(w).frame, ends).min() < _ACCEPT:
        raise WindowBoundaryEigenvalue(
            f"detector at window endpoint(s) of ({lo:.6g}, {hi:.6g}) below margin"
        )
    return _eigen_count_system(system, w, window, BvpOpts.grid)


def _eigen_count_system(system, w, window, grid):
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"empty window {window}")
    width = hi - lo
    tau_root = 1e-9 * width
    wperp = orthogonal_complement(w).frame
    nodes = max(65, int(grid) + 1)
    ev = _GammaEvaluator(system, lo, hi, nodes)

    def detector_min(gamma_fun):
        return lambda lam: float(_graph_detector(wperp, gamma_fun([lam]))[0])

    probes = np.linspace(lo, hi, max(16 * int(grid), 1024) + 1)
    gamma_fun = ev.gamma_proxy if ev.certified() else system.propagate
    d = _graph_detector(wperp, gamma_fun(probes))
    dmin = detector_min(gamma_fun)

    # Bracket candidate roots at interior local minima of the detector.
    cand = np.flatnonzero((d[1:-1] <= d[:-2]) & (d[1:-1] <= d[2:]) & (d[1:-1] < 0.25)) + 1
    if not len(cand):
        return []
    refined = [_golden_min(dmin, probes[i - 1], probes[i + 1], tau_root) for i in cand]

    # Verification against the exact propagator, then multiplicity assignment.
    gam_exact = system.propagate(refined)
    sv = _graph_detector(wperp, gam_exact)
    roots = []
    for lam, dstar, gamma in zip(refined, sv, gam_exact):
        if dstar >= _RETRY:
            continue
        if dstar >= _ACCEPT:
            # The interpolant found a shallow dip; re-polish on exact values.
            lam = _golden_min(detector_min(system.propagate), lam - 64 * tau_root,
                              lam + 64 * tau_root, tau_root)
            gamma = system.propagate([lam])[0]
            if _graph_detector(wperp, gamma[None])[0] >= _ACCEPT:
                continue
        roots.append((float(lam), max(intersection_dim(graph_subspace(gamma), w), 1)))
    roots.sort()
    merged = []
    for lam, mult in roots:
        if merged and abs(lam - merged[-1][0]) < 2.0 * tau_root:
            continue  # same root found from two brackets
        merged.append((lam, mult))
    for (l1, _), (l2, _) in zip(merged, merged[1:]):
        if abs(l2 - l1) < 10.0 * tau_root:
            raise RootCluster(
                f"roots {l1:.12g} and {l2:.12g} closer than 10x root tolerance; "
                "use a finer grid or smaller window"
            )
    return merged


# ---------------------------------------------------------------------------
# The two index pipelines
# ---------------------------------------------------------------------------

@dataclass
class BvpOpts(FlowOpts):
    """Options of the BVP pipelines: the crossing engine's partition plus
    time steps, spectral grid and eigenvalue window.  The parameter range
    is fixed at [0, 1]."""

    steps: int = 2048
    grid: int = 64
    lambda_window: float = 1.0
    interval: ClassVar[tuple] = (0.0, 1.0)


def sf_bvp(fam, w_path, opts=None):
    """Spectral flow of the boundary value family through 0.

    For each sampled s one detector pass localizes the eigenvalues by
    shooting inside the window ``(-R, R)`` with ``R = opts.lambda_window``,
    and only those with ``|lambda| <= 0.6 R`` are kept: that horizon keeps
    every kept root 0.4 R inside the window, so an eigenvalue on the window
    edge is never counted and needs no check.  The resulting coordinate
    lists feed the same adaptive crossing engine used everywhere else.

    Returns ``(integer, CrossingReport)``; the report's samples double as
    the eigenvalue river (``report.write_trace(path, prefix="lambda")``).
    """
    opts = opts or BvpOpts()
    wfun = _as_fun(w_path, Subspace, subspace_from_span)
    r0 = float(opts.lambda_window)

    def coords(s):
        system = _system(fam, s, opts.steps)
        roots = _eigen_count_system(system, wfun(s), (-r0, r0), opts.grid)
        vals = [lam for lam, mult in roots for _ in range(mult)]
        c = np.array([v for v in vals if abs(v) <= 0.6 * r0], dtype=float)
        return c

    return flow_from_sampler(coords, opts.interval, opts, scale=r0)


def mas_bvp(fam, w_path, opts=None):
    """Maslov index of the boundary pair path s -> (graph(Gamma_s(T)), W_s).

    The graph of the fundamental solution at lambda = 0 and the boundary
    condition subspace are compared inside the boundary symplectic space;
    the report's extras carry the worst symplectic-transport residual seen,
    alongside the isotropy/unit-circle residuals from the Maslov engine.
    """
    opts = opts or BvpOpts()
    wfun = _as_fun(w_path, Subspace, subspace_from_span)
    stats = {"transport_residual": 0.0}

    def sampler(s):
        g = transfer_matrix(fam, s, 0.0, opts.steps)
        stats["transport_residual"] = max(
            stats["transport_residual"], transport_residual(fam, s, g)
        )
        return boundary_space(fam, s), graph_subspace(g), wfun(s)

    path = PairPath(sampler=sampler, interval=opts.interval)
    total, report = maslov_index(path, opts)
    report.extras.update(stats)
    return total, report


def maslov_long(fam, s, w, opts=None):
    """The Maslov-type index i_W of the t-path of solution graphs.

    For a second-order family at fixed s, runs the Maslov index of
    ``t -> (graph(Gamma_s(t)), W)`` in (C^{4m}, diag(-J, J)) over the whole
    interval [0, T] (the appendix endpoint convention absorbs the maximal
    intersection at t = 0).  t snaps to the grid of one checkpointed
    propagation, which the crossing engine tolerates since only window
    counts at sampled points enter the index.
    """
    if not isinstance(fam, SecondOrderFamily):
        raise TypeError("maslov_long expects a SecondOrderFamily")
    opts = opts or BvpOpts()
    system = _system(fam, s, opts.steps)
    bspace = boundary_space(fam, s)
    wsub = w if isinstance(w, Subspace) else subspace_from_span(w)
    gammas = system.propagate([0.0], checkpoints=True)[:, 0]

    def sampler(t):
        gamma = gammas[min(max(int(round(float(t) / system.h)), 0), system.steps)]
        return bspace, graph_subspace(gamma), wsub

    path = PairPath(sampler=sampler, interval=(0.0, fam.T))
    return maslov_index(path, opts)


@dataclass(frozen=True)
class IndexDifference:
    sf: int
    i_w_end: int
    i_w_start: int

    @property
    def agree(self):
        return self.sf == self.i_w_end - self.i_w_start


def index_difference_check(fam, r, opts=None):
    """Verify that the s-flow equals the difference of endpoint t-indices.

    With W = W(R) fixed, the spectral flow of the family over s in
    ``opts.interval`` must equal ``i_W`` of the t-path of the endpoint
    family minus ``i_W`` of the initial one.  The three integers come from
    independent runs (one eigenvalue-branch flow, two eigenphase flows).
    """
    if not isinstance(fam, SecondOrderFamily):
        raise TypeError("index_difference_check expects a SecondOrderFamily")
    opts = opts or BvpOpts()
    w = w_of_r(r, fam.m)
    sf, _ = sf_bvp(fam, w, opts)
    a, b = opts.interval
    i_end, _ = maslov_long(fam, float(b), w, opts)
    i_start, _ = maslov_long(fam, float(a), w, opts)
    return IndexDifference(sf=sf, i_w_end=i_end, i_w_start=i_start)

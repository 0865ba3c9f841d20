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
lambda C1(t)) x`` integrated by classical RK4 on a uniform grid (the
lambda-affine structure is what makes batching over shooting parameters
cheap, and constant-coefficient systems take an exact matrix-exponential
shortcut).  Formal self-adjointness shows up numerically as symplectic
transport: the fundamental solution intertwines the endpoint forms, which is
checked rather than assumed.

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
from typing import Callable

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
    NotSkewHermitian,
    RootCluster,
    SingularJ,
    SingularP,
    WindowBoundaryEigenvalue,
)
from .flow import FlowOpts, flow_from_sampler
from .maslov import PairPath, _as_subspace_fun, maslov_index

TOL_ODE = 1e-8  # symplectic transport budget at the default 2048 steps

# Detector thresholds for shooting: a refined minimum of sigma_min below
# ACCEPT is an eigenvalue; between ACCEPT and RETRY it gets re-polished on
# the exact propagator before deciding; endpoints of the window must sit
# above ACCEPT.
_ACCEPT = 1e-6
_RETRY = 1e-3


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
    """x' = (C0(t) + lambda C1(t)) x on [0, T], RK4-ready.

    ``c0``/``c1`` are sampled on the doubled grid t_k = k T / (2 steps) so a
    step has its midpoint value available.  Constant-coefficient systems are
    detected and integrated exactly with the matrix exponential.
    """

    def __init__(self, c0, c1, T, steps):
        self.c0 = c0
        self.c1 = c1
        self.T = float(T)
        self.steps = int(steps)
        self.h = self.T / self.steps
        self.d = c0.shape[1]
        dev0 = float(np.abs(c0 - c0[0]).max())
        dev1 = float(np.abs(c1 - c1[0]).max())
        ref = 1.0 + float(max(np.abs(c0).max(), np.abs(c1).max()))
        self.const = max(dev0, dev1) <= 1e-13 * ref

    def propagate(self, lams, checkpoints=False):
        """Fundamental solutions at T for a batch of shooting parameters.

        Returns ``(L, d, d)``, or ``(steps + 1, L, d, d)`` when
        ``checkpoints`` is set (values at every grid time, always from the
        RK4 grid; only the endpoint of a constant system is exact).
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        if self.const and not checkpoints:
            return la.expm((self.c0[0] + lams[:, None, None] * self.c1[0]) * self.T)
        return self._rk4(lams, checkpoints)

    def _rk4(self, lams, checkpoints):
        L = len(lams)
        lam = lams[:, None, None]
        x = np.broadcast_to(np.eye(self.d, dtype=complex), (L, self.d, self.d)).copy()
        h = self.h
        out = None
        if checkpoints:
            out = np.empty((self.steps + 1, L, self.d, self.d), dtype=complex)
            out[0] = x
        for k in range(self.steps):
            a0 = self.c0[2 * k] + lam * self.c1[2 * k]
            am = self.c0[2 * k + 1] + lam * self.c1[2 * k + 1]
            a1 = self.c0[2 * k + 2] + lam * self.c1[2 * k + 2]
            k1 = a0 @ x
            k2 = am @ (x + (0.5 * h) * k1)
            k3 = am @ (x + (0.5 * h) * k2)
            k4 = a1 @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if checkpoints:
                out[k + 1] = x
        return out if checkpoints else x


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


def eigen_count(fam, s, w, window, grid=64, steps=2048):
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
    RootCluster
        If two distinct roots are closer than 10x the root tolerance.
    """
    system = _system(fam, s, steps)
    return _eigen_count_system(system, w, window, grid)


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
    dvals = _graph_detector(wperp, gamma_fun(probes))
    dmin = detector_min(gamma_fun)

    # Bracket candidate roots at interior local minima of the detector.
    cand = []
    for i in range(1, len(probes) - 1):
        if dvals[i] <= dvals[i - 1] and dvals[i] <= dvals[i + 1] and dvals[i] < 0.25:
            cand.append(i)
    refined = [_golden_min(dmin, probes[i - 1], probes[i + 1], tau_root) for i in cand]

    # Verification against the exact propagator (also covers the window
    # endpoints), then multiplicity assignment.
    check = np.array([lo, hi] + refined)
    gam_exact = system.propagate(check)
    sv = _graph_detector(wperp, gam_exact)
    if sv[0] < _ACCEPT or sv[1] < _ACCEPT:
        raise WindowBoundaryEigenvalue(
            f"detector at window endpoint(s) of ({lo:.6g}, {hi:.6g}) below margin"
        )
    roots = []
    for k, lam in enumerate(refined):
        dstar = sv[k + 2]
        gamma = gam_exact[k + 2]
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
    time steps, spectral grid, eigenvalue window and parameter range."""

    steps: int = 2048
    grid: int = 64
    lambda_window: float = 1.0
    interval: tuple = (0.0, 1.0)


def _radius_ladder(r):
    yield r
    for k in range(8):
        yield r * (1.0 + 0.3 / 2.0**k)


def sf_bvp(fam, w_path, opts=None):
    """Spectral flow of the boundary value family through 0.

    For each sampled s the eigenvalues near 0 are localized by shooting
    (:func:`eigen_count`) inside the window ``(-R, R)`` with
    ``R = opts.lambda_window``; if an eigenvalue sits on the window boundary
    the radius is nudged upward through a fixed ladder.  The resulting
    coordinate lists feed the same adaptive crossing engine used everywhere
    else.

    Returns ``(integer, CrossingReport)``; the report's samples double as
    the eigenvalue river (``report.write_trace(path, prefix="lambda")``).
    """
    opts = opts or BvpOpts()
    wfun = _as_subspace_fun(w_path)
    r0 = float(opts.lambda_window)

    def coords(s):
        system = _system(fam, s, opts.steps)
        last_exc = None
        for rj in _radius_ladder(r0):
            try:
                roots = _eigen_count_system(system, wfun(s), (-rj, rj), opts.grid)
                break
            except WindowBoundaryEigenvalue as exc:
                last_exc = exc
        else:
            raise last_exc
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
    wfun = _as_subspace_fun(w_path)
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
    intersection at t = 0).  Constant-coefficient
    systems evaluate Gamma(t) exactly; otherwise t snaps to the integration
    grid of one checkpointed propagation, which the crossing engine
    tolerates since only window counts at sampled points enter the index.
    """
    if not isinstance(fam, SecondOrderFamily):
        raise TypeError("maslov_long expects a SecondOrderFamily")
    opts = opts or BvpOpts()
    system = _system(fam, s, opts.steps)
    bspace = boundary_space(fam, s)
    wsub = w if isinstance(w, Subspace) else subspace_from_span(w)
    if system.const:
        def gamma(t):
            return la.expm(system.c0[0] * float(t))
    else:
        gammas = system.propagate([0.0], checkpoints=True)[:, 0]

        def gamma(t):
            return gammas[min(max(int(round(float(t) / system.h)), 0), system.steps)]

    def sampler(t):
        return bspace, graph_subspace(gamma(t)), wsub

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

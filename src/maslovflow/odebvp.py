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
is a matrix polynomial in lambda of degree at most 4 (2 for a second-order
family, whose C1 squares to 0), built once per system; a batch of
lambdas evaluates the step matrices and multiplies them in a log-depth
product tree, or, for the solution at every grid time, in a log-depth
prefix scan whose last entry is the tree's product bit for bit.  The
shooting parameter lambda is real, and the system size d picks the
arithmetic: the real embedding at 2 <= d <= 4, elementwise at d = 1,
complex otherwise (``_ShootingSystem``).  Each coefficient is read with
one call on the t-grid, and a family object keeps each system it builds, so every caller, both
pipelines included, shares one build per (s, steps).  A family whose raw
coefficient grids are exactly constant in t is checked, inverted and
assembled at one grid point, and its system takes an exact
matrix-exponential shortcut; any other runs RK4.
Formal self-adjointness shows up numerically as symplectic transport: the
fundamental solution intertwines the endpoint forms, which is checked
rather than assumed.

On top of the propagator sit the two index pipelines:

* ``sf_bvp`` localizes eigenvalues near 0 for each s by shooting (the graph
  of the fundamental solution meets the boundary condition subspace exactly
  at eigenvalues, the zeros of det W_perp* [I; Gamma(lambda)]): one
  eigensolve of a colleague pencil gives every zero of a certified
  Chebyshev model, fitted on a nested ladder of Chebyshev-Lobatto nodes
  that propagates only the nodes a refinement adds, a winding number
  checks their count, and the exact propagator verifies each; the crossing
  coordinates feed the adaptive flow engine;
* ``mas_bvp`` forms the boundary symplectic space, the path of solution
  graphs, and the boundary condition path, and hands them to the Maslov
  index.

The two integers are produced from the same shooting systems by disjoint
code paths (real eigenvalue branches vs. unitary eigenphases) and their
agreement is the content of the identities this package exists to check.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import scipy.linalg as la

from .core import (
    TAU_RANK,
    Subspace,
    SymplecticSpace,
    as_path,
    make_space,
    member,
    orthogonal_complement,
    require_count,
    require_hermitian,
    require_nonsingular,
    require_positive,
    subspace_from_span,
)
from .errors import (
    DimensionMismatch,
    NonFinite,
    NotSkewHermitian,
    RootCluster,
    RootCountMismatch,
    SingularJ,
    SingularP,
    TransportBudgetExceeded,
    WindowBoundaryEigenvalue,
)
from .flow import FlowOpts, flow_from_sampler
from .maslov import PairPath, maslov_index

TOL_ODE = 1e-8  # symplectic transport budget; the sweep suites enforce it at 1024 steps
# ``maslov_long`` refines its grid until its transport residual is below this
# margin: the Maslov engine's unitarity check refused a t-path whose worst
# checkpoint residual was 8.0e-9, inside TOL_ODE.
_TRANSPORT_MARGIN = 1e-9
_TRANSPORT_REFINEMENTS = 3

# Shooting detector, with the window mapped to u in [-1, 1]: pencil roots
# with |Im u| <= REAL are verified, and accepted where the exact detector is
# below ACCEPT (``eigen_count`` needs its window endpoints above it); STRIP
# is the half-height of the certificate's contour of at most 2^14 points; a
# window that does not certify is halved at most MAX_SPLITS times deep.
_ACCEPT = 1e-6
_REAL = 1e-6
_STRIP = 0.1
_MAX_SPLITS = 8
# A root's multiplicity dim(graph ∩ W) counts the detector's singular values
# (sines of principal angles) whose cosines are within TAU_RANK of 1, as
# ``intersection_dim`` counts cosines; _ACCEPT lies below it, so a verified
# root has multiplicity 1 at least.
_SIN_RANK = float(np.sqrt(TAU_RANK * (2.0 - TAU_RANK)))

# RK4 propagation takes the lambdas in chunks whose (chunk, steps, d, d)
# stack of step matrices holds at most this many complex entries (256 KiB;
# its real embedding, at 2 <= d <= 4, twice that), one lambda at least, and
# the certificate evaluates its contours in chunks of the same size: memory
# stays flat in the batch size.
_STACK_ENTRIES = 2 ** 14

# The sizes d whose RK4 systems multiply in the real embedding (see
# ``_ShootingSystem``), each with the factor [I | K] of ``_embed``.
_EMBED_FACTORS = {d: np.hstack([np.eye(2 * d), np.kron(np.eye(d), [[0.0, 1.0], [-1.0, 0.0]])])
                  for d in (2, 3, 4)}


@dataclass(frozen=True)
class _Family:
    """What both family kinds declare and check: ``m``, an integer of at
    least 1, and ``T``, finite and positive and not a bool (``ValueError``;
    a negative T runs time backwards and flips the sign of the spectral
    flow), and the table of the shooting systems the family has built.

    A family object builds its shooting system once per (s, steps) and
    keeps it for every later caller, so each build reads the coefficients
    once per (s, steps) per family object, and they must be pure functions
    of (s, t).  The systems live as long as the family: at most 5 steps d^2
    complex entries each (80 steps d^2 bytes, d = m for a first-order
    family; 3 steps d^2 for a second-order one, d = 2m), or 2 d^2 when
    constant in t.  The table takes
    no part in ``==``, ``hash`` or ``repr``, and ``dataclasses.replace``
    starts an empty one.
    """

    m: int
    T: float
    _systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_count(self.m, "m", 1)
        require_positive(self.T, "T")


@dataclass(frozen=True)
class FirstOrderFamily(_Family):
    """Coefficients of a linear Hamiltonian family.

    ``j`` and ``b`` are called as ``f(s, t)`` with a float s and a 1-D
    t-array of nt times, and return ``(nt, m, m)``, or ``(m, m)`` for a
    value that holds at every t.  The t-derivative of ``j`` is a central
    difference with step ``T / (8 * steps)``.  ``m``, ``T`` and the table
    of built systems are those of ``_Family``.

    Every build calls ``j`` on three grids of 2 steps + 1 times and ``b``
    on one, once per grid.  When every grid is exactly constant in t, the
    checks, the inverse and the algebra run at one grid point.  The
    boundary form reads ``j`` once more on the grid t = (0, T) at each
    call: ``mas_bvp`` does so twice per sample (its transport residual and
    its boundary space), outside the build.
    """

    j: Callable
    b: Callable


@dataclass(frozen=True)
class SecondOrderFamily(_Family):
    """Coefficients p, q, r of a formally self-adjoint second-order family;
    p(s,t) Hermitian invertible, r(s,t) Hermitian, q arbitrary.

    The coefficients are called as ``FirstOrderFamily``'s are, each once
    per build on one grid of 2 steps + 1 times; when p, q and r are all
    exactly constant in t, the build works at one grid point.  The boundary
    form is the standard J and reads no coefficient.  ``m``, ``T`` and the
    table of built systems are those of ``_Family``, with d = 2m.
    """

    p: Callable
    q: Callable
    r: Callable


def std_j(m):
    """The standard real symplectic structure [[0, -I], [I, 0]] on C^{2m}."""
    j = np.zeros((2 * m, 2 * m), dtype=complex)
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def _eval_grid(fam, name, s, ts):
    """Values ``(len(ts), m, m)`` of the coefficient ``name`` of ``fam`` on
    the t-array ``ts``, from one call: an ``(m, m)`` value holds at every t
    and is broadcast; any other shape raises ``DimensionMismatch``."""
    m, nt = fam.m, len(ts)
    out = np.asarray(getattr(fam, name)(s, ts), dtype=complex)
    if out.shape == (m, m):
        return np.broadcast_to(out, (nt, m, m))
    if out.shape != (nt, m, m):
        raise DimensionMismatch(f"{name}(s={s:.6g}, t) has shape {out.shape}, not ({m}, {m}) "
                                f"for every t or ({nt}, {m}, {m}) for the {nt} times")
    return out


class _ShootingSystem:
    """x' = (C0(t) + lambda C1(t)) x on [0, T], integrated without a loop
    over steps, for real lambda.

    ``c0``/``c1`` are sampled on the doubled grid t_k = k T / (2 steps) so a
    step has its midpoint value available; ``c1`` may also be one row that
    holds at every grid point.  A build whose raw coefficients are exactly
    constant in t passes that grid's first row alone, and such a one-row
    system is integrated exactly with the matrix exponential.  For
    any other system the RK4 step matrices are built here once: the system
    is affine in lambda, so the step matrix of step k is a matrix
    polynomial M_k(lambda) = sum_p lambda^p N[p, k] of degree at most 4
    (``self.poly``, shape ``(q, steps, d, d)``: the q <= 5 coefficients up
    to the highest that is not exactly 0).  A family shares its systems
    with every caller, so their arrays are read-only.

    ``self.real`` picks the arithmetic of the build and of propagation: an
    RK4 system with 2 <= d <= 4 multiplies in the real embedding
    z = x + iy -> [[x, y], [-y, x]] (``_embed``), where NumPy's stacked
    real 2d x 2d product costs a seventh to a quarter of the complex d x d
    one.  From d = 5 on the gain shrinks and then reverses, so those keep
    complex arithmetic, and so does d = 1, where every product of the
    step polynomial and of propagation is an elementwise complex product
    (``_times``) instead of one matmul call per 1 x 1 matrix.  Only the
    complex ``poly`` is stored either way.
    """

    def __init__(self, c0, c1, T, steps):
        self.T = float(T)
        self.steps = int(steps)
        self.h = self.T / self.steps
        self.d = c0.shape[1]
        self.const = len(c0) == 1
        self.real = not self.const and self.d in _EMBED_FACTORS
        if self.const:
            self.c0, self.c1 = c0[0], c1[0]
            self.c0.flags.writeable = self.c1.flags.writeable = False
        else:
            self.poly = _rk4_step_polynomial(c0, c1, self.h, self.real)
            self.poly.flags.writeable = False

    def propagate(self, lams, checkpoints=False):
        """Fundamental solutions at T for a batch of real shooting parameters.

        Returns ``(L, d, d)``, or ``(steps + 1, L, d, d)`` when
        ``checkpoints`` is set (values at the grid times
        ``linspace(0, T, steps + 1)``, the last of which is T itself).  A
        lambda with a nonzero imaginary part raises ``ValueError``.  A
        constant system is propagated by the exact matrix exponential.  Any
        other gets its RK4 step matrices M_k(lambda) by Horner's rule on the
        step polynomial and multiplies them in a pairwise product tree,
        ceil(log2 steps) batched matmuls; checkpoints come from a
        Hillis-Steele prefix scan instead, whose last entry equals the
        tree's product bit for bit.  With ``self.real`` Horner runs on the
        polynomial's real view, the step matrices are embedded, and the
        products are read back to complex at the end.  The lambdas go
        through in chunks whose Horner stack ``(chunk, steps, d, d)`` holds
        at most ``_STACK_ENTRIES`` complex entries (one lambda at least; the
        real embedding of a chunk takes twice those bytes), so memory stays
        flat in the batch, and each result is the same whatever batch it
        came in.
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        if np.any(lams.imag):
            raise ValueError(f"shooting parameters must be real, got {lams[lams.imag != 0][0]!r}")
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
        poly = self.poly
        if self.real:
            lams, poly = lams.real, poly.view(float)
        chunk = max(1, _STACK_ENTRIES // (steps * d * d))
        for i in range(0, L, chunk):
            lam = lams[i:i + chunk, None, None, None]
            m = lam * poly[-1]
            for p in range(len(poly) - 2, -1, -1):
                m += poly[p]
                if p:
                    m *= lam
            if self.real:
                m = _embed(m)
            prods = _prefix_products(m) if checkpoints else _tree_product(m)
            if self.real:
                prods = _unembed(prods)
            if checkpoints:
                out[1:, i:i + chunk] = prods.swapaxes(0, 1)
            else:
                out[i:i + chunk] = prods
        return out


def _embed(rows):
    """The real embedding ``(..., 2d, 2d)`` of complex d x d matrices given
    by their real views ``rows`` ``(..., d, 2d)``: each entry x + iy becomes
    the block [[x, y], [-y, x]], so products of embeddings embed the
    products.  Row 2i is row i of ``rows`` and row 2i + 1 is that row times
    K = I_d (x) [[0, 1], [-1, 0]]; both come from one GEMM with [I | K],
    exact since K is a signed permutation."""
    *lead, d, two_d = rows.shape
    return (rows.reshape(-1, two_d) @ _EMBED_FACTORS[d]).reshape(*lead, two_d, two_d)


def _unembed(a):
    """The complex matrices ``(..., d, d)`` whose real embeddings are ``a``
    ``(..., 2d, 2d)``: the even rows, as complex."""
    return a[..., ::2, :].view(complex)


def _rk4_step_polynomial(c0, c1, h, real):
    """Coefficients ``(q, steps, d, d)`` of the RK4 step matrices of
    x' = (C0 + lambda C1) x, M_k(lambda) = sum_p lambda^p N[p, k].

    With a = C0 + lambda C1 at the start, middle and end of a step, RK4 is
    x -> M x for M = I + h/6 (a0 + 2 (K2 + K3) + K4), K2 = am (I + h/2 a0),
    K3 = am (I + h/2 K2), K4 = a1 (I + h K3); the polynomials are expanded as
    coefficient lists, every product batched over steps.  A stage whose top
    coefficient is exactly 0 at every step drops it, and only the
    coefficients up to the highest one left are returned (q <= 5): a
    second-order C1 = J diag(0, I) squares to 0, which makes the lambda^3
    and lambda^4 coefficients exact zeros, so its q is 3, while an
    invertible C1 (first order, -j^-1) keeps all 5.  With ``real`` the
    products run in the real embedding (``_embed``): C0 and C1 in full, and
    each coefficient as the odd columns of its embedding, ``(steps, 2d, d)``
    holding [y; x] for each entry x + iy (the bytes of a complex
    coefficient), since the odd columns of R(A) R(B) are R(A) times those of
    R(B).  The complex coefficients are read off at the end, once the
    embeddings are released.  A one-row ``c1`` holds at every grid point:
    it is embedded once and its embedding broadcast, which gives the same
    bits as embedding the full grid, since embedding works row by row.
    """
    if not real:
        return _step_coefficients(c0, np.broadcast_to(c1, c0.shape), h, slice(None))
    e1 = _embed(c1.view(float))
    n = _step_coefficients(_embed(c0.view(float)), np.broadcast_to(e1, (len(c0),) + e1.shape[1:]),
                           h, slice(1, None, 2))
    poly = np.empty(n.shape[:2] + n.shape[-1:] * 2, dtype=complex)
    poly.real, poly.imag = n[:, :, 1::2], n[:, :, 0::2]
    return poly


def _step_coefficients(c0, c1, h, cols):
    """``_rk4_step_polynomial`` in the arithmetic of ``c0`` and ``c1``, each
    coefficient kept as its columns ``cols``."""
    eye = np.eye(c0.shape[1])[:, cols]

    def times(a, poly):  # a poly, for a = (A0, A1) of degree 1; empties poly
        out = [_times(a[1], poly[-1])]
        while poly:  # from the top, dropping each input once it is used up
            c = _times(a[0], poly.pop())
            if poly:
                c += _times(a[1], poly[-1])
            out.insert(0, c)
        return out

    am, a1 = (c0[1::2], c1[1::2]), (c0[2::2], c1[2::2])
    n = np.zeros((5,) + am[0].shape[:-1] + eye.shape[1:], dtype=c0.dtype)
    n[0], n[1] = c0[0:-1:2, :, cols], c1[0:-1:2, :, cols]
    k = [(0.5 * h) * n[0], (0.5 * h) * n[1]]  # h/2 a0
    for a, w, f in ((am, 2.0, 0.5 * h), (am, 2.0, h), (a1, 1.0, 0.0)):
        k[0] += eye
        k = times(a, k)  # K2, K3, K4
        if not k[-1].any():  # a nilpotent C1 (second order) makes the top exactly 0
            k.pop()
        for p, c in enumerate(k):
            n[p] += w * c
            c *= f  # f K, so the next stage forms I + f K
    n *= h / 6.0
    n[0] += eye
    return n if len(k) == len(n) else n[:len(k)].copy()


def _times(a, b):
    """The stacked matrix product a @ b, as an elementwise product when the
    inner size is 1 (d = 1), where the product of 1 x 1 matrices is that of
    their entries and NumPy's matmul would pay one call per matrix."""
    return a * b if a.shape[-1] == 1 else a @ b


def _tree_product(m):
    """M_{n-1} ... M_0 of a stack ``(L, n, d, d)``, pairing from the top end,
    (M_{n-1} M_{n-2}), (M_{n-3} M_{n-4}), ..., with M_0 carried when n is
    odd: ceil(log2 n) batched products (``_times``)."""
    while m.shape[1] > 1:
        odd = m.shape[1] % 2
        pairs = _times(m[:, 1 + odd::2], m[:, odd::2])
        m = np.concatenate([m[:, :1], pairs], axis=1) if odd else pairs
    return m[:, 0]


def _prefix_products(m):
    """Every prefix product M_k ... M_0 of a stack ``(L, n, d, d)``, in place,
    by a Hillis-Steele scan; its blocks pair from the top end as in
    ``_tree_product``, so the last prefix is that product bit for bit."""
    s = 1
    while s < m.shape[1]:
        m[:, s:] = _times(m[:, s:], m[:, :-s])
        s *= 2
    return m


def _checked_inv(a, exc, name):
    """Inverses of a stack of matrices, raising ``exc`` exactly when
    ``require_nonsingular`` on their singular values would.  Since
    sigma_max / sigma_min <= |A|_F |A^-1|_F, members with that bound below
    1e11 are cleared by the inverse alone; only the others get an SVD, or
    the whole stack when ``inv`` meets an exact zero pivot.  A stack of
    1 x 1 matrices is inverted as ``1.0 / a``, with no per-matrix LAPACK
    call, and an exact zero in it takes the zero-pivot path; that equals
    ``np.linalg.inv`` bit for bit on real and on purely imaginary entries
    (a Hermitian p, a skew-Hermitian j), and agrees to rounding on others.
    Its bound is |a| |1/a| entry by entry, the Frobenius norms of 1 x 1
    matrices."""
    try:
        if a.shape[-1] > 1:
            inv = np.linalg.inv(a)
            bound = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
        elif a.all():
            inv = 1.0 / a
            bound = np.abs(a[:, 0, 0]) * np.abs(inv[:, 0, 0])
        else:
            raise np.linalg.LinAlgError("Singular matrix")
    except np.linalg.LinAlgError:
        require_nonsingular(np.linalg.svd(a, compute_uv=False), exc, name)
        raise
    unclear = ~(bound < 1e11)
    if unclear.any():
        require_nonsingular(np.linalg.svd(a[unclear], compute_uv=False), exc, name)
    return inv


def _cut_if_constant(*grids):
    """The grids, each cut to its first row when every one of them equals
    its first row exactly at every point (-0.0 matches 0.0, a NaN matches
    nothing).  The cut rows are the full grid's first rows, and every check
    and product downstream works row by row, so a constant system comes out
    bit for bit as the full grid's first row would."""
    if all((g == g[:1]).all() for g in grids):
        return [g[:1] for g in grids]
    return grids


def _build_first_order(fam, s, steps):
    ts = np.linspace(0.0, fam.T, 2 * steps + 1)
    hd = fam.T / (8.0 * steps)
    jg, bg, jp, jm = _cut_if_constant(
        _eval_grid(fam, "j", s, ts), _eval_grid(fam, "b", s, ts),
        _eval_grid(fam, "j", s, ts + hd), _eval_grid(fam, "j", s, ts - hd))
    require_hermitian(jg, f"j(s={s:.6g}, t) on the t-grid", NotSkewHermitian, sign=-1)
    jinv = _checked_inv(jg, SingularJ, f"j(s={s:.6g}, t) at a grid point")
    bg = require_hermitian(bg, f"b(s={s:.6g}, t) on the t-grid")
    jd = (jp - jm) / (2.0 * hd)
    c0 = -jinv @ (bg + 0.5 * jd)
    c1 = -jinv
    return _ShootingSystem(c0, c1, fam.T, steps)


def _build_second_order(fam, s, steps):
    """The shooting system u' = J b_lam u of a second-order family in the
    phase-space variable u = (p x' + q x, x): c0 = J b_0
    (``_second_order_c0``) and c1 = J diag(0, I)."""
    m = fam.m
    ts = np.linspace(0.0, fam.T, 2 * steps + 1)
    pg, qg, rg = _cut_if_constant(*(_eval_grid(fam, name, s, ts) for name in "pqr"))
    pg = require_hermitian(pg, f"p(s={s:.6g}, t) on the t-grid")
    pinv = _checked_inv(pg, SingularP, f"p(s={s:.6g}, t) at a grid point")
    if not np.all(np.isfinite(qg)):
        raise NonFinite(f"q(s={s:.6g}, t) is not finite at a grid point")
    rg = require_hermitian(rg, f"r(s={s:.6g}, t) on the t-grid")
    # The lambda shift replaces r by r - lambda, adding J @ diag(0, I): one
    # row that holds at every grid point.
    c1 = np.zeros((1, 2 * m, 2 * m), dtype=complex)
    c1[0, :m, m:] = -np.eye(m)
    return _ShootingSystem(_second_order_c0(pinv, qg, rg), c1, fam.T, steps)


def _second_order_c0(pinv, qg, rg):
    """c0 = J b_0 on a grid of p^-1, q and r ``(nt, m, m)``, for
    b_0 = [[p^-1, -p^-1 q], [-q* p^-1, q* p^-1 q - r]].  On a t-varying
    grid with m in 2..4 the products p^-1 q, q* p^-1 and q* p^-1 q run on
    the real embeddings (``_embed``), E(q*) being E(q)^T, and are read
    back with ``_unembed``: equal to the complex products to rounding
    (about 1e-16 of the largest entry), not bit for bit.  A constant
    grid's one row, and any other m, takes the complex products.  c0's
    four blocks are written directly, J @ b_0 being the signed block swap
    [[q* p^-1, r - q* p^-1 q], [p^-1, -p^-1 q]]; the three products and
    the embeddings are released before the RK4 build runs."""
    nt, m = pinv.shape[:2]
    # each block keeps b_0's form and sign, then takes the swap's sign:
    # (-a) @ b and -(a @ b) can differ in the sign of a zero
    if nt > 1 and m in _EMBED_FACTORS:
        ep, eq = _embed(pinv.view(float)), _embed(np.ascontiguousarray(qg).view(float))
        qhp = eq.transpose(0, 2, 1) @ ep
        npq, nqp, qpq = -_unembed(ep @ eq), -_unembed(qhp), _unembed(qhp @ eq)
    else:
        qh = qg.conj().transpose(0, 2, 1)
        npq, nqp, qpq = -pinv @ qg, -qh @ pinv, qh @ pinv @ qg
    c0 = np.empty((nt, 2 * m, 2 * m), dtype=complex)
    c0[:, :m, :m] = -nqp
    c0[:, :m, m:] = -(qpq - rg)
    c0[:, m:, :m] = pinv
    c0[:, m:, m:] = npq
    return c0


def _kind(fam):
    """The build of a family's shooting systems and their size d (m, or 2m
    for a second-order family); anything else raises ``TypeError``."""
    if isinstance(fam, FirstOrderFamily):
        return _build_first_order, fam.m
    if isinstance(fam, SecondOrderFamily):
        return _build_second_order, 2 * fam.m
    raise TypeError(f"unsupported family type {type(fam).__name__}")


def _system(fam, s, steps):
    """The shooting system of ``fam`` at (s, steps), built at most once per
    family object: it is stored in the family's table and read from there
    by every later caller, both pipelines included.  A build that raises
    stores nothing, so it raises again on the next call."""
    require_count(steps, "steps", 1)
    build, _ = _kind(fam)
    key = (float(s), int(steps))
    system = fam._systems.get(key)
    if system is None:
        system = fam._systems[key] = build(fam, *key)
    return system


# ---------------------------------------------------------------------------
# Public building blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BvpOpts(FlowOpts):
    """Options of the BVP pipelines: the crossing engine's partition plus
    time steps and the half-width of the eigenvalue window, a finite
    positive number.  The parameter range is fixed at [0, 1]."""

    steps: int = 2048
    lambda_window: float = 1.0
    interval: ClassVar[tuple] = (0.0, 1.0)

    def __post_init__(self):
        super().__post_init__()
        require_count(self.steps, "steps", 1)
        require_positive(self.lambda_window, "lambda_window")


def transfer_matrix(fam, s, lam=0.0, steps=BvpOpts.steps):
    """Fundamental solution at t = T for one (s, lambda), lambda real.

    For a first-order family this is the m x m matrix with
    ``Gamma(0) = I``; for a second-order family, the 2m x 2m phase-space
    fundamental solution of the reduced Hamiltonian system.  A lambda with
    a nonzero imaginary part raises ``ValueError``.  A t-varying system of
    size 2 <= d <= 4 is integrated in real arithmetic (``_ShootingSystem``),
    which agrees with the complex products to rounding, not bit for bit.
    """
    return _system(fam, s, steps).propagate([lam])[0]


def _end_forms(fam, s):
    """The structure matrices at t = 0 and t = T: (j(s,0), j(s,T)) for a
    first-order family, (J, J) with the standard J for a second-order one."""
    if isinstance(fam, FirstOrderFamily):
        return tuple(_eval_grid(fam, "j", s, np.array([0.0, fam.T])))
    j = std_j(fam.m)
    return j, j


def transport_residual(fam, s, gamma):
    """Deviation of a fundamental solution, or the worst of a stack of them,
    from symplectic transport: max |Gamma* j(T) Gamma - j(0)| (first-order)
    or |Gamma* J Gamma - J|."""
    j0, jT = _end_forms(fam, s)
    return float(np.abs(np.swapaxes(gamma.conj(), -1, -2) @ jT @ gamma - j0).max())


def _boundary_form(fam, s):
    """The form matrix diag(-j(s,0), j(s,T)) of :func:`boundary_space`."""
    j0, jT = _end_forms(fam, s)
    return la.block_diag(-j0, jT)


def boundary_space(fam, s):
    """The boundary symplectic space the traces of solutions live in.

    First-order: (C^{2m}, diag(-j(s,0), j(s,T))).  Second-order:
    (C^{4m}, diag(-J, J)) with the standard J, independent of s.  Its form
    matrix is ``_boundary_form(fam, s)``, which ``mas_bvp`` compares across
    a batch before any check or splitting.
    """
    return make_space(_boundary_form(fam, s))


def graph_subspace(gamma):
    """The graph {(z, Gamma z)} as a subspace of the doubled space; a stack
    ``(..., d, d)`` of Gammas gives the stack of graphs."""
    gamma = np.asarray(gamma, dtype=complex)
    eye = np.broadcast_to(np.eye(gamma.shape[-1], dtype=complex), gamma.shape)
    return subspace_from_span(np.concatenate([eye, gamma], axis=-2))


def w_of_r(r, m=None):
    """The boundary condition Lagrangian W(R) ⊂ C^{4m} attached to a
    subspace R of position traces (x(0), x(T)) ∈ C^{2m}.

    W(R) consists of the boundary vectors (w0, x0, wT, xT) with positions
    (x0, xT) in R and momenta satisfying (w0, -wT) ⟂ R.  It is Lagrangian
    for the boundary form diag(-J, J) whatever R is; R = {0} gives Dirichlet
    conditions, R = C^{2m} Neumann-type, R = diagonal periodic-type.

    ``r`` may be a Subspace of C^{2m}, a spanning set (a frame matrix, or a
    single vector), or None for R = {0} (in which case ``m`` is required);
    an ``m`` below 1, not an integer, or contradicted by R raises ``ValueError``.
    """
    if m is not None:
        require_count(m, "m", 1)
    if r is None:
        if m is None:
            raise ValueError("R = {0} needs the block size m")
        r = np.zeros((2 * m, 0))
    rsub = r if isinstance(r, Subspace) else subspace_from_span(r)
    two_m = rsub.ambient_dim
    if two_m % 2 or m not in (None, two_m // 2):
        size = "C^{2m}" if m is None else f"C^{{2m}} = C^{2 * m}"
        raise ValueError(f"R must live in {size}, not C^{two_m}")
    mm = two_m // 2
    rho, sig = orthogonal_complement(rsub).frame, rsub.frame
    zr, zs = np.zeros((mm, rho.shape[1])), np.zeros((mm, sig.shape[1]))
    return subspace_from_span(np.block([[rho[:mm], zs], [zr, sig[:mm]],
                                        [-rho[mm:], zs], [zr, sig[mm:]]]))


# ---------------------------------------------------------------------------
# Eigenvalue localization by shooting
# ---------------------------------------------------------------------------

def _graph_detector(wperp, gammas):
    """Singular values, descending, of W_perp* @ orth[I; Gamma] for a stack
    ``(P, d, d)`` of Gammas, against one frame ``wperp`` ``(2d, d)`` or a
    stack ``(P, 2d, d)`` of them; returns ``(P, d)``.  They are the sines of
    the principal angles between graph(Gamma) and W, so the last is the
    detector and the number near 0 is dim(graph ∩ W)."""
    P, d, _ = gammas.shape
    graphs = np.empty((P, 2 * d, d), dtype=complex)
    graphs[:, :d] = np.eye(d)
    graphs[:, d:] = gammas
    q = np.linalg.qr(graphs)[0]
    return np.linalg.svd(np.swapaxes(wperp.conj(), -1, -2) @ q, compute_uv=False)


class _GammaEvaluator:
    """Chebyshev interpolant of Gamma(lambda) on a window, when certified.

    The transfer matrix is entire in lambda, so on a bounded window its
    Chebyshev coefficients decay superexponentially.  They are the DCT-I of
    the values at n Chebyshev-Lobatto nodes, n = ``nodes``, then 2n - 1 and
    4n - 3 (17, 33 and 65 in the detector); the nodes are nested, so a
    refinement propagates only its new, odd-index nodes and reuses every
    value it has.  Once the last five coefficients are below 1e-12 of the
    largest, ``coef`` (shape ``(n, d, d)``, in u = (2 lambda - hi - lo) /
    (hi - lo)) is a faithful stand-in for root *location*, and every root is
    still verified against the exactly integrated matrix.  Otherwise
    ``coef`` is None and the caller halves the window.
    """

    def __init__(self, system, lo, hi, nodes):
        self.coef = None
        n, vals = nodes, None
        for _ in range(3):
            x = ncheb.chebpts2(n)
            if vals is not None:
                x = x[1::2]  # the nodes not propagated yet
            new = system.propagate(0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
            if not np.all(np.isfinite(new)):
                raise NonFinite(f"transfer matrix overflows on the window ({lo:.6g}, {hi:.6g})")
            if vals is not None:
                old, vals = vals, np.empty((n,) + new.shape[1:], dtype=complex)
                vals[0::2], vals[1::2] = old, new
            else:
                vals = new
            coef = _dct1(vals)
            top = float(np.abs(coef).max())
            tail = float(np.abs(coef[-5:]).max())
            if top == 0.0 or tail <= 1e-12 * top:
                self.coef = coef
                break
            n = 2 * n - 1

    def certified(self):
        return self.coef is not None


def _dct1(vals):
    """Chebyshev coefficients of the interpolant through values at the
    ascending Lobatto nodes x_k = -cos(pi k / N), k = 0..N: the DCT-I
    c_j = 2/N sum'' f_k cos(j (N - k) pi / N), the end terms of the sum and
    c_0, c_N halved, as a cosine-matrix product (reduced mod 2N so that
    every cosine is taken of an argument in [0, 2 pi))."""
    n = len(vals) - 1
    coef = np.tensordot(_dct1_matrix(n), vals, axes=1) * (2.0 / n)
    coef[[0, -1]] *= 0.5
    return coef


@functools.cache  # one entry per node count: 17, 33 and 65 in the detector
def _dct1_matrix(n):
    """The cosine matrix of ``_dct1`` on n + 1 nodes, end columns halved;
    read-only, since every caller shares it."""
    w = np.concatenate([[0.5], np.ones(n - 1), [0.5]])
    jk = np.outer(np.arange(n + 1), np.arange(n, -1, -1)) % (2 * n)
    out = np.cos(jk * (np.pi / n)) * w
    out.flags.writeable = False
    return out


def _colleague_eigvals(f):
    """Finite eigenvalues u of the matrix polynomial P(u) = sum_k f[k] T_k(u),
    from its colleague pencil on v = (T_0 x, ..., T_{n-1} x), n = deg P: block
    rows u T_0 = T_1 and u T_k = (T_{k-1} + T_{k+1}) / 2, closed by
    P(u) x = 0 (Good, Q. J. Math. 12, 1961; Effenberger & Kressner, BIT 52,
    2012)."""
    n, d = len(f) - 1, f.shape[1]
    if n == 0:
        return np.empty(0, dtype=complex)
    a, b = (x.copy() for x in _colleague_scaffold(n, d))
    # F_n u T_{n-1} = (F_n T_{n-2} - sum_{k<n} F_k T_k) / 2, or F_1 u = -F_0
    c = 0.5 if n > 1 else 1.0
    a[-d:] = -c * np.hstack(f[:n])
    if n > 1:
        a[-d:, -2 * d:-d] += c * f[n]
    b[-d:, -d:] = f[n]
    u = la.eigvals(a, b)
    return u[np.isfinite(u)]


@functools.lru_cache(maxsize=16)  # each stock workload meets one or two (degree, d) pairs
def _colleague_scaffold(n, d):
    """The parts of ``_colleague_eigvals``' pencil (a, b) that depend only
    on the degree n and the size d: the block recurrence T (x) I_d and the
    identity, each (n d, n d); read-only, since every caller shares them.
    The cache is bounded because an entry grows as (n d)^2."""
    t = np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.full(n - 1, 0.5), -1)
    t[0, 1:2] = 1.0
    a = np.kron(t, np.eye(d)).astype(complex)
    b = np.eye(n * d, dtype=complex)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _gap_middle(x, lo, hi):
    """Middle of the widest gap that the points ``x`` leave in [lo, hi]."""
    ends = np.sort(np.concatenate([[lo, hi], x[(x > lo) & (x < hi)]]))
    i = int(np.argmax(np.diff(ends)))
    return 0.5 * (ends[i] + ends[i + 1])


def _certify_count(pencils):
    """One error or None per pencil ``(f, u)`` of a batch, all of one size d:
    ``RootCountMismatch`` unless the winding number of det P around the
    rectangle a < Re u < b, |Im u| < ``_STRIP`` equals the number of pencil
    eigenvalues ``u`` inside; a and b sit in the widest root-free gaps of
    [-1, -0.6] and [0.6, 1].  Every contour of a batch is the reference
    perimeter of n points (``_perimeter``) under x + iy -> a + (b - a) x + iy,
    n doubling from 64 until every step in arg det P is below pi/2 and
    within pi/4 of the trapezoid rule on the log-derivative tr(P^-1 P'), so
    that a step of 2 pi more is not taken for a small one.  Only unresolved
    contours double; they are evaluated together, as many at a time as keep
    the stacked arrays within ``_STACK_ENTRIES`` entries, the coefficients
    zero-padded to the top degree.  Roots are never edited."""
    errors = [None] * len(pencils)
    todo = [k for k, (f, _) in enumerate(pencils) if len(f) > 1]
    if not todo:
        return errors  # a constant F has no roots, and the pencil gave none
    ends, inside = [], []
    for k in todo:
        u = pencils[k][1]
        near = u.real[np.abs(u.imag) < 2.0 * _STRIP]
        a, b = _gap_middle(near, -1.0, -0.6), _gap_middle(near, 0.6, 1.0)
        ends.append((a, b))
        inside.append(np.count_nonzero((u.real > a) & (u.real < b) & (np.abs(u.imag) < _STRIP)))
    a, b = np.array(ends).T
    deg = max(len(pencils[k][0]) for k in todo) - 1
    d = pencils[todo[0]][0].shape[1]
    f = np.zeros((len(todo), deg + 1, d, 2 * d), dtype=complex)  # P, then P' with a zero top term
    for i, k in enumerate(todo):
        f[i, :len(pencils[k][0]), :, :d] = pencils[k][0]
    f[:, :-1, :, d:] = ncheb.chebder(f[..., :d], axis=1)
    f = f.reshape(len(todo), deg + 1, 2 * d * d)
    active = np.arange(len(todo))
    for n in 64 * 2 ** np.arange(9):
        ref = _perimeter(int(n))
        per = max(1, _STACK_ENTRIES // (n * (deg + 1 + 2 * d * d)))
        unresolved = []
        for i in range(0, len(active), per):
            chunk = active[i:i + per]
            z = a[chunk, None] + (b - a)[chunk, None] * ref.real + 1j * ref.imag
            done, windings = _windings(z, f[chunk], d)
            for j, winding in zip(chunk[done].tolist(), windings[done].tolist()):
                if winding != inside[j]:
                    errors[todo[j]] = RootCountMismatch(
                        f"det F winds {winding} times around ({a[j]:.6g}, {b[j]:.6g}) "
                        f"x (-{_STRIP}, {_STRIP})i, the pencil has {inside[j]} roots inside")
            unresolved.append(chunk[~done])
        active = np.concatenate(unresolved)
        if not len(active):
            return errors
    for j in active.tolist():
        errors[todo[j]] = RootCountMismatch(f"arg det F unresolved with {n} contour points")
    return errors


def _windings(z, f, d):
    """Which of the closed contours ``z`` ``(C, n)`` resolve arg det P, by
    ``_certify_count``'s tests, and the winding number of each, ``f``
    ``(C, deg + 1, 2 d^2)`` holding the Chebyshev coefficients of P and P'
    side by side.  A contour where det P is 0 at some point is unresolved."""
    both = (ncheb.chebvander(z, f.shape[1] - 1) @ f).reshape(z.shape + (d, 2 * d))
    det = np.linalg.det(both[..., :d])
    live = np.all(det != 0.0, axis=1)
    z, det, both = z[live], det[live], both[live]
    logder = np.trace(np.linalg.solve(both[..., :d], both[..., d:]), axis1=2, axis2=3)
    step = np.angle(np.roll(det, -1, axis=1) * det.conj())
    trapezoid = np.imag(0.5 * (logder + np.roll(logder, -1, axis=1)) * (np.roll(z, -1, axis=1) - z))
    done, windings = np.zeros(len(live), dtype=bool), np.zeros(len(live), dtype=int)
    done[live] = (np.all(np.abs(step) < 0.5 * np.pi, axis=1)
                  & np.all(np.abs(trapezoid - step) < 0.25 * np.pi, axis=1))
    windings[live] = np.rint(step.sum(axis=1) / (2.0 * np.pi))
    return done, windings


@functools.cache  # one entry per point count of the certificate's doubling schedule
def _perimeter(n):
    """n points x + iy counter-clockwise around [0, 1] x [-_STRIP, _STRIP]
    from 1 - i _STRIP, in equal steps from each corner: n // 16 up each
    vertical edge and half the rest along each horizontal one.  For n a
    multiple of 32 the corners and edge midpoints are points.  Read-only."""
    v = n // 16
    ys = np.linspace(-_STRIP, _STRIP, v, endpoint=False)
    xs = np.linspace(1.0, 0.0, n // 2 - v, endpoint=False)
    out = np.concatenate([1.0 + 1j * ys, xs + 1j * _STRIP, -1j * ys, (1.0 - xs) - 1j * _STRIP])
    out.flags.writeable = False
    return out


def _window_roots(system, wperp, lo, hi, nodes, pencils, splits=0):
    """Candidate roots lambda in [lo, hi] of det F, F = W_perp* [I; Gamma].

    On a certified window F is a matrix polynomial, F_k = W_perp*
    [delta_k0 I; C_k] with trailing F_k below 1e-14 of the largest dropped;
    its pencil eigenvalues u with |Re u| <= 1 and |Im u| <= ``_REAL`` give
    the candidates, at Re u.  Each pencil ``(f, u)`` is appended to
    ``pencils``, in window order, for the caller to certify
    (``_certify_count``).  A window whose fit does not certify by
    4 ``nodes`` - 3 nodes is halved, each half with its own fit.  A half
    keeps roots up to 1e-9 of its width past its edges, so a root on a
    shared edge is found from both sides and the caller merges it into one.
    """
    ev = _GammaEvaluator(system, lo, hi, nodes)
    if not ev.certified():
        if splits == _MAX_SPLITS:
            raise RootCountMismatch(f"no certified Chebyshev fit on ({lo:.6g}, {hi:.6g})")
        mid = 0.5 * (lo + hi)
        return (_window_roots(system, wperp, lo, mid, nodes, pencils, splits + 1)
                + _window_roots(system, wperp, mid, hi, nodes, pencils, splits + 1))
    d = system.d
    f = wperp[d:].conj().T @ ev.coef
    f[0] += wperp[:d].conj().T
    size = np.abs(f).max(axis=(1, 2))
    f = f[:np.flatnonzero(size >= 1e-14 * size.max())[-1] + 1]
    u = _colleague_eigvals(f)
    pencils.append((f, u))
    u = u[(np.abs(u.imag) <= _REAL) & (np.abs(u.real) <= 1.0 + 1e-9)]
    return list(0.5 * (hi + lo) + 0.5 * (hi - lo) * u.real)


def eigen_count(fam, s, w, window, steps=BvpOpts.steps):
    """Eigenvalues (with multiplicity) of the boundary value problem at
    parameter s inside a real window.

    An eigenvalue is a shooting parameter where the graph of the fundamental
    solution meets the boundary subspace W, a zero of det F for the Evans
    matrix F(lambda) = frame(W)^perp* @ [I; Gamma(lambda)].  ``w`` is W as
    every pipeline takes it: a Subspace, a spanning frame, or a path of
    either in s, read here at ``s``.  On the window, Gamma is replaced by
    its certified Chebyshev interpolant, which makes F a matrix polynomial;
    every root of it comes from one eigensolve of its colleague pencil, and
    a winding number of det F checks their count.  A window too wide to
    certify is halved until each piece is.  Every root is verified on the
    exactly integrated transfer matrix, and its multiplicity is the
    dimension of the intersection there.  This is the detector ``sf_bvp``
    runs on a whole engine batch, here on a batch of one s.

    Returns a sorted list of ``(lambda, multiplicity)`` pairs.

    Raises
    ------
    WindowBoundaryEigenvalue
        If the detector at a window endpoint is below the safety margin.
        The check is made here, on the exact propagator, before the count;
        the detector pass that ``sf_bvp`` runs does not make it.
    RootCountMismatch
        If the winding number disagrees with the pencil's count, a pencil
        root fails verification, or no piece of the window certifies.
    RootCluster
        If two distinct roots are closer than 10x the root tolerance.
    DimensionMismatch
        If W is not a d-dimensional subspace of C^{2d}, d the system size.
    NonFinite
        If the transfer matrix overflows at an end of the window.
    ValueError
        If the window is not finite or not ``lo < hi``.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError(f"window must be finite and non-empty, got {window}")
    wperp = orthogonal_complement(_boundary_condition(fam, w)(np.array([s]))).frame
    system = _system(fam, s, steps)
    ends = system.propagate([lo, hi])
    if not np.all(np.isfinite(ends)):
        raise NonFinite(f"transfer matrix overflows at the window ends ({lo:.6g}, {hi:.6g})")
    if _graph_detector(wperp, ends).min() < _ACCEPT:
        raise WindowBoundaryEigenvalue(
            f"detector at window endpoint(s) of ({lo:.6g}, {hi:.6g}) below margin"
        )
    return _eigen_count_system([(system, wperp)], (lo, hi))[0]


def _boundary_condition(fam, w):
    """W as every entry point reads it, a :func:`~maslovflow.core.as_path`
    path each of whose values must be a d-dimensional subspace of C^{2d}, d
    the family's system size (``DimensionMismatch``, before any build)."""
    _, d = _kind(fam)
    path = as_path(w, Subspace, subspace_from_span, "W")

    def checked(ss):
        ws = path(ss)
        if (ws.ambient_dim, ws.dim) != (2 * d, d):
            raise DimensionMismatch(f"boundary subspace of dimension {ws.dim} in "
                                    f"C^{ws.ambient_dim}, not {d} in C^{2 * d}")
        return ws

    return checked


def _eigen_count_system(batch, window):
    """``eigen_count`` past its endpoint check, for a batch of s: ``batch``
    yields a ``(system, wperp)`` pair per s, a built system and the frame of
    W's complement, and ``window`` ``(lo, hi)`` is checked finite and
    non-empty.  Returns one sorted ``(lambda, multiplicity)`` list per s.

    Each s gets its own fit, halvings and pencil eigensolves; then one
    ``_certify_count`` call certifies every pencil of the batch, and one
    ``_graph_detector`` stack verifies every root on its s's exact
    propagator, before the results are split back per s for multiplicity
    and merging.  The batch raises what a loop over its s would: the error
    of the first failing s, and within that s the first of drawing its pair
    (the build), the fit, the certificate, the verification and the cluster
    check.  The s after it are neither certified nor verified.
    """
    lo, hi = window
    tau_root = 1e-9 * (hi - lo)
    pairs, found, pencils, starts, failure = [], [], [], [], None
    try:
        for system, wperp in batch:
            pairs.append((system, wperp))
            starts.append(len(pencils))
            roots = np.array(_window_roots(system, wperp, lo, hi, 17, pencils))
            found.append(roots[(lo <= roots) & (roots <= hi)])
    except Exception as exc:  # whatever s fails, raised below once the s before it are done
        failure = exc
    errors = _certify_count(pencils)
    first = next((k for k, error in enumerate(errors) if error is not None), None)
    if first is not None:
        failure = errors[first]
        del found[bisect.bisect_right(starts, first) - 1:]
    counts, svs = [len(roots) for roots in found], [None] * len(found)
    if any(counts):
        gammas = np.concatenate([pairs[i][0].propagate(roots) for i, roots in enumerate(found)
                                 if len(roots)])
        frames = np.repeat(np.stack([wperp for _, wperp in pairs[:len(found)]]), counts, axis=0)
        svs = np.split(_graph_detector(frames, gammas), np.cumsum(counts)[:-1])
    out = []
    for roots, sv in zip(found, svs):
        merged = []
        out.append(merged)
        if not len(roots):
            continue
        worst = int(sv[:, -1].argmax())
        if sv[worst, -1] >= _ACCEPT:
            raise RootCountMismatch(f"pencil root {roots[worst]:.12g} fails verification "
                                    f"on the exact propagator (detector {sv[worst, -1]:.3g})")
        mults = np.count_nonzero(sv <= _SIN_RANK, axis=1)
        for lam, mult in sorted(zip(roots.tolist(), mults.tolist())):
            if merged and lam - merged[-1][0] < 2.0 * tau_root:
                continue  # one root, from a double eigenvalue or two pieces
            if merged and lam - merged[-1][0] < 10.0 * tau_root:
                raise RootCluster(
                    f"roots {merged[-1][0]:.12g} and {lam:.12g} closer than 10x root tolerance; "
                    "use a smaller window"
                )
            merged.append((lam, mult))
    if failure is not None:
        raise failure
    return out


# ---------------------------------------------------------------------------
# The two index pipelines
# ---------------------------------------------------------------------------

def sf_bvp(fam, w_path, opts=None):
    """Spectral flow of the boundary value family through 0.

    For each sampled s one detector pass localizes the eigenvalues by
    shooting inside the window ``(-R, R)`` with ``R = opts.lambda_window``,
    and only those with ``|lambda| <= 0.6 R`` are kept: that horizon keeps
    every kept root 0.4 R inside the window, so an eigenvalue on the window
    edge is never counted and needs no check.  The fits and eigensolves run
    per s, while one winding certificate and one verification stack serve
    each engine batch, and the batch raises what the first failing s would.
    The resulting coordinate lists feed the same adaptive crossing engine
    used everywhere else.

    ``w_path`` is a Subspace, a spanning frame, or a path of either in s;
    W is checked and its complement taken once per engine batch, before
    its builds, by one SVD when W is one member for it (``as_path``).  Returns
    ``(integer, CrossingReport)``; the report's samples double as the
    eigenvalue river, its coordinate ``"lambda"``.
    """
    opts = opts or BvpOpts()
    wpath = _boundary_condition(fam, w_path)
    r0 = float(opts.lambda_window)

    def sampler(ss):
        wperp = orthogonal_complement(wpath(ss))
        # lazy, so that a build that raises stops the batch at its s
        batch = ((_system(fam, s, opts.steps), member(wperp, i).frame) for i, s in enumerate(ss))
        out = []
        for roots in _eigen_count_system(batch, (-r0, r0)):
            vals = [lam for lam, mult in roots for _ in range(mult)]
            out.append(np.array([v for v in vals if abs(v) <= 0.6 * r0], dtype=float))
        return out

    total, report = flow_from_sampler(sampler, opts.interval, opts, scale=r0)
    report.coordinate = "lambda"
    return total, report


def mas_bvp(fam, w_path, opts=None):
    """Maslov index of the boundary pair path s -> (graph(Gamma_s(T)), W_s).

    The graph of the fundamental solution at lambda = 0 and the boundary
    condition subspace (``w_path`` as ``sf_bvp`` takes it) are compared
    inside the boundary symplectic space; the report's extras carry the
    worst symplectic-transport residual seen, alongside the
    isotropy/unit-circle residuals from the Maslov engine.  The boundary
    form, the graph and W are :func:`~maslovflow.core.as_path` parts, each
    one member over a batch where its values agree and a stack otherwise.
    """
    opts = opts or BvpOpts()
    stats = {"transport_residual": 0.0}

    def graph(s):
        g = transfer_matrix(fam, s, 0.0, opts.steps)
        stats["transport_residual"] = max(
            stats["transport_residual"], transport_residual(fam, s, g)
        )
        return graph_subspace(g)

    parts = (_boundary_condition(fam, w_path),
             as_path(lambda s: _boundary_form(fam, s), SymplecticSpace, make_space,
                     "the boundary form"),
             as_path(graph, Subspace, subspace_from_span, "the graph"))

    def sampler(ss):  # W first, so that it is checked before any build
        w, form, graphs = (part(ss) for part in parts)
        return form, graphs, w

    path = PairPath(sampler=sampler, interval=opts.interval)
    total, report = maslov_index(path, opts)
    report.extras.update(stats)
    return total, report


def maslov_long(fam, s, w, opts=None):
    """The Maslov-type index i_W of the t-path of solution graphs.

    For a second-order family at fixed s, runs the Maslov index of
    ``t -> (graph(Gamma_s(t)), W)`` in (C^{4m}, diag(-J, J)), W being ``w``
    (taken as ``eigen_count`` takes it, at ``s``), over the whole
    interval [0, T] (the appendix endpoint convention absorbs the maximal
    intersection at t = 0).  t snaps to the grid of one checkpointed
    propagation, which the crossing engine tolerates since only window
    counts at sampled points enter the index.  While some checkpoint is
    further than ``_TRANSPORT_MARGIN`` from symplectic transport,
    max_k |Gamma_k* J Gamma_k - J|, the steps are doubled, at most
    ``_TRANSPORT_REFINEMENTS`` times; a residual still over it raises
    ``TransportBudgetExceeded``.  The boundary space and W hold along the
    whole path and go to :func:`maslov_index` as single members; the graphs
    of a batch of t are one stack.
    """
    if not isinstance(fam, SecondOrderFamily):
        raise TypeError("maslov_long expects a SecondOrderFamily")
    opts = opts or BvpOpts()
    wsub = _boundary_condition(fam, w)(np.array([s]))
    bspace = boundary_space(fam, s)
    steps = int(opts.steps)
    for refinement in range(_TRANSPORT_REFINEMENTS + 1):
        system = _system(fam, s, steps)
        gammas = system.propagate([0.0], checkpoints=True)[:, 0]
        resid = transport_residual(fam, s, gammas)
        if resid <= _TRANSPORT_MARGIN:
            break
        if refinement == _TRANSPORT_REFINEMENTS:
            raise TransportBudgetExceeded(
                f"maslov_long at s={s:.6g}: transport residual {resid:.3g} at {steps} steps "
                f"exceeds {_TRANSPORT_MARGIN:g}")
        steps *= 2

    def sampler(ts):
        k = np.clip(np.rint(ts / system.h).astype(int), 0, system.steps)
        return bspace, graph_subspace(gammas[k]), wsub

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

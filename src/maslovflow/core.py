"""Linear symplectic structures on complex coordinate spaces.

A space here is C^n equipped with a sesquilinear symplectic form

    omega(x, y) = <J x, y> = y* J x,

where J is an invertible skew-Hermitian matrix (``J* = -J``) and the form is
linear in the first slot, conjugate linear in the second.  Nothing forces
``J^2 = -I``: letting J vary freely is the whole point, since it models the
finite-dimensional shadow of symplectic forms that are merely weakly
non-degenerate.

The operator ``K = -iJ`` is Hermitian and invertible, and its positive and
negative eigenspaces split the space as ``H = H+ (+) H-`` with ``-i omega``
positive definite on ``H+`` and negative definite on ``H-``.  Lagrangian
subspaces exist precisely when the two halves have equal dimension, and every
Lagrangian is the graph of a unitary ``H+ -> H-`` once both halves carry
frames orthonormal for the metrics ``h_pm = (-+) i omega``.  The unitary
picture is what makes integer-valued indices computable, so most of this
module exists to produce it reliably.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as la

from .errors import (
    BadMetric,
    Degenerate,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotLagrangian,
    NotSkewHermitian,
    UnbalancedSplitting,
)

# Tolerances used throughout the package.  Rank decisions are relative to the
# largest singular value; symmetry and orthonormality checks are relative to
# the matrix norm with an absolute floor.
TAU_RANK = 1e-8
TAU_SYM = 1e-10
TAU_UNIT = 1e-8


def _as_complex_matrix(a):
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {m.ndim}")
    return m


@dataclass(frozen=True)
class SymplecticSpace:
    """C^n with a fixed invertible skew-Hermitian form matrix ``form``."""

    form: np.ndarray

    @property
    def dim(self):
        return self.form.shape[-1]

    def omega(self, x, y):
        """Evaluate omega(x, y) = y* J x on vectors or frames.

        For matrices X (n x p) and Y (n x q) the result is the q x p array
        with entries omega(x_j, y_i) = y_i* J x_j.  A space whose ``form``
        is a stack ``(..., n, n)`` pairs it with frame stacks ``(..., n, p)``
        and ``(..., n, q)`` member by member.
        """
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex).conj()
        return (y.swapaxes(-1, -2) if y.ndim > 1 else y) @ (self.form @ x)

    def k_operator(self):
        """K = -iJ, which defines the canonical splitting; exactly Hermitian
        because ``form`` is exactly skew (see :func:`make_space`)."""
        return -1j * self.form


def make_space(j):
    """Build a :class:`SymplecticSpace` from a form matrix.

    Parameters
    ----------
    j : array_like
        Square complex matrix; must be skew-Hermitian and invertible.

    Returns
    -------
    SymplecticSpace

    Raises
    ------
    NotSkewHermitian
        If ``j* != -j`` beyond tolerance.
    Degenerate
        If ``j`` is numerically singular.
    """
    j = np.asarray(j, dtype=complex)
    if j.ndim != 2:
        raise DimensionMismatch(f"form matrix must be square, got shape {j.shape}")
    form = require_hermitian(j, "form", NotSkewHermitian, sign=-1)
    require_nonsingular(la.svdvals(j), Degenerate, "form")
    form.flags.writeable = False
    return SymplecticSpace(form=form)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace stored as an orthonormal frame (columns), or a
    stack of subspaces stored as a frame stack ``(..., n, k)``."""

    frame: np.ndarray

    @property
    def dim(self):
        return self.frame.shape[-1]

    @property
    def ambient_dim(self):
        return self.frame.shape[-2]


def subspace_from_span(vectors):
    """Orthonormalize a spanning set into a :class:`Subspace`.

    Rank decisions use column-pivoted QR with the relative threshold
    ``TAU_RANK``; dependent columns are dropped, so the input may be
    redundant.
    """
    a = _as_complex_matrix(vectors)
    if a.shape[1] == 0:
        return Subspace(frame=np.zeros((a.shape[0], 0), dtype=complex))
    if not np.all(np.isfinite(a)):
        raise NonFinite("spanning set holds a non-finite entry")
    q, r, _ = la.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > TAU_RANK * diag[0]))
    q = q[:, :rank]
    q.flags.writeable = False
    return Subspace(frame=q)


def orthogonal_complement(sub):
    """Orthonormal frame for the Euclidean complement of a subspace."""
    n = sub.ambient_dim
    if sub.dim == 0:
        return Subspace(frame=np.eye(n, dtype=complex))
    u, s, _ = la.svd(sub.frame, full_matrices=True)
    comp = u[:, sub.dim:]
    comp.flags.writeable = False
    return Subspace(frame=comp)


def intersection_dim(a, b):
    """dim(a ∩ b) from principal angles (cosines within TAU_RANK of 1)."""
    if a.dim == 0 or b.dim == 0:
        return 0
    sigma = la.svdvals(a.frame.conj().T @ b.frame)
    return int(np.count_nonzero(sigma >= 1.0 - TAU_RANK))


def equal_subspaces(a, b):
    return a.dim == b.dim and intersection_dim(a, b) == a.dim


def annihilator(space, sub):
    """The omega-annihilator ``{y : omega(x, y) = 0 for all x in sub}``.

    Computed as the kernel of ``F* J`` for a frame F of ``sub``; since the
    form matrix is skew-Hermitian this kernel equals the kernel of ``F* J*``.
    """
    n = space.dim
    if sub.ambient_dim != n:
        raise DimensionMismatch("subspace does not live in this space")
    if sub.dim == 0:
        return Subspace(frame=np.eye(n, dtype=complex))
    m = sub.frame.conj().T @ space.form
    _, s, vh = la.svd(m)
    rank = int(np.sum(s > TAU_RANK * (s[0] if s.size else 1.0)))
    ann = vh.conj().T[:, rank:]
    ann.flags.writeable = False
    return Subspace(frame=ann)


class SubspaceClass(Enum):
    ISOTROPIC = "isotropic"
    COISOTROPIC = "coisotropic"
    LAGRANGIAN = "lagrangian"
    GENERAL = "general"


def classify(space, sub):
    """Classify a subspace as isotropic / coisotropic / Lagrangian / general
    relative to its omega-annihilator."""
    ann = annihilator(space, sub)
    inside = intersection_dim(sub, ann) == sub.dim  # sub ⊆ ann
    outside = intersection_dim(ann, sub) == ann.dim  # ann ⊆ sub
    if inside and outside:
        return SubspaceClass.LAGRANGIAN
    if inside:
        return SubspaceClass.ISOTROPIC
    if outside:
        return SubspaceClass.COISOTROPIC
    return SubspaceClass.GENERAL


def isotropy_residual(space, sub):
    """max |omega(f_i, f_j)| over an orthonormal frame of the subspace (over
    every member of a stack); raises DimensionMismatch when the subspace
    does not live in the space."""
    if sub.ambient_dim != space.dim:
        raise DimensionMismatch(f"a subspace of C^{sub.ambient_dim} in a space of "
                                f"dimension {space.dim}")
    if sub.dim == 0:
        return 0.0
    return float(np.abs(space.omega(sub.frame, sub.frame)).max())


@dataclass(frozen=True)
class PairIndex:
    dim_intersection: int
    codim_sum: int

    @property
    def index(self):
        return self.dim_intersection - self.codim_sum


def pair_index(space, lam, mu):
    """Intersection dimension, codimension of the sum, and Fredholm index of
    a pair of subspaces.

    The two dimensions are computed independently (principal angles for the
    intersection, a rank computation for the sum), so ``index == 0`` for a
    Lagrangian pair is a genuine numerical statement rather than an identity
    of the code.
    """
    n = space.dim
    if lam.ambient_dim != n or mu.ambient_dim != n:
        raise DimensionMismatch("subspaces do not live in this space")
    dim_int = intersection_dim(lam, mu)
    if lam.dim + mu.dim == 0:
        dim_sum = 0
    else:
        sv = la.svdvals(np.hstack([lam.frame, mu.frame]))
        dim_sum = int(np.sum(sv > TAU_RANK * sv[0]))
    return PairIndex(dim_intersection=dim_int, codim_sum=n - dim_sum)


# ---------------------------------------------------------------------------
# Splittings and graph representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Splitting:
    """A decomposition H = H+ (+) H- adapted to the form.

    ``hframe_plus`` and ``hframe_minus`` are frames of H+ and H- that are
    orthonormal for the metrics ``h_+ = -i omega`` and ``h_- = +i omega``;
    the splitting of a stack of spaces holds frame stacks ``(..., n, k)``.
    """

    hframe_plus: np.ndarray
    hframe_minus: np.ndarray

    @property
    def balanced(self):
        return self.hframe_plus.shape[-1] == self.hframe_minus.shape[-1]


def _h_orthonormalize(frame, gram):
    # Cholesky of the (Hermitian positive definite) metric Gram matrix turns
    # the frame into an h-orthonormal one.
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    try:
        lo = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise BadMetric(f"metric Gram matrix is not positive definite: {exc}") from exc
    return frame @ np.linalg.inv(lo.conj().swapaxes(-1, -2))


def make_splitting(space, metric=None):
    """Split the space by the sign of ``K = -iJ`` (or of ``K`` relative to a
    supplied metric).

    Parameters
    ----------
    space : SymplecticSpace
        Its ``form`` may be a stack ``(..., n, n)``; every member is split
        by its own eigendecomposition, bit for bit as if split alone.
    metric : array_like, optional
        Hermitian positive definite matrix G.  When given, the splitting is
        taken from the generalized eigenproblem ``K v = theta G v``; positive
        and negative theta play the role of the canonical eigenvalue signs.
        Index computations must not depend on this choice, and tests check
        that they do not.

    Returns
    -------
    Splitting

    Raises
    ------
    UnbalancedSplitting
        If the members of a stack have different signatures, which leaves
        some member without Lagrangians.
    """
    n = space.dim
    k = space.k_operator()
    if metric is not None:
        metric = np.asarray(metric, dtype=complex)
        if metric.shape != (n, n):
            raise DimensionMismatch(f"metric must be {n} x {n}, got {metric.shape}")
        metric = require_hermitian(metric, "metric", BadMetric)
        try:
            la.cholesky(metric)
        except la.LinAlgError as exc:
            raise BadMetric("metric is not positive definite") from exc
    # SciPy's eigh, one member at a time: the eigenvector gauge it picks is
    # what random families are planted in, so it must not depend on stacking.
    theta = np.empty(k.shape[:-1])
    vecs = np.empty(k.shape, dtype=complex)
    for i in np.ndindex(k.shape[:-2]):
        theta[i], vecs[i] = la.eigh(k[i], metric)
    require_nonsingular(np.abs(theta), Degenerate, "K = -iJ (the form)")
    # eigenvalues ascend, so the negative ones lead every member
    n_minus = np.count_nonzero(theta < 0, axis=-1)
    if np.any(n_minus != n_minus.flat[0]):
        raise UnbalancedSplitting("the signature of K = -iJ changes across the stack")
    fm, fp = np.split(vecs, [int(n_minus.flat[0])], axis=-1)
    return Splitting(
        hframe_plus=_h_orthonormalize(fp, -1j * space.omega(fp, fp)),
        hframe_minus=_h_orthonormalize(fm, 1j * space.omega(fm, fm)),
    )


def graph_rep(splitting, lam):
    """Represent a Lagrangian subspace as the graph of a unitary.

    Returns the k x k unitary U, in the splitting's h-orthonormal frames,
    whose graph ``hframe_plus + hframe_minus @ U`` spans ``lam``.  A
    splitting and subspace of stacks give the stack of unitaries.

    Raises
    ------
    UnbalancedSplitting
        If dim H+ != dim H-, in which case no Lagrangians exist at all.
    NotLagrangian
        If the subspace has the wrong dimension, projects degenerately onto
        H+, or the resulting matrix fails its unitarity residual.
    """
    k = splitting.hframe_plus.shape[-1]
    if not splitting.balanced:
        raise UnbalancedSplitting(
            f"splitting has dims ({k}, {splitting.hframe_minus.shape[-1]}); "
            "no Lagrangian subspaces exist"
        )
    if lam.dim != k:
        raise NotLagrangian(f"subspace has dim {lam.dim}, Lagrangians have dim {k}")
    basis = np.concatenate([splitting.hframe_plus, splitting.hframe_minus], axis=-1)
    coords = np.linalg.solve(basis, lam.frame)
    a, b = coords[..., :k, :], coords[..., k:, :]
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size and not np.all(sv[..., -1] > 1e-10 * np.maximum(1.0, sv[..., 0])):
        raise NotLagrangian("subspace projects degenerately onto the positive half")
    u = b @ np.linalg.inv(a)
    require_unitary(u, NotLagrangian, "graph matrix of a non-Lagrangian subspace")
    return u


def pair_unitary(splitting, lam, mu):
    """The unitary ``W = U V^{-1}`` comparing two Lagrangians.

    The kernel of ``W - I`` has the same dimension as ``lam ∩ mu``, and the
    spectrum of W does not depend on the frame choices inside the splitting,
    which is what makes eigenvalue-counting arguments well posed.
    """
    u = graph_rep(splitting, lam)
    v = graph_rep(splitting, mu)
    return u @ v.conj().swapaxes(-1, -2)


def normalize_metric(space):
    """The canonical strong form equivalent to this one.

    Returns a pair ``(G, Jprime)`` with G Hermitian positive definite,
    ``Jprime`` a complex structure (``Jprime^2 = -I``) that is G-skew, and
    ``G @ Jprime`` equal to the original form matrix, so the symplectic form
    is unchanged while the inner product absorbs the weakness.
    """
    theta, vecs = la.eigh(space.k_operator())
    require_nonsingular(np.abs(theta), Degenerate, "form")
    g = (vecs * np.abs(theta)) @ vecs.conj().T
    jprime = 1j * (vecs * np.sign(theta)) @ vecs.conj().T
    g = 0.5 * (g + g.conj().T)
    return g, jprime


# ---------------------------------------------------------------------------
# Direct sums with a flipped second factor
# ---------------------------------------------------------------------------

def flip(space):
    """The same coordinate space with the negated form."""
    return make_space(-space.form)


def boxplus(space1, space2):
    """Direct sum carrying ``omega_1 (+) (-omega_2)``: the natural home for
    comparing two Lagrangians as a single one against the diagonal."""
    n1, n2 = space1.dim, space2.dim
    j = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    j[:n1, :n1] = space1.form
    j[n1:, n1:] = -space2.form
    return make_space(j)


def boxplus_subspace(lam, mu):
    """lam x mu inside the direct sum."""
    n1, n2 = lam.ambient_dim, mu.ambient_dim
    f = np.zeros((n1 + n2, lam.dim + mu.dim), dtype=complex)
    f[:n1, : lam.dim] = lam.frame
    f[n1:, lam.dim:] = mu.frame
    return Subspace(frame=f)


def diagonal_subspace(n):
    """The diagonal {(x, x)} in C^n (+) C^n."""
    f = np.vstack([np.eye(n, dtype=complex), np.eye(n, dtype=complex)]) / np.sqrt(2.0)
    return Subspace(frame=f)


def require_hermitian(a, name="matrix", exc=NotHermitian, sign=1):
    """Validate Hermitian symmetry (``sign=1``) or skew-Hermitian symmetry
    (``sign=-1``) of a matrix, or of every matrix in a stack ``(..., n, n)``,
    within tolerance, raising ``exc`` otherwise (a NaN entry fails), and
    return the exactly (skew-)symmetrized representative.  Anything that is
    not a square matrix or a stack of them raises ``DimensionMismatch``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    ah = (a if sign > 0 else -a).conj().swapaxes(-1, -2)
    scale = max(1.0, float(np.abs(a).max()))
    resid = float(np.abs(a - ah).max())
    if not resid <= TAU_SYM * scale:
        op = "-" if sign > 0 else "+"
        raise exc(f"{name} residual |A {op} A*| = {resid:.3e} exceeds {TAU_SYM * scale:.3e}")
    return 0.5 * (a + ah)


def require_unitary(u, exc, name):
    """Raise ``exc`` when ``max |u* u - I|`` over a matrix, or over every
    matrix in a stack ``(..., n, n)``, exceeds TAU_UNIT or is NaN; a 0 x 0
    matrix passes."""
    u = np.asarray(u)
    resid = (float(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max())
             if u.size else 0.0)
    if not resid <= TAU_UNIT:
        raise exc(f"{name} is not unitary (residual {resid:.3e} exceeds {TAU_UNIT:.3e})")


def stacked(arrays, exc, what):
    """The arrays of one engine batch as one stack; raise ``exc`` naming
    ``what`` when their shapes differ."""
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise exc(f"{what} changes shape along the path: {sorted(shapes)}")
    return np.stack(arrays)


def as_path(value, cls, build):
    """``value`` as a function of s returning a ``cls``: a ``cls``, what
    ``build`` turns into one, or a callable of s returning either."""
    def coerce(v):
        return v if isinstance(v, cls) else build(v)

    if callable(value):
        return lambda s: coerce(value(s))
    fixed = coerce(value)
    return lambda s: fixed


def require_nonsingular(sv, exc, name):
    """Raise ``exc`` when a matrix is numerically singular, that is when
    sigma_min <= 1e-12 sigma_max.

    ``sv`` holds its singular values along the last axis (the eigenvalue
    moduli of a Hermitian matrix serve as well); with more axes it describes
    a stack of matrices, and one singular member is enough to raise.  A NaN
    singular value counts as singular.
    """
    if not np.all(sv.min(axis=-1) > 1e-12 * sv.max(axis=-1)):
        raise exc(f"{name} is numerically singular (sigma_min <= 1e-12 sigma_max)")


def require_count(value, name, least, exc=ValueError):
    """Raise ``exc`` unless ``value`` is an integer (not a bool) of at least
    ``least``: 4.0 and True are refused, not read as 4 and 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise exc(f"{name} must be an integer of at least {least}, got {value!r}")

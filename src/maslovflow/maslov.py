"""Maslov indices for paths of Lagrangian pairs under varying forms.

A path here is a map ``s -> (space_s, lambda_s, mu_s)`` where the symplectic
form itself may move with s.  Writing both Lagrangians as graphs of unitaries
``U_s, V_s : H+_s -> H-_s`` relative to the sign splitting of ``K_s = -iJ_s``,
the index is the spectral flow of the comparison unitaries ``W_s = U_s
V_s^{-1}`` through 1 on the unit circle, co-oriented upward (an eigenphase
increasing through 0 counts +1):

    Mas{lambda, mu} = flow of s -> U_s V_s^{-1}.

The spectrum of ``W_s`` does not depend on any frame choices, which is what
lets an adaptive sampler make sense of it.  The kernel of ``W_s - I`` matches
``lambda_s ∩ mu_s`` dimension for dimension, so crossings of 1 are exactly
the parameter values where the pair touches.

The crossing engine asks for a batch of s at a time, and a path answers a
whole batch: :attr:`PairPath.sampler` maps a 1-D array of s to a form and two
frames, each either one member that holds at every s of the batch or a stack
with one member per s.  :func:`maslov_index` broadcasts the splitting, the
graph unitaries and the eigenphases over the batch, one stacked call each,
so a constant form is split once per batch; an s gets the same eigenphases
in any batch.

Several equivalent formulas are implemented independently (a block unitary,
direct sums against the diagonal, flipped forms) because their agreement is
the cheapest interesting consistency check the theory offers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as la

from . import core
from .core import (
    Subspace,
    boxplus,
    boxplus_subspace,
    diagonal_subspace,
    flip,
    graph_rep,
    isotropy_residual,
    make_space,
    make_space_stack,
    make_splitting,
    subspace_from_span,
)
from .errors import (
    Degenerate,
    DimensionMismatch,
    NonUnitaryGenerator,
    NotLagrangianReal,
    NotSkewHermitian,
)
from .flow import eigenphases, flow_from_sampler, unit_circle_residual


@dataclass
class PairPath:
    """A path of Lagrangian pairs: s -> (space, lambda, mu) on an interval.

    ``sampler`` maps a 1-D array of s to ``(space, lam, mu)``, a
    :class:`~maslovflow.core.SymplecticSpace` and two
    :class:`~maslovflow.core.Subspace`.  Each of the three is either one
    member (a form ``(n, n)`` or a frame ``(n, k)``), which holds at every s
    of the array, or a stack (``(S, n, n)`` or ``(S, n, k)``) with member i
    at the i-th s.  It must be deterministic, and give an s the same members
    in any array.  Use :meth:`from_parts` to build one from constant or
    callable pieces (matrices are accepted wherever spaces/subspaces are).
    """

    sampler: Callable[[np.ndarray], tuple]
    interval: tuple

    @staticmethod
    def from_parts(j, lam, mu, interval):
        """The path of a form and two subspaces, each constant or a callable
        of one s, through :func:`~maslovflow.core.as_path`: a constant part,
        or a callable one whose values agree over the batch, is one member,
        any other is stacked, a change of shape raising ``DimensionMismatch``
        (the form) or ``NotLagrangian`` (lambda or mu)."""
        parts = (core.as_path(j, core.SymplecticSpace, make_space, "the form"),
                 core.as_path(lam, Subspace, subspace_from_span, "lambda"),
                 core.as_path(mu, Subspace, subspace_from_span, "mu"))
        return PairPath(sampler=lambda ss: tuple(part(ss) for part in parts),
                        interval=tuple(interval))

    def _mapped(self, transform):
        """The path ss -> transform(ss, space, lambda, mu) on the same interval."""
        base = self.sampler
        return PairPath(sampler=lambda ss: transform(ss, *base(ss)), interval=self.interval)

    def swapped(self):
        """The path s -> (H, mu, lambda): same form, pair order reversed.

        The comparison unitary becomes the adjoint, so the index of the
        swapped path complements the original one up to the endpoint
        intersection dimensions rather than repeating it.
        """
        return self._mapped(lambda ss, space, lam, mu: (space, mu, lam))

    def flipped_swapped(self):
        """The path s -> ((H, -omega), mu, lambda)."""
        return self._mapped(lambda ss, space, lam, mu: (flip(space), mu, lam))

    def boxplus_diagonal(self):
        """The path s -> (H (+) H flipped, lambda x mu, diagonal)."""
        return self._mapped(lambda ss, space, lam, mu: (
            boxplus(space, space), boxplus_subspace(lam, mu), diagonal_subspace(space.dim)))

    def pushforward(self, l):
        """Transport the whole path by an invertible map (constant or
        callable in s): the form becomes L^{-*} J L^{-1} and subspaces move
        by L, which changes nothing about the index."""
        lfun = core.as_path(l, np.ndarray, np.asarray, "L")

        def transform(ss, space, lam, mu):
            lmat = lfun(ss)
            linv = np.linalg.inv(lmat)
            jnew = linv.conj().swapaxes(-1, -2) @ space.form @ linv
            return (make_space_stack(jnew),
                    subspace_from_span(lmat @ lam.frame),
                    subspace_from_span(lmat @ mu.frame))

        return self._mapped(transform)


def _sample(path, ss):
    """``path.sampler(ss)``, each part one member or a stack of ``len(ss)``
    (``DimensionMismatch``, naming the part, otherwise)."""
    parts = path.sampler(ss)
    for what, x in zip(("the form", "lambda", "mu"), parts):
        lead = core._raw(x).shape[:-2]
        if lead not in ((), (len(ss),)):
            raise DimensionMismatch(f"{what} is a stack of shape {lead} for {len(ss)} values of s")
    return parts


def maslov_index(path, opts=None, metric=None):
    """Maslov index of a path of Lagrangian pairs.

    The engine hands the sampler a batch of s, and ``path.sampler`` is
    called once per batch.  The splitting, both graph unitaries, the
    comparison unitary W = U V* and its phases come from one call each,
    broadcast over the batch: a part that holds at every s (a constant
    form, say) is one member, so a constant form costs one eigendecomposition
    per batch.  Every s gets the coordinates it would get alone.

    Parameters
    ----------
    path : PairPath
    opts : FlowOpts, optional
    metric : array_like, optional
        Alternative positive metric defining the splitting; the result must
        not depend on it (and tests hold us to that).

    Returns
    -------
    (int, CrossingReport)
        The report's ``extras`` carry the worst isotropy and unit-circle
        residuals seen along the path.

    Raises
    ------
    DimensionMismatch, NotLagrangian
        If the form, or the frame of lambda or mu, of a :meth:`PairPath.from_parts`
        path changes shape inside one batch of s, or (``DimensionMismatch``) a
        sampler's stack is not as long as its batch.
    """
    stats = {"isotropy_residual": 0.0, "unit_circle_residual": 0.0}

    def sampler(ss):
        space, lam, mu = _sample(path, ss)
        stats["isotropy_residual"] = max(
            stats["isotropy_residual"], isotropy_residual(space, lam), isotropy_residual(space, mu)
        )
        splitting = make_splitting(space, metric=metric)
        u = graph_rep(splitting, lam)
        v = graph_rep(splitting, mu)
        w = u @ v.conj().swapaxes(-1, -2)
        stats["unit_circle_residual"] = max(stats["unit_circle_residual"], unit_circle_residual(w))
        return np.broadcast_to(eigenphases(w), (len(ss), w.shape[-1]))

    total, report = flow_from_sampler(sampler, path.interval, opts, circular=True)
    report.extras.update(stats)
    return total, report


def maslov_index_block(path, opts=None):
    """Same index from the block unitary  [[0, U], [V*, 0]].

    The block matrix squares to diag(U V*, V* U), so its eigenphases are the
    half-phases of the comparison unitary together with their shifts by pi;
    only the first group crosses 1, and it does so exactly when the pair
    touches.  This shares no counting code path with the product formula
    beyond the generic engine; the block unitaries of a batch are one stack.
    """

    def block_phases(ss):
        space, lam, mu = _sample(path, ss)
        splitting = make_splitting(space)
        u = graph_rep(splitting, lam)
        v = graph_rep(splitting, mu)
        k = u.shape[-1]
        block = np.zeros((len(ss), 2 * k, 2 * k), dtype=complex)
        block[:, :k, k:] = u
        block[:, k:, :k] = v.conj().swapaxes(-1, -2)
        return eigenphases(block)

    return flow_from_sampler(block_phases, path.interval, opts, circular=True)


# ---------------------------------------------------------------------------
# Real symplectic category: comparison against the generator-based index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealComparison:
    mas: int
    mas_bf: int
    residual: float

    @property
    def agree(self):
        return self.mas == -self.mas_bf


def _check_real_lagrangian(j, frame, what):
    frame = np.asarray(frame, dtype=float)
    n = j.shape[0]
    if frame.shape != (n, n // 2):
        raise DimensionMismatch(f"{what} must be a {n} x {n // 2} matrix, got shape {frame.shape}")
    m = frame.shape[1]
    orth = np.abs(frame.T @ frame - np.eye(m)).max()
    iso = np.abs(frame.T @ j @ frame).max()
    if not (orth <= 1e-8 and iso <= 1e-8):
        raise NotLagrangianReal(
            f"{what}: orthonormality residual {orth:.3e}, isotropy residual {iso:.3e}"
        )
    return frame


def real_generator(j, lam_frame, mu_frame):
    """The unitary generator S attached to a real Lagrangian pair.

    With A = Q^T M and B = (JQ)^T M for orthonormal frames Q of lambda and M
    of mu, the matrix T = B - iA is invertible, T* T is real symmetric
    positive definite, and ``V = T (T^* T)^{-1/2}`` is unitary.  The
    generator is ``S = V V^T`` (plain transpose); it depends only on the two
    subspaces up to real-orthogonal conjugation, so its spectrum is an
    invariant of the pair.  Returns (V, S).

    ``mu_frame`` may be a stack ``(S, 2m, m)``, one engine batch of frames
    (the generator path of :func:`complexify_and_compare` passes one per
    batch); V and S are then stacks too.  Every member is checked and
    decomposed (SciPy's ``eigh``, which runs its driver on each member) bit
    for bit as if alone, so a stack with one bad member raises what that
    member raises alone; a stack with no members raises ``DimensionMismatch``.
    """
    q = np.asarray(lam_frame, dtype=float)
    mfr = np.asarray(mu_frame, dtype=float)
    core.require_nonempty(mfr, "mu_frame")
    a = q.T @ mfr
    b = (j @ q).T @ mfr
    t = b - 1j * a
    tt = t.conj().swapaxes(-1, -2) @ t
    if not np.abs(tt.imag).max() <= 1e-8:
        raise NotLagrangianReal(
            f"T*T has imaginary part {np.abs(tt.imag).max():.3e}; frames are not a Lagrangian pair"
        )
    tt = tt.real
    w, vecs = la.eigh(0.5 * (tt + tt.swapaxes(-1, -2)))
    if np.any(w.min(axis=-1) <= 1e-14 * np.maximum(w.max(axis=-1), 1.0)):
        raise Degenerate("T*T is numerically singular")
    ginv = (vecs / np.sqrt(w)[..., None, :]) @ vecs.swapaxes(-1, -2)
    v = t @ ginv
    core.require_unitary(v, NonUnitaryGenerator, "generator")
    return v, v @ v.swapaxes(-1, -2)


def complexify_and_compare(j, lam, mu_path, interval, opts=None):
    """Compare the complexified Maslov index with the generator-based one.

    ``j``        real 2m x 2m with J^T = -J and J^2 = -I;
    ``lam``      real orthonormal frame (2m x m) of the fixed Lagrangian;
    ``mu_path``  s -> real orthonormal frame (2m x m) of the moving one;
    ``interval`` parameter range.

    The complexified pair is run through :func:`maslov_index` as-is.  The
    generator path ``s -> S_s`` is run through the same crossing engine after
    the rigid rotation ``z -> -conj(z)``, which carries "eigenphase of S
    decreasing through pi" (the generator convention for a crossing) onto
    "eigenphase increasing through 0".  The two integers must be negatives
    of each other, and the bridge between the formalisms is checked
    numerically: in the frames ``(I -+ iJ)Q / sqrt(2)`` the complex
    comparison unitary ``V U^{-1}`` must equal ``-conj(S)`` entrywise.

    ``mu_path`` is called, and its frame checked, once per distinct s over
    both flows.  The generator path answers a whole engine batch: one
    :func:`real_generator` call on the stack of its frames, one ``solve``
    for their bridge coordinates and one :func:`eigenphases` call.

    Returns
    -------
    RealComparison
        with ``residual`` the worst entrywise bridge mismatch over every
        parameter value the generator path was sampled at.

    Raises
    ------
    DimensionMismatch, NotSkewHermitian, Degenerate, NotLagrangianReal
        For a j that is empty or not square, or breaks J^T = -J or J^2 = -I,
        and for a frame that is not 2m x m, or not orthonormal and isotropic.
    """
    j = np.asarray(j, dtype=float)
    core.require_hermitian(j, "real structure matrix", NotSkewHermitian, sign=-1)
    core.require_nonempty(j, "real structure matrix")
    if not np.abs(j @ j + np.eye(j.shape[0])).max() <= 1e-10:
        raise Degenerate("real structure matrix must satisfy J^2 = -I")
    q = _check_real_lagrangian(j, lam, "lambda frame")

    frames = {}  # s -> checked mu frame, shared by both flows

    def mu_at(s):
        if s not in frames:
            frames[s] = _check_real_lagrangian(j, mu_path(s), f"mu frame at s={s:.6g}")
        return frames[s]

    path = PairPath.from_parts(j, q, mu_at, interval)
    mas, _ = maslov_index(path, opts)

    # Bridge residual: V U^{-1} == -conj(S) in the frames attached to Q.
    fplus = (q - 1j * (j @ q)) / np.sqrt(2.0)
    fminus = (q + 1j * (j @ q)) / np.sqrt(2.0)
    basis = np.hstack([fplus, fminus])
    m = q.shape[1]
    coords_lam = la.solve(basis, q.astype(complex))
    u_inv = la.inv(coords_lam[m:] @ la.inv(coords_lam[:m]))
    stats = {"residual": 0.0}

    def generator_phases(ss):
        mfr = core.stacked([mu_at(s) for s in ss], "mu")
        _, smat = real_generator(j, q, mfr)
        # SciPy solves (and inverts) a stack member by member in one call;
        # the frames side by side as one right-hand side would change the
        # m = 1 coordinates, which LAPACK solves as a single column
        coords_mu = la.solve(basis, mfr.astype(complex))
        v = coords_mu[:, m:] @ la.inv(coords_mu[:, :m])
        bridge = v @ u_inv
        stats["residual"] = max(stats["residual"], float(np.abs(bridge + smat.conj()).max()))
        return eigenphases(-smat.conj())

    mas_bf, _ = flow_from_sampler(generator_phases, interval, opts, circular=True)
    return RealComparison(mas=mas, mas_bf=mas_bf, residual=stats["residual"])

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

The crossing engine asks for a batch of s at a time.  :func:`maslov_index`
evaluates the path once per s, stacks the forms and frames, and takes the
splittings, graph unitaries and eigenphases of the whole batch from one
stacked call each; an s gets the same eigenphases in any batch.

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
    as_path,
    boxplus,
    boxplus_subspace,
    diagonal_subspace,
    flip,
    graph_rep,
    isotropy_residual,
    make_space,
    make_splitting,
    stacked,
    subspace_from_span,
)
from .errors import (
    Degenerate,
    DimensionMismatch,
    NonUnitaryGenerator,
    NotLagrangian,
    NotLagrangianReal,
    NotSkewHermitian,
)
from .flow import eigenphases, flow_from_sampler, unit_circle_residual


@dataclass
class PairPath:
    """A path of Lagrangian pairs: s -> (space, lambda, mu) on an interval.

    ``sampler`` must be deterministic in s.  Use :meth:`from_parts` to build
    one from constant or callable pieces (matrices are accepted wherever
    spaces/subspaces are).
    """

    sampler: Callable[[float], tuple]
    interval: tuple

    @staticmethod
    def from_parts(j, lam, mu, interval):
        jf = as_path(j, core.SymplecticSpace, make_space)
        lf, mf = (as_path(sub, Subspace, subspace_from_span) for sub in (lam, mu))
        return PairPath(sampler=lambda s: (jf(s), lf(s), mf(s)), interval=tuple(interval))

    def _mapped(self, transform):
        """The path s -> transform(s, space, lambda, mu) on the same interval."""
        base = self.sampler
        return PairPath(sampler=lambda s: transform(s, *base(s)), interval=self.interval)

    def swapped(self):
        """The path s -> (H, mu, lambda): same form, pair order reversed.

        The comparison unitary becomes the adjoint, so the index of the
        swapped path complements the original one up to the endpoint
        intersection dimensions rather than repeating it.
        """
        return self._mapped(lambda s, space, lam, mu: (space, mu, lam))

    def flipped_swapped(self):
        """The path s -> ((H, -omega), mu, lambda)."""
        return self._mapped(lambda s, space, lam, mu: (flip(space), mu, lam))

    def boxplus_diagonal(self):
        """The path s -> (H (+) H flipped, lambda x mu, diagonal)."""
        return self._mapped(lambda s, space, lam, mu: (
            boxplus(space, space), boxplus_subspace(lam, mu), diagonal_subspace(space.dim)))

    def pushforward(self, l):
        """Transport the whole path by an invertible map (constant or
        callable in s): the form becomes L^{-*} J L^{-1} and subspaces move
        by L, which changes nothing about the index."""
        lfun = as_path(l, np.ndarray, np.asarray)

        def transform(s, space, lam, mu):
            lmat = np.asarray(lfun(s), dtype=complex)
            linv = la.inv(lmat)
            jnew = linv.conj().T @ space.form @ linv
            return (make_space(jnew),
                    subspace_from_span(lmat @ lam.frame),
                    subspace_from_span(lmat @ mu.frame))

        return self._mapped(transform)


def maslov_index(path, opts=None, metric=None):
    """Maslov index of a path of Lagrangian pairs.

    The engine hands the sampler a batch of s.  ``path.sampler`` is called
    once per s; the forms and the two frames are then stacked, and the
    splitting, both graph unitaries, the comparison unitary and its phases
    come from one stacked call each.  Every s gets the coordinates it would
    get alone.

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
        If the form, or the frame of lambda or mu, changes shape inside one
        batch of s.
    """
    stats = {"isotropy_residual": 0.0, "unit_circle_residual": 0.0}

    def sampler(ss):
        spaces, lams, mus = zip(*(path.sampler(s) for s in ss))
        space = core.SymplecticSpace(
            form=stacked([sp.form for sp in spaces], DimensionMismatch, "the form"))
        lam = Subspace(frame=stacked([sub.frame for sub in lams], NotLagrangian, "lambda"))
        mu = Subspace(frame=stacked([sub.frame for sub in mus], NotLagrangian, "mu"))
        stats["isotropy_residual"] = max(
            stats["isotropy_residual"], isotropy_residual(space, lam), isotropy_residual(space, mu)
        )
        splitting = make_splitting(space, metric=metric)
        u = graph_rep(splitting, lam)
        v = graph_rep(splitting, mu)
        w = u @ v.conj().swapaxes(-1, -2)
        stats["unit_circle_residual"] = max(stats["unit_circle_residual"], unit_circle_residual(w))
        return eigenphases(w)

    total, report = flow_from_sampler(sampler, path.interval, opts, circular=True)
    report.extras.update(stats)
    return total, report


def maslov_index_block(path, opts=None):
    """Same index from the block unitary  [[0, U], [V*, 0]].

    The block matrix squares to diag(U V*, V* U), so its eigenphases are the
    half-phases of the comparison unitary together with their shifts by pi;
    only the first group crosses 1, and it does so exactly when the pair
    touches.  This shares no counting code path with the product formula
    beyond the generic engine.
    """

    def block_phases(s):
        space, lam, mu = path.sampler(s)
        splitting = make_splitting(space)
        u = graph_rep(splitting, lam)
        v = graph_rep(splitting, mu)
        k = u.shape[0]
        block = np.zeros((2 * k, 2 * k), dtype=complex)
        block[:k, k:] = u
        block[k:, :k] = v.conj().T
        return eigenphases(block)

    return flow_from_sampler(lambda ss: [block_phases(s) for s in ss], path.interval, opts,
                             circular=True)


@dataclass(frozen=True)
class ProductIdentities:
    direct: int
    boxplus_diagonal: int
    flipped_swapped: int
    flipped_boxplus: int

    @property
    def agree(self):
        return self.direct == self.boxplus_diagonal == self.flipped_swapped == self.flipped_boxplus


def maslov_product_identities(path, opts=None):
    """Evaluate the four equivalent product formulas for one path.

    direct          Mas{lambda, mu}            in (H, omega)
    boxplus         Mas{lambda x mu, diag}     in (H, omega) (+) (H, -omega)
    flipped/swapped Mas{mu, lambda}            in (H, -omega)
    flipped boxplus Mas{diag, lambda x mu}     in (H, -omega) (+) (H, omega)

    All four must agree; the flipped variants exercise the complementary
    splitting projection automatically because K changes sign with the form.
    """
    direct, _ = maslov_index(path, opts)
    boxed, _ = maslov_index(path.boxplus_diagonal(), opts)
    flipped, _ = maslov_index(path.flipped_swapped(), opts)
    flipped_boxed, _ = maslov_index(path.flipped_swapped().boxplus_diagonal(), opts)
    return ProductIdentities(
        direct=direct,
        boxplus_diagonal=boxed,
        flipped_swapped=flipped,
        flipped_boxplus=flipped_boxed,
    )


def splitting_independence_check(path, metric, opts=None):
    """Index with the canonical splitting vs. a deformed-metric splitting."""
    canonical, _ = maslov_index(path, opts)
    deformed, _ = maslov_index(path, opts, metric=metric)
    return canonical, deformed


# ---------------------------------------------------------------------------
# Real symplectic category: comparison against the generator-based index
# ---------------------------------------------------------------------------

@dataclass
class RealPairData:
    """A real symplectic comparison problem.

    ``j``        real 2m x 2m with J^T = -J and J^2 = -I;
    ``lam``      real orthonormal frame (2m x m) of the fixed Lagrangian;
    ``mu_path``  s -> real orthonormal frame (2m x m) of the moving one;
    ``interval`` parameter range.
    """

    j: np.ndarray
    lam: np.ndarray
    mu_path: Callable[[float], np.ndarray]
    interval: tuple


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
    """
    q = np.asarray(lam_frame, dtype=float)
    mfr = np.asarray(mu_frame, dtype=float)
    a = q.T @ mfr
    b = (j @ q).T @ mfr
    t = b - 1j * a
    tt = t.conj().T @ t
    if not np.abs(tt.imag).max() <= 1e-8:
        raise NotLagrangianReal(
            f"T*T has imaginary part {np.abs(tt.imag).max():.3e}; frames are not a Lagrangian pair"
        )
    tt = tt.real
    w, vecs = la.eigh(0.5 * (tt + tt.T))
    if w.min() <= 1e-14 * max(w.max(), 1.0):
        raise Degenerate("T*T is numerically singular")
    ginv = (vecs / np.sqrt(w)) @ vecs.T
    v = t @ ginv
    core.require_unitary(v, NonUnitaryGenerator, "generator")
    return v, v @ v.T


def complexify_and_compare(data, opts=None):
    """Compare the complexified Maslov index with the generator-based one.

    The complexified pair is run through :func:`maslov_index` as-is.  The
    generator path ``s -> S_s`` is run through the same crossing engine after
    the rigid rotation ``z -> -conj(z)``, which carries "eigenphase of S
    decreasing through pi" (the generator convention for a crossing) onto
    "eigenphase increasing through 0".  The two integers must be negatives
    of each other, and the bridge between the formalisms is checked
    numerically: in the frames ``(I -+ iJ)Q / sqrt(2)`` the complex
    comparison unitary ``V U^{-1}`` must equal ``-conj(S)`` entrywise.

    Returns
    -------
    RealComparison
        with ``residual`` the worst entrywise bridge mismatch over every
        parameter value the generator path was sampled at.
    """
    j = np.asarray(data.j, dtype=float)
    n = j.shape[0]
    if not np.abs(j + j.T).max() <= 1e-10:
        raise NotSkewHermitian("real structure matrix must satisfy J^T = -J")
    if not np.abs(j @ j + np.eye(n)).max() <= 1e-10:
        raise Degenerate("real structure matrix must satisfy J^2 = -I")
    q = _check_real_lagrangian(j, data.lam, "lambda frame")

    def mu_at(s):
        return _check_real_lagrangian(j, data.mu_path(s), f"mu frame at s={s:.6g}")

    path = PairPath.from_parts(j.astype(complex), q.astype(complex),
                               lambda s: mu_at(s).astype(complex), data.interval)
    mas, _ = maslov_index(path, opts)

    # Bridge residual: V U^{-1} == -conj(S) in the frames attached to Q.
    fplus = (q - 1j * (j @ q)) / np.sqrt(2.0)
    fminus = (q + 1j * (j @ q)) / np.sqrt(2.0)
    basis = np.hstack([fplus, fminus])
    m = q.shape[1]
    coords_lam = la.solve(basis, q.astype(complex))
    u_inv = la.inv(coords_lam[m:] @ la.inv(coords_lam[:m]))
    stats = {"residual": 0.0}

    def generator_phases(s):
        mfr = mu_at(s)
        _, smat = real_generator(j, q, mfr)
        coords_mu = la.solve(basis, mfr.astype(complex))
        v = coords_mu[m:] @ la.inv(coords_mu[:m])
        bridge = v @ u_inv
        stats["residual"] = max(stats["residual"], float(np.abs(bridge + smat.conj()).max()))
        return eigenphases(-smat.conj())

    mas_bf, _ = flow_from_sampler(lambda ss: [generator_phases(s) for s in ss],
                                  data.interval, opts, circular=True)
    return RealComparison(mas=mas, mas_bf=mas_bf, residual=stats["residual"])

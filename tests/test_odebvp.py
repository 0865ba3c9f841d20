"""Boundary value pipelines: shooting, eigenvalue location, both indices."""

import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from maslovflow import core, flow, harness, maslov, odebvp
from maslovflow.errors import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotLagrangian,
    NotSkewHermitian,
    RootCluster,
    RootCountMismatch,
    SingularJ,
    SingularP,
    TransportBudgetExceeded,
    WindowBoundaryEigenvalue,
)


def const_coeff(mat):
    mat = np.asarray(mat, dtype=complex)
    return lambda s, t: np.broadcast_to(mat, t.shape + mat.shape)


def scalar_coeff(fun):
    def f(s, t):
        return np.broadcast_to(np.asarray(fun(s, t), dtype=complex), t.shape)[:, None, None]

    return f


def first_order(m, T, j, b):
    return odebvp.FirstOrderFamily(m=m, T=T, j=j, b=b)


def dirichlet_second(r_fun, T=np.pi, m=1):
    return odebvp.SecondOrderFamily(
        m=m, T=T,
        p=scalar_coeff(lambda s, t: 1.0),
        q=scalar_coeff(lambda s, t: 0.0),
        r=scalar_coeff(r_fun),
    )


def rotating_w(s):
    return core.subspace_from_span([[1.0], [np.exp(2j * np.pi * s)]])


def test_transfer_matrix_constant_closed_form():
    # with j = i I the fundamental solution is exp(i (lambda I + B) T)
    rng = np.random.default_rng(2)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = 0.5 * (b + b.conj().T)
    fam = first_order(2, 1.0, const_coeff(1j * np.eye(2)), const_coeff(b))
    lam = 0.37
    g = odebvp.transfer_matrix(fam, 0.0, lam)
    npt.assert_allclose(g, expm(1j * (lam * np.eye(2) + b)), atol=1e-12)


def test_transfer_matrix_is_symplectic_transport():
    fam = first_order(
        1, 1.0,
        scalar_coeff(lambda s, t: 1j * (1.0 + 0.5 * s * np.sin(np.pi * t))),
        scalar_coeff(lambda s, t: s * np.cos(t)),
    )
    g = odebvp.transfer_matrix(fam, 0.7, 0.0, steps=2048)
    assert odebvp.transport_residual(fam, 0.7, g) <= odebvp.TOL_ODE


def test_eigen_count_dirichlet_laplacian():
    # -x'' = lambda x on [0, pi]: eigenvalues k^2
    fam = dirichlet_second(lambda s, t: 0.0)
    w = odebvp.w_of_r(None, m=1)
    found = odebvp.eigen_count(fam, 0.0, w, (0.5, 6.0))
    assert [mult for _, mult in found] == [1, 1]
    npt.assert_allclose([lam for lam, _ in found], [1.0, 4.0], atol=1e-7)


def test_eigen_count_shifted_spectrum():
    # -x'' - x: eigenvalues k^2 - 1, one of them exactly zero
    fam = dirichlet_second(lambda s, t: -1.0)
    w = odebvp.w_of_r(None, m=1)
    found = odebvp.eigen_count(fam, 0.0, w, (-0.5, 3.5))
    npt.assert_allclose([lam for lam, _ in found], [0.0, 3.0], atol=1e-7)


def test_eigen_count_first_order_ladder():
    fam = first_order(1, 1.0, const_coeff(1j * np.eye(1)), const_coeff(np.zeros((1, 1))))
    found = odebvp.eigen_count(fam, 0.25, rotating_w(0.25), (-8.0, 8.0))
    want = np.pi / 2 + 2.0 * np.pi * np.array([-1, 0, 1])
    npt.assert_allclose([lam for lam, _ in found], want, atol=1e-7)
    assert all(mult == 1 for _, mult in found)


def test_eigen_count_multiplicity_two():
    fam = first_order(2, 1.0, const_coeff(1j * np.eye(2)), const_coeff(np.zeros((2, 2))))
    frame = np.zeros((4, 2), dtype=complex)
    frame[0, 0] = frame[1, 1] = 1.0
    frame[2, 0] = frame[3, 1] = np.exp(0.5j)
    w = core.subspace_from_span(frame)
    found = odebvp.eigen_count(fam, 0.0, w, (-2.0, 2.0))
    assert len(found) == 1
    lam, mult = found[0]
    npt.assert_allclose(lam, 0.5, atol=1e-7)
    assert mult == 2


def test_eigen_count_uncertified_window_finds_every_eigenvalue():
    # T = 40 packs the 63 periodic eigenvalues 2 pi k / 40 into the window,
    # too many for the Chebyshev proxy to certify, so the window is split
    # into pieces that certify, each with its own pencil
    fam = first_order(1, 40.0, const_coeff(1j * np.eye(1)), const_coeff(np.zeros((1, 1))))
    window = (-4.987, 5.013)
    ev = odebvp._GammaEvaluator(odebvp._system(fam, 0.3, 256), *window, 65)
    assert not ev.certified()
    found = odebvp.eigen_count(fam, 0.3, core.diagonal_subspace(1), window, steps=256)
    assert [mult for _, mult in found] == [1] * 63
    want = 2.0 * np.pi * np.arange(-31, 32) / 40.0
    npt.assert_allclose([lam for lam, _ in found], want, atol=1e-8)


def periodic_ladder(T):
    # j = i, b = 0 with periodic conditions: eigenvalues 2 pi k / T
    return first_order(1, T, const_coeff(1j * np.eye(1)), const_coeff(np.zeros((1, 1))))


def test_eigen_count_finds_every_root_of_a_dense_ladder():
    # 191 eigenvalues 2 pi k / 60, |k| <= 95, in (-10, 10), 0.105 apart: the
    # window needs halving twice before a fit certifies, and none may be lost
    found = odebvp.eigen_count(periodic_ladder(60.0), 0.3, core.diagonal_subspace(1), (-10.0, 10.0))
    assert [mult for _, mult in found] == [1] * 191
    want = 2.0 * np.pi * np.arange(-95, 96) / 60.0
    npt.assert_allclose([lam for lam, _ in found], want, rtol=0, atol=1e-8)


def test_root_on_a_piece_edge_is_counted_once():
    # (-10, 10) does not certify at T = 60 and is first halved at 0, itself
    # an eigenvalue: both halves find it, the count keeps it once
    system = odebvp._system(periodic_ladder(60.0), 0.3, 64)
    w = core.diagonal_subspace(1)
    assert not odebvp._GammaEvaluator(system, -10.0, 10.0, 65).certified()
    wperp = core.orthogonal_complement(w).frame
    pencils = []
    pieces = odebvp._window_roots(system, wperp, -10.0, 10.0, 65, pencils)
    assert sum(abs(lam) < 1e-12 for lam in pieces) == 2
    assert len(pencils) > 1 and odebvp._certify_count(pencils) == [None] * len(pencils)
    [found] = odebvp._eigen_count_system([(system, wperp)], (-10.0, 10.0))
    assert [lam for lam, _ in found if abs(lam) < 1e-12] == [pytest.approx(0.0, abs=1e-12)]
    assert len(found) == 191


def test_certificate_raises_when_the_eigensolve_drops_a_root(monkeypatch):
    fam = dirichlet_second(lambda s, t: 0.0)
    w = odebvp.w_of_r(None, m=1)
    solve = odebvp._colleague_eigvals

    def drop_one(f):
        u = solve(f)
        return np.delete(u, np.argmin(np.abs(u)))

    monkeypatch.setattr(odebvp, "_colleague_eigvals", drop_one)
    with pytest.raises(RootCountMismatch, match="winds"):
        odebvp.eigen_count(fam, 0.0, w, (0.5, 6.0))


def test_pencil_root_failing_verification_raises(monkeypatch):
    # a real pencil root where the exact propagator sees no eigenvalue is
    # reported, never dropped
    fam = dirichlet_second(lambda s, t: 0.0)
    w = odebvp.w_of_r(None, m=1)
    solve = odebvp._colleague_eigvals
    monkeypatch.setattr(odebvp, "_colleague_eigvals", lambda f: np.append(solve(f), 0.0))
    monkeypatch.setattr(odebvp, "_certify_count", lambda pencils: [None] * len(pencils))
    with pytest.raises(RootCountMismatch, match="verification"):
        odebvp.eigen_count(fam, 0.0, w, (0.5, 6.0))


def test_roots_closer_than_ten_tolerances_raise(monkeypatch):
    # Dirichlet eigenvalue 1 and a copy 3 root tolerances away: both pass
    # verification, and neither is merged into the other nor dropped
    fam = dirichlet_second(lambda s, t: 0.0)
    tau = 1e-9 * (6.0 - 0.5)
    monkeypatch.setattr(odebvp, "_window_roots", lambda *args: [1.0, 1.0 + 3.0 * tau])
    with pytest.raises(RootCluster):
        odebvp.eigen_count(fam, 0.0, odebvp.w_of_r(None, m=1), (0.5, 6.0))


def test_a_window_that_never_certifies_raises(monkeypatch):
    # the T = 40 window needs halving before a fit certifies
    monkeypatch.setattr(odebvp, "_MAX_SPLITS", 0)
    with pytest.raises(RootCountMismatch, match="no certified Chebyshev fit"):
        odebvp.eigen_count(periodic_ladder(40.0), 0.3, core.diagonal_subspace(1),
                           (-4.987, 5.013), steps=256)


def test_a_root_on_the_contour_leaves_the_winding_unresolved():
    # P(u) = u - z0, z0 1e-12 inside the contour's top edge Im u = _STRIP:
    # no number of contour points resolves arg det P next to it
    z0 = 1j * (odebvp._STRIP - 1e-12)
    f = np.array([[[-z0]], [[1.0]]], dtype=complex)
    [error] = odebvp._certify_count([(f, np.array([z0]))])
    with pytest.raises(RootCountMismatch, match="unresolved"):
        raise error


def stretched_pencil(first, im):
    """A scalar pencil with one root at u = i ``im`` and eight more at
    Re u = ±(``first`` + 0.08 k), k < 4, and Im u = 1.5 ``_STRIP``: outside
    the strip, but near enough to leave the widest gaps, where the
    rectangle's ends go, at |Re u| > 0.9 for ``first`` = 0.66 and
    |Re u| < 0.7 for ``first`` = 0.70."""
    near = first + 0.08 * np.arange(4)
    roots = np.concatenate([[1j * im], np.concatenate([-near, near]) + 1.5j * odebvp._STRIP])
    return np.polynomial.chebyshev.chebfromroots(roots)[:, None, None], roots


@pytest.mark.parametrize("n", [64, 1024])
def test_the_reference_perimeter_has_its_corners_and_midpoints_at_fixed_indices(n):
    z = odebvp._perimeter(n)
    v, h, strip = n // 16, n // 2 - n // 16, odebvp._STRIP
    assert z.shape == (n,) and not z.flags.writeable
    # the corners and the edge midpoints: fixed points for a check on the exact F
    npt.assert_allclose(z[[v, v + h, 2 * v + h, 0]],
                        [1 + 1j * strip, 1j * strip, -1j * strip, 1 - 1j * strip], rtol=0, atol=1e-15)
    npt.assert_allclose(z[[v // 2, v + h // 2, v + h + v // 2, 2 * v + h + h // 2]],
                        [1.0, 0.5 + 1j * strip, 0.0, 0.5 - 1j * strip], rtol=0, atol=1e-15)
    # counter-clockwise once around the centre
    assert np.angle(np.roll(z - 0.5, -1) / (z - 0.5)).sum() == pytest.approx(2 * np.pi)


def test_the_reference_contour_certifies_the_widest_and_the_narrowest_rectangle():
    # a root 0.1 _STRIP inside a horizontal edge, where the stretch to
    # b - a = 1.9 leaves the points sparsest and b - a = 1.3 densest
    pencils = [stretched_pencil(0.66, 0.9 * odebvp._STRIP),
               stretched_pencil(0.70, -0.9 * odebvp._STRIP)]
    assert [odebvp._certify_count([p]) for p in pencils] == [[None], [None]]
    assert odebvp._certify_count(pencils) == [None, None]
    dropped = [(f, u[1:]) for f, u in pencils]  # the root inside
    alone = [odebvp._certify_count([p])[0] for p in dropped]
    for a, error in zip((0.95, 0.65) * 2, odebvp._certify_count(dropped) + alone):
        with pytest.raises(RootCountMismatch, match=rf"winds 1 times around \({-a:g}, {a:g}\)"):
            raise error


def test_the_certificate_judges_each_pencil_of_a_batch_alone():
    # the pieces of a window halved twice (pencils of several degrees), one
    # pencil missing a root and the unresolved one above, in one batch: each
    # gets the outcome it gets alone
    system = odebvp._system(periodic_ladder(60.0), 0.3, 64)
    pencils = []
    odebvp._window_roots(system, core.orthogonal_complement(core.diagonal_subspace(1)).frame,
                         -10.0, 10.0, 17, pencils)
    assert len({len(f) for f, _ in pencils}) > 1
    f, u = pencils[1]
    z0 = 1j * (odebvp._STRIP - 1e-12)
    pencils[1:1] = [(f, np.delete(u, np.argmin(np.abs(u)))),
                    (np.array([[[-z0]], [[1.0]]], dtype=complex), np.array([z0]))]
    errors = odebvp._certify_count(pencils)
    alone = [odebvp._certify_count([pencil])[0] for pencil in pencils]
    assert [str(e) if e else None for e in errors] == [str(e) if e else None for e in alone]
    assert "winds" in str(errors[1]) and "unresolved" in str(errors[2])
    assert errors[:1] + errors[3:] == [None] * (len(pencils) - 2)


@pytest.mark.parametrize("deg", [1, 2, 3, 6])
def test_colleague_pencil_gives_every_root_of_the_matrix_polynomial(deg):
    rng = np.random.default_rng(deg)
    f = rng.normal(size=(deg + 1, 2, 2)) + 1j * rng.normal(size=(deg + 1, 2, 2))
    u = odebvp._colleague_eigvals(f)
    assert len(u) == 2 * deg
    vander = np.polynomial.chebyshev.chebvander(u, deg)
    p = np.tensordot(vander, f, axes=1)
    # P(u) is singular at each eigenvalue, relative to the size of its terms
    size = np.abs(vander) @ np.linalg.norm(f, 2, axis=(1, 2))
    assert np.all(np.linalg.svd(p, compute_uv=False)[:, -1] <= 1e-12 * size)


def test_chebyshev_fit_by_dct_matches_chebfit():
    # the DCT-I of the values at n Lobatto nodes is their interpolant
    s3 = next(sc for sc in harness.builtin_scenarios() if sc.name == "S3")
    fam, _ = s3.build()
    system = odebvp._system(fam, 0.5, 256)
    for n in (17, 33, 65):
        pts = np.polynomial.chebyshev.chebpts2(n)
        vals = system.propagate(pts)
        coef = odebvp._dct1(vals).reshape(n, -1)
        want = np.polynomial.chebyshev.chebfit(pts, vals.reshape(n, -1), n - 1)
        npt.assert_allclose(coef, want, rtol=0, atol=1e-14 * np.abs(want).max())
    ev = odebvp._GammaEvaluator(system, -1.0, 1.0, 17)
    assert ev.coef.shape == (17, system.d, system.d)
    npt.assert_array_equal(ev.coef, odebvp._dct1(system.propagate(pts[::4])))


def test_fit_ladder_propagates_only_the_new_nodes(monkeypatch):
    # (-10, 10) on S3 certifies at 65 nodes: the ladder from 17 propagates
    # 17, then the 16 and 32 nodes that interleave the ones it has, and
    # ends at the coefficients of a direct 65-node fit; (-10, 10) on the
    # T = 60 ladder stops uncertified at 65 nodes
    s3 = next(sc for sc in harness.builtin_scenarios() if sc.name == "S3")
    fam, _ = s3.build()
    system = odebvp._system(fam, 0.5, 256)
    sizes = []
    propagate = odebvp._ShootingSystem.propagate

    def counting(self, lams, checkpoints=False):
        sizes.append(len(lams))
        return propagate(self, lams, checkpoints)

    monkeypatch.setattr(odebvp._ShootingSystem, "propagate", counting)
    ladder = odebvp._GammaEvaluator(system, -10.0, 10.0, 17)
    assert sizes == [17, 16, 32]
    direct = odebvp._GammaEvaluator(system, -10.0, 10.0, 65)
    assert sizes == [17, 16, 32, 65]
    npt.assert_array_equal(ladder.coef, direct.coef)
    sizes.clear()
    dense = odebvp._GammaEvaluator(odebvp._system(periodic_ladder(60.0), 0.3, 64), -10.0, 10.0, 17)
    assert not dense.certified() and sizes == [17, 16, 32]


@pytest.mark.parametrize("d", [1, 2, 4])
def test_checked_inverse_raises_exactly_when_the_svd_check_does(d):
    rng = np.random.default_rng(d)

    def stack(cond):
        a = rng.normal(size=(50, d, d)) + 1j * rng.normal(size=(50, d, d)) + 3 * np.eye(d)
        if cond is not None:
            u, _, vh = np.linalg.svd(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            sv = np.geomspace(1.0, 1.0 / cond, d) if d > 1 else np.array([1.0])
            a[17] = (u * sv) @ vh
        return a

    for cond in (None, 1e10, 10**11.5, 1e13):
        a = stack(cond)
        try:
            core.require_nonsingular(np.linalg.svd(a, compute_uv=False), SingularJ, "a")
            expected = False
        except SingularJ:
            expected = True
        if expected:
            with pytest.raises(SingularJ):
                odebvp._checked_inv(a, SingularJ, "a")
        else:  # a 1 x 1 stack is inverted elementwise
            npt.assert_array_equal(odebvp._checked_inv(a, SingularJ, "a"),
                                   1.0 / a if d == 1 else np.linalg.inv(a))
        assert expected == (cond is not None and cond > 1e12 and d > 1)
    exact = stack(None)
    exact[3] = 0.0  # an exact zero pivot
    with pytest.raises(SingularJ):
        odebvp._checked_inv(exact, SingularJ, "a")


def raised(fn):
    """The type of the exception ``fn()`` raises, or None."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 -- the type is the result
        return type(exc)
    return None


@pytest.mark.parametrize("entry, svd_raises", [
    (0.0, SingularJ), (-0.0j, SingularJ), (np.nan, np.linalg.LinAlgError),
    (1e-150j, None), (1e150, None), (3.0, None),
])
def test_a_one_by_one_inverse_raises_exactly_when_the_svd_check_does(entry, svd_raises):
    # an exact zero, a NaN, an ill-conditioned member (a 1 x 1 matrix has
    # condition number 1 however small), a huge and an ordinary one, each
    # in one member of a stack
    a = 1j * np.random.default_rng(1).uniform(0.5, 2.0, (40, 1, 1))
    a[5] = entry
    svd = raised(lambda: core.require_nonsingular(np.linalg.svd(a, compute_uv=False),
                                                  SingularJ, "a"))
    assert svd is svd_raises
    with np.errstate(invalid="ignore"):  # 1 / NaN warns before the SVD raises
        assert raised(lambda: odebvp._checked_inv(a, SingularJ, "a")) is svd


@pytest.mark.parametrize("kind", ["skew-Hermitian j", "Hermitian p"])
def test_a_one_by_one_inverse_is_lapacks_bit_for_bit_on_real_or_imaginary_entries(kind):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2049, 1, 1)) * np.geomspace(1e-6, 1e6, 2049)[:, None, None]
    a = 1j * x if kind == "skew-Hermitian j" else x.astype(complex)
    assert odebvp._checked_inv(a, SingularJ, "a").tobytes() == np.linalg.inv(a).tobytes()


def test_eigen_count_window_boundary_raises():
    fam = first_order(1, 1.0, const_coeff(1j * np.eye(1)), const_coeff(np.eye(1)))
    w = core.diagonal_subspace(1)
    with pytest.raises(WindowBoundaryEigenvalue):
        odebvp.eigen_count(fam, 0.0, w, (-1.0, 1.0))  # eigenvalue at -1 exactly


def test_eigen_count_raises_non_finite_when_a_window_end_overflows():
    # at lambda = -1e6 the S2 solutions grow like exp(1000 pi): the endpoint
    # propagations overflow before any detector sees them
    fam, w = {sc.name: sc for sc in harness.builtin_scenarios()}["S2"].build()
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match="window"):
        odebvp.eigen_count(fam, 0.5, w, (-1e6, -1e6 + 1.0), steps=256)


def test_sf_counts_nothing_from_an_eigenvalue_on_any_window_edge():
    # periodic eigenvalues -b_k + 2 pi n: -1 sits on the edge of the window
    # (-1, 1), the others on the edges of eight wider windows; sf keeps only
    # |lambda| <= 0.6 R, so nothing is counted and nothing raises
    radii = [1.0] + [1.0 + 0.3 / 2.0**k for k in range(8)]
    fam = first_order(9, 1.0, const_coeff(1j * np.eye(9)), const_coeff(np.diag(radii)))
    w = core.diagonal_subspace(9)
    opts = odebvp.BvpOpts(steps=64)
    sf, _ = odebvp.sf_bvp(fam, w, opts)
    mas, _ = odebvp.mas_bvp(fam, w, opts)
    assert sf == mas == 0


def test_sf_runs_one_detector_pass_per_sample(monkeypatch):
    s4 = next(sc for sc in harness.builtin_scenarios() if sc.name == "S4")
    fam, w_path = s4.build()
    evaluator = odebvp._GammaEvaluator
    built = []

    def counting(*args):
        built.append(args)
        return evaluator(*args)

    monkeypatch.setattr(odebvp, "_GammaEvaluator", counting)
    _, rep = odebvp.sf_bvp(fam, w_path, odebvp.BvpOpts(steps=64))
    assert len(built) == len(rep.samples) == 33


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
def test_the_detector_gives_each_s_of_a_batch_the_roots_it_gets_alone(name):
    sc = {sc.name: sc for sc in harness.builtin_scenarios()}[name]
    fam, w_path = sc.build()
    window = (-4.0, 4.0)  # the sf window is (-1, 1); S4 has no eigenvalue there
    wpath = odebvp._boundary_condition(fam, w_path)
    pairs = []
    for s in np.linspace(0.0, 1.0, 9):
        wperp = core.orthogonal_complement(wpath(np.array([s]))).frame
        pairs.append((odebvp._system(fam, s, 64), wperp))
    alone = [odebvp._eigen_count_system([pair], window)[0] for pair in pairs]
    assert all(alone)
    assert repr(odebvp._eigen_count_system(pairs, window)) == repr(alone)
    assert repr(odebvp._eigen_count_system(pairs[::-1], window)) == repr(alone[::-1])


@pytest.mark.parametrize("uncertified, unverified", [(0, 1), (1, 0)])
def test_a_batch_raises_the_error_of_its_first_failing_s(monkeypatch, uncertified, unverified):
    # one s fails the certificate, the other verification: the batch raises
    # what a loop over its s would, the error of the first
    fam = dirichlet_second(lambda s, t: -1.5 * s)
    wperp = core.orthogonal_complement(odebvp.w_of_r(None, m=1)).frame
    systems = [odebvp._system(fam, s, 64) for s in (0.0, 0.2)]
    window_roots, certify = odebvp._window_roots, odebvp._certify_count
    marked = set()

    def marking(system, wperp, lo, hi, nodes, pencils, splits=0):
        before = len(pencils)
        roots = window_roots(system, wperp, lo, hi, nodes, pencils, splits)
        if system is systems[uncertified]:
            marked.update(id(f) for f, _ in pencils[before:])
        if system is systems[unverified]:
            roots.append(2.5)  # no eigenvalue there at either s
        return roots

    def failing(pencils):
        return [RootCountMismatch("det F winds wrongly") if id(f) in marked else error
                for (f, _), error in zip(pencils, certify(pencils))]

    monkeypatch.setattr(odebvp, "_window_roots", marking)
    monkeypatch.setattr(odebvp, "_certify_count", failing)
    with pytest.raises(RootCountMismatch, match="winds" if uncertified == 0 else "verification"):
        odebvp._eigen_count_system([(system, wperp) for system in systems], (0.5, 6.0))


def test_a_failing_build_waits_for_the_s_before_it(monkeypatch):
    # the pairs are drawn lazily, so a build that raises stops the batch at
    # its s, after the s before it have been certified and verified
    fam = dirichlet_second(lambda s, t: -1.5 * s)
    wperp = core.orthogonal_complement(odebvp.w_of_r(None, m=1)).frame
    system = odebvp._system(fam, 0.0, 64)

    def batch():
        yield system, wperp
        raise SingularP("the second build fails")

    with pytest.raises(SingularP, match="second build"):
        odebvp._eigen_count_system(batch(), (0.5, 6.0))
    solve = odebvp._colleague_eigvals
    monkeypatch.setattr(odebvp, "_colleague_eigvals", lambda f: np.append(solve(f), 0.0))
    monkeypatch.setattr(odebvp, "_certify_count", lambda pencils: [None] * len(pencils))
    with pytest.raises(RootCountMismatch, match="verification"):
        odebvp._eigen_count_system(batch(), (0.5, 6.0))


def counting(calls, fun):
    def wrapped(*args, **kwargs):
        calls.append(args)
        return fun(*args, **kwargs)

    return wrapped


def members(calls):
    """How many matrices the counted calls decomposed: SciPy's batching
    takes a stack ``(..., n, k)`` in one call, one member at a time."""
    return sum(math.prod(np.shape(args[0])[:-2]) for args in calls)


@pytest.mark.parametrize("name", ["S2", "S5"])
def test_mas_bvp_splits_a_boundary_form_that_holds_over_a_batch_once(name, monkeypatch):
    # the boundary forms of S2 and S5 hold at every s; mas_bvp stacked one
    # copy per s and make_splitting decomposed each (33)
    fam, w = next(sc for sc in harness.builtin_scenarios() if sc.name == name).build()
    eighs, batches = [], []
    monkeypatch.setattr(core.la, "eigh", counting(eighs, core.la.eigh))
    monkeypatch.setattr(maslov, "make_splitting", counting(batches, maslov.make_splitting))
    odebvp.mas_bvp(fam, w, odebvp.BvpOpts(steps=64))
    assert members(eighs) == len(batches) >= 1


@pytest.mark.parametrize("name, form, per_sample", [
    ("S2", lambda w: w, False),
    ("S2", lambda w: (lambda s: w), False),
    ("S1", lambda w: w, True),
], ids=["constant-subspace", "constant-path", "rotating"])
def test_sf_bvp_takes_w_perp_once_per_batch_unless_w_moves(name, form, per_sample, monkeypatch):
    # sf_bvp took one SVD of W per s, 33 for S2's constant W
    fam, w = next(sc for sc in harness.builtin_scenarios() if sc.name == name).build()
    comps, svds, batches = [], [], []
    monkeypatch.setattr(odebvp, "orthogonal_complement", counting(comps, odebvp.orthogonal_complement))
    monkeypatch.setattr(core.la, "svd", counting(svds, core.la.svd))
    engine = odebvp.flow_from_sampler
    monkeypatch.setattr(odebvp, "flow_from_sampler", lambda sampler, *args, **kw: engine(
        counting(batches, sampler), *args, **kw))
    _, rep = odebvp.sf_bvp(fam, form(w), odebvp.BvpOpts(steps=64))
    assert len(comps) == len(batches) < len(rep.samples)
    assert members(svds) == (len(rep.samples) if per_sample else len(batches))


@pytest.mark.parametrize("shape", [(6, 4), (3, 1), (4, 1)])
@pytest.mark.parametrize("entry", ["eigen_count", "sf_bvp", "mas_bvp", "maslov_long"])
def test_a_boundary_subspace_in_the_wrong_ambient_space_raises(shape, entry):
    # d = 2, so W must be a 2-dimensional subspace of C^4; a line in C^4
    # made mas_bvp and maslov_long raise NotLagrangian
    fam = dirichlet_second(lambda s, t: -1.5 * s)
    w = core.subspace_from_span(np.eye(*shape))
    opts = odebvp.BvpOpts(steps=64)
    run = {"eigen_count": lambda: odebvp.eigen_count(fam, 0.5, w, (-1.0, 1.0), steps=64),
           "sf_bvp": lambda: odebvp.sf_bvp(fam, w, opts),
           "mas_bvp": lambda: odebvp.mas_bvp(fam, w, opts),
           "maslov_long": lambda: odebvp.maslov_long(fam, 0.5, w, opts)}[entry]
    with pytest.raises(DimensionMismatch):
        run()


@pytest.mark.parametrize("entry", ["sf_bvp", "mas_bvp"])
def test_a_w_path_that_changes_shape_inside_a_batch_raises_not_lagrangian(entry):
    # W gains a column at s = 0.5, a first-depth midpoint; sf_bvp raised
    # DimensionMismatch on it where mas_bvp raised NotLagrangian
    fam = dirichlet_second(lambda s, t: -1.5 * s)

    def w(s):
        return np.eye(4)[:, :3 if s == 0.5 else 2]

    with pytest.raises(NotLagrangian, match="W changes shape"):
        getattr(odebvp, entry)(fam, w, odebvp.BvpOpts(steps=64))


@pytest.mark.parametrize("form", [lambda w: w, lambda w: w.frame, lambda w: (lambda s: w),
                                  lambda w: (lambda s: w.frame)],
                         ids=["subspace", "frame", "path", "frame-path"])
def test_every_entry_point_takes_w_as_a_subspace_a_frame_or_a_path(form):
    stock = {sc.name: sc for sc in harness.builtin_scenarios()}
    fam, w = stock["S5"].build()
    roots = odebvp.eigen_count(fam, 0.3, form(w), (-0.9, 0.8), steps=64)
    assert roots == odebvp.eigen_count(fam, 0.3, w, (-0.9, 0.8), steps=64)
    assert [mult for _, mult in roots] == [1] and roots[0][0] == pytest.approx(1.0 / 30.0)
    fam, w = stock["S2"].build()
    opts = odebvp.BvpOpts(steps=64)
    assert odebvp.maslov_long(fam, 0.5, form(w), opts)[0] == -1
    assert odebvp.sf_bvp(fam, form(w), opts)[0] == odebvp.mas_bvp(fam, form(w), opts)[0] == -1


@pytest.mark.parametrize("run", [
    lambda fam: odebvp.transfer_matrix(object(), 0.5),
    lambda fam: odebvp.maslov_long(fam, 0.5, core.diagonal_subspace(1)),
    lambda fam: odebvp.index_difference_check(fam, None),
], ids=["transfer_matrix", "maslov_long", "index_difference_check"])
def test_entry_points_refuse_a_family_of_the_wrong_kind(run):
    fam = first_order(1, 1.0, const_coeff(1j * np.eye(1)), const_coeff(np.eye(1)))
    with pytest.raises(TypeError):
        run(fam)


@pytest.mark.parametrize("opts, kw", [
    (flow.FlowOpts, {"initial_segments": 0}),
    (flow.FlowOpts, {"max_depth": -1}),
    (odebvp.BvpOpts, {"initial_segments": 0}),
    (odebvp.BvpOpts, {"steps": 0}),
    (odebvp.BvpOpts, {"lambda_window": 0.0}),
    (odebvp.BvpOpts, {"lambda_window": float("nan")}),
    (flow.FlowOpts, {"initial_segments": 4.0}),
    (flow.FlowOpts, {"max_depth": 2.5}),
    (flow.FlowOpts, {"max_depth": True}),
    (odebvp.BvpOpts, {"steps": 256.7}),
    (odebvp.BvpOpts, {"steps": True}),
    (odebvp.BvpOpts, {"lambda_window": True}),
    (odebvp.BvpOpts, {"lambda_window": np.inf}),
    (odebvp.BvpOpts, {"lambda_window": np.True_}),
])
def test_options_without_a_meaning_are_refused(opts, kw):
    # initial_segments=0 made spectral_flow return 0 for a crossing family,
    # steps=0 a ZeroDivisionError; steps=256.7 ran 256 steps, steps=True one,
    # lambda_window=True (or np.True_) a window of 1
    with pytest.raises(ValueError):
        opts(**kw)
    with pytest.raises(AttributeError):  # frozen: the check cannot be bypassed
        setattr(opts(), *next(iter(kw.items())))


POSITIVE_PARAMETERS = {
    "lambda_window": lambda v: odebvp.BvpOpts(lambda_window=v),
    "T": lambda v: first_order(1, v, const_coeff(1j * np.eye(1)), const_coeff(np.eye(1))),
    "scale": lambda v: flow.flow_from_sampler(lambda ss: [np.array([s - 0.5]) for s in ss],
                                              (0.0, 1.0), scale=v),
}


@pytest.mark.parametrize("caller, value", [
    pytest.param(caller, value, id=f"{caller}-{value!r}")
    for caller in POSITIVE_PARAMETERS for value in ("1", None, 1 + 0j, [1.0])
    if not (caller == "scale" and value is None)  # no scale means the engine picks one
])
def test_a_positive_parameter_that_is_not_a_real_number_is_refused(caller, value):
    # each raised NumPy's TypeError from np.isfinite or from >
    with pytest.raises(ValueError, match=f"^{caller} must be finite and positive"):
        POSITIVE_PARAMETERS[caller](value)


@pytest.mark.parametrize("caller", list(POSITIVE_PARAMETERS))
def test_a_positive_parameter_too_large_for_a_float_is_refused(caller):
    # raised OverflowError from math.isfinite
    with pytest.raises(ValueError, match=f"^{caller} must be finite and positive"):
        POSITIVE_PARAMETERS[caller](10**400)


def test_each_point_of_a_t_grid_is_judged_as_if_alone():
    # j = i(1 + 999 t) I, off skew by 1e-9 at t = 0 only: the point t = 1
    # scaled the whole grid's tolerance to 1e-7, so the build passed
    def j(s, t):
        out = 1j * (1.0 + 999.0 * t)[:, None, None] * np.eye(2)
        out[t == 0.0] += 1e-9 * np.array([[0.0, 1.0], [0.0, 0.0]])
        return out

    fam = first_order(2, 1.0, j, const_coeff(np.zeros((2, 2))))
    with pytest.raises(NotSkewHermitian, match=r"^j\(s=0\.5, t\) on the t-grid residual "
                                               r"\|A \+ A\*\| = 1\.000e-09 exceeds 1\.000e-10$"):
        odebvp._system(fam, 0.5, 16)


def test_numpy_integer_counts_are_accepted():
    opts = odebvp.BvpOpts(steps=np.int64(64), initial_segments=np.int32(16),
                          max_depth=np.int16(3))
    assert (opts.steps, opts.initial_segments, opts.max_depth) == (64, 16, 3)


@pytest.mark.parametrize("m, T", [(1, -1.0), (1, 0.0), (1, np.inf), (1, np.nan),
                                  (0, 1.0), (1.0, 1.0), (True, 1.0), (1, True),
                                  (1, np.True_)])
@pytest.mark.parametrize("kind", ["first", "second"])
def test_families_without_a_meaning_are_refused(kind, m, T):
    # with S3's coefficients T = -1 gave sf_bvp == -1, T = 0 an IndexError;
    # T = True and T = np.True_ were read as T = 1
    one = const_coeff([[1.0]])
    with pytest.raises(ValueError, match="m must|T must"):
        if kind == "first":
            odebvp.FirstOrderFamily(m=m, T=T, j=const_coeff([[1j]]), b=one)
        else:
            odebvp.SecondOrderFamily(m=m, T=T, p=one, q=one, r=one)


def test_the_step_count_has_one_default():
    default = odebvp.BvpOpts().steps
    for fn in (odebvp.transfer_matrix, odebvp.eigen_count):
        assert inspect.signature(fn).parameters["steps"].default == default


@pytest.mark.parametrize("steps", [0, 2.5, True])
def test_step_counts_without_a_meaning_are_refused(steps):
    # steps=0 raised ZeroDivisionError, 2.5 ran 2 steps and True one
    fam = first_order(1, 1.0, const_coeff([[1j]]), const_coeff([[1.0]]))
    with pytest.raises(ValueError, match="steps must"):
        odebvp.transfer_matrix(fam, 0.0, steps=steps)
    with pytest.raises(ValueError, match="steps must"):
        odebvp.eigen_count(fam, 0.0, core.diagonal_subspace(1), (-1.0, 1.0), steps=steps)


@pytest.mark.parametrize("window", [(-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0), (1.0, 1.0)])
def test_windows_without_a_meaning_are_refused(window):
    # (-inf, 1) warned, then raised LinAlgError: SVD did not converge
    fam = first_order(1, 1.0, const_coeff([[1j]]), const_coeff([[0.5]]))
    with pytest.raises(ValueError, match="window must be finite and non-empty"):
        odebvp.eigen_count(fam, 0.0, core.diagonal_subspace(1), window, steps=16)


def test_a_coefficient_value_that_is_not_m_by_m_is_named():
    # m = 2 with 1 x 1 coefficients raised a bare "cannot reshape"
    fam = first_order(2, 1.0, const_coeff(1j * np.eye(2)), scalar_coeff(lambda s, t: 0.0))
    with pytest.raises(DimensionMismatch, match=r"^b\(s=0.5, t\) has shape \(17, 1, 1\), "
                                                r"not \(2, 2\) for every t or \(17, 2, 2\) "
                                                r"for the 17 times$"):
        odebvp.transfer_matrix(fam, 0.5, steps=8)
    one = scalar_coeff(lambda s, t: 1.0)
    with pytest.raises(DimensionMismatch, match=r"^p\(s=0,"):
        odebvp.transfer_matrix(odebvp.SecondOrderFamily(2, 1.0, one, one, one), 0.0, steps=8)


@pytest.mark.parametrize("m, value", [
    (1, lambda t: np.ones(len(t))),
    (2, lambda t: np.ones((1, 1))),
    (1, lambda t: np.ones((len(t), 2, 2))),
], ids=["(nt,) at m=1", "(1, 1) at m=2", "(nt, 2, 2) at m=1"])
def test_a_value_of_neither_accepted_shape_raises(m, value):
    # the first and third raised TypeError from len(t) in a per-t fallback
    fam = first_order(m, 1.0, const_coeff(1j * np.eye(m)), lambda s, t: value(t))
    with pytest.raises(DimensionMismatch, match=rf"^b\(s=0.5, t\) has shape .*\({m}, {m}\) "
                                                rf"for every t or \(33, {m}, {m}\)"):
        odebvp._system(fam, 0.5, 16)


def counted(f, calls):
    def g(s, t):
        calls.append(np.shape(t))
        return f(s, t)

    return g


def test_a_coefficient_that_ignores_t_is_called_once_per_grid():
    # one call per grid at 64 steps, (129,) times each: the build fell back
    # to one scalar call per time, 130 calls per grid
    steps, s = 64, 0.3
    j, b = 1j * np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([[0.2, 1j], [-1j, -0.4]])
    p, q, r = np.array([[2.0]]), np.array([[0.3 - 0.1j]]), np.array([[-1.0]])
    calls = []
    plain = first_order(2, 1.0, *(counted(lambda s, t, a=a: a, calls) for a in (j, b)))
    first = odebvp._system(plain, s, steps)
    assert calls == [(2 * steps + 1,)] * 4
    calls.clear()
    plain = odebvp.SecondOrderFamily(1, 2.0, *(counted(lambda s, t, a=a: a, calls)
                                               for a in (p, q, r)))
    second = odebvp._system(plain, s, steps)
    assert calls == [(2 * steps + 1,)] * 3
    # bitwise the systems of the t-array form
    arrays = [odebvp._system(first_order(2, 1.0, const_coeff(j), const_coeff(b)), s, steps),
              odebvp._system(odebvp.SecondOrderFamily(1, 2.0, *map(const_coeff, (p, q, r))),
                             s, steps)]
    for system, reference in zip((first, second), arrays):
        assert system.const is reference.const is True
        assert system.c0.tobytes() == reference.c0.tobytes()
        assert system.c1.tobytes() == reference.c1.tobytes()


def test_coefficients_that_take_only_t_arrays_run_both_pipelines():
    # the end forms called j at a scalar t, so mas_bvp raised TypeError
    fam = first_order(1, 1.0, lambda s, t: 1j * np.ones((len(t), 1, 1)),
                      lambda s, t: np.zeros((len(t), 1, 1)))
    opts = odebvp.BvpOpts(steps=64)
    sf, _ = odebvp.sf_bvp(fam, rotating_w, opts)
    mas, rep = odebvp.mas_bvp(fam, rotating_w, opts)
    assert sf == mas == 1
    assert rep.extras["transport_residual"] <= 1e-12


def test_both_pipelines_share_one_build_per_s(monkeypatch):
    # mas_bvp rebuilt every system sf_bvp had built
    fam, w = stock_family("S3"), rotating_w
    builds = []
    monkeypatch.setattr(odebvp, "_build_first_order",
                        counting(builds, odebvp._build_first_order))
    opts = odebvp.BvpOpts(steps=64)
    _, sf_rep = odebvp.sf_bvp(fam, w, opts)
    _, mas_rep = odebvp.mas_bvp(fam, w, opts)
    built = [s for _, s, _ in builds]
    assert len(built) == len(set(built))
    assert set(built) == set(sf_rep.samples) | set(mas_rep.samples)


def test_maslov_long_reuses_the_endpoint_systems_of_sf_bvp(monkeypatch):
    fam, w = stock_family("S2"), odebvp.w_of_r(None, m=1)
    opts = odebvp.BvpOpts(steps=64)
    odebvp.sf_bvp(fam, w, opts)
    builds = []
    monkeypatch.setattr(odebvp, "_build_second_order",
                        counting(builds, odebvp._build_second_order))
    for s in (0.0, 1.0):
        odebvp.maslov_long(fam, s, w, opts)
    assert builds == []


def test_a_build_that_raises_is_not_kept():
    calls = []
    fam = first_order(1, 1.0, counted(scalar_coeff(lambda s, t: 1j * (t - 0.5)), calls),
                      const_coeff(np.zeros((1, 1))))
    for attempt in (1, 2):
        with pytest.raises(SingularJ):
            odebvp.transfer_matrix(fam, 0.0, 0.0, steps=64)
        assert len(calls) == 3 * attempt  # j on its three grids, each attempt
    assert fam._systems == {}


def test_the_system_table_is_not_part_of_the_family():
    fam = stock_family("S2")
    odebvp.transfer_matrix(fam, 0.5, steps=16)
    assert list(fam._systems) == [(0.5, 16)]
    fresh = replace(fam)
    assert fresh._systems == {}
    assert fresh == fam and hash(fresh) == hash(fam) and repr(fresh) == repr(fam)
    assert replace(fam, r=lambda s, t: np.full((1, 1), -s))._systems == {}
    assert list(fam._systems) == [(0.5, 16)]


def test_a_kept_system_is_shared_and_read_only():
    for name in ("S2", "S3"):
        fam = stock_family(name)
        system = odebvp._system(fam, 0.5, 16)
        assert odebvp._system(fam, np.float64(0.5), np.int64(16)) is system
        arrays = (system.c0, system.c1) if system.const else (system.poly,)
        assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, 2.9])
def test_a_boundary_condition_turning_five_times_gives_five(theta):
    # S1's family against W_s = span(1, e^{i(10 pi s + theta)}): sf_bvp gave
    # 3 or 4, because the horizon match of unequal station lists dropped an
    # eigenvalue that crossed 0 between two stations outside the horizon
    fam = stock_family("S1")

    def w(s):
        return core.subspace_from_span([[1.0], [np.exp(1j * (10.0 * np.pi * s + theta))]])

    assert odebvp.sf_bvp(fam, w)[0] == odebvp.mas_bvp(fam, w)[0] == 5


def test_singular_structure_matrix_raises():
    fam = first_order(
        1, 1.0,
        scalar_coeff(lambda s, t: 1j * (t - 0.5)),
        const_coeff(np.zeros((1, 1))),
    )
    with pytest.raises(SingularJ):
        odebvp.transfer_matrix(fam, 0.0, 0.0, steps=64)


def test_coefficient_errors_other_than_shape_or_type_surface():
    # an error raised by a coefficient surfaces as raised
    def b(s, t):
        if np.ndim(t):
            raise RuntimeError("coefficient failed on a t-array")
        return np.zeros((1, 1))

    fam = first_order(1, 1.0, const_coeff([[1j]]), b)
    with pytest.raises(RuntimeError, match="t-array"):
        odebvp.transfer_matrix(fam, 0.0, steps=16)


def full_grid_row0(fam, s, steps):
    """Row 0 of ``(c0, c1)`` as the build forms them on all 2 steps + 1 grid
    points: the reference a one-point build must reproduce bit for bit."""
    ts = np.linspace(0.0, fam.T, 2 * steps + 1)
    m = fam.m
    if isinstance(fam, odebvp.FirstOrderFamily):
        jinv = np.linalg.inv(odebvp._eval_grid(fam, "j", s, ts))
        bg = core.require_hermitian(odebvp._eval_grid(fam, "b", s, ts))
        hd = fam.T / (8.0 * steps)
        jd = (odebvp._eval_grid(fam, "j", s, ts + hd)
              - odebvp._eval_grid(fam, "j", s, ts - hd)) / (2.0 * hd)
        return (-jinv @ (bg + 0.5 * jd))[0], (-jinv)[0]
    shift = np.zeros((2 * m, 2 * m), dtype=complex)
    shift[:m, m:] = -np.eye(m)
    return complex_second_order_c0(fam, s, ts)[0], shift


def complex_second_order_c0(fam, s, ts):
    """c0 = J b0 of a second-order family on the times ``ts``, every block
    of b0 from complex products."""
    m = fam.m
    pinv = np.linalg.inv(core.require_hermitian(odebvp._eval_grid(fam, "p", s, ts)))
    qg = odebvp._eval_grid(fam, "q", s, ts)
    rg = core.require_hermitian(odebvp._eval_grid(fam, "r", s, ts))
    qh = qg.conj().transpose(0, 2, 1)
    b0 = np.zeros((len(ts), 2 * m, 2 * m), dtype=complex)
    b0[:, :m, :m] = pinv
    b0[:, :m, m:] = -pinv @ qg
    b0[:, m:, :m] = -qh @ pinv
    b0[:, m:, m:] = qh @ pinv @ qg - rg
    return np.concatenate([-b0[:, m:], b0[:, :m]], axis=1)  # J @ b0, as a signed block swap


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_a_second_order_build_assembles_b0_in_the_real_embedding_at_2_to_4(m, monkeypatch):
    drawn = harness._random_second_order(np.random.default_rng(m), m)
    q1 = np.random.default_rng(m + 10).standard_normal((m, m))  # q varies in t too
    fam = replace(drawn, q=lambda s, t: drawn.q(s, t) + np.cos(3.0 * t)[:, None, None] * q1)
    seen = {}
    monkeypatch.setattr(odebvp, "_ShootingSystem", lambda c0, c1, T, steps: seen.update(c0=c0))
    odebvp._build_second_order(fam, 0.7, 256)
    reference = complex_second_order_c0(fam, 0.7, np.linspace(0.0, fam.T, 513))
    if m in odebvp._EMBED_FACTORS:
        scale = np.abs(reference).max()
        npt.assert_allclose(seen["c0"], reference, rtol=0, atol=1e-15 * scale)
    else:  # complex products, as a constant grid's one row is
        assert seen["c0"].tobytes() == reference.tobytes()


def constant_second_order():
    return odebvp.SecondOrderFamily(
        m=2, T=1.5,
        p=const_coeff([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]]),
        q=const_coeff([[0.3, -0.1j], [0.2 + 0.4j, -0.7]]),
        r=const_coeff([[-1.0, 0.2j], [-0.2j, 0.5]]),
    )


def stock_family(name):
    return next(sc.build()[0] for sc in harness.builtin_scenarios() if sc.name == name)


CONSTANT_IN_T = {
    "S1": (lambda: stock_family("S1"), 0.37),
    "S2": (lambda: stock_family("S2"), 0.37),
    "S4": (lambda: stock_family("S4"), 1.0),
    "S3 at s=0": (lambda: stock_family("S3"), 0.0),
    "m=2 second order": (constant_second_order, 0.5),
}


def inverted_stacks(monkeypatch):
    """Record the length of every stack the build inverts."""
    seen, checked_inv = [], odebvp._checked_inv
    monkeypatch.setattr(odebvp, "_checked_inv",
                        lambda a, exc, name: seen.append(len(a)) or checked_inv(a, exc, name))
    return seen


@pytest.mark.parametrize("steps", [16, 2048])
@pytest.mark.parametrize("case", CONSTANT_IN_T)
def test_a_constant_system_is_row_0_of_the_full_grid_bit_for_bit(case, steps):
    make, s = CONSTANT_IN_T[case]
    fam = make()
    system = odebvp._system(fam, s, steps)
    assert system.const is True
    c0, c1 = full_grid_row0(fam, s, steps)
    assert system.c0.tobytes() == c0.tobytes()
    assert system.c1.tobytes() == c1.tobytes()


@pytest.mark.parametrize("case", CONSTANT_IN_T)
def test_a_constant_system_is_built_at_one_grid_point(case, monkeypatch):
    make, s = CONSTANT_IN_T[case]
    fam = make()
    seen = inverted_stacks(monkeypatch)
    assert odebvp._system(fam, s, 64).const is True
    assert seen == [1]


def spike_at_grid_point(value, base, k, T, steps):
    """A coefficient equal to ``base`` except at grid point ``k``."""
    spike = np.linspace(0.0, T, 2 * steps + 1)[k]
    base = np.asarray(base, dtype=complex)

    def f(s, t):
        t = np.asarray(t, dtype=float)
        hit = (t == spike)[..., None, None]
        return np.where(hit, np.asarray(value, dtype=complex), base)

    return f


def test_only_a_bitwise_constant_grid_takes_the_one_point_build(monkeypatch):
    steps = 64
    seen = inverted_stacks(monkeypatch)
    # t-dependence in the coefficients: the full grid
    assert odebvp._system(stock_family("S3"), 0.5, steps).const is False
    # constant except at one interior grid point, of b or of q: the full grid
    # for every coefficient, j and p included
    spiked = [
        first_order(2, 1.0, const_coeff(1j * np.eye(2)),
                    spike_at_grid_point(np.eye(2), np.zeros((2, 2)), 37, 1.0, steps)),
        odebvp.SecondOrderFamily(
            m=1, T=1.0, p=const_coeff([[1.0]]),
            q=spike_at_grid_point([[0.5]], [[0.0]], 37, 1.0, steps),
            r=const_coeff([[1.0]])),
    ]
    for fam in spiked:
        assert odebvp._system(fam, 0.5, steps).const is False
    # rounding-level t-dependence: the full grid and RK4, as for any other
    # t-dependent grid, within rounding of the exactly constant family
    rounding = first_order(
        1, 1.0, scalar_coeff(lambda s, t: 1j * (1.0 + 1e-15 * np.sin(2.0 * np.pi * t))),
        const_coeff([[0.5]]))
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    assert len(np.unique(rounding.j(0.0, ts))) > 1
    assert odebvp._system(rounding, 0.0, steps).const is False
    assert seen == [2 * steps + 1] * 4
    # at the default 2048 steps, where RK4's own error is far below 1e-12
    constant = first_order(1, 1.0, const_coeff([[1j]]), const_coeff([[0.5]]))
    for lam in (-0.7, 0.0, 0.4):
        npt.assert_allclose(odebvp.transfer_matrix(rounding, 0.0, lam),
                            odebvp.transfer_matrix(constant, 0.0, lam), rtol=0, atol=1e-12)


def one_nan_q(s, t):
    # NaN at grid point 7 of 16 steps on [0, 1], 0.5 elsewhere
    t = np.asarray(t, dtype=float)
    return np.where(t == np.linspace(0.0, 1.0, 33)[7], np.nan, 0.5)[:, None, None]


@pytest.mark.parametrize("fam, exc, message", [
    (first_order(2, 1.0, const_coeff(np.zeros((2, 2))), const_coeff(np.zeros((2, 2)))),
     SingularJ,
     "j(s=0.25, t) at a grid point is numerically singular (sigma_min <= 1e-12 sigma_max)"),
    (first_order(2, 1.0, const_coeff(np.eye(2)), const_coeff(np.zeros((2, 2)))),
     NotSkewHermitian,
     "j(s=0.25, t) on the t-grid residual |A + A*| = 2.000e+00 exceeds 1.000e-10"),
    (first_order(2, 1.0, const_coeff(1j * np.eye(2)), const_coeff([[0.0, 1.0], [0.0, 0.0]])),
     NotHermitian,
     "b(s=0.25, t) on the t-grid residual |A - A*| = 1.000e+00 exceeds 1.000e-10"),
    (odebvp.SecondOrderFamily(1, 1.0, const_coeff([[0.0]]), const_coeff([[0.0]]),
                              const_coeff([[1.0]])),
     SingularP,
     "p(s=0.25, t) at a grid point is numerically singular (sigma_min <= 1e-12 sigma_max)"),
    (odebvp.SecondOrderFamily(1, 1.0, const_coeff([[1.0]]), const_coeff([[np.nan]]),
                              const_coeff([[1.0]])),
     NonFinite, "q(s=0.25, t) is not finite at a grid point"),
    (odebvp.SecondOrderFamily(1, 1.0, const_coeff([[1.0]]), one_nan_q, const_coeff([[1.0]])),
     NonFinite, "q(s=0.25, t) is not finite at a grid point"),
], ids=["j=0", "j Hermitian", "b not Hermitian", "p=0", "q=NaN", "q NaN at one point"])
def test_constant_grids_raise_the_typed_errors(fam, exc, message):
    # each message is the one the build raised when it checked every grid point
    with pytest.raises(exc) as err:
        odebvp._system(fam, 0.25, 16)
    assert type(err.value) is exc and str(err.value) == message


def test_w_of_r_refuses_an_m_that_disagrees_with_r():
    # R in C^2 with m = 3 gave a W in C^4, refused only later by the pipelines
    with pytest.raises(ValueError, match="C\\^{2m} = C\\^6, not C\\^2"):
        odebvp.w_of_r(np.ones((2, 1)), m=3)
    fam = dirichlet_second(lambda s, t: -1.5 * s, m=2)
    with pytest.raises(ValueError, match="C\\^{2m} = C\\^4, not C\\^2"):
        odebvp.index_difference_check(fam, np.ones((2, 1)))


def test_w_of_r_is_always_lagrangian():
    m = 2
    fam = dirichlet_second(lambda s, t: 0.0, m=m)
    space = odebvp.boundary_space(fam, 0.0)
    rng = np.random.default_rng(4)
    cases = {
        "dirichlet": odebvp.w_of_r(None, m=m),
        "full": odebvp.w_of_r(np.eye(2 * m), m=m),
        "diagonal": odebvp.w_of_r(
            np.vstack([np.eye(m), np.eye(m)]), m=m
        ),
        "random line": odebvp.w_of_r(rng.normal(size=(2 * m, 1)), m=m),
        "1-D line": odebvp.w_of_r(np.ones(2 * m), m=m),
    }
    for label, w in cases.items():
        assert core.classify(space, w) is core.SubspaceClass.LAGRANGIAN, label
        assert w.dim == 2 * m  # half of dim C^{4m}
    # A 1-D array is one spanning vector, the same R as its column.
    column = odebvp.w_of_r(np.ones((2 * m, 1)), m=m)
    assert core.equal_subspaces(cases["1-D line"], column)


@pytest.mark.parametrize("r, m", [(None, None), (np.eye(3), None)], ids=["no-m", "odd-ambient"])
def test_w_of_r_needs_positions_in_c_2m(r, m):
    with pytest.raises(ValueError):
        odebvp.w_of_r(r, m)


@pytest.mark.parametrize("m", [True, 0, 2.5, -1])
def test_w_of_r_refuses_an_m_that_is_not_a_block_size(m):
    # True gave a W in C^4 and 0 a 0 x 0 frame; 2.5 and -1 raised NumPy's errors
    with pytest.raises(ValueError, match="m must be an integer of at least 1"):
        odebvp.w_of_r(None, m=m)


def test_w_of_r_takes_r_as_a_subspace_or_its_frame():
    frame = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 2.0]])
    npt.assert_array_equal(odebvp.w_of_r(core.subspace_from_span(frame)).frame,
                           odebvp.w_of_r(frame).frame)


def test_graph_subspace_is_lagrangian():
    fam = first_order(
        1, 1.0,
        scalar_coeff(lambda s, t: 1j * (1.0 + 0.5 * np.sin(np.pi * t))),
        scalar_coeff(lambda s, t: np.cos(t)),
    )
    space = odebvp.boundary_space(fam, 0.0)
    g = odebvp.transfer_matrix(fam, 0.0, 0.0, steps=512)
    sub = odebvp.graph_subspace(g)
    assert core.classify(space, sub) is core.SubspaceClass.LAGRANGIAN


def test_checkpoints_end_at_the_plain_propagation():
    g = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.2]])
    varying = first_order(
        2, 1.0,
        lambda s, t: 1j * (np.eye(2) + 0.5 * s * np.sin(np.pi * t)[..., None, None] * g),
        lambda s, t: np.cos(t)[..., None, None] * g + s * np.eye(2),
    )
    constant = first_order(2, 1.0, const_coeff(1j * np.eye(2)), const_coeff(g))
    lams = [-0.3, 0.0, 0.4]
    for steps in (256, 100, 257):
        for fam, const in ((varying, False), (constant, True)):
            system = odebvp._system(fam, 0.7, steps)
            assert system.const is const
            path = system.propagate(lams, True)
            assert path.shape == (steps + 1, 3, 2, 2)
            npt.assert_array_equal(path[0], np.broadcast_to(np.eye(2), (3, 2, 2)))
            npt.assert_array_equal(path[-1], system.propagate(lams))
    # with j = i I the constant system is exp(i (g + lambda I) t) at every grid time
    for t, gammas in zip(np.linspace(0.0, 1.0, 258), path):
        for lam, gamma in zip(lams, gammas):
            npt.assert_allclose(gamma, expm(1j * (g + lam * np.eye(2)) * t), rtol=0, atol=1e-13)


def rk4_loop(c0, c1, T, steps, lams):
    """Classical RK4 for x' = (C0 + lambda C1) x, one step at a time: the
    reference the loop-free propagator must reproduce.  Returns the
    fundamental solutions at every grid time, ``(steps + 1, L, d, d)``."""
    h, lam = T / steps, np.asarray(lams, dtype=complex)[:, None, None]
    x = np.broadcast_to(np.eye(c0.shape[1], dtype=complex), (len(lam),) + c0.shape[1:])
    path = [x]
    for k in range(steps):
        a0, am, a1 = (c0[i] + lam * c1[i] for i in (2 * k, 2 * k + 1, 2 * k + 2))
        k1 = a0 @ x
        k2 = am @ (x + (0.5 * h) * k1)
        k3 = am @ (x + (0.5 * h) * k2)
        k4 = a1 @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        path.append(x)
    return np.array(path)


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 100, 256])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])  # real arithmetic at 2 <= d <= 4 only
def test_propagate_matches_the_reference_loop(d, steps):
    rng = np.random.default_rng([d, steps])
    shape = (2 * steps + 1, d, d)
    c0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    inputs = [(c1, 5)]
    if d in (2, 4):  # one row [[0, -I], [0, 0]], nilpotent as a second-order C1 is
        nilpotent = np.zeros((1, d, d), dtype=complex)
        nilpotent[0, :d // 2, d // 2:] = -np.eye(d // 2)
        inputs.append((nilpotent, 3))  # its lambda^3 and lambda^4 coefficients are 0
    for c1, n_coeffs in inputs:
        system = odebvp._ShootingSystem(c0, c1, 1.0, steps)
        assert system.const is False and system.real is (2 <= d <= 4)
        assert len(system.poly) == n_coeffs
        c1 = np.broadcast_to(c1, shape)
        for n_lams in (1, 3, 70):  # 70 at d = 4, 256 steps spans more than one chunk
            lams = rng.uniform(-1.0, 1.0, n_lams)
            reference = rk4_loop(c0, c1, 1.0, steps, lams)
            gammas = system.propagate(lams)
            npt.assert_allclose(gammas, reference[-1], rtol=0, atol=1e-12)
            npt.assert_allclose(system.propagate(lams, True), reference, rtol=0, atol=1e-12)
            # the result does not depend on the batch it came in
            for lam, gamma in zip(lams, gammas):
                npt.assert_array_equal(system.propagate([lam])[0], gamma)


@pytest.mark.parametrize("d", [2, 4])
def test_the_real_step_polynomial_is_the_complex_one(d):
    rng = np.random.default_rng(d)
    shape = (2 * 100 + 1, d, d)
    c0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert odebvp._ShootingSystem(c0, c1, 1.0, 100).real is True
    npt.assert_allclose(odebvp._rk4_step_polynomial(c0, c1, 0.01, True),
                        odebvp._rk4_step_polynomial(c0, c1, 0.01, False), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d, steps", [(1, 8), (2, 8), (4, 8), (6, 8), (4, 1)])
def test_a_shooting_parameter_off_the_real_line_is_refused(d, steps):
    rng = np.random.default_rng(d)
    shape = (2 * steps + 1, d, d) if steps > 1 else (1, d, d)  # (4, 1): a constant system
    c0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    system = odebvp._ShootingSystem(c0, c0, 1.0, steps)
    for lams in ([0.5j], [0.0, 0.1 + 1e-300j]):
        with pytest.raises(ValueError, match="must be real"):
            system.propagate(lams)
        with pytest.raises(ValueError, match="must be real"):
            system.propagate(lams, True)
    npt.assert_array_equal(system.propagate([0.1 + 0j]), system.propagate([0.1]))


@pytest.mark.parametrize("lam", [0.5j, np.nan, np.inf, -np.inf],
                         ids=["complex", "nan", "inf", "-inf"])
def test_transfer_matrix_refuses_a_lambda_off_the_finite_real_line(lam):
    # NaN and +-inf gave a NaN matrix with no error
    with pytest.raises(ValueError, match="must be real and finite"):
        odebvp.transfer_matrix(stock_family("S1"), 0.5, lam)


def test_propagation_memory_is_flat_in_the_batch():
    # 257 lambdas is the detector's uncertified node count; unchunked, the
    # stack of step matrices alone would take 135 MB here
    fam = harness._random_second_order(np.random.default_rng(3), 2)
    tracemalloc.start()
    try:
        system = odebvp._build_second_order(fam, 0.5, 2048)
        gammas = system.propagate(np.linspace(-1.0, 1.0, 257))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.const is False and gammas.shape == (257, 4, 4)
    assert peak <= 16e6  # 10.27 MB measured; b0 and its embeddings are freed before RK4


@pytest.mark.parametrize("r_fun, const", [
    (lambda s, t: -1.0, True),
    (lambda s, t: -1.0 + 0.5 * np.cos(2.0 * t), False),
], ids=["constant", "varying"])
def test_maslov_long_ends_at_the_transfer_matrix_graph(r_fun, const):
    fam = dirichlet_second(r_fun, T=2.0)
    assert odebvp._system(fam, 0.5, 256).const is const
    w = odebvp.w_of_r(None, m=1)
    _, report = odebvp.maslov_long(fam, 0.5, w, odebvp.BvpOpts(steps=256))
    graph = odebvp.graph_subspace(odebvp.transfer_matrix(fam, 0.5, 0.0, steps=256))
    splitting = core.make_splitting(odebvp.boundary_space(fam, 0.5))
    pair_unitary = core.graph_rep(splitting, graph) @ core.graph_rep(splitting, w).conj().T
    npt.assert_array_equal(report.samples[fam.T], flow.eigenphases(pair_unitary))


def test_softening_oscillator_both_pipelines():
    # lowest Dirichlet eigenvalue 1 - 1.5 s crosses zero downward at s = 2/3
    fam = dirichlet_second(lambda s, t: -1.5 * s)
    w = odebvp.w_of_r(None, m=1)
    opts = odebvp.BvpOpts(steps=512)
    sf, sf_rep = odebvp.sf_bvp(fam, w, opts)
    mas, mas_rep = odebvp.mas_bvp(fam, w, opts)
    assert sf == mas == -1
    assert mas_rep.extras["transport_residual"] <= 1e-6
    # the river actually saw the crossing branch
    coords_end = sf_rep.samples[max(sf_rep.samples)]
    assert any(c < 0 for c in coords_end)


def rotating_ladder(*thetas):
    """x' = i lambda x on [0, 1] (j = iI, b = 0) with x(T) = diag(e^{i theta_k(s)}) x(0):
    the eigenvalues are theta_k(s) + 2 pi n, so each theta_k adds its net
    number of turns to the spectral flow."""
    m = len(thetas)
    fam = first_order(m, 1.0, const_coeff(1j * np.eye(m)), const_coeff(np.zeros((m, m))))

    def w(s):
        turns = np.diag(np.exp([1j * theta(s) for theta in thetas]))
        return core.subspace_from_span(np.vstack([np.eye(m), turns]))

    return fam, w


def dirichlet_oscillator(k):
    """-x'' + (0.5 - k s) x on [0, pi] with Dirichlet conditions: the
    eigenvalues n^2 + 0.5 - k s, n >= 1, each cross 0 downward once while
    n^2 < k - 0.5."""
    return dirichlet_second(lambda s, t: 0.5 - k * s), odebvp.w_of_r(None, m=1)


CLOSED_FORM_FAMILIES = {
    "two copies of 4 pi s": (lambda: rotating_ladder(lambda s: 4 * np.pi * s,
                                                     lambda s: 4 * np.pi * s), 4),
    "speeds 2 and 3": (lambda: rotating_ladder(lambda s: 4 * np.pi * s + 0.3,
                                               lambda s: 6 * np.pi * s + 1.1), 5),
    "touch": (lambda: rotating_ladder(lambda s: 2 * np.pi * np.sin(np.pi * s) ** 2), 0),
    "opposite pair": (lambda: rotating_ladder(lambda s: 4 * np.pi * s + 0.3,
                                              lambda s: -4 * np.pi * s + 0.3), 0),
    **{f"oscillator K={k}": (lambda k=k: dirichlet_oscillator(k),
                             -sum(1 for n in range(1, k) if n * n < k - 0.5))
       for k in (10, 20, 30)},
}


@pytest.mark.parametrize("case", CLOSED_FORM_FAMILIES)
def test_both_pipelines_give_the_closed_form_integer(case):
    make, expected = CLOSED_FORM_FAMILIES[case]
    fam, w = make()
    sf, _ = odebvp.sf_bvp(fam, w)
    mas, _ = odebvp.mas_bvp(fam, w)
    assert sf == mas == expected


def half_line_well_bound_states(v):
    """Eigenvalues below 0 of -x'' + (1 - v) x on [0, 2] with x(0) = 0 and
    x'(2) = -x(2): x = sin(kt) with k^2 = lambda - 1 + v, so one per root
    of k cos 2k + sin 2k on (0, sqrt(v - 1))."""
    if v <= 1.0:
        return 0
    k = np.linspace(0.0, np.sqrt(v - 1.0), 20001)[1:]
    return int(np.count_nonzero(np.diff(np.sign(k * np.cos(2 * k) + np.sin(2 * k)))))


@pytest.mark.parametrize("v0, v1, expected", [(1.0, 9.0, -2), (0.5, 20.5, -3), (3.0, 0.5, 1)])
def test_both_pipelines_count_the_bound_states_of_a_half_line_well(v0, v1, expected):
    # -x'' + (1 - V) x on the half-line with V supported in [0, 2]: past t = 2
    # an L^2 solution at lambda = 0 is e^{-t}, so x'(2) = -x(2) is its decay
    # condition, and the integer is the bound states at V(0) less those at V(1)
    fam = dirichlet_second(lambda s, t: 1.0 - (v0 + (v1 - v0) * s), T=2.0)
    # boundary vectors (x'(0), x(0), x'(2), x(2)): x(0) = 0 and x'(2) = -x(2)
    w = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    assert half_line_well_bound_states(v0) - half_line_well_bound_states(v1) == expected
    sf, _ = odebvp.sf_bvp(fam, w)
    mas, _ = odebvp.mas_bvp(fam, w)
    assert sf == mas == expected


def test_periodic_first_order_both_pipelines():
    fam = first_order(
        1, 1.0,
        const_coeff(1j * np.eye(1)),
        scalar_coeff(lambda s, t: (s - 1.0 / 3.0) * (1.0 + np.cos(2.0 * np.pi * t))),
    )
    w = core.diagonal_subspace(1)
    opts = odebvp.BvpOpts(steps=512)
    sf, _ = odebvp.sf_bvp(fam, w, opts)
    mas, _ = odebvp.mas_bvp(fam, w, opts)
    assert sf == mas == -1


# t-direction index --------------------------------------------------------
#
# The solution-graph eigenphases sink through 1 as t grows, so departures
# (including the maximal one at t = 0) count -1 each and downward arrivals
# at the far end count 0.

def test_maslov_long_free_problem():
    fam = dirichlet_second(lambda s, t: 0.0, T=1.0)
    w = odebvp.w_of_r(None, m=1)
    val, _ = odebvp.maslov_long(fam, 0.0, w, odebvp.BvpOpts(steps=512))
    assert val == -1  # departure at t = 0 only; x(t) = t never vanishes again


def test_maslov_long_conjugate_points():
    w = odebvp.w_of_r(None, m=1)
    opts = odebvp.BvpOpts(steps=512)
    # sin(t): vanishes again exactly at T = pi (downward arrival, counts 0)
    val, _ = odebvp.maslov_long(dirichlet_second(lambda s, t: -1.0), 0.0, w, opts)
    assert val == -1
    # sin(2t): interior conjugate point at pi/2, then the arrival at pi
    val, _ = odebvp.maslov_long(dirichlet_second(lambda s, t: -4.0), 0.0, w, opts)
    assert val == -2


def test_maslov_long_refines_its_grid_to_the_transport_margin(monkeypatch):
    # r = -4 - 2 sin t: the worst checkpoint residual is 1.9e-6 at 64 steps
    # and falls 32-fold per doubling, under 1e-9 only at 512 steps, three
    # doublings up; from 32 steps three doublings are not enough
    fam = dirichlet_second(lambda s, t: -4.0 - 2.0 * np.sin(t))
    w = odebvp.w_of_r(None, m=1)
    seen = []
    system = odebvp._system
    monkeypatch.setattr(odebvp, "_system", lambda f, s, n: seen.append(n) or system(f, s, n))
    val, _ = odebvp.maslov_long(fam, 0.5, w, odebvp.BvpOpts(steps=64))
    assert seen == [64, 128, 256, 512]
    assert val == odebvp.maslov_long(fam, 0.5, w, odebvp.BvpOpts(steps=512))[0]
    seen.clear()
    with pytest.raises(TransportBudgetExceeded, match=r"s=0\.5: transport residual .* at 256 steps"):
        odebvp.maslov_long(fam, 0.5, w, odebvp.BvpOpts(steps=32))
    assert seen == [32, 64, 128, 256]


def test_index_difference_check():
    fam = dirichlet_second(lambda s, t: -1.5 * s)
    out = odebvp.index_difference_check(fam, None, odebvp.BvpOpts(steps=512))
    assert out.agree
    assert out.sf == -1
    assert out.i_w_end - out.i_w_start == -1

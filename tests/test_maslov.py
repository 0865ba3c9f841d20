"""Maslov index of Lagrangian pair paths; product/real-category identities."""

from collections import Counter, namedtuple

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as la

from maslovflow import core, flow, harness, maslov
from maslovflow.errors import (
    BadMetric,
    Degenerate,
    DimensionMismatch,
    NonFinite,
    NotLagrangian,
    NotLagrangianReal,
    NotSkewHermitian,
)
from maslovflow.flow import FlowOpts

STD2 = np.array([[1j, 0], [0, -1j]])


def at(path, s):
    """The path's (space, lambda, mu) at one s, read from a batch of that s."""
    return tuple(core.member(x, 0) for x in path.sampler(np.array([s])))


def rotation_path(k, n=1):
    """lam(s) = graph(e^{2 pi i k s} I_n) against the fixed mu = graph(I_n)
    in C^{2n} with the diagonal +-i form."""
    j = np.kron(np.diag([1.0, -1.0]), np.eye(n)) * 1j
    space = core.make_space(j)
    sp = core.make_splitting(space)

    def lam(s):
        u = np.exp(2j * np.pi * k * s) * np.eye(n)
        return core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ u)

    mu = core.subspace_from_span(sp.hframe_plus + sp.hframe_minus)
    return maslov.PairPath.from_parts(j, lam, mu, (0.0, 1.0))


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_rotation_winding(k):
    total, _ = maslov.maslov_index(rotation_path(k))
    assert total == k


def test_multiplicity_doubles_the_index():
    total, _ = maslov.maslov_index(rotation_path(1, n=2))
    assert total == 2


def test_block_formula_agrees():
    for k in (-1, 0, 2):
        path = rotation_path(k)
        a, _ = maslov.maslov_index(path)
        b, _ = maslov.maslov_index_block(path)
        assert a == b == k


def test_constant_pair_is_zero():
    # constant inputs may be plain matrices
    frame = np.array([[1.0], [1.0]]) / np.sqrt(2)
    path = maslov.PairPath.from_parts(STD2, frame, frame, (0.0, 1.0))
    total, _ = maslov.maslov_index(path)
    assert total == 0


def test_results_do_not_depend_on_the_frames():
    # Every reported number is an invariant of subspaces: right-multiplying
    # each frame by a unitary (another orthonormal frame of the same
    # subspace) changes no intersection, index, eigenphase or Maslov index.
    rng = np.random.default_rng(17)
    path = harness._random_pair_path(rng, 6)
    gauges = {}

    def regauge(sub):
        if sub.dim not in gauges:
            gauges[sub.dim] = harness._random_unitary(rng, sub.dim)
        return core.Subspace(frame=sub.frame @ gauges[sub.dim])

    space, lam, mu = at(path, 0.3)
    shared = core.subspace_from_span(np.hstack([lam.frame[:, :1], mu.frame[:, 1:]]))
    splitting = core.make_splitting(space)
    for a, b in ((lam, mu), (lam, lam), (shared, mu)):
        ra, rb = regauge(a), regauge(b)
        assert core.intersection_dim(ra, rb) == core.intersection_dim(a, b)
        assert core.pair_index(space, ra, rb) == core.pair_index(space, a, b)

    def pair_unitary(a, b):
        return core.graph_rep(splitting, a) @ core.graph_rep(splitting, b).conj().T

    npt.assert_allclose(flow.eigenphases(pair_unitary(regauge(lam), regauge(mu))),
                        flow.eigenphases(pair_unitary(lam, mu)), atol=1e-12)
    moved = path._mapped(lambda s, space, lam, mu: (space, regauge(lam), regauge(mu)))
    total, report = maslov.maslov_index(path)
    moved_total, moved_report = maslov.maslov_index(moved)
    assert moved_total == total
    assert moved_report.partition == report.partition


def test_product_identities_on_rotation():
    path = rotation_path(1)
    flipped = path.flipped_swapped()
    paths = (path, path.boxplus_diagonal(), flipped, flipped.boxplus_diagonal())
    assert [maslov.maslov_index(p)[0] for p in paths] == [1, 1, 1, 1]


def test_swap_sum_rule():
    # Mas{lam, mu} + Mas{mu, lam} telescopes to the endpoint intersection
    # numbers; here both endpoints intersect in dimension 1.
    path = rotation_path(1)
    fwd, _ = maslov.maslov_index(path)
    rev, _ = maslov.maslov_index(path.swapped())
    a, b = path.interval
    space_a, lam_a, mu_a = at(path, a)
    space_b, lam_b, mu_b = at(path, b)
    dim_a = core.intersection_dim(lam_a, mu_a)
    dim_b = core.intersection_dim(lam_b, mu_b)
    assert (dim_a, dim_b) == (1, 1)
    assert fwd + rev == dim_a - dim_b
    assert (fwd, rev) == (1, -1)


def test_catenation():
    path = rotation_path(1)
    whole, _ = maslov.maslov_index(path)
    left = maslov.PairPath(sampler=path.sampler, interval=(0.0, 0.35))
    right = maslov.PairPath(sampler=path.sampler, interval=(0.35, 1.0))
    l, _ = maslov.maslov_index(left)
    r, _ = maslov.maslov_index(right)
    assert whole == l + r == 1


def test_pushforward_invariance():
    path = rotation_path(1)
    t = np.diag([np.exp(0.7j), np.exp(-0.3j)])  # preserves the diagonal form
    moved = path.pushforward(t)
    a, _ = maslov.maslov_index(path)
    b, _ = maslov.maslov_index(moved)
    assert a == b


@pytest.mark.parametrize("l, exc, message", [
    (lambda s: np.eye(2), DimensionMismatch,
     r"^L must be one nonempty square matrix, got shape \(\)$"),
    (np.eye(2)[:, :1], DimensionMismatch,
     r"^L must be one nonempty square matrix, got shape \(2, 1\)$"),
    (np.stack([np.eye(2)] * 3), DimensionMismatch,
     r"^L must be one nonempty square matrix, got shape \(3, 2, 2\)$"),
    (np.zeros((0, 0)), DimensionMismatch,
     r"^L must be one nonempty square matrix, got shape \(0, 0\)$"),
    # these three raised NumPy's matmul ValueError, SciPy's ValueError and LinAlgError
    (np.eye(3), DimensionMismatch, r"^L is 3 x 3, the path lives in C\^2$"),
    (np.diag([1.0, np.nan]), NonFinite, r"^L holds a non-finite entry$"),
    (np.diag([1.0, 0.0]), Degenerate, r"^L is numerically singular"),
], ids=["callable", "not square", "a stack", "empty", "another dimension", "nan", "singular"])
def test_pushforward_takes_one_invertible_matrix_of_the_path_dimension(l, exc, message):
    with pytest.raises(exc, match=message):
        maslov.maslov_index(rotation_path(1).pushforward(l))


def test_splitting_independence():
    metric = np.diag([1.0, 2.0])
    canonical, _ = maslov.maslov_index(rotation_path(1))
    deformed, _ = maslov.maslov_index(rotation_path(1), metric=metric)
    assert canonical == deformed == 1


def test_isotropy_residual_reported():
    _, rep = maslov.maslov_index(rotation_path(1))
    assert rep.extras["isotropy_residual"] <= 1e-10
    assert rep.extras["unit_circle_residual"] <= 1e-10


# real category ------------------------------------------------------------

RealPair = namedtuple("RealPair", "j lam mu_path interval")  # complexify_and_compare's arguments


def line_rotation_data():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    lam = np.array([[1.0], [0.0]])

    def mu_path(s):
        th = np.pi * s
        return np.array([[np.cos(th)], [np.sin(th)]])

    return RealPair(j, lam, mu_path, (0.0, 1.0))


def test_real_comparison_on_line_rotation():
    cmp = maslov.complexify_and_compare(*line_rotation_data())
    assert cmp.agree
    assert cmp.mas == 1
    assert cmp.mas_bf == -1
    assert cmp.residual <= 1e-12


def test_real_generator_is_unitary_symmetric():
    data = line_rotation_data()
    v, s = maslov._real_generator(data.j, data.lam, data.mu_path(0.3))
    npt.assert_allclose(v.conj().T @ v, np.eye(1), atol=1e-12)
    npt.assert_allclose(s, s.T, atol=1e-12)


def test_real_frames_validated():
    data = line_rotation_data()
    bad = data._replace(lam=np.array([[2.0], [0.0]]))  # not orthonormal
    with pytest.raises(NotLagrangianReal):
        maslov.complexify_and_compare(*bad)
    with pytest.raises(Degenerate, match="J\\^2 = -I"):
        maslov.complexify_and_compare(*data._replace(j=2.0 * data.j))


NAN_FRAME = np.array([[np.nan], [0.0]])


@pytest.mark.parametrize("part, bad, exc, message", [
    ("mu_path", lambda s: NAN_FRAME, NotLagrangianReal, "mu frame at s="),
    ("lam", NAN_FRAME, NotLagrangianReal, "lambda frame"),
    ("j", np.array([[0.0, -1.0], [1.0, np.nan]]), NotSkewHermitian, "real structure matrix"),
    # wrong shapes raised IndexError (a 1-D frame), ValueError from a maximum
    # over no entries (no columns, j empty) or NumPy's broadcast ValueError
    ("lam", np.array([1.0, 0.0]), DimensionMismatch,
     r"^lambda frame must be a 2 x 1 matrix, got shape \(2,\)$"),
    ("mu_path", lambda s: np.array([1.0, 0.0]), DimensionMismatch,
     r"^mu frame at s=0 must be a 2 x 1 matrix, got shape \(2,\)$"),
    ("lam", np.zeros((2, 0)), DimensionMismatch,
     r"^lambda frame must be a 2 x 1 matrix, got shape \(2, 0\)$"),
    ("j", np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]), DimensionMismatch,
     r"^real structure matrix must be a square matrix, got shape \(2, 3\)$"),
    ("j", np.zeros((0, 0)), DimensionMismatch,
     r"^real structure matrix must be nonempty, got shape \(0, 0\)$"),
], ids=["mu", "lambda", "j", "lambda 1-D", "mu 1-D", "lambda without columns", "j not square",
        "j empty"])
def test_a_nan_in_the_real_bridge_raises_a_typed_error_naming_the_field(part, bad, exc, message):
    data = line_rotation_data()
    with pytest.raises(exc, match=message):
        maslov.complexify_and_compare(*data._replace(**{part: bad}))


def test_real_generator_refuses_a_nan_frame():
    data = line_rotation_data()
    with pytest.raises(NotLagrangianReal):
        maslov._real_generator(data.j, data.lam, NAN_FRAME)


def real_comparison_draws(seed=42, trials=16):
    """The RealPair arguments the sweep's real_comparison suite draws."""
    draws = []
    compare = maslov.complexify_and_compare

    def record(*args):
        draws.append(RealPair(*args))
        return compare(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maslov, "complexify_and_compare", record)
        harness.property_sweep(seed, trials, suites=("real_comparison",))
    assert len(draws) == trials
    return draws


def test_real_generator_answers_a_stack_as_its_members_alone():
    for data in real_comparison_draws(trials=4):
        frames = np.stack([data.mu_path(s) for s in np.linspace(0.0, 1.0, 7)])
        v, s = maslov._real_generator(data.j, data.lam, frames)
        for i, frame in enumerate(frames):
            vi, si = maslov._real_generator(data.j, data.lam, frame)
            assert np.array_equal(v[i], vi) and np.array_equal(s[i], si)


@pytest.mark.parametrize("bad, exc", [(np.zeros((2, 1)), Degenerate),
                                      (NAN_FRAME, NotLagrangianReal)], ids=["zero", "nan"])
def test_one_bad_member_of_a_stack_raises_what_it_raises_alone(bad, exc):
    data = line_rotation_data()
    with pytest.raises(exc):
        maslov._real_generator(data.j, data.lam, bad)
    frames = np.stack([data.mu_path(0.2), bad, data.mu_path(0.7)])
    with pytest.raises(exc):
        maslov._real_generator(data.j, data.lam, frames)


def test_a_frame_stack_with_no_members_has_no_generator():
    # raised NumPy's bare ValueError from a maximum over no entries
    data = line_rotation_data()
    with pytest.raises(DimensionMismatch,
                       match=r"^mu_frame must be nonempty, got shape \(0, 2, 1\)$"):
        maslov._real_generator(data.j, data.lam, np.zeros((0, 2, 1)))


def test_the_bridge_reads_each_mu_frame_once_per_s():
    # both flows used to read and check the frame at every s they sampled
    data = line_rotation_data()
    calls = Counter()

    def mu_path(s):
        calls[s] += 1
        return data.mu_path(s)

    assert maslov.complexify_and_compare(*data._replace(mu_path=mu_path)).agree
    assert calls and set(calls.values()) == {1}


def _per_s_real_generator(j, lam_frame, mu_frame):
    """``_real_generator`` for one frame, as it was before it took stacks."""
    q = np.asarray(lam_frame, dtype=float)
    mfr = np.asarray(mu_frame, dtype=float)
    t = (j @ q).T @ mfr - 1j * (q.T @ mfr)
    tt = (t.conj().T @ t).real
    w, vecs = la.eigh(0.5 * (tt + tt.T))
    v = t @ ((vecs / np.sqrt(w)) @ vecs.T)
    return v, v @ v.T


def _per_s_comparison(data):
    """``complexify_and_compare`` with the generator path sampled one s at a
    time, as it was before the generator side took a batch."""
    j = np.asarray(data.j, dtype=float)
    q = np.asarray(data.lam, dtype=float)
    path = maslov.PairPath.from_parts(j, q, data.mu_path, data.interval)
    mas, _ = maslov.maslov_index(path)
    basis = np.hstack([(q - 1j * (j @ q)) / np.sqrt(2.0), (q + 1j * (j @ q)) / np.sqrt(2.0)])
    m = q.shape[1]
    coords_lam = la.solve(basis, q.astype(complex))
    u_inv = la.inv(coords_lam[m:] @ la.inv(coords_lam[:m]))
    stats = {"residual": 0.0}

    def generator_phases(s):
        mfr = np.asarray(data.mu_path(s), dtype=float)
        _, smat = _per_s_real_generator(j, q, mfr)
        coords_mu = la.solve(basis, mfr.astype(complex))
        bridge = coords_mu[m:] @ la.inv(coords_mu[:m]) @ u_inv
        stats["residual"] = max(stats["residual"], float(np.abs(bridge + smat.conj()).max()))
        return flow.eigenphases(-smat.conj())

    mas_bf, _ = flow.flow_from_sampler(lambda ss: [generator_phases(s) for s in ss],
                                       data.interval, circular=True)
    return mas, mas_bf, stats["residual"]


def test_the_batched_bridge_matches_the_per_s_reference_on_the_sweep_draws():
    for data in real_comparison_draws():
        cmpr = maslov.complexify_and_compare(*data)
        assert (cmpr.mas, cmpr.mas_bf, cmpr.residual) == _per_s_comparison(data)


def test_from_parts_evaluates_a_form_path_once_per_sample():
    calls = Counter()
    base = rotation_path(1)

    def j(s):
        calls[s] += 1
        return STD2

    path = maslov.PairPath.from_parts(
        j, lambda s: at(base, s)[1], at(base, 0.0)[2], (0.0, 1.0)
    )
    total, rep = maslov.maslov_index(path)
    assert total == 1
    assert set(calls) == set(rep.samples)
    assert set(calls.values()) == {1}


def test_opts_are_honored():
    total, rep = maslov.maslov_index(rotation_path(1), FlowOpts(initial_segments=8))
    assert total == 1
    assert len(rep.partition) >= 9


def test_a_shape_change_inside_a_batch_raises_a_typed_error():
    # the frame of lambda loses its rank at s = 0.5, a first-depth midpoint
    base = rotation_path(1)

    def lam(s):
        return np.zeros((2, 1)) if s == 0.5 else at(base, s)[1].frame

    path = maslov.PairPath.from_parts(STD2, lam, at(base, 0.0)[2], (0.0, 1.0))
    with pytest.raises(NotLagrangian):
        maslov.maslov_index(path)
    grown = maslov.PairPath.from_parts(
        lambda s: np.kron(np.eye(2), STD2) if s == 0.5 else STD2,
        at(base, 0.0)[1], at(base, 0.0)[2], (0.0, 1.0))
    with pytest.raises(DimensionMismatch):
        maslov.maslov_index(grown)


@pytest.mark.parametrize("index", [maslov.maslov_index, maslov.maslov_index_block])
@pytest.mark.parametrize("keep", [1, 2])
def test_a_stack_that_is_not_one_member_per_s_is_refused(index, keep):
    # a sampler that stacks lambda for the first s alone was broadcast over
    # the batch and read 0; two members raised NumPy's untyped ValueError
    path = maslov.PairPath.from_parts(STD2, lambda s: [1.0, np.exp(2j * np.pi * s)],
                                      [1.0, 1.0], (0.0, 1.0))
    assert index(path)[0] == 1

    def short_sampler(ss):
        space, lam, mu = path.sampler(ss)
        return space, core.Subspace(frame=lam.frame[:keep]), mu

    short = maslov.PairPath(sampler=short_sampler, interval=path.interval)
    with pytest.raises(DimensionMismatch, match=f"lambda is a stack of shape \\({keep},\\)"):
        index(short)


def test_an_indefinite_metric_is_refused():
    with pytest.raises(BadMetric, match="positive definite"):
        maslov.maslov_index(rotation_path(1), metric=np.diag([1.0, -1.0]))


"""Maslov index of Lagrangian pair paths; product/real-category identities."""

from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from maslovflow import core, flow, harness, maslov
from maslovflow.errors import (
    BadMetric,
    DimensionMismatch,
    NotLagrangian,
    NotLagrangianReal,
    NotSkewHermitian,
)
from maslovflow.flow import FlowOpts

STD2 = np.array([[1j, 0], [0, -1j]])


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

    space, lam, mu = path.sampler(0.3)
    shared = core.subspace_from_span(np.hstack([lam.frame[:, :1], mu.frame[:, 1:]]))
    splitting = core.make_splitting(space)
    for a, b in ((lam, mu), (lam, lam), (shared, mu)):
        ra, rb = regauge(a), regauge(b)
        assert core.intersection_dim(ra, rb) == core.intersection_dim(a, b)
        assert core.pair_index(space, ra, rb) == core.pair_index(space, a, b)
    npt.assert_allclose(
        flow.eigenphases(core.pair_unitary(splitting, regauge(lam), regauge(mu))),
        flow.eigenphases(core.pair_unitary(splitting, lam, mu)), atol=1e-12)
    moved = path._mapped(lambda s, space, lam, mu: (space, regauge(lam), regauge(mu)))
    total, report = maslov.maslov_index(path)
    moved_total, moved_report = maslov.maslov_index(moved)
    assert moved_total == total
    assert moved_report.partition == report.partition


def test_product_identities_on_rotation():
    ids = maslov.maslov_product_identities(rotation_path(1))
    assert ids.agree
    assert ids.direct == 1


def test_swap_sum_rule():
    # Mas{lam, mu} + Mas{mu, lam} telescopes to the endpoint intersection
    # numbers; here both endpoints intersect in dimension 1.
    path = rotation_path(1)
    fwd, _ = maslov.maslov_index(path)
    rev, _ = maslov.maslov_index(path.swapped())
    a, b = path.interval
    space_a, lam_a, mu_a = path.sampler(a)
    space_b, lam_b, mu_b = path.sampler(b)
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


def test_splitting_independence():
    metric = np.diag([1.0, 2.0])
    canonical, deformed = maslov.splitting_independence_check(
        rotation_path(1), metric
    )
    assert canonical == deformed == 1


def test_isotropy_residual_reported():
    _, rep = maslov.maslov_index(rotation_path(1))
    assert rep.extras["isotropy_residual"] <= 1e-10
    assert rep.extras["unit_circle_residual"] <= 1e-10


# real category ------------------------------------------------------------

def line_rotation_data():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    lam = np.array([[1.0], [0.0]])

    def mu_path(s):
        th = np.pi * s
        return np.array([[np.cos(th)], [np.sin(th)]])

    return maslov.RealPairData(j=j, lam=lam, mu_path=mu_path, interval=(0.0, 1.0))


def test_real_comparison_on_line_rotation():
    cmp = maslov.complexify_and_compare(line_rotation_data())
    assert cmp.agree
    assert cmp.mas == 1
    assert cmp.mas_bf == -1
    assert cmp.residual <= 1e-12


def test_real_generator_is_unitary_symmetric():
    data = line_rotation_data()
    v, s = maslov.real_generator(data.j, data.lam, data.mu_path(0.3))
    npt.assert_allclose(v.conj().T @ v, np.eye(1), atol=1e-12)
    npt.assert_allclose(s, s.T, atol=1e-12)


def test_real_frames_validated():
    data = line_rotation_data()
    bad = maslov.RealPairData(
        j=data.j,
        lam=np.array([[2.0], [0.0]]),  # not orthonormal
        mu_path=data.mu_path,
        interval=(0.0, 1.0),
    )
    with pytest.raises(NotLagrangianReal):
        maslov.complexify_and_compare(bad)


NAN_FRAME = np.array([[np.nan], [0.0]])


@pytest.mark.parametrize("part, bad, exc, message", [
    ("mu_path", lambda s: NAN_FRAME, NotLagrangianReal, "mu frame at s="),
    ("lam", NAN_FRAME, NotLagrangianReal, "lambda frame"),
    ("j", np.array([[0.0, -1.0], [1.0, np.nan]]), NotSkewHermitian, "real structure matrix"),
], ids=["mu", "lambda", "j"])
def test_a_nan_in_the_real_bridge_raises_a_typed_error_naming_the_field(part, bad, exc, message):
    data = line_rotation_data()
    with pytest.raises(exc, match=message):
        maslov.complexify_and_compare(replace(data, **{part: bad}))


def test_real_generator_refuses_a_nan_frame():
    data = line_rotation_data()
    with pytest.raises(NotLagrangianReal):
        maslov.real_generator(data.j, data.lam, NAN_FRAME)


def test_from_parts_evaluates_a_form_path_once_per_sample():
    calls = Counter()
    base = rotation_path(1)

    def j(s):
        calls[s] += 1
        return STD2

    path = maslov.PairPath.from_parts(
        j, lambda s: base.sampler(s)[1], base.sampler(0.0)[2], (0.0, 1.0)
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
        return np.zeros((2, 1)) if s == 0.5 else base.sampler(s)[1].frame

    path = maslov.PairPath.from_parts(STD2, lam, base.sampler(0.0)[2], (0.0, 1.0))
    with pytest.raises(NotLagrangian):
        maslov.maslov_index(path)
    grown = maslov.PairPath.from_parts(
        lambda s: np.kron(np.eye(2), STD2) if s == 0.5 else STD2,
        base.sampler(0.0)[1], base.sampler(0.0)[2], (0.0, 1.0))
    with pytest.raises(DimensionMismatch):
        maslov.maslov_index(grown)


def test_an_indefinite_metric_is_refused():
    with pytest.raises(BadMetric, match="positive definite"):
        maslov.maslov_index(rotation_path(1), metric=np.diag([1.0, -1.0]))

"""Crossing engine: endpoint conventions, ladders, windings, projections."""

import numpy as np
import numpy.testing as npt
import pytest

from maslovflow import flow, harness
from maslovflow.errors import NotUnitary, SpectrumOnBoundary, UnresolvedFamily
from maslovflow.flow import FlowOpts


def run(sampler, circular=False, **kw):
    total, _ = flow.flow_from_sampler(
        sampler, (0.0, 1.0), FlowOpts(**kw), circular=circular
    )
    return total


def unitary_flow(family):
    return run(lambda s: flow.eigenphases(family(s)), circular=True)


def test_constant_family_is_zero():
    assert run(lambda s: np.array([0.4, -0.7])) == 0


def test_single_branch_up_and_down():
    assert run(lambda s: np.array([s - 0.5])) == 1
    assert run(lambda s: np.array([0.5 - s])) == -1


def test_endpoint_conventions():
    # arrival from below counts, departures upward do not; the two other
    # endpoint cases follow from the window-count telescope.
    assert run(lambda s: np.array([s - 1.0])) == 1   # arrives at 0 from below
    assert run(lambda s: np.array([s])) == 0         # departs upward
    assert run(lambda s: np.array([-s])) == -1       # departs downward
    assert run(lambda s: np.array([1.0 - s])) == 0   # arrives from above


def test_multiple_crossings_cancel():
    assert run(lambda s: np.array([s - 0.25, 0.75 - s, s - 2.0])) == 0
    assert run(lambda s: np.array([s - 0.25, s - 0.75])) == 2


def test_eigenvalue_ladder_drift():
    # a ladder sliding down: three rungs pass through zero
    ks = np.arange(-10, 11, dtype=float)

    def sampler(s):
        return 0.11 * (ks - 3.0 * s)

    assert run(sampler) == -3


def test_truncated_ladder_drift():
    # same ladder, but the sampler only reports coordinates near zero, so
    # list lengths change from sample to sample
    ks = np.arange(-10, 11, dtype=float)

    def sampler(s):
        c = 0.11 * (ks - 3.0 * s)
        return c[np.abs(c) <= 0.35]

    total, _ = flow.flow_from_sampler(
        sampler, (0.0, 1.0), FlowOpts(), scale=0.35
    )
    assert total == -3


def test_jump_raises_unresolved():
    def sampler(s):
        return np.array([0.3 if s < 0.61803 else -0.3])

    with pytest.raises(UnresolvedFamily):
        flow.flow_from_sampler(sampler, (0.0, 1.0), FlowOpts(max_depth=6))


def test_spectral_flow_hermitian():
    def family(s):
        return np.diag([s - 0.5, s - 2.0, -s - 1.0])

    total, _ = flow.spectral_flow(family, (0.0, 1.0))
    assert total == 1


def test_spectral_flow_rejects_non_hermitian():
    with pytest.raises(Exception):
        flow.spectral_flow(lambda s: np.array([[0.0, 1.0], [0.0, 0.0]]), (0.0, 1.0))


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_unitary_winding(k):
    def family(s):
        return np.array([[np.exp(2j * np.pi * k * s)]])

    assert unitary_flow(family) == k


def test_unitary_two_phases():
    # one phase winds up once, the other stays put away from 1
    def family(s):
        return np.diag([np.exp(2j * np.pi * s), np.exp(1j * (1.0 + 0.2 * s))])

    assert unitary_flow(family) == 1


def test_phase_pair_winding_through_pi():
    # two phases travel together through the cut at +-pi; the circular
    # matcher must follow them instead of tearing the branches
    def family(s):
        th = 0.9 * np.pi + 1.4 * s  # passes pi, wraps, stays away from 0
        return np.diag([np.exp(1j * th), np.exp(1j * (th + 0.05))])

    assert unitary_flow(family) == 0


def test_flow_reparametrization_invariance():
    def coords(s):
        return np.array([s - 0.37, 0.9 - 2.0 * s])

    smooth = lambda s: s * s * (3.0 - 2.0 * s)
    a = run(coords)
    b = run(lambda s: coords(smooth(s)))
    assert a == b == 0


def test_flow_catenation():
    def coords(s):
        return np.array([s - 0.5])

    whole, _ = flow.flow_from_sampler(coords, (0.0, 1.0), FlowOpts())
    first, _ = flow.flow_from_sampler(coords, (0.0, 0.7), FlowOpts())
    second, _ = flow.flow_from_sampler(coords, (0.7, 1.0), FlowOpts())
    assert whole == first + second == 1


def test_report_partition_and_samples():
    total, rep = flow.flow_from_sampler(
        lambda s: np.array([s - 0.5]), (0.0, 1.0), FlowOpts(initial_segments=4)
    )
    pts = rep.partition
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert all(a < b for a, b in zip(pts, pts[1:]))
    assert set(rep.samples) >= set(pts)
    assert sum(seg.contribution for seg in rep.segments) == total


def test_window_count():
    wc = flow.window_count([-0.5, -1e-12, 0.2, 0.9], delta=0.3, tau_zero=1e-9)
    assert (wc.n_minus, wc.n_zero, wc.n_plus) == (0, 1, 1)
    wc = flow.window_count([-0.25, 0.25], delta=0.3, tau_zero=1e-9)
    assert (wc.n_minus, wc.n_zero, wc.n_plus) == (1, 0, 1)


def test_eigenphases_convention():
    ph = flow.eigenphases(np.array([[-1.0]], dtype=complex))
    npt.assert_allclose(ph, [np.pi])  # boundary phase lands at +pi
    with pytest.raises(NotUnitary):
        flow.eigenphases(np.array([[2.0]], dtype=complex))


def test_spectral_projection_diagonal():
    a = np.diag([0.1, 3.0])
    p = flow.spectral_projection(a, 0.0, 1.0)
    npt.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-10)


def test_spectral_projection_nonnormal():
    a = np.array([[0.1, 5.0], [0.0, 3.0]])
    p = flow.spectral_projection(a, 0.0, 1.0)
    want = np.array([[1.0, 5.0 / (0.1 - 3.0)], [0.0, 0.0]])
    npt.assert_allclose(p, want, atol=1e-9)
    npt.assert_allclose(p @ p, p, atol=1e-9)
    npt.assert_allclose(p @ a, a @ p, atol=1e-9)


def test_spectral_projection_boundary_raises():
    with pytest.raises(SpectrumOnBoundary):
        flow.spectral_projection(np.diag([1.0, 3.0]), 0.0, 1.0)


def test_engine_matches_branch_oracle_on_random_families():
    # seed 7 / trial 2 / dim 6 once double-counted a balanced wall swap;
    # keep the exact dims tuple so the draws replay verbatim
    summary = harness.property_sweep(seed=7, trials=3, dims=(2, 4, 6, 8),
                                     suites=("flow_oracle",))
    assert summary.all_passed, summary.suites[0].first_failure

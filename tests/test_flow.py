"""Crossing engine: endpoint conventions, ladders, windings, projections."""

import numpy as np
import numpy.testing as npt
import pytest

from maslovflow import flow, harness, maslov
from maslovflow.errors import DimensionMismatch, NotUnitary, SpectrumOnBoundary, UnresolvedFamily
from maslovflow.flow import FlowOpts


def batched(scalar):
    """The engine's sampler protocol (an array of s in, one coordinate array
    per s out) for a sampler of one s."""
    return lambda ss: [scalar(s) for s in ss]


def reference_engine(sampler, interval, opts=None, scale=None, circular=False):
    """The depth-first engine the level-by-level one replaced: a LIFO stack
    of segments, worked left to right, sampling one s at a time.  Returns
    ``(total, segments)``."""
    opts = opts or FlowOpts()
    a, b = float(interval[0]), float(interval[1])
    cache = {}

    def coords_at(s):
        if s not in cache:
            cache[s] = np.sort(np.asarray(sampler(s), dtype=float))
        return cache[s]

    grid = np.linspace(a, b, opts.initial_segments + 1)
    for s in grid:
        coords_at(float(s))
    if scale is None:
        top = max((float(np.abs(c).max()) for c in cache.values() if c.size), default=0.0)
        scale = top if top > 0 else 1.0
    delta_max, eta, tau_zero = 0.25 * scale, 1e-6 * scale, 1e-9 * scale
    floor = max(4.0 * eta, 10.0 * tau_zero)
    total, segments = 0, []
    stack = [(float(grid[i]), float(grid[i + 1]), 0)
             for i in range(opts.initial_segments - 1, -1, -1)]
    while stack:
        left, right, depth = stack.pop()
        mid = 0.5 * (left + right)
        cl, cr, cm = coords_at(left), coords_at(right), coords_at(mid)
        merged = np.abs(np.concatenate([cl, cr, cm]))
        movement = flow._station_movement(cl, cm, cr, circular, delta_max)
        delta = None
        if movement is not None:
            clearance = max(eta, 1.5 * movement)
            for cand in flow._candidate_deltas(merged, delta_max, floor):
                if merged.size and np.min(np.abs(merged - cand)) < clearance:
                    continue
                if len({int(np.count_nonzero(np.abs(c) < cand)) for c in (cl, cm, cr)}) != 1:
                    continue
                delta = cand
                break
        if delta is None:
            if depth >= opts.max_depth:
                raise UnresolvedFamily("reference engine", s_left=left, s_right=right)
            stack += [(mid, right, depth + 1), (left, mid, depth + 1)]
            continue
        seg = flow.SegmentRecord(s_left=left, s_right=right, delta=delta,
                                 count_left=flow.window_count(cl, delta, tau_zero),
                                 count_right=flow.window_count(cr, delta, tau_zero))
        segments.append(seg)
        total += seg.contribution
    return total, segments


def assert_engines_agree(sampler, interval=(0.0, 1.0), opts=None, scale=None,
                         circular=False):
    """The engine and the reference give the same total and the same
    segments (endpoints, window and counts) on a batch sampler, which the
    reference calls one s at a time; returns the total."""
    opts = opts or FlowOpts()

    def alone(s):
        return sampler(np.array([s]))[0]

    total, report = flow.flow_from_sampler(sampler, interval, opts, scale, circular)
    assert (total, report.segments) == reference_engine(alone, interval, opts, scale, circular)
    assert [seg.s_left for seg in report.segments] == report.partition[:-1]
    return total


def run(sampler, circular=False, interval=(0.0, 1.0), scale=None, **kw):
    return assert_engines_agree(batched(sampler), interval, FlowOpts(**kw), scale, circular)


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

    assert run(sampler, scale=0.35) == -3


def test_jump_raises_unresolved():
    def sampler(s):
        return np.array([0.3 if s < 0.61803 else -0.3])

    with pytest.raises(UnresolvedFamily) as got:
        flow.flow_from_sampler(batched(sampler), (0.0, 1.0), FlowOpts(max_depth=6))
    with pytest.raises(UnresolvedFamily) as want:
        reference_engine(sampler, (0.0, 1.0), FlowOpts(max_depth=6))
    assert (got.value.s_left, got.value.s_right) == (want.value.s_left, want.value.s_right)


def test_spectral_flow_hermitian():
    def family(s):
        return np.diag([s - 0.5, s - 2.0, -s - 1.0])

    total, _ = flow.spectral_flow(family, (0.0, 1.0))
    assert total == 1


def test_spectral_flow_rejects_non_hermitian():
    with pytest.raises(Exception):
        flow.spectral_flow(lambda s: np.array([[0.0, 1.0], [0.0, 0.0]]), (0.0, 1.0))


@pytest.mark.parametrize("family", [
    lambda s: np.ones((2, 3)),
    lambda s: 2.0 * s - 1.0,
    lambda s: np.ones(3),
    lambda s: np.ones((2, 2, 3)),
], ids=["2x3", "scalar", "vector", "stack of 2x3"])
def test_a_family_of_non_square_values_raises_dimension_mismatch(family):
    # 2x3 raised a bare ValueError, the scalar an AxisError
    with pytest.raises(DimensionMismatch, match=r"^family\(0\) must be a square matrix"):
        flow.spectral_flow(family, (0.0, 1.0))


@pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
def test_a_non_finite_interval_is_refused(interval):
    # (0, inf) warned, then raised NotHermitian on family(nan)
    with pytest.raises(ValueError, match="interval must be finite"):
        flow.spectral_flow(lambda s: np.array([[2.0 * s - 1.0]]), interval)
    with pytest.raises(ValueError, match="interval must be finite"):
        flow.flow_from_sampler(lambda ss: [np.array([s]) for s in ss], interval)


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

    whole = run(coords)
    first = run(coords, interval=(0.0, 0.7))
    second = run(coords, interval=(0.7, 1.0))
    assert whole == first + second == 1


def test_report_partition_and_samples():
    total, rep = flow.flow_from_sampler(
        batched(lambda s: np.array([s - 0.5])), (0.0, 1.0), FlowOpts(initial_segments=4)
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
    assert flow.eigenphases(np.zeros((0, 0))).shape == (0,)
    assert flow.unit_circle_residual(np.zeros((0, 0))) == 0.0


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


def test_engine_samples_one_depth_per_call():
    # grid and grid midpoints first, then only the midpoints of the segments
    # bisected at the depth before; no s twice
    calls = []
    ks = np.arange(-40, 41, dtype=float)

    def sampler(ss):
        calls.append(np.array(ss))
        return [0.11 * (ks - 30.0 * s) for s in ss]

    total, rep = flow.flow_from_sampler(sampler, (0.0, 1.0), FlowOpts())
    assert total == -30 and len(calls) > 2
    width = 1.0 / 16
    npt.assert_array_equal(calls[0], np.linspace(0.0, 1.0, 33))
    for depth, ss in enumerate(calls[1:], start=1):
        k = ss / (width / 2 ** (depth + 1))
        npt.assert_array_equal(k, np.round(k))
        assert np.all(np.round(k) % 2 == 1)
    sent = np.concatenate(calls)
    assert len(set(sent.tolist())) == sent.size == len(rep.samples)


def _sorted_movement_by_shift_loop(x, y):
    best = np.inf
    for k in range(x.size):
        yk = np.concatenate([y[k:], y[:k]])
        d = np.abs(np.mod(yk - x + np.pi, 2.0 * np.pi) - np.pi)
        best = min(best, float(d.max()))
    return best


def test_circular_movement_matches_the_shift_loop():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for _ in range(40):
            x = np.sort(rng.uniform(-np.pi, np.pi, n))
            y = np.sort(np.angle(np.exp(1j * (x + rng.normal(0.0, 0.4, n)))))
            assert flow._sorted_movement(x, y, True) == _sorted_movement_by_shift_loop(x, y)
    # one phase crosses the seam from +pi - 0.01 to -pi + 0.01
    x = np.array([-1.0, np.pi - 0.01])
    y = np.array([-np.pi + 0.01, -1.0])
    got = flow._sorted_movement(x, y, True)
    assert got == _sorted_movement_by_shift_loop(x, y) == pytest.approx(0.02)


def captured_samplers(monkeypatch, module, run_index):
    """Every sampler that ``run_index`` hands to ``module.flow_from_sampler``."""
    samplers = []
    engine = module.flow_from_sampler

    def spy(sampler, *args, **kwargs):
        samplers.append(sampler)
        return engine(sampler, *args, **kwargs)

    monkeypatch.setattr(module, "flow_from_sampler", spy)
    run_index()
    monkeypatch.undo()
    return samplers


def random_metric(rng, n):
    u = harness._random_unitary(rng, n)
    return u @ np.diag(rng.uniform(0.4, 2.5, n)) @ u.conj().T


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_engine_matches_the_depth_first_reference_on_pair_paths(monkeypatch, n):
    for seed in range(3):
        path = harness._random_pair_path(np.random.default_rng([seed, n]), n)
        (sampler,) = captured_samplers(monkeypatch, maslov, lambda: maslov.maslov_index(path))
        assert_engines_agree(sampler, path.interval, circular=True)


def assert_batch_invariant(sampler):
    ss = np.concatenate([np.linspace(0.0, 1.0, 33), [0.015625 + 2.0 ** -12, 0.7071]])
    together = sampler(ss)
    for s, coords in zip(ss, together, strict=True):
        npt.assert_array_equal(sampler(np.array([s]))[0], coords)
    npt.assert_array_equal(sampler(ss[::-1])[::-1], together)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_coordinates_do_not_depend_on_the_batch(monkeypatch, n):
    rng = np.random.default_rng([5, n])
    path = harness._random_pair_path(rng, n)
    metric = random_metric(rng, n)
    fam = harness._random_hermitian_family(rng, n)
    samplers = captured_samplers(monkeypatch, maslov, lambda: maslov.maslov_index(path))
    samplers += captured_samplers(monkeypatch, maslov,
                                  lambda: maslov.maslov_index(path, metric=metric))
    samplers += captured_samplers(monkeypatch, flow, lambda: flow.spectral_flow(fam, (0.0, 1.0)))
    # the real comparison runs maslov_index and then its generator path
    samplers += captured_samplers(monkeypatch, maslov,
                                  lambda: harness._suite_real_comparison(rng, (n,)))
    assert len(samplers) == 5
    for sampler in samplers:
        assert_batch_invariant(sampler)

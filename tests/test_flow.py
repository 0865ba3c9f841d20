"""Crossing engine: endpoint conventions, ladders, windings, projections."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovflow import core, flow, harness, maslov
from maslovflow.errors import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotUnitary,
    SpectrumOnBoundary,
    UnresolvedFamily,
)
from maslovflow.flow import FlowOpts


def batched(scalar):
    """The engine's sampler protocol (an array of s in, one coordinate array
    per s out) for a sampler of one s."""
    return lambda ss: [scalar(s) for s in ss]


# The engine's per-segment decisions as NumPy array code, kept here as an
# oracle independent of the float code under test in ``flow``.

def np_window_count(coords, delta, tau_zero):
    c = np.asarray(coords, dtype=float)
    inside = c[np.abs(c) < delta]
    n_zero = int(np.count_nonzero(np.abs(inside) <= tau_zero))
    n_minus = int(np.count_nonzero(inside < -tau_zero))
    n_plus = int(np.count_nonzero(inside > tau_zero))
    return flow.WindowCount(n_minus=n_minus, n_zero=n_zero, n_plus=n_plus)


def np_sorted_movement(x, y, circular):
    if x.size == 0:
        return 0.0
    if not circular:
        return float(np.max(np.abs(x - y)))
    n = x.size
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n  # row k: y rolled by k
    d = np.abs(np.mod(y[shifts] - x + np.pi, 2.0 * np.pi) - np.pi)
    return float(d.max(axis=1).min())


def np_station_movement(cl, cm, cr, circular, delta_max):
    if cl.size == cm.size == cr.size:
        return max(np_sorted_movement(cl, cm, circular), np_sorted_movement(cm, cr, circular))
    if circular:
        return None
    merged = np.abs(np.concatenate([cl, cm, cr]))
    lo = 1.4 * delta_max
    vals = np.unique(merged)
    cands = [lo] + [float(h) for h in 0.5 * (vals[1:] + vals[:-1]) if h > lo]
    best_h, best_clear = None, 0.0
    for h in cands:
        if len({int(np.count_nonzero(np.abs(c) < h)) for c in (cl, cm, cr)}) != 1:
            continue
        clear = float(np.min(np.abs(merged - h))) if merged.size else np.inf
        if clear > best_clear:
            best_h, best_clear = h, clear
    if best_h is None:
        return None
    zl, zm, zr = (c[np.abs(c) < best_h] for c in (cl, cm, cr))
    pairs = [(zl, zm), (zm, zr)] + [(a, b) for a, b in ((cl, cm), (cm, cr)) if a.size == b.size]
    return max(np_sorted_movement(a, b, False) for a, b in pairs)


def np_candidate_deltas(abs_coords, delta_max, floor):
    cands = {delta_max}
    vals = np.unique(abs_coords)
    if vals.size:
        mids = 0.5 * (vals[1:] + vals[:-1])
        for m in mids:
            if floor < m < delta_max:
                cands.add(float(m))
        smallest = float(vals[0])
        if floor < 0.5 * smallest < delta_max:
            cands.add(0.5 * smallest)
    for k in range(1, 9):
        d = delta_max / 2.0**k
        if d > floor:
            cands.add(d)
    return sorted(cands, reverse=True)


def np_admissible_delta(cl, cm, cr, circular, delta_max, eta, floor):
    merged = np.abs(np.concatenate([cl, cr, cm]))
    movement = np_station_movement(cl, cm, cr, circular, delta_max)
    if movement is None:
        return None
    clearance = max(eta, 1.5 * movement)
    for cand in np_candidate_deltas(merged, delta_max, floor):
        if merged.size and np.min(np.abs(merged - cand)) < clearance:
            continue
        if len({int(np.count_nonzero(np.abs(c) < cand)) for c in (cl, cm, cr)}) != 1:
            continue
        return cand
    return None


def reference_engine(sampler, interval, opts=None, scale=None, circular=False):
    """The depth-first engine the level-by-level one replaced: a LIFO stack
    of segments, worked left to right, sampling one s at a time and deciding
    on NumPy arrays with the oracle above.  Returns ``(total, segments)``."""
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
        delta = np_admissible_delta(cl, cm, cr, circular, delta_max, eta, floor)
        if delta is None:
            if depth >= opts.max_depth:
                raise UnresolvedFamily("reference engine", s_left=left, s_right=right)
            stack += [(mid, right, depth + 1), (left, mid, depth + 1)]
            continue
        seg = flow.SegmentRecord(s_left=left, s_right=right, delta=delta,
                                 count_left=np_window_count(cl, delta, tau_zero),
                                 count_right=np_window_count(cr, delta, tau_zero))
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


def test_circular_lists_that_change_length_are_unresolved():
    # the truncated ladder read as eigenphases: angles are not matched
    # across a change of count, so no segment with one is accepted
    ks = np.arange(-10, 11, dtype=float)

    def sampler(s):
        c = 0.11 * (ks - 3.0 * s)
        return c[np.abs(c) <= 0.35]

    with pytest.raises(UnresolvedFamily):
        flow.flow_from_sampler(batched(sampler), (0.0, 1.0), FlowOpts(max_depth=6),
                               scale=0.35, circular=True)


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


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_each_s_of_a_batch_gets_the_eigenvalues_it_gets_alone(n):
    rng = np.random.default_rng([13, n])
    hermitian = harness._random_hermitian_family(rng, n)
    skew = 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    def family(s):  # within the tolerance, so symmetrizing it matters
        return hermitian(s) + s * skew

    _, report = flow.spectral_flow(family, (0.0, 1.0))
    assert len(report.samples) >= 33
    for s, coords in report.samples.items():
        alone = np.linalg.eigvalsh(core.require_hermitian(family(s), "family"))
        assert coords.tobytes() == alone.tobytes()


def family_with(later, bad=None):
    """A 2 x 2 family whose first engine batch on [0, 1] (its 33 grid points
    and midpoints) holds ``bad``, if given, at s = 0.25, and past s = 0.5
    does what ``later`` names."""
    def family(s):
        if s == 0.25 and bad is not None:
            return bad
        if s > 0.5 and later == "a larger matrix":
            return np.eye(3)
        if s > 0.5 and later == "an exception":
            raise RuntimeError("the family cannot be evaluated here")
        if s > 0.5 and later == "non-square":
            return np.ones((2, 3))
        return np.diag([s - 0.3, 1.0])

    return family


@pytest.mark.parametrize("later", ["nothing", "a larger matrix", "an exception", "non-square"])
@pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)],
                         ids=["non-Hermitian", "NaN"])
def test_a_failing_member_of_a_batch_is_named_by_its_s(bad, later):
    with pytest.raises(NotHermitian, match=r"^family\(0\.25\) residual"):
        flow.spectral_flow(family_with(later, bad), (0.0, 1.0))


def test_a_shape_change_is_found_once_the_members_before_it_pass():
    with pytest.raises(DimensionMismatch, match="^the family changes shape along the path"):
        flow.spectral_flow(family_with("a larger matrix"), (0.0, 1.0))
    with pytest.raises(DimensionMismatch, match=r"^family\(0\.53125\) must be a square matrix"):
        flow.spectral_flow(family_with("non-square"), (0.0, 1.0))


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


@pytest.mark.parametrize("coords", [np.zeros((2, 2)), np.float64(0.5)], ids=["2-D", "0-d"])
def test_coordinates_that_are_not_one_1d_array_are_refused(coords):
    # 2-D raised TypeError from abs() of a list, 0-d NumPy's AxisError
    with pytest.raises(DimensionMismatch, match=r"^crossing coordinates at s = 0 must be one "
                                                r"1-D array, got shape"):
        flow.flow_from_sampler(lambda ss: [coords for _ in ss], (0.0, 1.0))


@pytest.mark.parametrize("answer, count", [(lambda arrays: arrays[:-1], 32),
                                           (lambda arrays: arrays + [np.zeros(1)], 34)],
                         ids=["drops the last s", "adds an array"])
def test_a_sampler_must_answer_every_s_of_its_batch_once(answer, count):
    # raised Python's bare ValueError from zip(..., strict=True)
    def sampler(ss):
        return answer([np.array([s - 0.5]) for s in ss])

    with pytest.raises(DimensionMismatch, match=rf"^the sampler returned {count} "
                                                r"coordinate arrays for 33 values of s$"):
        flow.flow_from_sampler(sampler, (0.0, 1.0))


def test_a_family_of_hermitian_stacks_is_refused():
    # each s's eigenvalues were a (2, 2) array, which ended in a TypeError
    with pytest.raises(DimensionMismatch, match=r"^crossing coordinates at s = 0 must be one "
                                                r"1-D array, got shape \(2, 2\)$"):
        flow.spectral_flow(lambda s: np.stack([np.eye(2), (s - 0.5) * np.eye(2)]), (0.0, 1.0))


def test_a_family_of_empty_matrices_has_no_flow():
    # raised a bare ValueError from a reduction over no entries
    total, report = flow.spectral_flow(lambda s: np.zeros((0, 0)), (0.0, 1.0))
    assert total == 0
    assert len(report.samples) == 33 and all(c.size == 0 for c in report.samples.values())


@pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
def test_a_non_finite_interval_is_refused(interval):
    # (0, inf) warned, then raised NotHermitian on family(nan)
    with pytest.raises(ValueError, match="interval must be finite"):
        flow.spectral_flow(lambda s: np.array([[2.0 * s - 1.0]]), interval)
    with pytest.raises(ValueError, match="interval must be finite"):
        flow.flow_from_sampler(lambda ss: [np.array([s]) for s in ss], interval)


@pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf, True, np.True_])
def test_a_scale_that_is_not_finite_and_positive_is_refused(scale):
    # -1, nan and inf read a flow of 0; 0 bisected to depth 12, then gave up
    def sampler(ss):
        return [np.array([s - 0.5, 1.0]) for s in ss]

    assert flow.flow_from_sampler(sampler, (0.0, 1.0))[0] == 1
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        flow.flow_from_sampler(sampler, (0.0, 1.0), scale=scale)


def test_a_branch_that_turns_nan_is_refused_at_its_first_s():
    # read a flow of 0: a NaN is in no window
    def sampler(ss):
        return [np.array([s - 0.5 if s <= 0.5 else np.nan]) for s in ss]

    with pytest.raises(NonFinite, match=r"^crossing coordinates at s = 0.53125 are not finite"):
        flow.flow_from_sampler(sampler, (0.0, 1.0))


def test_an_infinite_coordinate_is_refused():
    # read a flow of 0 where it is 1: the default scale became inf
    def sampler(ss):
        return [np.array([s - 0.5, np.inf]) for s in ss]

    with pytest.raises(NonFinite, match=r"^crossing coordinates at s = 0 are not finite"):
        flow.flow_from_sampler(sampler, (0.0, 1.0))


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
    coords = [-0.5, -1e-12, 0.2, 0.9]
    wc = flow.window_count(coords, delta=0.3, tau_zero=1e-9)
    assert (wc.n_minus, wc.n_zero, wc.n_plus) == (0, 1, 1)
    assert wc == np_window_count(coords, 0.3, 1e-9)
    wc = flow.window_count([-0.25, 0.25], delta=0.3, tau_zero=1e-9)
    assert (wc.n_minus, wc.n_zero, wc.n_plus) == (1, 0, 1)


def test_eigenphases_convention():
    ph = flow.eigenphases(np.array([[-1.0]], dtype=complex))
    npt.assert_allclose(ph, [np.pi])  # boundary phase lands at +pi
    with pytest.raises(NotUnitary):
        flow.eigenphases(np.array([[2.0]], dtype=complex))
    assert flow.eigenphases(np.zeros((0, 0))).shape == (0,)
    assert flow.unit_circle_residual(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("u", [np.ones(3), np.eye(3)[:, :2], np.full((1, 2, 1), np.sqrt(0.5))],
                         ids=["vector", "isometry", "isometry stack"])
def test_eigenphases_refuse_what_is_not_a_square_matrix(u):
    # the vector raised NumPy's AxisError; the isometries passed the unitary
    # check and raised LinAlgError from eigvals
    with pytest.raises(DimensionMismatch, match="^matrix must be a square matrix, got shape"):
        flow.eigenphases(u)
    with pytest.raises(DimensionMismatch, match="^u must be a square matrix"):
        core.require_unitary(u, NotUnitary, "u")


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
            got = flow._sorted_movement(x.tolist(), y.tolist(), True)
            assert got == _sorted_movement_by_shift_loop(x, y) == np_sorted_movement(x, y, True)
    # one phase crosses the seam from +pi - 0.01 to -pi + 0.01
    x = np.array([-1.0, np.pi - 0.01])
    y = np.array([-np.pi + 0.01, -1.0])
    got = flow._sorted_movement(x.tolist(), y.tolist(), True)
    assert got == _sorted_movement_by_shift_loop(x, y) == pytest.approx(0.02)
    # evenly spaced phases turned by about half their spacing: the shift
    # by 0 and the shift by one back nearly tie, and either may be best
    for n in range(2, 9):
        for _ in range(20):
            x = np.sort(np.angle(np.exp(1j * (2.0 * np.pi * np.arange(n) / n + rng.uniform()))))
            y = np.sort(np.angle(np.exp(1j * (x + np.pi / n + rng.normal(0.0, 1e-3, n)))))
            got = flow._sorted_movement(x.tolist(), y.tolist(), True)
            assert got == _sorted_movement_by_shift_loop(x, y) == np_sorted_movement(x, y, True)


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


def carried_by_a_diagonal(path, c):
    """``path`` carried by L_s = diag(1 + s c), built by ``from_parts`` with
    the form L^{-*} J L^{-1} and both frames as callables of one s."""
    def scale(s):
        return 1.0 + s * c

    def part(s, i):
        return core.member(path.sampler(np.array([s]))[i], 0)

    return maslov.PairPath.from_parts(
        lambda s: part(s, 0).form / np.outer(scale(s), scale(s)),
        lambda s: scale(s)[:, None] * part(s, 1).frame,
        lambda s: scale(s)[:, None] * part(s, 2).frame, path.interval)


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
    # a callable form, alone and through flip, swap and direct sum
    moved = carried_by_a_diagonal(path, rng.uniform(0.2, 0.8, n))
    samplers += captured_samplers(monkeypatch, maslov, lambda: maslov.maslov_index(moved))
    samplers += captured_samplers(
        monkeypatch, maslov,
        lambda: maslov.maslov_index(moved.flipped_swapped().boxplus_diagonal()))
    assert len(samplers) == 7
    for sampler in samplers:
        assert_batch_invariant(sampler)


def wrapped(x):
    """Angles on (-pi, pi], as eigenphases are."""
    x = (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(x == -np.pi, np.pi, x)


@st.composite
def station_triples(draw, circular):
    """Three sorted station lists and the engine's constants at one scale.

    A list of 0-12 or 64 coordinates drifts by one of several step sizes
    (zero included) from left to middle to right.  Coordinates sit at
    random or on a lattice, at 0 and +-tau_zero, at +-delta for every rung
    of the ladder, at mirrored magnitudes (x and -x) and at the midpoint of
    two magnitudes; circular ones may cluster at the seam +-pi, other lists
    may be truncated far out or gain coordinates, either of which can make
    their lengths unequal.
    """
    scale = draw(st.sampled_from([0.35, 1.0, np.pi]))
    delta_max, eta, tau_zero = 0.25 * scale, 1e-6 * scale, 1e-9 * scale
    floor = max(4.0 * eta, 10.0 * tau_zero)
    specials = [0.0, tau_zero, 2.0 * tau_zero, eta, floor, 2.0 * floor, 1.4 * delta_max]
    specials += [delta_max / 2.0**k for k in range(9)]
    top = np.pi if circular else 2.0 * scale
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(0, 12), st.just(64)))
    if draw(st.booleans()):
        def values(k):
            return rng.uniform(-top, top, k)
    else:  # evenly spaced, so that gaps and clearances tie
        def values(k):
            return scale / 16.0 * rng.integers(-32, 33, k)
    base = values(n)
    placed = st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from(specials),
                       st.sampled_from([1.0, -1.0]))
    for k, v, sign in draw(st.lists(placed, max_size=min(n, 8))):
        base[k] = sign * v
    mirrored = draw(st.integers(0, n // 2))
    base[n - mirrored:] = -base[:mirrored]
    if n >= 3 and draw(st.booleans()):
        base[2] = np.copysign(0.5 * (abs(base[0]) + abs(base[1])), base[2])
    if circular and draw(st.booleans()):
        base = np.pi + 0.1 * base  # straddles the seam
    step = draw(st.sampled_from([0.0, tau_zero, eta, 1e-3 * scale, 0.1 * scale]))
    lists = [base, base + step * rng.uniform(-1.0, 1.0, n)]
    lists.append(lists[1] + step * rng.uniform(-1.0, 1.0, n))
    if circular:
        lists = [wrapped(c) for c in lists]
    elif draw(st.booleans()):  # truncated far out, as a sampler may do
        cutoff = draw(st.sampled_from([1.4 * delta_max, 0.5 * top, top]))
        lists = [c[np.abs(c) <= cutoff] for c in lists]
    if not circular and draw(st.booleans()):
        lists = [np.append(c, values(draw(st.integers(0, 3)))) for c in lists]
    cl, cm, cr = (sorted(c.tolist()) for c in lists)
    return cl, cm, cr, delta_max, eta, floor, tau_zero


@pytest.mark.parametrize("circular", [False, True], ids=["line", "circle"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_float_decisions_match_the_numpy_oracle(circular, data):
    cl, cm, cr, delta_max, eta, floor, tau_zero = data.draw(station_triples(circular))
    arrays = [np.array(c, dtype=float) for c in (cl, cm, cr)]
    mags = sorted({abs(c) for c in cl + cm + cr})
    assert flow._station_movement(cl, cm, cr, circular, delta_max, mags) == np_station_movement(
        *arrays, circular, delta_max)
    delta = flow._admissible_delta(cl, cm, cr, circular, delta_max, eta, floor)
    assert delta == np_admissible_delta(*arrays, circular, delta_max, eta, floor)
    # windows at the ladder, at coordinate magnitudes (a coordinate at
    # +-delta) and at their midpoints, and the one chosen
    windows = [delta_max / 2.0**k for k in range(9)] + mags
    windows += [0.5 * (a + b) for a, b in zip(mags, mags[1:])]
    windows = data.draw(st.lists(st.sampled_from(windows), max_size=12))
    for window in windows + ([] if delta is None else [delta]):
        for coords, array in zip((cl, cm, cr), arrays):
            assert flow.window_count(coords, window, tau_zero) == np_window_count(
                array, window, tau_zero)


def test_a_wall_exactly_at_the_clearance_is_admissible():
    # dyadic coordinates: one moves 2^-8, so the clearance is 3 * 2^-9 and
    # the middle coordinate sits exactly that far below delta_max = 0.25
    v = 0.25 - 3.0 * 2.0**-9
    cl, cm, cr = [v - 2.0**-8], [v], [v]
    args = (False, 0.25, 1e-6, 4e-6)
    assert flow._admissible_delta(cl, cm, cr, *args) == 0.25
    assert np_admissible_delta(*(np.array(c) for c in (cl, cm, cr)), *args) == 0.25

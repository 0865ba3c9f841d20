"""Linear algebra layer: spaces, splittings, subspaces, graph unitaries."""

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovflow import core
from maslovflow.errors import (
    Degenerate,
    DimensionMismatch,
    NotHermitian,
    NonFinite,
    NonUnitaryGenerator,
    NotLagrangian,
    NotSkewHermitian,
    NotUnitary,
    SingularP,
    UnbalancedSplitting,
)

STD2 = np.array([[1j, 0], [0, -1j]])


def std_space():
    return core.make_space(STD2)


def rand_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_make_space_rejects_non_skew():
    with pytest.raises(NotSkewHermitian):
        core.make_space(np.array([[1j, 0.5], [0, -1j]]))


def test_make_space_rejects_singular():
    with pytest.raises(Degenerate):
        core.make_space(np.array([[1j, 0], [0, 0]]))


def test_require_hermitian_on_a_stack():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    noisy = z + z.conj().swapaxes(-1, -2) + 1e-13 * z
    out = core.require_hermitian(noisy)
    npt.assert_array_equal(out, 0.5 * (noisy + noisy.conj().swapaxes(-1, -2)))
    npt.assert_array_equal(out, out.conj().swapaxes(-1, -2))
    bad = out.copy()
    bad[2, 0, 1] += 1e-3
    with pytest.raises(NotHermitian):
        core.require_hermitian(bad)


E12 = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_a_member_of_a_stack_is_judged_as_if_alone():
    # the tolerance was scaled by the largest entry of the whole stack, so
    # the large first member let the second one through
    small = STD2 + 1e-9 * E12
    message = r"^form residual \|A \+ A\*\| = 1\.000e-09 exceeds 1\.000e-10$"
    with pytest.raises(NotSkewHermitian, match=message):
        core.make_space(small)
    with pytest.raises(NotSkewHermitian, match=message):
        core.make_space_stack(np.stack([1e3 * STD2, small]))


def test_require_hermitian_raises_for_the_first_member_that_fails_alone():
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.uniform(-3, 3, size=(3, 4))
    z = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
    herm = scales[..., None, None] * (z + z.conj().swapaxes(-1, -2))
    # half the members sit just past their own tolerance, half just inside
    tol = 1e-10 * np.maximum(1.0, np.abs(herm).max(axis=(-2, -1)))
    factor = np.where(rng.random((3, 4)) < 0.5, 2.0, 0.5)
    stack = herm + (factor * tol)[..., None, None] * E12
    verdicts = []
    for i in np.ndindex(3, 4):
        try:
            core.require_hermitian(stack[i])
            verdicts.append(None)
        except NotHermitian as exc:
            verdicts.append(str(exc))
    assert [v is None for v in verdicts] == list(factor.ravel() < 1.0)
    with pytest.raises(NotHermitian) as exc:
        core.require_hermitian(stack)
    assert str(exc.value) == next(v for v in verdicts if v is not None)
    passing = stack[factor < 1.0]
    npt.assert_array_equal(core.require_hermitian(passing),
                           [core.require_hermitian(a) for a in passing])


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
def test_an_empty_form_is_refused(shape):
    # each raised a bare ValueError from a reduction over no entries
    with pytest.raises(DimensionMismatch, match=r"^form matrix must be nonempty"):
        core.make_space_stack(np.zeros(shape, dtype=complex))
    if len(shape) == 2:
        with pytest.raises(DimensionMismatch, match=r"^form matrix must be nonempty"):
            core.make_space(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 2, 3)])
def test_require_hermitian_refuses_what_is_not_a_square_matrix(shape):
    # (2, 3) raised a bare broadcasting ValueError, () a NumPy AxisError
    with pytest.raises(DimensionMismatch,
                       match=rf"^a must be a square matrix, got shape {re.escape(str(shape))}$"):
        core.require_hermitian(np.zeros(shape), "a")
    with pytest.raises(DimensionMismatch):
        core.require_hermitian(np.zeros(shape), "a", NotSkewHermitian, sign=-1)


@pytest.mark.parametrize("shape", [(2,), (2, 3), (1, 2, 2)])
def test_make_space_refuses_a_form_that_is_not_one_square_matrix(shape):
    with pytest.raises(DimensionMismatch, match="form"):
        core.make_space(np.ones(shape))


def test_require_nonsingular_raises_the_given_class():
    sv = np.array([[2.0, 1.0], [1.0, 1e-13]])
    core.require_nonsingular(sv[0], SingularP, "p")
    with pytest.raises(SingularP):
        core.require_nonsingular(sv, SingularP, "p")


def test_structure_checks_raise_the_given_class():
    # skew sign on a stack: every member is checked, the exact skew part returned
    j = np.stack([STD2, np.array([[2j, 1.0 + 1j], [-1.0 + 1j, 0.0]])])
    npt.assert_array_equal(core.require_hermitian(j, "j", NotSkewHermitian, sign=-1), j)
    bad = j.copy()
    bad[1, 0, 1] += 1e-6
    with pytest.raises(NotSkewHermitian):
        core.require_hermitian(bad, "j", NotSkewHermitian, sign=-1)
    with pytest.raises(NotHermitian):
        core.require_hermitian(j)
    core.require_unitary(np.zeros((0, 0)), NotUnitary, "u")
    core.require_unitary(rand_unitary(np.random.default_rng(0), 3), NotUnitary, "u")
    for exc in (NotUnitary, NonUnitaryGenerator):
        with pytest.raises(exc):
            core.require_unitary(np.diag([1.0, 1.0 + 1e-6]), exc, "u")


def test_unitary_check_takes_a_stack():
    core.require_unitary(np.stack([np.eye(3)] * 3), NotUnitary, "u")
    rng = np.random.default_rng(2)
    stack = np.stack([rand_unitary(rng, 2) for _ in range(5)])
    core.require_unitary(stack, NotUnitary, "u")
    stack[3] *= 1.0 + 1e-6
    with pytest.raises(NotUnitary):
        core.require_unitary(stack, NotUnitary, "u")


def balanced_space(rng, m):
    u = rand_unitary(rng, 2 * m)
    vals = np.concatenate([rng.uniform(0.5, 2.0, m), -rng.uniform(0.5, 2.0, m)])
    return core.make_space(1j * (u * vals) @ u.conj().T)


@pytest.mark.parametrize("with_metric", [False, True], ids=["canonical", "metric"])
def test_a_stack_splits_and_graphs_as_its_members_alone(with_metric):
    rng = np.random.default_rng(17)
    spaces = [balanced_space(rng, 3) for _ in range(4)]
    metric = None
    if with_metric:
        u = rand_unitary(rng, 6)
        metric = (u * rng.uniform(0.4, 2.5, 6)) @ u.conj().T
    alone = [core.make_splitting(space, metric=metric) for space in spaces]
    lams = [core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ rand_unitary(rng, 3))
            for sp in alone]
    space = core.SymplecticSpace(form=np.stack([sp.form for sp in spaces]))
    lam = core.Subspace(frame=np.stack([sub.frame for sub in lams]))
    stacked = core.make_splitting(space, metric=metric)
    graphs = core.graph_rep(stacked, lam)
    assert (space.dim, lam.dim, lam.ambient_dim) == (6, 3, 6) and stacked.balanced
    for i, (sp, sub) in enumerate(zip(alone, lams)):
        npt.assert_array_equal(stacked.hframe_plus[i], sp.hframe_plus)
        npt.assert_array_equal(stacked.hframe_minus[i], sp.hframe_minus)
        npt.assert_array_equal(graphs[i], core.graph_rep(sp, sub))
    assert core.isotropy_residual(space, lam) == max(
        core.isotropy_residual(sp, sub) for sp, sub in zip(spaces, lams))


def test_a_stack_whose_signature_changes_has_no_splitting():
    forms = np.stack([np.diag([1j, -1j, 1j, -1j]), np.diag([1j, 1j, -1j, 1j])])
    with pytest.raises(UnbalancedSplitting):
        core.make_splitting(core.SymplecticSpace(form=forms))


def _with_nan(a):
    a = np.array(a, dtype=complex)
    a[-1, -1] = np.nan
    return a


@pytest.mark.parametrize(
    "check, good",
    [
        (lambda a, exc: core.require_hermitian(a, "a", exc), np.eye(2)),
        (lambda a, exc: core.require_hermitian(a, "a", exc, sign=-1), STD2),
        (lambda a, exc: core.require_unitary(a, exc, "a"), np.eye(2)),
        (lambda a, exc: core.require_nonsingular(np.abs(a), exc, "a"),
         np.array([[2.0, 1.0]])),
    ],
    ids=["hermitian", "skew-hermitian", "unitary", "nonsingular"],
)
def test_structure_checks_fail_on_nan(check, good):
    check(good, Degenerate)
    for exc in (Degenerate, NotUnitary):
        with pytest.raises(exc):
            check(_with_nan(good), exc)


def test_omega_convention():
    space = std_space()
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    # omega(x, y) = y* J x
    assert space.omega(x, x) == 1j
    assert space.omega(y, y) == -1j
    assert space.omega(x, y) == 0


@pytest.mark.parametrize("with_metric", [False, True], ids=["canonical", "metric"])
def test_splitting_dimensions_and_metric_frames(with_metric):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    j = a - a.conj().T
    space = core.make_space(j)
    metric = None
    if with_metric:
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        metric = b @ b.conj().T + np.eye(6)
    sp = core.make_splitting(space, metric=metric)
    hp = sp.hframe_plus
    hm = sp.hframe_minus
    assert hp.shape[1] + hm.shape[1] == 6
    k = space.k_operator()
    # K positive on plus, negative on minus, and the halves K-orthogonal
    npt.assert_allclose(hp.conj().T @ k @ hp, np.eye(hp.shape[1]), atol=1e-10)
    npt.assert_allclose(hm.conj().T @ k @ hm, -np.eye(hm.shape[1]), atol=1e-10)
    npt.assert_allclose(hp.conj().T @ k @ hm, 0.0, atol=1e-10)


def test_unbalanced_splitting_has_no_lagrangians():
    j = np.diag([1j, 1j, -1j, 1j])
    space = core.make_space(j)
    sp = core.make_splitting(space)
    assert not sp.balanced
    lam = core.subspace_from_span(np.eye(4)[:, :2])
    with pytest.raises(UnbalancedSplitting):
        core.graph_rep(sp, lam)


def test_subspace_from_span_drops_dependent_columns():
    v = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    sub = core.subspace_from_span(v)
    assert sub.dim == 2
    sub2 = core.subspace_from_span(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert sub2.dim == 1


def test_subspace_from_span_refuses_non_finite():
    with pytest.raises(NonFinite):
        core.subspace_from_span([[np.nan], [1.0]])
    with pytest.raises(NonFinite):
        core.subspace_from_span([[np.inf, 0.0], [1.0, 1.0]])
    assert core.subspace_from_span(np.zeros((3, 2))).dim == 0


def spanning_stack(seed=11, shape=(5, 6, 3)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_a_stack_of_spanning_sets_is_orthonormalized_member_by_member():
    spans = spanning_stack()
    stack = core.subspace_from_span(spans)
    assert stack.frame.shape == spans.shape
    for frame, span in zip(stack.frame, spans):
        alone = core.subspace_from_span(span)  # the 2-D pivoted path
        assert core.intersection_dim(core.Subspace(frame=frame), alone) == 3
        assert np.abs(frame.conj().T @ frame - np.eye(3)).max() <= 1e-14


def test_a_stack_member_that_drops_rank_raises_degenerate():
    spans = spanning_stack()
    spans[2, :, 2] = spans[2, :, 0] - 2.0 * spans[2, :, 1]
    with pytest.raises(Degenerate, match="rank below 3"):
        core.subspace_from_span(spans)
    with pytest.raises(Degenerate, match="rank below 3"):
        core.subspace_from_span(spanning_stack(shape=(2, 2, 3)))  # more vectors than C^2 holds


def test_a_nan_in_a_stack_of_spanning_sets_raises_non_finite():
    spans = spanning_stack()
    spans[4, 1, 0] = np.nan
    with pytest.raises(NonFinite):
        core.subspace_from_span(spans)


def test_a_zero_dimensional_subspace():
    space = core.make_space(np.diag([1j, 1j, -1j, -1j]))
    zero = core.subspace_from_span(np.zeros((4, 0)))
    line = core.subspace_from_span(np.ones((4, 1)))
    assert (zero.dim, zero.ambient_dim) == (0, 4)
    assert core.intersection_dim(zero, line) == core.intersection_dim(line, zero) == 0
    npt.assert_array_equal(core.annihilator(space, zero).frame, np.eye(4))
    assert core.isotropy_residual(space, zero) == 0.0
    assert core.pair_index(space, zero, zero) == core.PairIndex(dim_intersection=0, codim_sum=4)


def test_classify_on_c4():
    space = core.make_space(np.kron(np.eye(2), STD2))
    e = np.eye(4)
    lag = core.subspace_from_span((e[:, [0]] + e[:, [1]]) / np.sqrt(2))
    iso = lag  # 1-dim isotropic in C^4 cannot be Lagrangian
    assert core.classify(space, iso) is core.SubspaceClass.ISOTROPIC
    co = core.annihilator(space, iso)
    assert core.classify(space, co) is core.SubspaceClass.COISOTROPIC
    big_lag = core.subspace_from_span(
        np.column_stack([(e[:, 0] + e[:, 1]), (e[:, 2] + e[:, 3])])
    )
    assert core.classify(space, big_lag) is core.SubspaceClass.LAGRANGIAN
    assert core.classify(space, core.subspace_from_span(e[:, [0]])) \
        is core.SubspaceClass.GENERAL


def test_annihilator_is_involutive():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    space = core.make_space(a - a.conj().T)
    sub = core.subspace_from_span(rng.normal(size=(6, 2)))
    twice = core.annihilator(space, core.annihilator(space, sub))
    assert core.equal_subspaces(twice, sub)


def test_graph_rep_round_trip():
    rng = np.random.default_rng(3)
    space = std_space()
    sp = core.make_splitting(space)
    u = rand_unitary(rng, 1)
    lam = core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ u)
    rep = core.graph_rep(sp, lam)
    assert isinstance(rep, np.ndarray)
    npt.assert_allclose(rep, u, atol=1e-12)
    graph = core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ rep)
    assert core.equal_subspaces(graph, lam)


def test_graph_rep_rejects_non_lagrangian():
    space = core.make_space(np.kron(np.eye(2), STD2))
    sp = core.make_splitting(space)
    bad = core.subspace_from_span(np.eye(4)[:, :2])  # H+ itself: omega = i I
    with pytest.raises(NotLagrangian):
        core.graph_rep(sp, bad)


@pytest.mark.parametrize("call, exc", [
    (lambda: core.make_splitting(std_space(), metric=np.eye(3)), DimensionMismatch),
    (lambda: core.graph_rep(core.make_splitting(std_space()), core.subspace_from_span(np.eye(2))),
     NotLagrangian),
    (lambda: core.annihilator(std_space(), core.subspace_from_span(np.eye(4)[:, :2])),
     DimensionMismatch),
    (lambda: core.pair_index(std_space(), core.subspace_from_span(np.eye(4)[:, :2]),
                             core.subspace_from_span(np.eye(2)[:, :1])), DimensionMismatch),
], ids=["metric-3x3-on-c2", "graph-rep-dim-2-in-c2", "annihilator-of-c4", "pair-index-of-c4"])
def test_inputs_of_the_wrong_dimension_raise_typed_errors(call, exc):
    with pytest.raises(exc):
        call()


def test_pair_unitary_intersections():
    space = std_space()
    sp = core.make_splitting(space)

    def lag(theta):
        u = np.array([[np.exp(1j * theta)]])
        return core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ u)

    lam = lag(0.0)
    for theta, want in [(0.0, 1), (0.5, 0), (np.pi, 0)]:
        w = core.pair_unitary(sp, lag(theta), lam)
        phases = np.angle(np.linalg.eigvals(w))
        n_one = int(np.count_nonzero(np.abs(phases) < 1e-8))
        assert n_one == want
        assert core.intersection_dim(lag(theta), lam) == want


def test_pair_index_lagrangian_pair_is_fredholm_zero():
    rng = np.random.default_rng(7)
    space = std_space()
    sp = core.make_splitting(space)
    for _ in range(5):
        u = rand_unitary(rng, 1)
        v = rand_unitary(rng, 1)
        lam = core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ u)
        mu = core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ v)
        idx = core.pair_index(space, lam, mu)
        assert idx.index == 0
        assert idx.dim_intersection == idx.codim_sum


def test_boxplus_shapes_and_diagonal():
    space = std_space()
    double = core.boxplus(space, space)
    assert double.dim == 4
    # second summand carries the negated form
    npt.assert_allclose(double.form[2:, 2:], -space.form)
    lam = core.diagonal_subspace(2)
    assert core.classify(double, lam) is core.SubspaceClass.LAGRANGIAN


def test_flip_negates_form():
    space = std_space()
    flipped = core.flip(space)
    npt.assert_allclose(flipped.form, -space.form)


def test_normalize_metric_reconstructs_form():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    space = core.make_space(a - a.conj().T)
    g, jprime = core.normalize_metric(space)
    npt.assert_allclose(g @ jprime, space.form, atol=1e-10)
    npt.assert_allclose(jprime @ jprime, -np.eye(4), atol=1e-10)
    evals = np.linalg.eigvalsh(g)
    assert evals.min() > 0


def test_orthogonal_complement():
    e = np.eye(3)
    sub = core.subspace_from_span(e[:, :1])
    comp = core.orthogonal_complement(sub)
    assert comp.dim == 2
    npt.assert_allclose(comp.frame.conj().T @ comp.frame, np.eye(2), atol=1e-15)
    npt.assert_allclose(comp.frame.conj().T @ e[:, 0], 0.0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=1000))
def test_graph_rep_round_trip_random(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
    j = a - a.conj().T
    k = -1j * j
    # rebalance the signature so Lagrangians exist
    theta, vecs = np.linalg.eigh(0.5 * (k + k.conj().T))
    signs = np.array([1.0] * m + [-1.0] * m)
    k_bal = (vecs * (signs * np.maximum(np.abs(theta), 0.5))) @ vecs.conj().T
    space = core.make_space(1j * k_bal)
    sp = core.make_splitting(space)
    u = rand_unitary(rng, m)
    lam = core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ u)
    rep = core.graph_rep(sp, lam)
    npt.assert_allclose(rep, u, atol=1e-8)


def test_as_path_keeps_a_callable_equal_over_the_batch_as_one_member():
    ss = np.linspace(0.0, 1.0, 5)
    one = core.as_path(lambda s: STD2, core.SymplecticSpace, core.make_space, "the form")(ss)
    assert one.form.shape == (2, 2)
    npt.assert_array_equal(one.form, core.make_space(STD2).form)
    # values that differ only at the last s are a stack, member i from s_i
    frames = core.as_path(lambda s: [1.0, 2.0 if s == 1.0 else 1.0], core.Subspace,
                          core.subspace_from_span, "lambda")(ss)
    assert frames.frame.shape == (5, 2, 1)
    npt.assert_array_equal(frames.frame[-1], core.subspace_from_span([1.0, 2.0]).frame)
    # a NaN equals nothing, so it still reaches the coercion
    for batch in (ss, ss[:1]):
        with pytest.raises(NonFinite):
            core.as_path(lambda s: [np.nan, 1.0], core.Subspace, core.subspace_from_span,
                         "lambda")(batch)


def test_orthogonal_complement_of_a_stack_is_taken_member_by_member():
    rng = np.random.default_rng(3)
    stack = core.subspace_from_span(rng.normal(size=(4, 5, 2)) + 1j * rng.normal(size=(4, 5, 2)))
    comp = core.orthogonal_complement(stack)
    assert comp.frame.shape == (4, 5, 3)
    for i in range(4):
        npt.assert_array_equal(comp.frame[i], core.orthogonal_complement(core.member(stack, i)).frame)
    assert core.orthogonal_complement(core.Subspace(np.zeros((2, 3, 0)))).frame.shape == (2, 3, 3)

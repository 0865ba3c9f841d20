"""Boundary value pipelines: shooting, eigenvalue location, both indices."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from maslovflow import core, odebvp
from maslovflow.errors import SingularJ, WindowBoundaryEigenvalue


def const_coeff(mat):
    mat = np.asarray(mat, dtype=complex)

    def f(s, t):
        if np.ndim(t):
            return np.broadcast_to(mat, np.shape(t) + mat.shape)
        return mat

    return f


def scalar_coeff(fun):
    def f(s, t):
        t_arr = np.asarray(t, dtype=float)
        vals = np.broadcast_to(np.asarray(fun(s, t_arr), dtype=complex), t_arr.shape)
        if t_arr.ndim == 0:
            return vals.reshape(1, 1)
        return vals.reshape(t_arr.shape[0], 1, 1)

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


def test_eigen_count_window_boundary_raises():
    fam = first_order(1, 1.0, const_coeff(1j * np.eye(1)), const_coeff(np.eye(1)))
    w = core.diagonal_subspace(1)
    with pytest.raises(WindowBoundaryEigenvalue):
        odebvp.eigen_count(fam, 0.0, w, (-1.0, 1.0))  # eigenvalue at -1 exactly


def test_singular_structure_matrix_raises():
    fam = first_order(
        1, 1.0,
        scalar_coeff(lambda s, t: 1j * (t - 0.5)),
        const_coeff(np.zeros((1, 1))),
    )
    with pytest.raises(SingularJ):
        odebvp.transfer_matrix(fam, 0.0, 0.0, steps=64)


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
    fam = first_order(
        2, 1.0,
        lambda s, t: 1j * (np.eye(2) + 0.5 * s * np.sin(np.pi * t) * g),
        lambda s, t: np.cos(t) * g + s * np.eye(2),
    )
    system = odebvp._system(fam, 0.7, 256)
    assert not system.const
    lams = [-0.3, 0.0, 0.4]
    path = system.propagate(lams, True)
    assert path.shape == (257, 3, 2, 2)
    npt.assert_array_equal(path[0], np.broadcast_to(np.eye(2), (3, 2, 2)))
    npt.assert_array_equal(path[-1], system.propagate(lams))


@pytest.mark.parametrize("r_fun, const", [
    (lambda s, t: -1.0, True),
    (lambda s, t: -1.0 + 0.5 * np.cos(2.0 * t), False),
], ids=["constant", "varying"])
def test_solution_at_end_is_the_transfer_matrix(r_fun, const):
    fam = dirichlet_second(r_fun, T=2.0)
    system = odebvp._system(fam, 0.5, 256)
    assert system.const is const
    npt.assert_array_equal(system.solution_at(0.0, fam.T),
                           odebvp.transfer_matrix(fam, 0.5, 0.0, steps=256))


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


def test_index_difference_check():
    fam = dirichlet_second(lambda s, t: -1.5 * s)
    out = odebvp.index_difference_check(fam, None, odebvp.BvpOpts(steps=512))
    assert out.agree
    assert out.sf == -1
    assert out.i_w_end - out.i_w_start == -1

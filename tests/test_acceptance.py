"""End-to-end acceptance runs.

Each test is one verdict: an exact integer identity between independently
computed quantities, checked at a tight tolerance and, where cost is part of
the contract, inside a work budget: crossing-engine samples per pipeline and
shooting parameters propagated, both deterministic, so a loaded host cannot
fail them.
One printed pass line each.
"""

from dataclasses import replace

import numpy as np
import numpy.linalg as nla
import pytest
from scipy.integrate import quad

from maslovflow import harness, maslov, odebvp

STOCK = {sc.name: sc for sc in harness.builtin_scenarios()}


def _stamp(name, detail):
    print(f"{name}: PASS -- {detail}", flush=True)


def _count_lambdas(monkeypatch):
    """Count the shooting parameters ``_ShootingSystem.propagate`` is given
    (a refined Chebyshev fit is a second, smaller call, so calls are not the
    work); returns a one-item list."""
    lams = [0]
    propagate = odebvp._ShootingSystem.propagate

    def counting(self, batch, *args, **kwargs):
        lams[0] += len(np.atleast_1d(batch))
        return propagate(self, batch, *args, **kwargs)

    monkeypatch.setattr(odebvp._ShootingSystem, "propagate", counting)
    return lams


def _assert_work(sf_rep, mas_rep, lams, samples, propagated):
    # bounds are the counts the two pipelines needed when they were set
    assert len(sf_rep.samples) <= samples[0]
    assert len(mas_rep.samples) <= samples[1]
    assert lams[0] <= propagated


def test_c1_rotating_boundary_closed_form(monkeypatch):
    lams = _count_lambdas(monkeypatch)
    sc = STOCK["S1"]
    fam, w_path = sc.build()
    sf, sf_rep = odebvp.sf_bvp(fam, w_path, sc.opts)
    mas, mas_rep = odebvp.mas_bvp(fam, w_path, sc.opts)
    assert sf == mas == 1
    # every sampled eigenvalue lies on a branch 2 pi (s + k)
    worst = 0.0
    for s, coords in sf_rep.samples.items():
        for c in coords:
            k = np.round(c / (2.0 * np.pi) - s)
            worst = max(worst, abs(c - 2.0 * np.pi * (s + k)))
    assert worst <= 1e-7
    _assert_work(sf_rep, mas_rep, lams, (41, 33), 1406)
    _stamp("acceptance 1", f"S1 sf=mas=+1, river max deviation {worst:.2e}, "
                          f"{lams[0]} lambdas propagated")


def test_c2_softening_oscillator_closed_form(monkeypatch):
    lams = _count_lambdas(monkeypatch)
    sc = STOCK["S2"]
    fam, w_path = sc.build()
    sf, sf_rep = odebvp.sf_bvp(fam, w_path, sc.opts)
    mas, mas_rep = odebvp.mas_bvp(fam, w_path, sc.opts)
    assert sf == mas == -1
    # the only branch near zero is 1 - 1.5 s
    worst = 0.0
    for s, coords in sf_rep.samples.items():
        for c in coords:
            worst = max(worst, abs(c - (1.0 - 1.5 * s)))
    assert worst <= 1e-7
    _assert_work(sf_rep, mas_rep, lams, (33, 33), 627)
    _stamp("acceptance 2", f"S2 sf=mas=-1, branch max deviation {worst:.2e}, "
                          f"{lams[0]} lambdas propagated")


def test_c3_varying_structure_grid_stability(monkeypatch):
    lams = _count_lambdas(monkeypatch)
    sc = STOCK["S3"]
    base = harness.run_scenario(sc)
    assert base.error is None
    assert base.agree
    _assert_work(base.flow_reports["sf"], base.flow_reports["mas"], lams, (39, 33), 789)
    lams[0] = 0
    doubled = harness.run_scenario(replace(sc, opts=harness.doubled_opts(sc.opts)))
    assert doubled.error is None
    assert doubled.agree
    assert (base.sf, base.mas) == (doubled.sf, doubled.mas)
    _assert_work(doubled.flow_reports["sf"], doubled.flow_reports["mas"], lams,
                 (67, 65), 2292)
    _stamp("acceptance 3", f"S3 sf=mas={base.sf} stable under doubling "
                          "of steps/partition")


def test_c4_periodic_moving_mean_grid_stability(monkeypatch):
    lams = _count_lambdas(monkeypatch)
    sc = STOCK["S5"]
    base = harness.run_scenario(sc)
    assert base.error is None and base.agree
    _assert_work(base.flow_reports["sf"], base.flow_reports["mas"], lams, (33, 33), 1155)
    lams[0] = 0
    doubled = harness.run_scenario(replace(sc, opts=harness.doubled_opts(sc.opts)))
    assert doubled.error is None and doubled.agree
    _assert_work(doubled.flow_reports["sf"], doubled.flow_reports["mas"], lams,
                 (65, 65), 2275)
    assert (base.sf, base.mas) == (doubled.sf, doubled.mas) == (-1, -1)
    _stamp("acceptance 4", "S5 sf=mas=-1, grid-stable")


def test_c5_index_difference_identity():
    # s-flow against the difference of endpoint t-indices, three
    # independent computations per family
    fam2, _ = STOCK["S2"].build()
    out = odebvp.index_difference_check(fam2, None, odebvp.BvpOpts())
    assert out.agree
    assert out.sf == -1

    # the drawn family has sf = 0 here; lowering r by 14 s I pushes two
    # Dirichlet eigenvalues through zero, so a flow stuck at 0 cannot pass
    rng = np.random.default_rng(42)
    fam_r = harness._random_second_order(rng, 2)
    r = fam_r.r
    fam_r = replace(fam_r, r=lambda s, t: r(s, t) - 14.0 * s * np.eye(2))
    out_r = odebvp.index_difference_check(fam_r, None, odebvp.BvpOpts(steps=1024))
    assert out_r.sf != 0
    assert out_r.agree
    _stamp("acceptance 5",
           f"S2: {out.sf} == {out.i_w_end} - ({out.i_w_start}); random "
           f"family: {out_r.sf} == {out_r.i_w_end} - ({out_r.i_w_start})")


def test_c6_property_sweep_full():
    summary = harness.property_sweep(seed=42, trials=50, dims=(2, 4, 6, 8))
    named = (
        "fredholm_index_zero", "unitary_counting", "boxplus_index",
        "product_identities", "flipping", "catenation", "naturality",
        "splitting_independence",
    )
    rows = {row.name: row for row in summary.suites}
    for name in named:
        assert rows[name].failed == 0, f"{name}: {rows[name].first_failure}"
    assert summary.all_passed, [
        (r.name, r.first_failure) for r in summary.suites if r.failed
    ]
    total = sum(r.trials for r in summary.suites)
    _stamp("acceptance 6", f"sweep seed 42: {total} trials over "
                          f"{len(summary.suites)} suites, 100% pass")


def test_c7_real_bridge_residual():
    rng = np.random.default_rng(42)
    jstd = lambda m: np.block([
        [np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]
    ])
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        o, _ = nla.qr(rng.standard_normal((2 * m, 2 * m)))
        j = o @ jstd(m) @ o.T
        u0 = harness._random_unitary(rng, m)
        h = harness._random_hermitian(rng, m)
        theta, vecs = nla.eigh(h)

        def u_at(s, u0=u0, theta=theta, vecs=vecs):
            return u0 @ (vecs * np.exp(1j * s * theta)) @ vecs.conj().T

        lam = o @ harness._real_lagrangian_frame(np.eye(m))
        mu_path = lambda s, o=o, u_at=u_at: o @ harness._real_lagrangian_frame(u_at(s))
        cmp = maslov.complexify_and_compare(j, lam, mu_path, (0.0, 1.0))
        assert cmp.mas == -cmp.mas_bf
        worst = max(worst, cmp.residual)
    assert worst <= 1e-9
    _stamp("acceptance 7", f"100 real paths: index negation every trial, "
                          f"worst bridge residual {worst:.2e}")


def test_c8_numerical_certificates():
    # symplectic transport and unit-circle residuals on the stock problems;
    # spectral projections are certified by acceptance 6 (contour_projection)
    for sc in harness.builtin_scenarios():
        rep = harness.run_scenario(sc)
        assert rep.error is None, (rep.name, rep.error)
        assert rep.residuals["transport"] <= 1e-8, rep.name
        assert rep.residuals["unitary"] <= 1e-8, rep.name
    _stamp("acceptance 8", "transport and unit-circle residuals <= 1e-8 on "
                          "all scenarios")


def _s3_river(s):
    """S3's branches: with j = i g, g = 1 + 0.5 s sin(pi t), the solution is
    x(1) = exp(i (B - lambda C)) x(0) (g(0) = g(1) = 1), for B = int b / g
    and C = int 1 / g over [0, 1]."""
    g = lambda t: 1.0 + 0.5 * s * np.sin(np.pi * t)
    b = quad(lambda t: s * np.cos(t) / g(t), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)[0]
    c = quad(lambda t: 1.0 / g(t), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)[0]
    return [(2.0 * np.pi * (s + n) - b) / c for n in (-1, 0, 1)]


# The eigenvalue branches of each stock problem in closed form at s, over
# every n that can come within the horizon |lambda| <= 0.6.
RIVERS = {
    "S1": lambda s: [2.0 * np.pi * (s + n) for n in (-1, 0, 1)],
    "S2": lambda s: [n * n - 1.5 * s for n in (1, 2)],
    "S3": _s3_river,
    "S4": lambda s: [-1.0 + 2.0 * np.pi * n for n in (-1, 0, 1)],
    "S5": lambda s: [1.0 / 3.0 - s + 2.0 * np.pi * n for n in (-1, 0, 1)],
}


@pytest.mark.parametrize("steps", [odebvp.BvpOpts.steps, 256])
@pytest.mark.parametrize("name", RIVERS)
def test_every_sampled_root_lies_on_its_closed_form_river(name, steps):
    # S3 is the one river RK4 does not integrate to rounding at 256 steps:
    # its h^4 error measured 2.75e-13 there
    bound = 1e-12 if (name, steps) == ("S3", 256) else 4e-15
    sc = STOCK[name]
    fam, w_path = sc.build()
    _, rep = odebvp.sf_bvp(fam, w_path, replace(sc.opts, steps=steps))
    horizon = 0.6 * sc.opts.lambda_window
    worst = 0.0
    for s, roots in rep.samples.items():
        river = np.array([lam for lam in RIVERS[name](s) if abs(lam) <= horizon])
        assert len(roots) == len(river), (s, roots, river)
        if len(roots):
            worst = max(worst, float(np.abs(np.sort(roots) - np.sort(river)).max()))
    assert worst <= bound, worst
    _stamp(f"river {name} at {steps} steps",
           f"{sum(map(len, rep.samples.values()))} roots within {worst:.2e} of the closed form")

"""Scenario runner and the randomized property sweep."""

import json

import numpy as np
import pytest

from maslovflow import cli, core, harness, maslov, odebvp
from maslovflow.errors import InvalidTrials


def rotation_scenario(expected=None):
    j = np.array([[1j, 0], [0, -1j]])
    space = core.make_space(j)
    sp = core.make_splitting(space)

    def lam(s):
        u = np.array([[np.exp(2j * np.pi * s)]])
        return core.subspace_from_span(sp.hframe_plus + sp.hframe_minus @ u)

    mu = core.subspace_from_span(sp.hframe_plus + sp.hframe_minus)
    path = maslov.PairPath.from_parts(j, lam, mu, (0.0, 1.0))
    return harness.Scenario(
        name="rot", kind="pair_path", build=lambda: path, expected=expected
    )


def test_builtin_scenarios_roster():
    stock = harness.builtin_scenarios()
    assert [sc.name for sc in stock] == ["S1", "S2", "S3", "S4", "S5"]
    kinds = {sc.name: sc.kind for sc in stock}
    assert kinds["S2"] == "second_order"
    assert kinds["S1"] == kinds["S3"] == kinds["S4"] == kinds["S5"] == "first_order"
    assert stock[2].expected is None  # S3 is established at run time


def test_pipelines_pair_each_kind():
    assert tuple(harness.pipelines(harness.builtin_scenarios()[0])) == ("sf", "mas")
    assert tuple(harness.pipelines(rotation_scenario())) == ("mas", "mas_block")


def test_run_scenario_bvp():
    rep = harness.run_scenario(harness.builtin_scenarios()[0])
    assert rep.error is None
    assert (rep.sf, rep.mas, rep.agree) == (1, 1, True)
    assert rep.wall_ms > 0
    assert set(rep.residuals) == {"transport", "lagrangian", "unitary"}
    assert rep.partitions["sf"][0] == 0.0 and rep.partitions["sf"][-1] == 1.0


def test_run_scenario_pair_path():
    rep = harness.run_scenario(rotation_scenario())
    assert rep.sf is None
    assert rep.mas == 1
    assert rep.agree  # product formula vs block formula
    assert rep.error is None


def test_pair_path_expected_without_sf():
    rep = harness.run_scenario(
        rotation_scenario(expected=harness.Expected(None, 1, "winding number"))
    )
    assert rep.error is None


def test_pinned_mismatch_is_recorded_not_raised():
    rep = harness.run_scenario(
        rotation_scenario(expected=harness.Expected(None, -5, "deliberately wrong"))
    )
    assert rep.error is not None
    assert "were not reproduced" in rep.error or "was not reproduced" in rep.error
    assert rep.mas == 1  # the computation itself still happened


def test_build_failure_is_captured():
    def explode():
        raise ValueError("boom")

    sc = harness.Scenario(name="bad", kind="pair_path", build=explode)
    rep = harness.run_scenario(sc)
    assert rep.error == "ValueError: boom"
    assert rep.agree is False


def test_report_dict_shape():
    rep = harness.run_scenario(harness.builtin_scenarios()[3])
    d = rep.to_dict()
    assert set(d) == {"name", "kind", "sf", "mas", "agree", "residuals",
                      "partitions", "wall_ms"}
    bad = harness.run_scenario(
        harness.Scenario(name="x", kind="pair_path",
                         build=lambda: (_ for _ in ()).throw(RuntimeError("no")))
    )
    assert "error" in bad.to_dict()


def test_doubled_opts():
    opts = odebvp.BvpOpts(steps=100, grid=10, initial_segments=4)
    d = harness.doubled_opts(opts)
    assert (d.steps, d.grid, d.initial_segments) == (200, 20, 8)
    assert d.max_depth == opts.max_depth


def test_sweep_rejects_bad_inputs():
    with pytest.raises(InvalidTrials):
        harness.property_sweep(seed=1, trials=0)
    with pytest.raises(ValueError):
        harness.property_sweep(seed=1, trials=1, suites=("no_such_suite",))
    with pytest.raises(ValueError, match="no suites"):
        harness.property_sweep(seed=42, trials=1, suites=[])
    for dims in [(3,), (0,), (2, -2)]:
        with pytest.raises(ValueError, match="dims"):
            harness.property_sweep(seed=1, trials=1, dims=dims)


FAST_SUITES = ("fredholm_index_zero", "unitary_counting", "double_annihilator")


def test_sweep_is_deterministic():
    a = harness.property_sweep(seed=11, trials=2, dims=(2, 4), suites=FAST_SUITES)
    b = harness.property_sweep(seed=11, trials=2, dims=(2, 4), suites=FAST_SUITES)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert a.all_passed


def test_sweep_trials_draw_disjoint_streams():
    first = harness._rng_for(42, 0, 16).bit_generator.random_raw(8)
    second = harness._rng_for(42, 1, 16).bit_generator.random_raw(8)
    assert not set(first) & set(second)


def test_sweep_counts_a_singular_matrix_as_a_failed_trial(monkeypatch, capsys):
    def singular(rng, dims):
        return True, 0.0, f"inverse {np.linalg.inv(np.zeros((2, 2)))}"

    monkeypatch.setattr(harness, "ALL_SUITES", (("fredholm_index_zero", singular),))
    (row,) = harness.property_sweep(seed=1, trials=3, dims=(2,)).suites
    assert (row.passed, row.failed) == (0, 3)
    assert "LinAlgError" in row.first_failure
    assert cli.main(["sweep", "--trials", "1", "--dims", "2"]) == 1
    assert "FAIL fredholm_index_zero" in capsys.readouterr().out


def test_sweep_streams_do_not_depend_on_selection():
    # the same suite drawn alone or alongside others sees identical trials
    pair = harness.property_sweep(seed=11, trials=2, dims=(2,),
                                  suites=("fredholm_index_zero", "unitary_counting"))
    alone = harness.property_sweep(seed=11, trials=2, dims=(2,),
                                   suites=("unitary_counting",))
    row_pair = [s for s in pair.suites if s.name == "unitary_counting"][0]
    row_alone = alone.suites[0]
    assert row_pair.worst_residual == row_alone.worst_residual
    assert row_pair.passed == row_alone.passed


def test_sweep_summary_shape():
    out = harness.property_sweep(seed=3, trials=1, dims=(2,), suites=FAST_SUITES)
    d = out.to_dict()
    assert d["seed"] == 3 and d["trials"] == 1
    assert [row["name"] for row in d["suites"]] == list(FAST_SUITES)
    json.loads(json.dumps(d))  # valid JSON


def test_all_suites_registered():
    names = set(harness.SUITE_NAMES)
    for required in (
        "fredholm_index_zero", "unitary_counting", "boxplus_index",
        "product_identities", "flipping", "catenation", "naturality",
        "splitting_independence", "real_comparison", "flow_catenation",
        "flow_reparam", "flow_oracle", "contour_projection",
        "transport_invariant", "graph_lagrangian",
    ):
        assert required in names

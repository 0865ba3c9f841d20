"""Scenario runner and the randomized property sweep."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from maslovflow import cli, core, harness, maslov, odebvp


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
    # S3's integers are pinned to their closed form
    assert (stock[2].expected.sf, stock[2].expected.mas) == (0, 0)
    assert stock[2].expected.provenance.startswith("closed form")


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
    opts = odebvp.BvpOpts(steps=100, initial_segments=4, lambda_window=2.5)
    d = harness.doubled_opts(opts)
    assert (d.steps, d.initial_segments) == (200, 8)
    assert (d.max_depth, d.lambda_window) == (opts.max_depth, opts.lambda_window)


def test_sweep_rejects_bad_inputs():
    with pytest.raises(ValueError):
        harness.property_sweep(seed=1, trials=0)
    with pytest.raises(ValueError):
        harness.property_sweep(seed=1, trials=1, suites=("no_such_suite",))
    with pytest.raises(ValueError, match="no suites"):
        harness.property_sweep(seed=42, trials=1, suites=[])
    for dims in [(3,), (0,), (2, -2)]:
        with pytest.raises(ValueError, match="dims"):
            harness.property_sweep(seed=1, trials=1, dims=dims)


@pytest.mark.parametrize("trials", [2.5, True, 1.0, "3"])
def test_sweep_refuses_a_trial_count_that_is_not_an_integer(trials):
    # 2.5 ran 2 trials and True one
    with pytest.raises(ValueError, match="trials must be an integer of at least 1"):
        harness.property_sweep(seed=42, trials=trials, suites=["normalize_metric"])


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, "42"])
def test_sweep_refuses_a_seed_that_is_not_a_philox_key_word(seed):
    # -1 ran on a key NumPy warned about casting, 2**64 raised OverflowError
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
        harness.property_sweep(seed=seed, trials=1, suites=["normalize_metric"])


@pytest.mark.parametrize("seed", [2**63 + 1, 2**64 - 1, np.uint64(2**64 - 1)])
def test_sweep_takes_every_seed_below_2_to_the_64(seed):
    # NumPy read a key [seed, 0] past 2**63 through a float: 2**64 - 1
    # warned about the cast, and 2**63 + 1 drew the trials of 2**63
    summary = harness.property_sweep(seed=seed, trials=1, suites=["normalize_metric"])
    assert summary.seed == int(seed) and summary.all_passed
    draw = harness._rng_for(seed, 0, "normalize_metric").random()
    assert draw != harness._rng_for(int(seed) - 1, 0, "normalize_metric").random()


def test_sweep_accepts_a_numpy_integer_trial_count():
    summary = harness.property_sweep(seed=42, trials=np.int64(2), suites=["normalize_metric"])
    assert summary.trials == 2 and type(summary.trials) is int
    assert json.dumps(summary.to_dict())


FAST_SUITES = ("fredholm_index_zero", "unitary_counting", "double_annihilator")


def test_sweep_is_deterministic():
    a = harness.property_sweep(seed=11, trials=2, dims=(2, 4), suites=FAST_SUITES)
    b = harness.property_sweep(seed=11, trials=2, dims=(2, 4), suites=FAST_SUITES)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert a.all_passed


def test_sweep_trials_draw_disjoint_streams():
    first = harness._rng_for(42, 0, "graph_lagrangian").bit_generator.random_raw(8)
    second = harness._rng_for(42, 1, "graph_lagrangian").bit_generator.random_raw(8)
    assert not set(first) & set(second)


def test_sweep_streams_are_keyed_by_suite_name():
    # one distinct counter word per suite, equal to the suite's position in
    # ALL_SUITES when streams were keyed by position, so no draw changed;
    # the names and the words are read off the one suite table
    words = harness.SUITE_STREAMS
    assert harness.SUITE_NAMES == tuple(name for name, _, _ in harness.ALL_SUITES)
    assert words == {name: word for name, word, _ in harness.ALL_SUITES}
    assert set(words) == set(harness.SUITE_NAMES)
    assert len(set(words.values())) == len(words)
    assert [words[name] for name in harness.SUITE_NAMES] == list(range(21))
    for index, name in enumerate(harness.SUITE_NAMES):
        by_position = np.random.Philox(counter=[0, index, 3, 0], key=[42, 0])
        npt.assert_array_equal(harness._rng_for(42, 3, name).bit_generator.random_raw(4),
                               by_position.random_raw(4))


def test_sweep_counts_a_singular_matrix_as_a_failed_trial(monkeypatch, capsys):
    def singular(rng, dims):
        return True, 0.0, f"inverse {np.linalg.inv(np.zeros((2, 2)))}"

    monkeypatch.setattr(harness, "ALL_SUITES", (("fredholm_index_zero", 0, singular),))
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


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_the_branch_oracle_stack_gives_the_per_s_values_bit_for_bit(n):
    grid = np.linspace(0.0, 1.0, 161)
    for draw in range(5):
        rng = np.random.default_rng([n, draw])
        fam = harness._random_hermitian_family(rng, n)
        t = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        tinv = np.linalg.inv(t)
        stack = fam(grid)
        assert stack.tobytes() == np.stack([fam(float(s)) for s in grid]).tobytes()
        assert (np.linalg.eigvalsh(stack).tobytes()
                == np.stack([np.linalg.eigvalsh(fam(float(s))) for s in grid]).tobytes())
        conjugated = np.sort(np.linalg.eigvals(t @ stack @ tinv).real, axis=-1)
        assert conjugated.tobytes() == np.stack(
            [np.sort(np.linalg.eigvals(t @ fam(float(s)) @ tinv).real) for s in grid]).tobytes()

"""Command line surface: documents, commands, exit codes, artifacts."""

import csv
import json

import numpy as np
import numpy.testing as npt
import pytest

import maslovflow
from maslovflow import cli, expressions
from maslovflow.errors import ConfigError

OSC = {
    "name": "osc",
    "kind": "second_order",
    "m": 1,
    "T": float(np.pi),
    "p": [["1"]],
    "q": [["0"]],
    "r": [["-1.5*s"]],
    "boundary": {"r_subspace": None},
    "numerics": {"steps": 512},
    "expected": {"sf": -1, "mas": -1,
                 "provenance": "lowest eigenvalue 1 - 1.5 s crosses at s = 2/3"},
}

ROT = {
    "kind": "first_order",
    "m": 1,
    "T": 1.0,
    "j": [["1i"]],
    "b": [["0"]],
    "boundary": {"w_path": [["1"], ["cos(2*pi*s)+1i*sin(2*pi*s)"]]},
    "numerics": {"steps": 512},
}

PAIR = {
    "kind": "pair_path",
    "m": 1,
    "j": [["1i", "0"], ["0", "-1i"]],
    "lam": [["1"], ["cos(2*pi*s)+1i*sin(2*pi*s)"]],
    "mu": [["1"], ["1"]],
    "expected": {"mas": 1, "provenance": "one full upward relative rotation"},
}


def write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_agreeing_document(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["verify", write(tmp_path, OSC), "--out", str(out)])
    assert code == 0
    assert "osc: sf=-1 mas=-1 agree" in capsys.readouterr().out
    report = json.loads((out / "osc.json").read_text())
    assert (report["sf"], report["mas"], report["agree"]) == (-1, -1, True)
    with open(out / "osc_sf.csv") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "s" and header[1].startswith("lambda_")
    with open(out / "osc_mas.csv") as fh:
        header = next(csv.reader(fh))
    assert header[1].startswith("coord_")


def test_verify_multiple_documents(tmp_path):
    code = cli.main(["verify", write(tmp_path, OSC, "a.json"),
                     write(tmp_path, ROT, "b.json")])
    assert code == 0


def test_verify_out_refuses_a_repeated_scenario_name(tmp_path, monkeypatch, capsys):
    # a/doc.json and b/doc.json both wrote out/doc.json, the second report
    # replacing the first, and verify exited 0
    def never(sc):
        raise AssertionError("a pipeline ran before the names were checked")

    monkeypatch.setattr(cli.harness, "run_scenario", never)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    unnamed = {key: value for key, value in OSC.items() if key != "name"}
    docs = [write(tmp_path / "a", unnamed, "doc.json"), write(tmp_path / "b", ROT, "doc.json")]
    out = tmp_path / "out"
    assert cli.main(["verify", *docs, "--out", str(out)]) == 3
    assert "names ['doc'] repeat" in capsys.readouterr().err
    assert not out.exists()


def test_verify_builtin_reference(capsys):
    assert cli.main(["verify", "@S4"]) == 0
    assert "S4" in capsys.readouterr().out


def test_sf_and_maslov_print_bare_integers(tmp_path, capsys):
    cfg = write(tmp_path, OSC)
    assert cli.main(["sf", cfg]) == 0
    assert capsys.readouterr().out == "-1\n"
    assert cli.main(["maslov", cfg]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_maslov_on_pair_path(tmp_path, capsys):
    cfg = write(tmp_path, PAIR)
    assert cli.main(["maslov", cfg]) == 0
    assert capsys.readouterr().out == "1\n"
    assert cli.main(["verify", cfg]) == 0


def test_sf_on_pair_path_is_config_error(tmp_path, capsys):
    assert cli.main(["sf", write(tmp_path, PAIR)]) == 3
    assert "pair path" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("steps", 7), ("lambda_window", 123.0)])
def test_pair_path_rejects_bvp_numerics(tmp_path, key, value, capsys):
    doc = dict(PAIR, numerics={key: value, "max_depth": 12})
    assert cli.main(["verify", write(tmp_path, doc)]) == 3
    assert f"numerics.{key}" in capsys.readouterr().err


def test_exit_1_on_pinned_mismatch(tmp_path, capsys):
    doc = dict(ROT)
    doc["expected"] = {"sf": 5, "mas": 5, "provenance": "wrong on purpose"}
    assert cli.main(["verify", write(tmp_path, doc)]) == 1
    assert "not reproduced" in capsys.readouterr().err


def test_exit_2_on_unresolved_family(tmp_path, capsys):
    doc = dict(ROT)
    doc["numerics"] = {"steps": 256, "initial_segments": 1, "max_depth": 0}
    cfg = write(tmp_path, doc)
    assert cli.main(["verify", cfg]) == 2
    assert "UnresolvedFamily" in capsys.readouterr().err
    assert cli.main(["sf", cfg]) == 2


@pytest.mark.parametrize("doc", [
    dict(OSC, m=1.0, numerics={"steps": 512.0, "initial_segments": 16.0, "max_depth": 12.0}),
    dict(PAIR, m=1.0, numerics={"initial_segments": 16.0, "max_depth": 12.0}),
], ids=["second_order", "pair_path"])
def test_integral_floats_in_documents_are_counts(tmp_path, doc, capsys):
    # the schema's "integer" admits 4.0; verify exited 1 on it, sf died
    cfg = write(tmp_path, doc)
    sc = cli.scenario_from_document(json.loads(json.dumps(doc)), "x")
    counts = [v for k, v in vars(sc.opts).items() if k != "lambda_window"]
    assert all(type(v) is int for v in counts)
    assert cli.main(["verify", cfg]) == 0
    assert cli.main(["maslov", cfg]) == 0
    assert capsys.readouterr().out.endswith(f"\n{doc['expected']['mas']}\n")


def test_one_step_is_the_least_document_step_count(tmp_path, capsys):
    # the schema asked for 2 steps, while BvpOpts and the build accept 1
    doc = cli.load_document(write(tmp_path, dict(ROT, numerics={"steps": 1})))
    assert cli.scenario_from_document(doc, "x").opts.steps == 1
    assert cli.main(["verify", write(tmp_path, dict(ROT, numerics={"steps": 0}))]) == 3
    assert "numerics/steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("T"),                       # schema violation
        lambda d: d.update(b=[["s +* t"]]),         # expression syntax
        lambda d: d.update(b=[["q"]]),              # unknown identifier
        lambda d: d.update(interval=[0, 1]),        # interval on a BVP kind
        lambda d: d.update(boundary={"r_subspace": None}),  # wrong boundary kind
        lambda d: d.update(j=[["1i", "0"]]),        # wrong shape
        lambda d: d.update(boundary={"w_path": [["t"], ["1"]]}),  # t in frame
        lambda d: d.update(numerics={"steps": 512.5}),  # count not integral
    ],
)
def test_exit_3_on_bad_documents(tmp_path, mangle, capsys):
    doc = json.loads(json.dumps(ROT))
    mangle(doc)
    assert cli.main(["verify", write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith("error:")


J_IN_T = [[[[0, 1], [0, 0]], [[0, 0], [0, -1]]]] * 2  # the PAIR j at t = 0, 1


@pytest.mark.parametrize(
    "doc, field",
    [
        (dict(OSC, boundary={"r_subspace": [["s"], ["1"]]}), "boundary.r_subspace"),
        (dict(PAIR, lam=[["1"], ["t"]]), "lam"),
        (dict(PAIR, j={"samples": {"t": [0.0, 1.0], "values": J_IN_T}}), "j"),
        (dict(ROT, boundary={"w_path": [["1"], ["s"], ["1"]]}), "boundary.w_path"),
        (dict(PAIR, mu=[["1", "0"], ["1", "1"]]), "mu"),
        (dict(ROT, b=[["0"], ["0", "1"]]), "b: row 1 has 2 entries"),
        (dict(ROT, b={"samples": {"t": [0.0, 0.0], "values": [[[0.0]], [[0.0]]]}}),
         "b: samples axis 't' must increase"),
        (dict(ROT, b={"samples": {"t": [0.0, 0.5, 1.0], "values": [[[0.0]], [[0.0]]]}}),
         "b: values axis 0 has length 2"),
        (dict(ROT, b={"samples": {"values": [[]]}}), "b: empty sample matrices"),
        (dict(ROT, expected={"mas": 1, "provenance": "no sf"}), "expected:"),
        (dict(PAIR, expected={"sf": 1, "mas": 1, "provenance": "sf"}), "expected.sf"),
        (dict(PAIR, T=1.0), "'T' does not apply"),
        (dict(PAIR, interval=[1.0, 1.0]), "interval: need a < b"),
        (dict(ROT, b={"samples": {"t": [0.0, 1.0], "values": [[0.0], [0.0]]}}),
         "b: samples values have 2 axes, expected 3"),
    ],
    ids=["r_subspace-in-s", "pair-lam-in-t", "pair-j-t-axis", "w_path-rows",
         "pair-mu-cols", "ragged-rows", "axis-not-increasing", "axis-length",
         "empty-samples", "expected-without-sf", "pair-expected-sf", "pair-T",
         "empty-interval", "values-axes"],
)
def test_exit_3_names_the_field(tmp_path, doc, field, capsys):
    assert cli.main(["verify", write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {field}")


@pytest.mark.parametrize("doc, module, name, line", [
    (dict(ROT, name="rot"), "odebvp", "sf_bvp", "rot: DISAGREE sf=2 mas=1"),
    ({k: v for k, v in PAIR.items() if k != "expected"} | {"name": "pair"},
     "maslov", "maslov_index_block", "pair: DISAGREE mas=1 mas_block=2"),
], ids=["bvp", "pair-path"])
def test_a_disagreement_names_the_integer_of_each_pipeline(doc, module, name, line, tmp_path,
                                                          monkeypatch, capsys):
    # one pipeline is made to count one more than it finds
    target = getattr(cli, module)
    run = getattr(target, name)

    def one_more(*args):
        value, rep = run(*args)
        return value + 1, rep

    monkeypatch.setattr(target, name, one_more)
    assert cli.main(["verify", write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_number_and_pair_entries_match_their_expression_twins(tmp_path):
    # 1 and [1, 0] are "1", [0, 1] is "1i", 0 is "0": same integers, same bytes
    w_path = [[1], ROT["boundary"]["w_path"][1]]
    twins = [(ROT, dict(ROT, j=[[[0, 1]]], b=[[0]], boundary={"w_path": w_path})),
             (PAIR, dict(PAIR, j=[[[0, 1], 0], [0, "-1i"]], mu=[[1], [[1, 0]]]))]
    for k, pair in enumerate(twins):
        outs = [tmp_path / f"{k}{side}" for side in "ab"]
        for doc, out in zip(pair, outs):
            cfg = write(tmp_path, dict(doc, name="twin"))
            assert cli.main(["verify", cfg, "--out", str(out)]) == 0
        a, b = (json.loads((out / "twin.json").read_text()) for out in outs)
        assert (a["sf"], a["mas"], a["partitions"]) == (b["sf"], b["mas"], b["partitions"])
        traces = sorted(path.name for path in outs[0].glob("*.csv"))
        assert traces and traces == sorted(path.name for path in outs[1].glob("*.csv"))
        for name in traces:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_nan_coefficient_fails_the_structural_check(tmp_path, capsys):
    # NaN at t = 0 in b, at s = 0 in q; the error line is all that is printed
    for doc, field in ((dict(ROT, b=[["t/t - 1"]]), "b(s="),
                       (dict(OSC, q=[["s/s - 1"]]), "q(s=")):
        cfg = write(tmp_path, doc)
        for command in ("sf", "maslov"):
            assert cli.main([command, cfg]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and field in err
            assert len(err.splitlines()) == 1


def test_nan_frame_is_not_the_zero_subspace(tmp_path, capsys):
    cfg = write(tmp_path, dict(ROT, boundary={"w_path": [["s/s"], ["1"]]}))
    for command in ("sf", "maslov"):
        assert cli.main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NonFinite: boundary.w_path(s=") and len(err.splitlines()) == 1
    # a pair path names the field too, ahead of any structural check on it
    for key, value in (("lam", [["s/s"], ["1"]]), ("j", [["s/s*1i", "0"], ["0", "-1i"]])):
        assert cli.main(["maslov", write(tmp_path, dict(PAIR, **{key: value}))]) == 1
        assert capsys.readouterr().err.startswith(f"error: NonFinite: {key}(s=")


def counting(calls, fun):
    def wrapped(*args, **kwargs):
        calls.append(args)
        return fun(*args, **kwargs)

    return wrapped


def test_a_matrix_that_does_not_use_s_is_passed_as_a_constant(tmp_path, capsys, monkeypatch):
    # the PAIR j and mu name no s: one eigensolve per engine batch, where
    # every s split its own copy of j (33 for 33 samples)
    eighs, batches = [], []
    monkeypatch.setattr(maslovflow.core.la, "eigh", counting(eighs, maslovflow.core.la.eigh))
    monkeypatch.setattr(maslovflow.maslov, "make_splitting",
                        counting(batches, maslovflow.maslov.make_splitting))
    assert cli.main(["maslov", write(tmp_path, PAIR)]) == 0
    assert capsys.readouterr().out == "1\n"
    assert len(eighs) == len(batches) == 1
    # a w_path without s is one member per batch: sf_bvp takes one W-perp
    # per engine batch, where it took one per s
    comps, sf_batches = [], []
    engine = maslovflow.odebvp.flow_from_sampler
    monkeypatch.setattr(maslovflow.odebvp, "orthogonal_complement",
                        counting(comps, maslovflow.odebvp.orthogonal_complement))
    monkeypatch.setattr(maslovflow.odebvp, "flow_from_sampler",
                        lambda sampler, *args, **kw: engine(counting(sf_batches, sampler), *args, **kw))
    assert cli.main(["sf", write(tmp_path, dict(ROT, boundary={"w_path": [["1"], ["1"]]}))]) == 0
    assert capsys.readouterr().out == "0\n"
    assert len(comps) == len(sf_batches) >= 1
    # a constant that is not finite is named as read, at s = 0
    assert cli.main(["maslov", write(tmp_path, dict(PAIR, mu=[["0/0"], ["1"]]))]) == 1
    assert capsys.readouterr().err.startswith("error: NonFinite: mu(s=0) is not finite")


@pytest.mark.parametrize("entry", ["(" * 400 + "1" + ")" * 400, "sin(" * 200 + "0" + ")" * 200],
                         ids=["parentheses", "functions"])
def test_deep_nesting_exits_3(tmp_path, entry, capsys):
    # the parser raised RecursionError, a traceback and exit 1
    assert cli.main(["sf", write(tmp_path, dict(ROT, b=[[entry]]))]) == 3
    assert "b[0][0]: parentheses nest deeper than 100" in capsys.readouterr().err


def test_a_long_sum_runs(tmp_path, capsys):
    # 1,200 terms parsed, then raised RecursionError inside the pipeline
    assert cli.main(["sf", write(tmp_path, dict(ROT, b=[["+".join(["0.001*s"] * 1200)]]))]) == 0
    assert capsys.readouterr().out == "0\n"


def test_linalg_error_exits_1(tmp_path, capsys, monkeypatch):
    def diverge(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(maslovflow.odebvp, "sf_bvp", diverge)
    cfg = write(tmp_path, OSC)
    for command in (["sf", cfg],
                    ["trace", cfg, "--what", "eigenvalues", "--out", str(tmp_path)]):
        assert cli.main(command) == 1
        assert capsys.readouterr().err == "error: LinAlgError: SVD did not converge\n"


@pytest.mark.parametrize(
    "doc",
    [
        dict(ROT, T=float("nan")),
        dict(PAIR, interval=[0.0, float("inf")]),
        dict(ROT, numerics={"lambda_window": float("nan")}),
        dict(ROT, b={"samples": {"values": [["0.25"]]}}),
        dict(ROT, b={"samples": {"values": [[True]]}}),
    ],
    ids=["T-NaN", "interval-Infinity", "lambda_window-NaN", "values-string",
         "values-bool"],
)
def test_exit_3_on_non_finite_or_non_numeric_numbers(tmp_path, doc, capsys):
    # json.dumps spells float("nan") and float("inf") as NaN and Infinity
    assert cli.main(["verify", write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "doc",
    [
        dict(ROT, T=10**400),
        dict(ROT, b=[[10**400]]),
        dict(ROT, numerics={"lambda_window": 10**400}),
        dict(ROT, numerics={"steps": 10**400}),
        dict(PAIR, interval=[0, 10**400]),
    ],
    ids=["T", "matrix-entry", "lambda_window", "steps", "interval"],
)
def test_exit_3_on_integers_too_large_for_a_float(tmp_path, doc, capsys):
    assert cli.main(["verify", write(tmp_path, doc)]) == 3
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", ".."])
def test_name_cannot_leave_the_out_directory(tmp_path, name, capsys):
    cfg = write(tmp_path, dict(PAIR, name=name))
    out = tmp_path / "out" / "reports"
    assert cli.main(["verify", cfg, "--out", str(out)]) == 3
    assert "name" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [tmp_path / "cfg.json"]


def test_exit_3_on_unreadable_inputs(tmp_path, capsys, monkeypatch):
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{\"kind\":")
    assert cli.main(["verify", str(broken)]) == 3
    assert cli.main(["verify", "@S9"]) == 3

    # an unusable --out is found before any computation starts
    def never(*args, **kwargs):
        raise AssertionError("computed before the --out directory was made")

    for name in ("run_scenario", "pipelines", "property_sweep"):
        monkeypatch.setattr(cli.harness, name, never)
    for argv in (["verify", "@S4"], ["trace", "@S4", "--what", "eigenvalues"],
                 ["sweep", "--seed", "42", "--trials", "3"]):
        assert cli.main(argv + ["--out", "/dev/null/x"]) == 3, argv
    capsys.readouterr()


def test_trace_writes_csv(tmp_path, capsys):
    cfg = write(tmp_path, OSC)
    assert cli.main(["trace", cfg, "--what", "eigenvalues",
                     "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "s"
    assert all(h.startswith("lambda_") for h in rows[0][1:])
    assert float(rows[1][0]) == 0.0
    assert cli.main(["trace", cfg, "--what", "eigenphases",
                     "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert all(h.startswith("coord_") for h in header[1:])


def test_trace_eigenvalues_rejects_pair_path(tmp_path, capsys):
    assert cli.main(["trace", write(tmp_path, PAIR),
                     "--what", "eigenvalues"]) == 3
    assert "pair path" in capsys.readouterr().err


def test_a_refused_trace_makes_no_out_directory(tmp_path, capsys):
    out = tmp_path / "refused"
    assert cli.main(["trace", write(tmp_path, PAIR), "--what", "eigenvalues",
                     "--out", str(out)]) == 3
    assert "pair path" in capsys.readouterr().err
    assert not out.exists()


def test_trace_pair_path_eigenphases(tmp_path, capsys):
    assert cli.main(["trace", write(tmp_path, PAIR), "--what", "eigenphases",
                     "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert header[0] == "s"
    assert len(header) > 1 and all(h.startswith("coord_") for h in header[1:])


def test_scenarios_listing(capsys):
    assert cli.main(["scenarios"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    assert out[0].startswith("S1")
    # S3 is pinned to its closed form
    assert out[2].split()[:4] == ["S3", "first_order", "sf=0", "mas=0"]


def test_sweep_smoke(tmp_path, capsys):
    assert cli.main(["sweep", "--seed", "5", "--trials", "1", "--dims", "2",
                     "--suites", "fredholm_index_zero,double_annihilator",
                     "--out", str(tmp_path)]) == 0
    assert "all passed" in capsys.readouterr().out
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["all_passed"] is True
    assert cli.main(["sweep", "--trials", "0"]) == 3
    assert cli.main(["sweep", "--trials", "1", "--suites", "nope"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "1", "--suites", "nope"],
                                  ["--trials", "1", "--dims", "3"],
                                  ["--seed", "-1", "--trials", "1"],
                                  ["--seed", str(2**64), "--trials", "1"]])
def test_a_refused_sweep_makes_no_out_directory(tmp_path, argv, capsys):
    # the directory used to be made before the sweep checked its arguments
    out = tmp_path / "out"
    assert cli.main(["sweep"] + argv + ["--out", str(out)]) == 3
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("dims", ["2,x", "3"])
def test_sweep_rejects_bad_dims(dims, capsys):
    assert cli.main(["sweep", "--trials", "1", "--dims", dims]) == 3
    assert "dims" in capsys.readouterr().err


def test_seventeen_digit_floats():
    text = cli._json_render({"x": 0.1, "n": 3, "ok": True, "none": None})
    assert '"x": 0.10000000000000001' in text
    assert '"n": 3' in text
    json.loads(text)
    # a failed sweep trial's worst residual is inf; empty containers stay inline
    text = cli._json_render({"worst_residual": float("inf"), "d": {}, "l": []})
    assert json.loads(text) == {"worst_residual": None, "d": {}, "l": []}
    assert '"d": {}' in text and '"l": []' in text


def test_sampled_coefficient_matches_expression():
    # b(s, t) = s (2 t - 1) is bilinear, so a 2 x 2 sample grid is exact
    samples = {"s": [0.0, 1.0], "t": [0.0, 1.0],
               "values": [[[[0.0]], [[0.0]]], [[[-1.0]], [[1.0]]]]}
    fun = cli._coefficient({"samples": samples}, "b", 1, 1)
    tt = np.linspace(0.0, 1.0, 9)
    assert fun(0.37, tt).shape == (9, 1, 1)
    got = fun(0.37, tt)[:, 0, 0]
    npt.assert_allclose(got, 0.37 * (2.0 * tt - 1.0), atol=1e-15)
    # one-point t-arrays and out-of-range clamping
    assert fun(0.5, np.array([0.5]))[0, 0, 0] == pytest.approx(0.0)
    npt.assert_allclose(fun(2.0, np.array([2.0]))[0, 0, 0], 1.0)  # clamped to the corner


def test_sampled_coefficient_complex_entries():
    samples = {"t": [0.0, 1.0], "values": [[[[0.0, 1.0]]], [[[0.0, -1.0]]]]}
    fun = cli._coefficient({"samples": samples}, "j", 1, 1)
    npt.assert_allclose(fun(0.0, np.array([0.5]))[0, 0, 0], 0.0 + 0j, atol=1e-15)
    npt.assert_allclose(fun(0.0, np.array([0.0]))[0, 0, 0], 1j)


def test_sampled_document_runs(tmp_path):
    doc = {
        "kind": "second_order", "m": 1, "T": float(np.pi),
        "p": [["1"]], "q": [["0"]],
        "r": {"samples": {"s": [0.0, 1.0], "values": [[[0.0]], [[-1.5]]]}},
        "boundary": {"r_subspace": None},
        "numerics": {"steps": 512},
        "expected": {"sf": -1, "mas": -1, "provenance": "sampled oscillator"},
    }
    assert cli.main(["verify", write(tmp_path, doc)]) == 0


def test_ragged_samples_rejected():
    with pytest.raises(ConfigError):
        cli._coefficient(
            {"samples": {"t": [0.0, 1.0], "values": [[[0.0]], [[1.0, 2.0]]]}},
            "r", 1,
        )


def test_scenario_from_document_name_defaults(tmp_path):
    sc = cli.scenario_from_document(json.loads(json.dumps(ROT)), "fallback")
    assert sc.name == "fallback"
    doc = dict(OSC)
    sc = cli.scenario_from_document(json.loads(json.dumps(doc)), "x")
    assert sc.name == "osc"


@pytest.mark.parametrize("module", [maslovflow, expressions, cli],
                         ids=["maslovflow", "expressions", "cli"])
def test_public_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

import ast
import concurrent.futures
import csv
import json
import re
import shutil
import time
import warnings
from concurrent.futures import Executor
from pathlib import Path

import numpy as np
import pytest
from fresh_interpreter import REPO, run_fresh

from qmamp import scenarios
from qmamp.cli import EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, main
from qmamp.scenarios import ScenarioError, load_scenario


def write_scenario(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# the one shape of a size-bound refusal (scenarios._within), as a whole stderr
REFUSAL = re.compile(
    r"error: field '(?P<field>[^']+)': expected at most (?P<bound>\d+) (?P<unit>[^;\n]+);"
    r" (?P<subject>[^\n]+) needs about (?P<estimate>\d+)\n"
)


def refusal(err):
    """(field, bound, estimate) of a size-bound refusal, which must be the
    whole of `err`: one line of the one shape."""
    match = REFUSAL.fullmatch(err)
    assert match, err
    return match["field"], int(match["bound"]), int(match["estimate"])


def trivial_rep_scenario(kind, orders, **fields):
    """A scenario of one-dimensional explicit rep: E = 1 on the trivial character."""
    projection = {"character": [0] * len(orders), "matrix": [[1]]}
    rep = {"group": orders, "system_dim": 1, "projections": [projection]}
    return {"version": 1, "kind": kind, "rep": rep, "state": [1.0], "outcomes": [[0]], **fields}


def test_load_scenario_validation(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="'version'"):
        load_scenario(write_scenario(tmp_path, {"kind": "measure"}))
    # the JSON integer 1 only: true and 1.0 compare equal to 1 in Python
    for version in (True, 1.0):
        path = write_scenario(tmp_path, {"version": version, "kind": "measure"})
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"field 'version': expected 1, got {version!r}"
    with pytest.raises(ScenarioError, match="'kind'"):
        load_scenario(write_scenario(tmp_path, {"version": 1, "kind": "nope"}))
    ok = load_scenario(write_scenario(tmp_path, {"version": 1, "kind": "measure"}))
    assert ok == {"version": 1, "kind": "measure"}  # no defaults are added
    seeded = {"version": 1, "kind": "measure", "seed": 7}
    assert load_scenario(write_scenario(tmp_path, seeded)) == seeded  # a seed key still loads


@pytest.mark.parametrize(
    "content",
    [
        b'{"version": 1, "kind": "relations", "groups": [[' + b"1" * 5000 + b"]]}",
        b"[" * 200_000,
        b"\xe9",
    ],
    ids=["int-of-5000-digits", "nested-200000-deep", "not-utf-8"],
)
def test_scenario_file_the_decoder_refuses_exits_1(tmp_path, capsys, content):
    # an integer past Python's digit limit, nesting past the recursion limit
    # and a byte that is not UTF-8 each made the decoder raise past the
    # JSONDecodeError handler: exit 2, or a RecursionError traceback
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["relations", "--scenario", str(path), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: scenario file is not valid JSON: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["relations", "--scenario", "{path}", "--jobs", "2"], id="relations---jobs"),
        pytest.param(["relations", "--scenario", "{path}", "--seed", "2"], id="relations---seed"),
        pytest.param(["sweep", "--scenario", "{path}", "--seed", "2"], id="sweep---seed"),
        pytest.param([], id="no-command"),
        pytest.param(["nope"], id="unknown-command"),
        pytest.param(["relations"], id="relations-without-scenario"),
        pytest.param(["sweep", "--scenario", "{path}", "--jobs", "abc"], id="sweep-jobs-abc"),
        pytest.param(["relations", "--scenario", "x", "--jobs", "2"], id="relations-jobs-2"),
        pytest.param(["selftest", "--scenario", "x"], id="selftest-scenario"),
        pytest.param(["relations", "--scenario", "{path}", "stray"], id="stray-positional"),
        pytest.param(["sweep", "--scenario", "{path}", "--jobs"], id="jobs-without-value"),
        pytest.param(["relations", "--scenario"], id="scenario-without-value"),
        pytest.param(["selftest", "--out", "x"], id="selftest-out"),
    ],
)
def test_cli_offers_jobs_on_sweep_only_and_no_seed(tmp_path, capsys, argv):
    # every usage error exits 1, as an input error, never 2
    path = write_scenario(tmp_path, {"version": 1, "kind": (argv or ["relations"])[0]})
    with pytest.raises(SystemExit) as exc:
        main([arg.replace("{path}", path) for arg in argv])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["sweep", "--help"],
        ["sweep", "--scenario", "x", "--jobs", "2", "-h"],
        ["relations", "--scen=x", "--out", "y", "-h"],
    ],
    ids=["qmamp", "sweep", "sweep-h-last", "relations-h-last"],
)
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    out, err = capsys.readouterr()
    assert "usage: qmamp" in out
    assert out.startswith("usage: qmamp ") and "--jobs" in out and not err


def canonical_argv(kind, path, out):
    return [kind, "--scenario", path, "--out", out] + (["--jobs", "2"] if kind == "sweep" else [])


def option_pairs(argv):
    return list(zip(argv[1::2], argv[2::2]))


# Spellings of the canonical command line that `read_argv` reads the same way.
ARGV_FORMS = {
    "equals": lambda argv: argv[:1] + [f"{opt}={value}" for opt, value in option_pairs(argv)],
    "prefix": lambda argv: [arg[:4] if arg.startswith("--") else arg for arg in argv],
    "reordered": lambda argv: argv[:1] + [x for pair in option_pairs(argv)[::-1] for x in pair],
    # the last of a repeated option holds: the first values would fail or go elsewhere
    "repeated": lambda argv: argv[:1]
    + [x for opt, _ in option_pairs(argv) for x in (opt, "0" if opt == "--jobs" else "unused")]
    + argv[1:],
}


@pytest.mark.parametrize("form", ARGV_FORMS)
@pytest.mark.parametrize("kind", ["relations", "sweep"])
def test_cli_argv_forms_write_the_canonical_bytes(tmp_path, monkeypatch, kind, form):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, VALID["relations"] if kind == "relations" else SMALL_SWEEP)
    outs = [tmp_path / "canonical", tmp_path / form]
    assert main(canonical_argv(kind, path, str(outs[0]))) == EXIT_OK
    assert main(ARGV_FORMS[form](canonical_argv(kind, path, str(outs[1])))) == EXIT_OK
    assert (outs[0] / f"{kind}.csv").read_bytes() == (outs[1] / f"{kind}.csv").read_bytes()
    assert not (tmp_path / "unused").exists()


def test_cli_rejects_missing_file(tmp_path, capsys):
    code = main(["measure", "--scenario", str(tmp_path / "none.json")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["a-file", "under-a-file"])
def test_bad_out_exits_1_before_any_compute(tmp_path, capsys, monkeypatch, out):
    def unreachable(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(scenarios.ktops, "kt_pair", unreachable)
    (tmp_path / "file").write_text("")
    path = write_scenario(tmp_path, VALID["relations"])
    assert main(["relations", "--scenario", path, "--out", str(tmp_path / out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: option '--out': ") and str(tmp_path / "file") in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_cli_rejects_kind_mismatch(tmp_path, capsys):
    path = write_scenario(tmp_path, {"version": 1, "kind": "relations", "groups": [[2]]})
    code = main(["measure", "--scenario", path])
    assert code == EXIT_INPUT
    assert "kind" in capsys.readouterr().err


def test_relations_run(tmp_path, capsys):
    path = write_scenario(
        tmp_path, {"version": 1, "kind": "relations", "groups": [[2], [3], [2, 2]]}
    )
    out = tmp_path / "out"
    assert main(["relations", "--scenario", path, "--out", str(out)]) == EXIT_OK
    assert str(out / "relations.csv") in capsys.readouterr().out
    rows = read_csv(out / "relations.csv")
    assert [r["group"] for r in rows] == ["2", "3", "2x2"]
    for r in rows:
        for col in (
            "pentagonal_w",
            "pentagonal_v",
            "intertwining_w",
            "intertwining_v",
            "fourier_conjugation",
        ):
            assert float(r[col]) <= 1e-10


@pytest.mark.parametrize(
    "groups, field",
    [
        ([[2], "x"], "groups[1]"),
        ([[2, True]], "groups[0]"),
        ([[0]], "groups[0]"),
        ([[]], "groups[0]"),
        ([[4096]], "groups[0]"),  # its Fourier check would hold about 1.3 GB
    ],
    ids=["not-a-list", "bool-order", "zero-order", "empty", "too-large"],
)
def test_relations_rejects_bad_group(tmp_path, capsys, groups, field):
    path = write_scenario(tmp_path, {"version": 1, "kind": "relations", "groups": groups})
    assert main(["relations", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "relations.csv").exists()


def first_order_over_relation_bytes():
    """The smallest cyclic order whose relation checks hold more than
    RELATIONS_BYTES."""
    return next(
        n for n in range(2048, 4097)
        if scenarios.ktops.relation_bytes(scenarios.groups.make_group([n]))
        > scenarios.RELATIONS_BYTES
    )


def test_relations_fourier_check_is_bounded_by_work(tmp_path, capsys, monkeypatch):
    # the probe Fourier check holds 80 |G|^2 bytes, so order 128, refused by
    # the old |G|^4 work bound, runs; the first order over the byte bound,
    # and Z_2^11, whose 22 factor axes take too many DFT passes, are refused
    # before any W, V or Fourier work
    path = write_scenario(tmp_path, {"version": 1, "kind": "relations", "groups": [[128]]})
    out = tmp_path / "out"
    assert main(["relations", "--scenario", path, "--out", str(out)]) == EXIT_OK
    (row,) = read_csv(out / "relations.csv")
    assert row["group"] == "128" and float(row["fourier_conjugation"]) <= 1e-10

    def unreachable(*args, **kwargs):
        raise AssertionError("relation work started")

    monkeypatch.setattr(scenarios.ktops, "kt_pair", unreachable)
    for big in ([first_order_over_relation_bytes()], [2] * 11):
        path = write_scenario(tmp_path, {"version": 1, "kind": "relations", "groups": [[2], big]})
        assert main(["relations", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "field 'groups[1]'" in err and str(scenarios.RELATIONS_BYTES) in err
        assert str(scenarios.RELATIONS_WORK) in err and "Traceback" not in err
    assert not (tmp_path / "relations.csv").exists()


@pytest.mark.parametrize("copies", [10**3, 10**5])
@pytest.mark.parametrize("orders", [[2], [107]], ids=["2", "107"])
def test_relations_run_is_bounded_by_work(tmp_path, capsys, orders, copies):
    # a valid group listed many times runs or is refused as a whole, naming
    # `groups` with the run's estimate and bound, within a few seconds
    path = write_scenario(
        tmp_path, {"version": 1, "kind": "relations", "groups": [orders] * copies}
    )
    start = time.perf_counter()
    code = main(["relations", "--scenario", path, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_INPUT)
    assert len(err.splitlines()) == (code == EXIT_INPUT)
    if code == EXIT_INPUT:
        assert err.startswith("error: field 'groups': ")
        assert str(scenarios.RELATIONS_WORK) in err and "Traceback" not in err
    else:
        assert len(read_csv(tmp_path / "relations.csv")) == copies


def test_relations_does_not_import_numpy_random():
    # the probes are hashed, not drawn: numpy.random's import alone takes
    # longer than a small group's whole check (numpy 1.24 imports it with
    # numpy itself)
    found = run_fresh(
        "import json, sys\n"
        "from qmamp import scenarios\n"
        "before = 'numpy.random' in sys.modules\n"
        "scenarios.relations({'version': 1, 'kind': 'relations', 'groups': [[2, 3], [24]]})\n"
        "print(json.dumps([before, 'numpy.random' in sys.modules]))\n"
    )
    assert found[1] == found[0]


def test_sampled_chain_check_does_not_import_numpy_random():
    # the sampled chain check's tuples are hashed, as the relation checks'
    # probes are
    assert scenarios.amp.chain_samples(scenarios.groups.make_group([2]), 30) > 0
    found = run_fresh(
        "import json, sys\n"
        "from qmamp import scenarios\n"
        "before = 'numpy.random' in sys.modules\n"
        "rows = scenarios.amplify({'version': 1, 'kind': 'amplify', 'rep': 'sigma_z',"
        " 'state': [0.6, 0.8], 'outcomes': [[0]], 'n_values': [30]})\n"
        "print(json.dumps([before, 'numpy.random' in sys.modules, rows[0]['chain_residual']]))\n"
    )
    assert found[2] == 0.0
    assert found[1] == found[0]


def test_cli_run_imports_no_argparse_or_gettext(tmp_path):
    # the command line is read without argparse, whose gettext lookups cost
    # a fresh process more than a small relations check
    argv = ["relations", "--scenario", write_scenario(tmp_path, VALID["relations"]),
            "--out", str(tmp_path)]
    found = run_fresh(
        "import contextlib, io, json, sys\n"
        "names = ('argparse', 'gettext')\n"
        "before = [name in sys.modules for name in names]\n"
        "import qmamp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = qmamp.cli.main({argv!r})\n"
        "print(json.dumps([before, [name in sys.modules for name in names], code]))\n"
    )
    assert found[2] == EXIT_OK
    assert found[1] == found[0]


def test_relations_group_with_many_trivial_factors(tmp_path):
    # 68 cyclic factors: more axes than a numpy array may have, so the DFT
    # must drop the trivial ones or the run exits 2
    orders = [1] * 67 + [2]
    path = write_scenario(tmp_path, {"version": 1, "kind": "relations", "groups": [orders]})
    out = tmp_path / "out"
    assert main(["relations", "--scenario", path, "--out", str(out)]) == EXIT_OK
    (row,) = read_csv(out / "relations.csv")
    assert row["group"] == "x".join(map(str, orders))
    assert all(float(v) <= 1e-10 for k, v in row.items() if k != "group")


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("measure", "outcome,probability,expectation_real,expectation_imag\r\n"
         "0,0.36,0.36,0\r\n0+1,1,-0.28,0\r\n"),
        ("amplify", "n,outcome,probability,equality_residual,chain_residual\r\n"
         "1,0,0.36,0,0\r\n1,0+1,1,0,0\r\n2,0,0.36,0,0\r\n2,0+1,1,0,0\r\n"),
    ],
    ids=["measure", "amplify"],
)
def test_rep_with_many_trivial_factors(tmp_path, kind, expected):
    # 68 cyclic factors, more than numpy's ravel/unravel_index take: the run
    # writes the bytes it wrote before characters became indices
    payload = with_value({**VALID["measure"], "kind": kind}, ("rep", "group"), [1] * 67 + [2])
    for i in (0, 1):
        payload = with_value(payload, ("rep", "projections", i, "character"), [0] * 67 + [i])
    out = tmp_path / "out"
    path = write_scenario(tmp_path, {**payload, "n_values": [1, 2]})
    assert main([kind, "--scenario", path, "--out", str(out)]) == EXIT_OK
    assert (out / f"{kind}.csv").read_bytes() == expected.encode()


def test_measure_run_sigma_z(tmp_path):
    s = np.sqrt
    path = write_scenario(
        tmp_path,
        {
            "version": 1,
            "kind": "measure",
            "rep": "sigma_z",
            "state": [s(0.3), s(0.7)],
            "outcomes": [[0], [1], [0, 1]],
        },
    )
    out = tmp_path / "out"
    assert main(["measure", "--scenario", path, "--out", str(out)]) == EXIT_OK
    rows = {r["outcome"]: r for r in read_csv(out / "measure.csv")}
    probs = sorted(float(rows[k]["probability"]) for k in ("0", "1"))
    assert probs == pytest.approx([0.3, 0.7])
    assert float(rows["0+1"]["probability"]) == pytest.approx(1.0)
    # identity observable: expectation equals probability
    assert float(rows["0+1"]["expectation_real"]) == pytest.approx(1.0)
    assert float(rows["0+1"]["expectation_imag"]) == pytest.approx(0.0, abs=1e-15)


def test_measure_explicit_rep(tmp_path):
    payload = {**VALID["measure"], "state": [1.0, 0.0], "outcomes": [[0]]}
    out = tmp_path / "out"
    path = write_scenario(tmp_path, payload)
    assert main(["measure", "--scenario", path, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "measure.csv")
    assert float(rows[0]["probability"]) == pytest.approx(1.0)


def test_measure_rejects_unnormalized_state(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "version": 1,
            "kind": "measure",
            "rep": "sigma_z",
            "state": [1.0, 1.0],
            "outcomes": [[0]],
        },
    )
    assert main(["measure", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    assert "normalized" in capsys.readouterr().err


def diagonal_rep_scenario(d, outcomes):
    """A measure scenario on an explicit rep of Z_2 at system_dim d: the
    characters project onto the first and the last d / 2 basis vectors."""
    half = [[int(i == j < d // 2) for j in range(d)] for i in range(d)]
    other = [[int(i == j >= d // 2) for j in range(d)] for i in range(d)]
    projections = [{"character": [0], "matrix": half}, {"character": [1], "matrix": other}]
    return {"version": 1, "kind": "measure", "state": [1.0] + [0.0] * (d - 1),
            "rep": {"group": [2], "system_dim": d, "projections": projections},
            "outcomes": outcomes}


@pytest.mark.parametrize("copies", [10**3, 10**5])
@pytest.mark.parametrize("d", [2, 128])
def test_measure_run_is_bounded_by_work(tmp_path, capsys, monkeypatch, d, copies):
    # a valid outcome repeated many times, on a rep of dimension 2 or 128,
    # runs or is refused as a whole, naming outcomes with the run's estimate
    # and bound, before any matrix is read or any instrument runs, within a
    # few seconds
    read = []

    def recording(f):
        return lambda *args: read.append(f) or f(*args)

    monkeypatch.setattr(scenarios, "_matrix", recording(scenarios._matrix))
    monkeypatch.setattr(scenarios.measurement, "instrument",
                        recording(scenarios.measurement.instrument))
    path = write_scenario(tmp_path, diagonal_rep_scenario(d, [[1]] * copies))
    work = copies * (scenarios.MEASURE_OUTCOME_WORK + scenarios.MEASURE_ENTRY_WORK * d * d)
    work += 3 * d**3  # two projection checks and one pairwise product
    start = time.perf_counter()
    code = main(["measure", "--scenario", path, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert code == (EXIT_INPUT if work > scenarios.MEASURE_WORK else EXIT_OK)
    assert len(err.splitlines()) == (code == EXIT_INPUT)
    if code == EXIT_INPUT:
        assert refusal(err) == ("outcomes", scenarios.MEASURE_WORK, work) and not read
        assert not (tmp_path / "measure.csv").exists()
    else:
        rows = read_csv(tmp_path / "measure.csv")
        assert len(rows) == copies and {r["probability"] for r in rows} == {"0"}


def test_measure_run_bound_admits_large_explicit_reps():
    # 32 projections at system_dim 256, with every single-character outcome
    # or 32 outcomes of all 32 characters, is admitted; duplicate characters
    # of an outcome, which its instrument sums once, count once
    scenarios._check_measure({"outcomes": [[k] for k in range(32)]}, 256, 32)
    scenarios._check_measure({"outcomes": [list(range(32))] * 32}, 256, 32)
    scenarios._check_measure({"outcomes": [[0] * 10**5]}, 256, 32)
    with pytest.raises(ScenarioError, match="field 'outcomes': "):
        scenarios._check_measure({"outcomes": [list(range(32))] * 500}, 256, 32)


def test_amplify_run(tmp_path):
    s = np.sqrt
    path = write_scenario(
        tmp_path,
        {
            "version": 1,
            "kind": "amplify",
            "rep": "z3_clock",
            "state": [s(0.5), s(0.3), s(0.2)],
            "outcomes": [[0], [1, 2]],
            "n_values": [1, 2, 3],
        },
    )
    out = tmp_path / "out"
    assert main(["amplify", "--scenario", path, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "amplify.csv")
    assert len(rows) == 6
    by_outcome = {}
    for r in rows:
        assert float(r["equality_residual"]) <= 1e-10
        assert float(r["chain_residual"]) == 0.0
        by_outcome.setdefault(r["outcome"], set()).add(r["probability"])
    # probabilities are N-independent: one distinct value per outcome
    assert all(len(v) == 1 for v in by_outcome.values())


def test_amplify_runs_one_cascade_per_n(tmp_path, monkeypatch):
    calls = []
    cascade_apply = scenarios.amp.cascade_apply

    def counted(cfg, xi):
        calls.append(cfg.n_copies)
        return cascade_apply(cfg, xi)

    monkeypatch.setattr(scenarios.amp, "cascade_apply", counted)
    s = np.sqrt
    path = write_scenario(
        tmp_path,
        {
            "version": 1,
            "kind": "amplify",
            "rep": "z3_clock",
            "state": [s(0.5), s(0.3), s(0.2)],
            "outcomes": [[0], [1], [2], [1, 2]],
            "n_values": [1, 2, 4],
        },
    )
    out = tmp_path / "out"
    assert main(["amplify", "--scenario", path, "--out", str(out)]) == EXIT_OK
    assert calls == [1, 2, 4]
    rows = read_csv(out / "amplify.csv")
    assert len(rows) == 12
    assert all(float(r["equality_residual"]) <= 1e-10 for r in rows)


def test_amplify_rejects_state_over_memory_budget(tmp_path, capsys, monkeypatch):
    # the support of 2 x 2**62 labels and its chain check: refused before
    # any chain or cascade work, naming n_values
    def unreachable(*args, **kwargs):
        raise AssertionError("chain or cascade work started")

    monkeypatch.setattr(scenarios.amp, "intertwiner_chain_check", unreachable)
    monkeypatch.setattr(scenarios.amp, "cascade_apply", unreachable)
    path = write_scenario(
        tmp_path,
        {
            "version": 1,
            "kind": "amplify",
            "rep": "sigma_z",
            "state": [1.0, 0.0],
            "outcomes": [[0]],
            "n_values": [1, 2**62],
        },
    )
    assert main(["amplify", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "field 'n_values'" in err and str(scenarios.AMPLIFY_BYTES) in err
    assert f"N = {2**62}" in err and "Traceback" not in err
    assert not (tmp_path / "amplify.csv").exists()


@pytest.mark.parametrize("rep", ["sigma_z", "z3_clock"])
def test_amplify_at_a_million_copies(tmp_path, rep):
    # a macroscopic record: one copy scan and a sampled chain check per N
    state, outcomes = [0.6, 0.8], [[0], [1], [0, 1]]
    if rep == "z3_clock":
        state, outcomes = [0.6, 0.0, 0.8], [[0], [2], [0, 1, 2]]
    payload = {
        "version": 1, "kind": "amplify", "rep": rep, "state": state,
        "outcomes": outcomes, "n_values": [10**6],
    }
    out, path = tmp_path / "out", write_scenario(tmp_path, payload)
    start = time.perf_counter()
    assert main(["amplify", "--scenario", path, "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 2
    rows = read_csv(out / "amplify.csv")
    assert [r["probability"] for r in rows] == ["0.36", "0.64", "1"]
    assert all(r["n"] == "1000000" and r["chain_residual"] == "0" for r in rows)
    assert all(float(r["equality_residual"]) <= 1e-12 for r in rows)


def test_sterngerlach_run_and_determinism(tmp_path):
    payload = {
        "version": 1,
        "kind": "sterngerlach",
        "field": {"b0": 1.0, "b1": 0.5, "b2": 0.0, "mu": 1.0},
        "grid": {"points": 512, "extent": 40.0, "sigma": 1.0, "spinor": [1.0, 1.0]},
        "time": {"dt": 0.005, "steps": 100, "record_every": 50},
        "adiabaticity": {"v": 2.0, "z_scale": 1.0},
    }
    path = write_scenario(tmp_path, payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sterngerlach", "--scenario", path, "--out", str(out1)]) == EXIT_OK
    assert main(["sterngerlach", "--scenario", path, "--out", str(out2)]) == EXIT_OK
    for name in ("sterngerlach.csv", "sterngerlach_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "sterngerlach_summary.json").read_text())
    assert summary["kick_up"] == pytest.approx(-0.25, rel=1e-3)
    assert summary["kick_down"] == pytest.approx(0.25, rel=1e-3)
    assert summary["larmor_omega"] == pytest.approx(1.0)
    assert summary["norm"] == pytest.approx(1.0, abs=1e-9)
    rows = read_csv(out1 / "sterngerlach.csv")
    assert len(rows) == 3
    assert float(rows[-1]["t"]) == pytest.approx(0.5)


def test_sterngerlach_invariant_violation_exit_code(tmp_path, capsys):
    # a valid input whose fast packet reaches the box edge mid-run: the
    # solver's boundary guard aborts it, and the fix is an input change, so
    # the run exits 1 naming grid.extent
    payload = with_value(VALID["sterngerlach"], ("grid", "momentum"), 20.0)
    path = write_scenario(tmp_path, with_value(payload, ("time", "steps"), 400))
    code = main(["sterngerlach", "--scenario", path, "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: field 'grid.extent': boundary mass") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "kind, edits, field",
    [
        ("sterngerlach", {("time", "record_every"): 400}, "grid.extent"),
        ("sweep", {}, "base.grid.extent"),
        ("sweep", {("axes", 1): {"path": "grid.extent", "values": [40.0]}}, "axes[1].values"),
    ],
    ids=["record-at-end", "sweep-base", "sweep-axis"],
)
def test_packet_wrapping_around_the_box_is_refused(tmp_path, capsys, kind, edits, field):
    # the packet crosses the edge and wraps round the periodic box between
    # records: a guard that read only the recorded states passed it with
    # exit 0 and a wrong kick; the guard reads every step
    payload = VALID[kind]
    section = ("base",) if kind == "sweep" else ()
    payload = with_value(payload, section + ("grid", "momentum"), 20.0)
    payload = with_value(payload, section + ("time", "steps"), 400)
    for keys, value in edits.items():
        payload = with_value(payload, keys, value)
    path = write_scenario(tmp_path, payload)
    assert main([kind, "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{field}': boundary mass") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict JSON parsers do."""

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


NONFINITE_CELL = re.compile(r"[+-]?(nan|inf|infinity)", re.IGNORECASE)


@pytest.mark.parametrize("spinor", [None, [1.0, [0.0, 1.0]]], ids=["default", "superposed"])
def test_sterngerlach_writes_no_nan(tmp_path, spinor):
    # undefined observables are empty cells and nulls: z and p_z of the down
    # branch that the default spin-up start never fills (b2 = 0), the flip
    # probability of a superposed start, and the margin, infinite at b2 = 0
    payload = with_value(VALID["sterngerlach"], ("field", "b2"), 0.0)
    if spinor is None:
        del payload["grid"]["spinor"]
    else:
        payload["grid"]["spinor"] = spinor
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["sterngerlach", "--scenario", path, "--out", str(out)]) == EXIT_OK
    summary = strict_json((out / "sterngerlach_summary.json").read_text())
    rows = read_csv(out / "sterngerlach.csv")
    assert len(rows) == 3
    assert not [c for r in rows for c in r.values() if NONFINITE_CELL.fullmatch(c.strip())]
    assert summary["inequality_margin"] is None
    if spinor is None:
        assert all(r["z_down"] == r["pz_down"] == "" for r in rows)
        assert all(float(r["flip_prob"]) == 0.0 for r in rows)
        assert summary["kick_down"] is None and summary["flip_probability"] == 0.0
    else:
        assert all(r["flip_prob"] == "" and r["z_down"] != "" for r in rows)
        assert summary["flip_probability"] is None and summary["kick_down"] > 0


@pytest.mark.parametrize("record_every", [0, -3])
def test_sterngerlach_rejects_nonpositive_record_every(tmp_path, capsys, record_every):
    payload = with_value(VALID["sterngerlach"], ("time", "record_every"), record_every)
    path = write_scenario(tmp_path, payload)
    code = main(["sterngerlach", "--scenario", path, "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    assert "time.record_every" in capsys.readouterr().err


def test_sweep_single_axis(tmp_path):
    payload = {
        "version": 1,
        "kind": "sweep",
        "base": {
            "field": {"b0": 4.0, "b1": 0.0, "b2": 0.0},
            "grid": {"points": 512, "extent": 40.0, "sigma": 1.0},
            "time": {"dt": 0.004, "steps": 100},
        },
        "adiabaticity": {"v": 4.0, "z_scale": 1.0},
        "axes": [{"path": "field.b2", "values": [0.0, 0.2, 0.4]}],
    }
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", path, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3
    flips = [float(r["flip_probability"]) for r in rows]
    assert flips[0] <= 1e-14
    assert flips == sorted(flips)
    u_fis = [float(r["u_fi"]) for r in rows]
    assert u_fis == sorted(u_fis)
    # the spin-up start has no down branch to take a kick from: empty, not nan
    assert all(r["kick_down"] == r["kick_down_error"] == "" for r in rows)


def test_sweep_parallel_matches_serial(tmp_path):
    payload = {
        "version": 1,
        "kind": "sweep",
        "base": {
            "field": {"b0": 2.0, "b1": 0.1, "b2": 0.0},
            "grid": {"points": 512, "extent": 40.0, "sigma": 1.0, "spinor": [1.0, 1.0]},
            "time": {"dt": 0.005, "steps": 50},
        },
        "axes": [
            {"path": "field.b1", "values": [0.1, 0.2]},
            {"path": "grid.sigma", "values": [1.0, 1.5]},
        ],
    }
    path = write_scenario(tmp_path, payload)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(["sweep", "--scenario", path, "--out", str(serial)]) == EXIT_OK
    assert (
        main(["sweep", "--scenario", path, "--out", str(parallel), "--jobs", "2"])
        == EXIT_OK
    )
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    rows = read_csv(serial / "sweep.csv")
    assert len(rows) == 4
    for r in rows:
        assert abs(float(r["kick_up_error"])) <= 1e-3
        assert abs(float(r["kick_down_error"])) <= 1e-3
        # no adiabaticity section, and a superposed spinor: undefined, so empty
        assert r["u_fi"] == r["flip_probability"] == ""


SMALL_SWEEP = {
    "version": 1,
    "kind": "sweep",
    "base": {
        "field": {"b0": 1.0, "b1": 0.1},
        "grid": {"points": 512, "extent": 40.0, "sigma": 1.0},
        "time": {"dt": 0.005, "steps": 5},
    },
    "axes": [{"path": "field.b1", "values": [0.1, 0.2, 0.3, 0.4]}],
}


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    path = write_scenario(tmp_path, SMALL_SWEEP)
    code = main(["sweep", "--scenario", path, "--out", str(tmp_path), "--jobs", jobs])
    assert code == EXIT_INPUT
    assert "--jobs" in capsys.readouterr().err


class RecordingPool(Executor):
    """Stands in for the process pool: records its size and runs the points in process."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def map(self, fn, *iterables, **kwargs):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "jobs, cpus, points, expected",
    [("1000", 3, 4, [3]), ("1000", 8, 2, [2]), ("2", 8, 4, [2]), ("1000", 1, 4, [])],
)
def test_sweep_clamps_jobs(tmp_path, monkeypatch, jobs, cpus, points, expected):
    # --jobs never starts more workers than points or CPUs; no real pool is built here
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: cpus)
    payload = json.loads(json.dumps(SMALL_SWEEP))
    payload["axes"][0]["values"] = payload["axes"][0]["values"][:points]
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", path, "--out", str(out), "--jobs", jobs]) == EXIT_OK
    assert RecordingPool.sizes == expected
    assert len(read_csv(out / "sweep.csv")) == points


def sweep_repeating_axes(axes, copies):
    """The valid sweep with the first value of each of its first `axes` axes
    repeated `copies` times."""
    payload = VALID["sweep"]
    for i in range(axes):
        value = payload["axes"][i]["values"][0]
        payload = with_value(payload, ("axes", i, "values"), [value] * copies)
    return payload


@pytest.mark.parametrize("copies", [10**3, 10**5])
@pytest.mark.parametrize("axes", [1, 2], ids=["one-axis", "two-axes"])
def test_sweep_run_is_bounded_by_work(tmp_path, capsys, monkeypatch, axes, copies):
    # a valid axis value repeated many times, on one axis or on both, runs or
    # is refused as a whole, naming `axes` with the run's estimate and bound,
    # before any point is formed and within a few seconds; the points are stubbed
    monkeypatch.setattr(scenarios, "_sweep_point", lambda task: dict(task[1]))
    payload = sweep_repeating_axes(axes, copies)
    points = copies**axes
    point_work = 512 * 4 + scenarios.SWEEP_POINT_WORK  # axes[1]'s grid.points, the base's steps
    path = write_scenario(tmp_path, payload)
    start = time.perf_counter()
    code = main(["sweep", "--scenario", path, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert code == (EXIT_INPUT if points * point_work > scenarios.SWEEP_WORK else EXIT_OK)
    assert len(err.splitlines()) == (code == EXIT_INPUT)
    if code == EXIT_INPUT:
        assert err.startswith("error: field 'axes': ")
        assert str(scenarios.SWEEP_WORK) in err and str(points * point_work) in err
    else:
        assert len(read_csv(tmp_path / "sweep.csv")) == points


def test_sweep_run_bound_admits_every_one_point_sweep(tmp_path, capsys, monkeypatch):
    # one point at the per-point limits runs; the same point twice is refused
    monkeypatch.setattr(scenarios, "_sweep_point", lambda task: dict(task[1]))
    steps = scenarios.SG_POINT_STEPS // MAX_POINTS
    payload = with_value(SMALL_SWEEP, ("base", "time", "steps"), steps)
    payload = with_value(payload, ("axes",), [{"path": "grid.points", "values": [MAX_POINTS]}])
    path = write_scenario(tmp_path, payload)
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == EXIT_OK
    assert len(read_csv(tmp_path / "sweep.csv")) == 1
    payload = with_value(payload, ("axes", 0, "values"), [MAX_POINTS] * 2)
    path = write_scenario(tmp_path, payload)
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: field 'axes': ")


HALF_POINT_LIMIT = scenarios.SG_SOLVER_BYTES // scenarios.SG_BYTES_PER_POINT // 2


@pytest.mark.parametrize(
    "base_points, axis, expected",
    [
        (HALF_POINT_LIMIT, ("field.b1", [0.1, 0.2, 0.3, 0.4]), [2]),
        (HALF_POINT_LIMIT + 1, ("field.b1", [0.1, 0.2, 0.3, 0.4]), []),
        (512, ("grid.points", [512, HALF_POINT_LIMIT + 1, 1024]), []),
        (512, ("grid.points", [512, HALF_POINT_LIMIT, 1024]), [2]),
    ],
)
def test_sweep_pool_fits_solver_memory(tmp_path, monkeypatch, base_points, axis, expected):
    # at most SG_SOLVER_BYTES of solver arrays at once, sized by the largest grid;
    # the points are stubbed, so no pool and no large array is made
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(scenarios, "_sweep_point", lambda task: dict(task[1]))
    payload = json.loads(json.dumps(SMALL_SWEEP))
    payload["base"]["grid"]["points"] = base_points
    payload["axes"] = [{"path": axis[0], "values": axis[1]}]
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", path, "--out", str(out), "--jobs", "4"]) == EXIT_OK
    assert RecordingPool.sizes == expected
    assert len(read_csv(out / "sweep.csv")) == len(axis[1])


@pytest.mark.parametrize(
    "kind, keys, value",
    [
        ("sterngerlach", ("grid", "spinor"), [1e308, 1e308]),
        ("sterngerlach", ("grid", "spinor"), [1e-170, 1e-170]),
        ("sterngerlach", ("grid", "spinor"), [1e-320, 0]),
        ("sterngerlach", ("grid", "spinor", 0), 1e308),
        ("sweep", ("base", "grid", "spinor", 0), 1e308),
    ],
    ids=["both-overflow", "both-underflow", "subnormal", "one-overflows", "sweep-base"],
)
def test_spinor_norm_of_zero_or_inf_exits_1(tmp_path, capsys, kind, keys, value):
    # each amplitude is finite and one is nonzero, but the norm the packet
    # divides by under- or overflows
    path = write_scenario(tmp_path, with_value(VALID[kind], keys, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings either
        assert main([kind, "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    field = "base.grid.spinor" if kind == "sweep" else "grid.spinor"
    assert err.startswith(f"error: field '{field}': expected 2 amplitudes whose norm")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_spinor_with_a_subnormal_square_runs(tmp_path):
    # 1e-160 squared is 1e-320, subnormal but not 0: a spin-up run
    payload = with_value(VALID["sterngerlach"], ("grid", "spinor"), [1e-160, 0])
    path = write_scenario(tmp_path, payload)
    assert main(["sterngerlach", "--scenario", path, "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sterngerlach_summary.json").read_text())
    assert summary["norm"] == pytest.approx(1.0, abs=1e-9)
    assert summary["kick_up"] is not None and summary["kick_down"] is None


@pytest.mark.parametrize(
    "axes, field",
    [
        ([{"path": "field.b2", "values": [0.0, 0.1]},
          {"path": "field.b2", "values": [0.2, 0.3, 0.4]}], "axes[1].path"),
        ([{"path": "time.record_every", "values": [1, 2]}], "axes[0].path"),
        ([{"path": "field.b1", "values": [0.1]},
          {"path": "time.record_every", "values": [1, 2]}], "axes[1].path"),
    ],
    ids=["repeated-path", "record-every", "record-every-second"],
)
def test_sweep_rejects_an_axis_that_changes_no_row(tmp_path, capsys, axes, field):
    # a second axis on the same path would replace the first one's values,
    # and a sweep records only each point's last step
    payload = with_value(VALID["sweep"], ("axes",), axes)
    path = write_scenario(tmp_path, payload)
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{field}'") and len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_rejects_non_numeric_axis(tmp_path, capsys):
    payload = {
        "version": 1,
        "kind": "sweep",
        "base": {"field": {"b0": 1.0}},
        "axes": [{"path": "grid.spinor", "values": ["up", "down"]}],
    }
    path = write_scenario(tmp_path, payload)
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    assert "non-numeric" in capsys.readouterr().err


def test_amplify_bounds_copies_by_label_bytes(tmp_path, capsys):
    # the trivial group's cascade and chain check never loop over the legs:
    # a million copies take well under a second, and only the byte bound on
    # the label arrays limits N
    payload = trivial_rep_scenario("amplify", [1], n_values=[64, 10**6])
    out = tmp_path / "out"
    path = write_scenario(tmp_path, payload)
    start = time.perf_counter()
    assert main(["amplify", "--scenario", path, "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 1
    assert [r["n"] for r in read_csv(out / "amplify.csv")] == ["64", "1000000"]
    trivial = scenarios.groups.make_group([1])
    n = next(n for n in range(10**6, 10**8, 10**5)
             if scenarios.amp.label_bytes(trivial, 1, n) > scenarios.AMPLIFY_BYTES)
    payload["n_values"] = [n]
    path = write_scenario(tmp_path, payload, "over.json")
    assert main(["amplify", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "field 'n_values'" in err and f"N = {n}" in err


def test_amplify_bounds_chain_check_work(tmp_path, capsys, monkeypatch):
    # the |G| chain checks of one N scan at least |G| (N + 1) labels: |G| =
    # 4096 at N = 2**15 is refused before any chain or cascade work, though
    # its label arrays are small
    def unreachable(*args, **kwargs):
        raise AssertionError("chain or cascade work started")

    monkeypatch.setattr(scenarios.amp, "intertwiner_chain_check", unreachable)
    monkeypatch.setattr(scenarios.amp, "cascade_apply", unreachable)
    payload = trivial_rep_scenario("amplify", [4096], n_values=[1, 2**15])
    assert scenarios.amp.label_bytes(scenarios.groups.make_group([4096]), 1, 2**15) < 1 << 23
    path = write_scenario(tmp_path, payload)
    assert main(["amplify", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    # 4096 x 32769 chain-check labels against 2^27
    assert refusal(capsys.readouterr().err) == (
        "n_values", scenarios.AMPLIFY_CHAIN_WORK, 4096 * (2**15 + 1)
    )
    assert not (tmp_path / "amplify.csv").exists()


def test_amplify_refuses_n_before_reading_a_matrix(tmp_path, capsys, monkeypatch):
    # an over-bound N is refused once the rep's group and projection count
    # are known, before its matrices, which may be megabytes, are parsed
    def unreachable(*args, **kwargs):
        raise AssertionError("a matrix was read")

    monkeypatch.setattr(scenarios, "_matrix", unreachable)
    path = write_scenario(tmp_path, trivial_rep_scenario("amplify", [1], n_values=[1, 10**7]))
    assert main(["amplify", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    need = scenarios.amp.label_bytes(scenarios.groups.make_group([1]), 1, 10**7)
    assert refusal(capsys.readouterr().err) == ("n_values", scenarios.AMPLIFY_BYTES, need)
    assert not (tmp_path / "amplify.csv").exists()


@pytest.mark.parametrize("copies", [10**3, 10**5])
@pytest.mark.parametrize("n", [21, 10**6])
@pytest.mark.parametrize("repeated", ["n_values", "outcomes"])
def test_amplify_run_is_bounded_by_work(tmp_path, capsys, monkeypatch, repeated, n, copies):
    # sigma_z at one N, with that N or a valid outcome repeated many times,
    # runs or is refused as a whole, naming n_values with the run's N count,
    # outcome count, estimate and bound, before any chain or cascade work and
    # within a few seconds; the chain checks and instruments are stubbed
    done = []

    def stub(value):
        return lambda *args: done.append(args) or value

    result = scenarios.measurement.InstrumentResult(1.0, 0j)
    monkeypatch.setattr(scenarios.amp, "intertwiner_chain_check", stub(0.0))
    monkeypatch.setattr(scenarios.amp, "amplified_instrument", stub(result))
    monkeypatch.setattr(scenarios.measurement, "instrument", stub(result))
    n_count, outcome_count = (copies, 1) if repeated == "n_values" else (1, copies)
    payload = {"version": 1, "kind": "amplify", "rep": "sigma_z", "state": [0.6, 0.8],
               "outcomes": [[0]] * outcome_count, "n_values": [n] * n_count}
    samples = scenarios.amp.chain_samples(scenarios.groups.make_group([2]), n)
    chain = 2 * samples * (n + 1) if samples else 2 ** (n + 2)
    work = n_count * (chain + (outcome_count + 1) * 2 * n)  # m = 2 support labels per N
    path = write_scenario(tmp_path, payload)
    start = time.perf_counter()
    code = main(["amplify", "--scenario", path, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert code == (EXIT_INPUT if work > scenarios.AMPLIFY_WORK else EXIT_OK)
    assert len(err.splitlines()) == (code == EXIT_INPUT)
    if code == EXIT_INPUT:
        assert refusal(err) == ("n_values", scenarios.AMPLIFY_WORK, work) and not done
    else:
        assert len(read_csv(tmp_path / "amplify.csv")) == n_count * outcome_count


@pytest.mark.parametrize("orders, m", [([1], 1), ([2], 2), ([3], 3), ([4096], 1)])
def test_amplify_run_bound_admits_every_one_n_run(orders, m):
    # every N that the limits of one N admit runs with one outcome: each
    # exhaustive N, and the largest sampled one, found by bisection, as above
    # the exhaustive N a sampled N's label bytes and chain work grow with N
    g = scenarios.groups.make_group(orders)

    def admitted(n):
        return (scenarios.amp.label_bytes(g, m, n) <= scenarios.AMPLIFY_BYTES
                and g.size * (n + 1) <= scenarios.AMPLIFY_CHAIN_WORK)

    exhaustive = [n for n in range(1, 64) if scenarios.amp.chain_samples(g, n) == 0]
    low, high = max(exhaustive, default=0) + 1, 2**40
    assert admitted(low) and not admitted(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if admitted(mid) else (low, mid)
    for n in [*exhaustive, low]:
        scenarios._check_copies({"outcomes": [[0]]}, g, m, [n])


def test_amplify_run_is_bounded_by_its_instruments(tmp_path, capsys, monkeypatch):
    # AMPLIFY_WORK counts labels and never sees d: 10^5 outcomes on a rep of
    # dimension 1024 scan few labels, but their instruments take about 1 ms
    # each per N.  The run is refused naming outcomes once system_dim and the
    # projection count are known, before any matrix is read (the projections
    # are placeholders) and before any chain, cascade or instrument runs
    done = []

    def stub(*args):
        done.append(args)

    for module, name in ((scenarios, "_matrix"), (scenarios.amp, "intertwiner_chain_check"),
                         (scenarios.amp, "cascade_apply"), (scenarios.amp, "amplified_instrument"),
                         (scenarios.measurement, "instrument")):
        monkeypatch.setattr(module, name, stub)
    placeholder = {"character": [0], "matrix": [[1]]}
    payload = {"version": 1, "kind": "amplify", "state": [1.0] + [0.0] * 1023,
               "rep": {"group": [2], "system_dim": 1024, "projections": [placeholder] * 2},
               "outcomes": [[0]] * 10**5, "n_values": [1]}
    scenarios._check_copies(payload, scenarios.groups.make_group([2]), 2, [1])  # admitted
    path = write_scenario(tmp_path, payload)
    assert main(["amplify", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    work = 2 * 10**5 * 1024**2 * scenarios.MEASURE_ENTRY_WORK + 3 * 1024**3
    assert refusal(capsys.readouterr().err) == ("outcomes", scenarios.MEASURE_WORK, work)
    assert not done and not (tmp_path / "amplify.csv").exists()
    # a hundred outcomes at that d, over three N, are admitted
    scenarios._check_measure({"outcomes": [[0]] * 100}, 1024, 2, [1, 2, 3])


@pytest.mark.parametrize("kind", ["relations", "measure", "amplify"])
def test_compute_function_returns_the_rows_the_cli_writes(tmp_path, kind):
    rows = getattr(scenarios, kind)(VALID[kind])
    assert rows and all(isinstance(row, dict) for row in rows)
    expected = scenarios._write_csv(tmp_path / "expected.csv", rows)
    path = write_scenario(tmp_path, VALID[kind])
    assert main([kind, "--scenario", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert (tmp_path / "out" / f"{kind}.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("kind", ["measure", "amplify"])
def test_group_order_past_int64_exits_1_naming_rep(tmp_path, capsys, kind):
    # |G| = 2**64 wraps to 0 in an int64 product of the orders, under the cap
    path = write_scenario(tmp_path, trivial_rep_scenario(kind, [2**32, 2**32]))
    assert main([kind, "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "field 'rep.group'" in err and str(2**64) in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


# Dense builders that only the tests use; they live in tests/dense_oracle.py.
MOVED_TO_DENSE_ORACLE = {
    "amplification": ["cascade_unitary", "heisenberg_T"],
    "groups": ["fourier_matrix", "fourier_transform", "regular_representation", "_perm_matrix"],
    "ktops": [
        "build_UW",
        "uw_fourier_conjugation_residual",
        "verify_represented_pentagonal",
        "verify_represented_intertwining",
        "heisenberg_embed",
    ],
}


def test_cli_imports_no_dense_oracle():
    # a fresh interpreter, so no test's import of qmamp.hilbert counts
    found = run_fresh(
        "import json, sys\n"
        "import qmamp.cli\n"
        "hilbert = 'qmamp.hilbert' in sys.modules\n"
        "pool = 'concurrent.futures.process' in sys.modules\n"
        "selfcheck = 'qmamp.selfcheck' in sys.modules\n"
        "from qmamp import amplification, groups, ktops\n"
        "print(json.dumps({'hilbert': hilbert, 'pool': pool, 'selfcheck': selfcheck,"
        " 'amplification': sorted(vars(amplification)), 'ktops': sorted(vars(ktops)),"
        " 'groups': sorted(vars(groups)),"
        " 'shape': hasattr(amplification.CascadeConfig, 'shape')}))\n"
    )
    assert not found["hilbert"]
    assert not found["pool"]  # only a pooled sweep imports the process pool
    assert not found["selfcheck"]  # only `qmamp selftest` imports the acceptance suite
    assert not found["shape"]
    for module, names in MOVED_TO_DENSE_ORACLE.items():
        assert not set(names) & set(found[module]), module


# Names in src/qmamp that nothing in src/qmamp or scripts reads: only the
# benchmark's tracer and the tests do.  Each leaves src/qmamp with the
# benchmark repair of ROADMAP item 1.
UNREAD = {
    "hilbert.embed",  # ROADMAP item 1: moves to tests/dense_oracle.py
    "sterngerlach.SpinorGrid.mean_pz",  # ROADMAP item 1: moves to tests/solver_oracle.py
    "amplification.CascadeConfig.state_dim",  # ROADMAP item 1: read by the tracer and two tests
}


def test_every_qmamp_name_has_a_reader():
    # a module-level function, class or constant, or a non-dunder method, of
    # src/qmamp is read somewhere in src/qmamp or scripts: by a name, an
    # attribute or an import
    src = ROOT / "src" / "qmamp"
    readers = set()
    for path in [*src.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.add(node.id)
            elif isinstance(node, ast.Attribute):
                readers.add(node.attr)
            elif isinstance(node, ast.alias):
                readers.add(node.name)
    defined = {}  # qualified name -> name
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if not name.id.startswith("__"):
                        defined[f"{path.stem}.{name.id}"] = name.id
    unread = {qualified for qualified, name in defined.items() if name not in readers}
    assert unread == UNREAD


# Whether `import qmamp.cli` left the environment as it found it, and the live
# thread count of the loaded OpenBLAS as the benchmark reads it (None under
# another BLAS).
BLAS_THREADS_CODE = f"""
import json, os, sys
before = dict(os.environ)
import qmamp.cli
sys.path.insert(0, {str(REPO)!r})
from perfbench.child import _blas_threads
try:
    threads = _blas_threads()
except OSError:
    threads = None
print(json.dumps({{"env_kept": dict(os.environ) == before, "threads": threads}}))
"""


def test_cli_runs_blas_on_one_thread():
    found = run_fresh(BLAS_THREADS_CODE)
    # the variables hold only while numpy loads: the importing program's
    # environment, which its subprocesses inherit, is left as it was
    assert found["env_kept"]
    if found["threads"] is None:
        pytest.skip("the BLAS numpy loaded is not OpenBLAS")
    assert found["threads"] == 1


def test_cli_keeps_a_blas_thread_count_the_user_set():
    assert run_fresh(BLAS_THREADS_CODE, OMP_NUM_THREADS="3")["env_kept"]


def test_cli_freezes_the_imports_before_the_work(tmp_path):
    # a fresh interpreter, so the count is of what `import qmamp.cli` leaves
    # tracked; the spy on load_scenario, the run's first step, reads how many
    # objects were frozen when the work began
    path = write_scenario(tmp_path, {"version": 1, "kind": "relations", "groups": [[2], [3]]})
    outs = [str(tmp_path / "first"), str(tmp_path / "second")]
    found = run_fresh(f"""
import contextlib, gc, io, json
import qmamp.cli
tracked = len(gc.get_objects())
from qmamp import scenarios
frozen_at_load = []
load = scenarios.load_scenario
def spy(path):
    frozen_at_load.append(gc.get_freeze_count())
    return load(path)
scenarios.load_scenario = spy
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qmamp.cli.main(["relations", "--scenario", {path!r}, "--out", out])
             for out in {outs!r}]
print(json.dumps({{"tracked": tracked, "frozen_at_load": frozen_at_load, "codes": codes}}))
""")
    assert found["codes"] == [EXIT_OK, EXIT_OK]
    assert found["frozen_at_load"][0] >= found["tracked"] > 1000
    first, second = (Path(out, "relations.csv").read_bytes() for out in outs)
    assert first == second


# One small valid scenario of each kind.
VALID = {
    "relations": {"version": 1, "kind": "relations", "groups": [[2], [2, 2]]},
    "measure": {
        "version": 1,
        "kind": "measure",
        "rep": {
            "group": [2],
            "system_dim": 2,
            "projections": [
                {"character": [0], "matrix": [[1, 0], [0, 0]]},
                {"character": [1], "matrix": [[0, 0], [0, [1, 0]]]},
            ],
        },
        "state": [0.6, [0.0, 0.8]],
        "outcomes": [[0], [0, 1]],
        "observable": [[1, 0], [0, -1]],
    },
    "amplify": {
        "version": 1,
        "kind": "amplify",
        "rep": "sigma_z",
        "state": [0.6, 0.8],
        "outcomes": [[0], [0, 1]],
        "observable": "identity",
        "n_values": [1, 2],
    },
    "sterngerlach": {
        "version": 1,
        "kind": "sterngerlach",
        "field": {"b0": 1.0, "b1": 0.5, "b2": 0.1, "mu": 1.0, "region_extent": 5.0},
        "grid": {
            "points": 512,
            "extent": 40.0,
            "sigma": 1.0,
            "center": 0.5,
            "momentum": 0.1,
            "spinor": [1.0, [0.0, 1.0]],
            "mass": 1.0,
        },
        "time": {"dt": 0.005, "steps": 4, "record_every": 2},
        "adiabaticity": {"v": 2.0, "z_scale": 1.0},
    },
    "sweep": {
        "version": 1,
        "kind": "sweep",
        "base": {
            "field": {"b0": 1.0, "b1": 0.1},
            "grid": {"points": 512, "extent": 40.0, "sigma": 1.0, "spinor": [1.0, 1.0]},
            "time": {"dt": 0.005, "steps": 4},
        },
        "adiabaticity": {"v": 2.0, "z_scale": 1.0},
        "axes": [
            {"path": "field.b2", "values": [0.0, 0.1]},
            {"path": "grid.points", "values": [512]},
        ],
    },
}


def with_value(payload, keys, value):
    """Copy of `payload` with the entry at `keys` (object keys and list indices) set."""
    out = json.loads(json.dumps(payload))
    target = out
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return out


def dotted(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


@pytest.mark.parametrize(
    "kind, keys, value, field",
    [
        ("sterngerlach", ("field", "b0"), float("nan"), "field.b0"),
        ("sterngerlach", ("field", "b0"), "1", "field.b0"),
        ("sterngerlach", ("grid", "points"), None, "grid.points"),
        ("sterngerlach", ("grid", "points"), "abc", "grid.points"),
        ("sterngerlach", ("grid",), "x", "grid"),
        ("sterngerlach", ("grid", "spinor"), [0, 0], "grid.spinor"),
        ("sterngerlach", ("grid", "mass"), 0, "grid.mass"),
        ("sterngerlach", ("time", "steps"), True, "time.steps"),
        ("sterngerlach", ("time", "dt"), float("inf"), "time.dt"),
        ("sterngerlach", ("adiabaticity", "v"), 0, "adiabaticity.v"),
        ("sterngerlach", ("field", "region_extent"), 0, "field.region_extent"),
        ("measure", ("outcomes",), [[True]], "outcomes[0]"),
        ("measure", ("outcomes",), [[0, 2]], "outcomes[0]"),
        ("measure", ("rep", "group"), ["x"], "rep.group"),
        ("measure", ("rep", "system_dim"), "q", "rep.system_dim"),
        ("measure", ("rep", "projections", 0, "matrix"), [[1, 0], [0]],
         "rep.projections[0].matrix"),
        ("measure", ("rep", "projections", 1, "character"), [5],
         "rep.projections[1].character"),
        ("measure", ("rep", "projections", 0, "character"), [0, 0],
         "rep.projections[0].character"),
        ("measure", ("rep", "group"), [4097], "rep.group"),
        ("measure", ("rep", "projections", 0, "matrix"), [[1, 1], [0, 0]],
         "rep.projections[0].matrix"),
        ("measure", ("rep", "projections", 1, "matrix"), [[0, 0], [0, 2]],
         "rep.projections[1].matrix"),
        ("measure", ("rep", "projections", 1, "matrix"), [[0, 0], [0, 0]],
         "rep.projections"),
        ("measure", ("rep", "projections", 1, "character"), [0], "rep.projections"),
        ("amplify", ("observable",), [[1]], "observable"),
        ("sweep", ("axes", 0, "path"), "field.b0.x", "axes[0].path"),
        ("sweep", ("axes", 0, "path"), "grid", "axes[0].path"),
        ("sweep", ("axes", 0, "values"), [0.1, float("nan")], "axes[0].values"),
    ],
    ids=[
        "b0-nan", "b0-string", "points-null", "points-string", "grid-string", "spinor-zero",
        "mass-zero", "steps-bool", "dt-infinite", "v-zero", "region-extent-zero",
        "outcome-bool", "outcome-out-of-range", "rep-group-string", "system-dim-string",
        "ragged-matrix", "character-out-of-range", "character-length", "group-over-cap",
        "projection-not-hermitian", "projection-not-idempotent", "projections-incomplete",
        "projections-duplicate", "observable-shape",
        "axis-path-too-deep", "axis-path-section", "axis-value-nan",
    ],
)
def test_bad_field_exits_1_naming_it(tmp_path, capsys, kind, keys, value, field):
    path = write_scenario(tmp_path, with_value(VALID[kind], keys, value))
    assert main([kind, "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"field '{field}'" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("observable", [[0.5] * 128] * 127, "expected a 128x128 matrix, got 127x128"),
        ("state", [0.0] * 9999 + ["x"], "got [0.0, 0.0, 0.0, 0.0, ...]"),
    ],
    ids=["observable-127x128", "state-with-a-string"],
)
def test_error_line_is_bounded_for_a_large_value(tmp_path, capsys, field, value, shown):
    dim = 128
    rep = {"group": [1], "system_dim": dim,
           "projections": [{"character": [0], "matrix": np.eye(dim).tolist()}]}
    scenario = {"version": 1, "kind": "measure", "rep": rep, "state": [1.0] + [0.0] * (dim - 1),
                "outcomes": [[0]], field: value}
    path = write_scenario(tmp_path, scenario)
    assert main(["measure", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1024
    assert err.startswith(f"error: field '{field}'") and shown in err


@pytest.mark.parametrize(
    "value, type, bound, expected",
    [
        (3, int, 0, 3),
        (2, float, None, 2.0),
        ([1, [0, 2]], [complex], None, [1 + 0j, 2j]),
        ([[1], [2, 3]], [[int]], 0, [[1], [2, 3]]),
        ({"k": 1}, dict, None, {"k": 1}),
        (True, int, None, "an integer, got True"),
        (2.0, int, None, "an integer, got 2.0"),
        (0, int, 0, "an integer > 0, got 0"),
        (float("nan"), float, None, "a finite number, got nan"),
        (10**400, float, None, "a finite number, got 1000"),
        (False, float, None, "a finite number, got False"),
        ([1, True], [complex], None, "field 'a.b': expected a non-empty list"),
        ([[1], [2, 0]], [[int]], 0, "field 'a.b[1]': expected a non-empty list"),
        ([], [int], None, "a non-empty list, each item an integer, got []"),
        ({}, dict, None, "a non-empty object, got {}"),
    ],
)
def test_read_checks_type_and_bound(value, type, bound, expected):
    scenario = {"a": {"b": value}}
    if isinstance(expected, str):
        with pytest.raises(ScenarioError, match=re.escape(expected)) as exc:
            scenarios.read(scenario, "a.b", type, bound=bound)
        assert str(exc.value).startswith("field 'a.b")
    else:
        assert scenarios.read(scenario, "a.b", type, bound=bound) == expected


def test_read_walks_paths_and_defaults():
    scenario = {"a": {"b": [{"c": 1}]}, "s": "x"}
    assert scenarios.read(scenario, "a.b[0].c", int) == 1
    assert scenarios.read(scenario, "a.z.c", int, 7) == 7  # an absent key gives the default
    with pytest.raises(ScenarioError, match=r"field 'a\.z\.c': expected an integer, missing"):
        scenarios.read(scenario, "a.z.c", int)
    with pytest.raises(ScenarioError, match=r"field 's': expected a non-empty object, got 'x'"):
        scenarios.read(scenario, "s.t", int, 7)  # a present non-object is never skipped


def test_sweep_reads_every_point_before_running_one(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(scenarios.sterngerlach, "evolve", lambda *a, **k: calls.append(a))
    payload = with_value(VALID["sweep"], ("axes", 1), {"path": "field.b0", "values": [1.0, -1.0]})
    path = write_scenario(tmp_path, payload)
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    assert "field 'axes[1].values'" in capsys.readouterr().err
    assert calls == []


def test_sweep_axes_supply_fields_the_base_leaves_out(tmp_path):
    # an axis may give the required b0 and turn the U_fi report on by itself
    payload = {
        "version": 1,
        "kind": "sweep",
        "base": {"grid": {"points": 512}, "time": {"dt": 0.005, "steps": 4}},
        "axes": [
            {"path": "field.b0", "values": [1, 2.0]},
            {"path": "adiabaticity.v", "values": [2.0]},
        ],
    }
    out = tmp_path / "out"
    path = write_scenario(tmp_path, payload)
    assert main(["sweep", "--scenario", path, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "sweep.csv")
    assert [r["field.b0"] for r in rows] == ["1", "2"]
    assert all(float(r["u_fi"]) == 0.0 for r in rows)  # b2 = 0: no spin flip drive


def test_sterngerlach_refuses_astronomical_grid(tmp_path, capsys):
    payload = with_value(VALID["sterngerlach"], ("grid", "points"), 10**20)
    path = write_scenario(tmp_path, payload)
    assert main(["sterngerlach", "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "field 'grid.points'" in err and "Traceback" not in err


MAX_POINTS = scenarios.SG_SOLVER_BYTES // scenarios.SG_BYTES_PER_POINT


@pytest.mark.parametrize(
    "kind, edits, field",
    [
        ("sterngerlach", {("grid", "points"): MAX_POINTS + 1}, "grid.points"),
        ("sterngerlach", {("time", "steps"): 10**9}, "time.steps"),
        ("sweep", {("base", "grid", "points"): 10**9, ("axes", 1, "path"): "time.dt",
                   ("axes", 1, "values"): [0.005]}, "base.grid.points"),
        ("sweep", {("axes", 1, "values"): [512, 10**9]}, "axes[1].values"),
        ("sweep", {("base", "time", "steps"): 10**9}, "base.time.steps"),
        # a step evolve would refuse, dt * mu * max|B| > 0.1: time.dt is named
        # first, then the field values that set max|B|
        ("sterngerlach", {("time", "dt"): 1}, "time.dt"),
        ("sterngerlach", {("field", "b1"): 1e308}, "time.dt"),
        # |B| is finite but its square, which the solver takes, overflows
        ("sterngerlach", {("field", "b0"): 1e200, ("time", "dt"): 1e-202}, "time.dt"),
        ("sweep", {("base", "time", "dt"): 1}, "base.time.dt"),
        ("sweep", {("axes", 0, "path"): "field.b1", ("axes", 0, "values"): [0.1, 1e308]},
         "axes[0].values"),
        ("sweep", {("axes", 1, "path"): "time.dt", ("axes", 1, "values"): [0.005, 1.0]},
         "axes[1].values"),
    ],
    ids=["points", "steps", "sweep-base-points", "sweep-axis-points", "sweep-base-steps",
         "dt", "huge-gradient", "huge-uniform-field", "sweep-base-dt", "sweep-axis-gradient",
         "sweep-axis-dt"],
)
def test_size_preflight_runs_before_any_packet_or_step(
    tmp_path, capsys, monkeypatch, kind, edits, field
):
    def never(*args, **kwargs):
        raise AssertionError("the size preflight let the run start")

    monkeypatch.setattr(scenarios.sterngerlach, "gaussian_packet", never)
    monkeypatch.setattr(scenarios.sterngerlach, "evolve", never)
    payload = VALID[kind]
    for keys, value in edits.items():
        payload = with_value(payload, keys, value)
    path = write_scenario(tmp_path, payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings either
        assert main([kind, "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"field '{field}'" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_size_preflight_limits_are_inclusive():
    limits = {"grid.points": MAX_POINTS, "time.steps": scenarios.SG_POINT_STEPS // MAX_POINTS}
    fields = {**scenarios._sg_fields(VALID["sterngerlach"]), **limits}
    scenarios._preflight(fields, str)
    for path in limits:
        with pytest.raises(ScenarioError, match=f"field '{re.escape(path)}'"):
            scenarios._preflight({**fields, path: fields[path] + 1}, str)


@pytest.mark.parametrize(
    "payload, field, bound",
    [
        (lambda: {"version": 1, "kind": "relations",
                  "groups": [[2], [first_order_over_relation_bytes()]]},
         "groups[1]", scenarios.RELATIONS_BYTES),
        (lambda: {"version": 1, "kind": "relations", "groups": [[2], [2] * 11]},
         "groups[1]", scenarios.RELATIONS_WORK),
        (lambda: {"version": 1, "kind": "relations", "groups": [[107]] * 10**3},
         "groups", scenarios.RELATIONS_WORK),
        (lambda: trivial_rep_scenario("amplify", [1], n_values=[1, 10**7]),
         "n_values", scenarios.AMPLIFY_BYTES),
        (lambda: trivial_rep_scenario("amplify", [4096], n_values=[1, 2**15]),
         "n_values", scenarios.AMPLIFY_CHAIN_WORK),
        (lambda: {**VALID["amplify"], "outcomes": [[0]] * 10**3, "n_values": [10**6]},
         "n_values", scenarios.AMPLIFY_WORK),
        (lambda: diagonal_rep_scenario(2, [[1]] * 10**5), "outcomes", scenarios.MEASURE_WORK),
        (lambda: with_value(VALID["sterngerlach"], ("grid", "points"), MAX_POINTS + 1),
         "grid.points", scenarios.SG_SOLVER_BYTES),
        (lambda: with_value(VALID["sterngerlach"], ("time", "steps"), 10**9),
         "time.steps", scenarios.SG_POINT_STEPS),
        (lambda: sweep_repeating_axes(2, 10**3), "axes", scenarios.SWEEP_WORK),
    ],
    ids=["relation-bytes", "relation-passes", "relations-run", "label-bytes", "chain-labels",
         "amplify-run", "instruments", "solver-bytes", "point-steps", "sweep-run"],
)
def test_every_size_bound_refuses_in_one_shape(tmp_path, capsys, monkeypatch, payload, field,
                                               bound):
    # one case per size bound, each on an input an existing refusal test
    # uses: exit 1 and one stderr line of the one shape, naming the field and
    # the bound, before any of the run's work, which is stubbed
    def never(*args, **kwargs):
        raise AssertionError("a run over its bound started")

    for module, name in ((scenarios.ktops, "kt_pair"), (scenarios, "_matrix"),
                         (scenarios.amp, "intertwiner_chain_check"),
                         (scenarios.amp, "cascade_apply"), (scenarios.measurement, "instrument"),
                         (scenarios.sterngerlach, "gaussian_packet"),
                         (scenarios.sterngerlach, "evolve"), (scenarios, "_sweep_point")):
        monkeypatch.setattr(module, name, never)
    scenario = payload()
    path = write_scenario(tmp_path, scenario)
    assert main([scenario["kind"], "--scenario", path, "--out", str(tmp_path)]) == EXIT_INPUT
    named, limit, estimate = refusal(capsys.readouterr().err)
    assert (named, limit) == (field, bound) and estimate > bound


MUTATIONS = [None, True, "x", float("nan"), float("inf"), -1, 0, [], {}]


def object_keys(obj, prefix=()):
    """Key paths of every object inside `obj`, lists included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from object_keys(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from object_keys(value, prefix + (i,))


def test_mutation_table_exits_cleanly_naming_the_field(tmp_path, capsys):
    # every key of every valid scenario, set to each malformed value in turn
    start = time.perf_counter()
    runs = 0
    for kind, payload in VALID.items():
        for keys in object_keys(payload):
            for value in MUTATIONS:
                path = write_scenario(tmp_path, with_value(payload, keys, value))
                code = main([kind, "--scenario", path, "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                case = f"{kind}: {dotted(keys)} = {value!r} -> {code}: {err}"
                assert code in (EXIT_OK, EXIT_INPUT, EXIT_INVARIANT), case
                if code == EXIT_INPUT:
                    assert re.search(rf"field '{re.escape(dotted(keys))}[.\[']", err), case
                runs += 1
    assert runs > 500
    assert time.perf_counter() - start < 30


def test_readme_tables_every_stern_gerlach_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for path, default in scenarios.SG_FIELDS.items():
        kind = {int: "integer", float: "number", list: "2 amplitudes"}[type(default)]
        shown = "required" if path in scenarios.SG_REQUIRED else json.dumps(default)
        bound = {0: "> 0", None: "any"}[scenarios._sg_bound(path)]
        if isinstance(default, list):
            bound = "finite norm > 0"
        assert f"| `{path}` | {kind} | {shown} | {bound} |" in readme


EXTREMES = [10**6, 1e308, 2**62, 1e-300]
NONFINITE_TEXT = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def test_extreme_value_table_exits_cleanly(tmp_path, capsys):
    # every key of every valid scenario set to each in-range but unphysical
    # value in turn, and two copy counts: exit 0 or 1, at most one error
    # line, no numpy warning, and no nan or inf in any output
    cases = [
        (kind, keys, value)
        for kind, payload in VALID.items()
        for keys in object_keys(payload)
        for value in EXTREMES
    ]
    cases += [("amplify", ("n_values",), [2**62]), ("amplify", ("n_values",), [10**6])]
    start = time.perf_counter()
    for kind, keys, value in cases:
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        path = write_scenario(tmp_path, with_value(VALID[kind], keys, value))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([kind, "--scenario", path, "--out", str(out)])
        err = capsys.readouterr().err
        case = f"{kind}: {dotted(keys)} = {value!r} -> {code}: {err} {caught}"
        assert code in (EXIT_OK, EXIT_INPUT), case
        assert not caught, case
        assert len(err.splitlines()) == (code == EXIT_INPUT), case
        if code == EXIT_INPUT:
            assert err.startswith("error: field '"), case
        for written in out.glob("*"):
            assert not NONFINITE_TEXT.search(written.read_text()), case
    assert len(cases) > 250
    # about 3.5 s on a 2-vCPU Xeon, 2.2 s of it the 10**6-point grid; the
    # gate leaves room for a slower runner
    assert time.perf_counter() - start < 10


def list_elements(obj, prefix=()):
    """Key paths of every list element inside `obj`, at any depth."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from list_elements(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield prefix + (i,)
            yield from list_elements(value, prefix + (i,))


def test_extreme_list_elements_exit_cleanly(tmp_path, capsys):
    # every list element of every valid scenario (spinor and state amplitudes,
    # matrix entries, group orders, outcome indices, n_values, sweep values)
    # set to each extreme value in turn: exit 0 or 1, at most one error line
    # naming the list, no numpy warning, and no nan or inf in any output
    cases = [
        (kind, keys, value)
        for kind, payload in VALID.items()
        for keys in list_elements(payload)
        for value in EXTREMES
    ]
    start = time.perf_counter()
    for kind, keys, value in cases:
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        path = write_scenario(tmp_path, with_value(VALID[kind], keys, value))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([kind, "--scenario", path, "--out", str(out)])
        err = capsys.readouterr().err
        case = f"{kind}: {dotted(keys)} = {value!r} -> {code}: {err} {caught}"
        assert code in (EXIT_OK, EXIT_INPUT), case
        assert not caught, case
        assert len(err.splitlines()) == (code == EXIT_INPUT), case
        if code == EXIT_INPUT:
            assert err.startswith("error: field '"), case
        if "matrix" in keys and value == 1e308:
            # an overflowing entry fails the matrix's own checks, so the matrix
            # is named rather than the projections' overlap or completeness
            assert f"field '{dotted(keys[: keys.index('matrix') + 1])}" in err, case
        if "spinor" in keys and value == 1e308:
            assert "grid.spinor': expected 2 amplitudes whose norm is finite" in err, case
        for written in out.glob("*"):
            assert not NONFINITE_TEXT.search(written.read_text()), case
    assert len(cases) == 236
    # about 6 s on a 2-vCPU Xeon; the gate leaves room for a slower runner
    assert time.perf_counter() - start < 20


ROOT = Path(__file__).resolve().parents[1]
README_SCENARIOS = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
EXAMPLES = sorted((ROOT / "examples").glob("*.json"))


@pytest.mark.parametrize(
    "text",
    README_SCENARIOS + [path.read_text() for path in EXAMPLES],
    ids=[f"readme-{i}" for i in range(len(README_SCENARIOS))] + [p.stem for p in EXAMPLES],
)
def test_readme_and_example_scenarios_run(tmp_path, text):
    # every scenario the README shows and every file in examples/ runs as
    # written, with no undefined value in its outputs
    scenario = json.loads(text)
    path = write_scenario(tmp_path, scenario)
    out = tmp_path / "out"
    assert main([scenario["kind"], "--scenario", path, "--out", str(out)]) == EXIT_OK
    written = list(out.glob("*"))
    assert written
    for output in written:
        assert not NONFINITE_TEXT.search(output.read_text()), output.name


def test_readme_lists_every_example():
    assert README_SCENARIOS and EXAMPLES
    readme = (ROOT / "README.md").read_text()
    for path in EXAMPLES:
        kind = json.loads(path.read_text())["kind"]
        assert f"qmamp {kind} --scenario examples/{path.name}" in readme

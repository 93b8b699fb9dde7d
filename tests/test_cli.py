import csv
import json

import numpy as np
import pytest

from qmamp.cli import EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, main
from qmamp.scenarios import ScenarioError, load_scenario


def write_scenario(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_load_scenario_validation(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="'version'"):
        load_scenario(write_scenario(tmp_path, {"kind": "measure"}))
    with pytest.raises(ScenarioError, match="'kind'"):
        load_scenario(write_scenario(tmp_path, {"version": 1, "kind": "nope"}))
    ok = load_scenario(write_scenario(tmp_path, {"version": 1, "kind": "measure"}))
    assert ok["seed"] == 0  # default applied


def test_cli_rejects_missing_file(tmp_path, capsys):
    code = main(["measure", "--scenario", str(tmp_path / "none.json")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


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
    path = write_scenario(
        tmp_path,
        {
            "version": 1,
            "kind": "measure",
            "rep": {
                "group": [2],
                "system_dim": 2,
                "projections": [
                    {"character": [0], "matrix": [[1, 0], [0, 0]]},
                    {"character": [1], "matrix": [[0, 0], [0, 1]]},
                ],
            },
            "state": [1.0, 0.0],
            "outcomes": [[0]],
        },
    )
    out = tmp_path / "out"
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
    payload = {
        "version": 1,
        "kind": "sterngerlach",
        "field": {"b0": 100.0},
        "grid": {"points": 256, "extent": 40.0, "sigma": 1.5},
        "time": {"dt": 0.01, "steps": 10},
    }
    path = write_scenario(tmp_path, payload)
    code = main(["sterngerlach", "--scenario", path, "--out", str(tmp_path)])
    assert code == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("record_every", [0, -3])
def test_sterngerlach_rejects_nonpositive_record_every(tmp_path, capsys, record_every):
    payload = {
        "version": 1,
        "kind": "sterngerlach",
        "field": {"b0": 1.0},
        "grid": {"points": 512, "extent": 40.0, "sigma": 1.0},
        "time": {"dt": 0.005, "steps": 10, "record_every": record_every},
    }
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

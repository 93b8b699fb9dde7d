"""Tests of the benchmark's input generator, output checker and tracer.

    python3 -m pytest perfbench/tests
"""

import csv
import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "relations": {"orders": (4, 6)},
    "cascade": {"sigma_z_legs": 3, "clock_legs": 2},
    "trajectory": {"points": 1024, "steps": 40},
    "sweep": {"points": 1024, "steps": 300, "b2_values": 2, "b1_values": 2},
}


def _work(inv: workloads.Invocation):
    """What an invocation costs, with every seeded value left out."""
    s = inv.scenario
    if inv.kind == "relations":
        sizes = [math.prod(g) for g in s["groups"]]
    elif inv.kind == "amplify":
        sizes = [s["rep"], s["n_values"], s["outcomes"]]
    elif inv.kind == "sterngerlach":
        sizes = [s["grid"]["points"], s["time"]]
    else:
        sizes = [s["base"]["grid"]["points"], s["base"]["time"],
                 [(ax["path"], len(ax["values"])) for ax in s["axes"]]]
    return inv.name, inv.kind, inv.jobs, inv.operations(), inv.predicted_calls(), sizes


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = [json.dumps(inv.scenario) for inv in workloads.make(workload, 5)]
    again = [json.dumps(inv.scenario) for inv in workloads.make(workload, 5)]
    assert first == again


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seeds_change_values_not_work(workload):
    runs = [workloads.make(workload, seed) for seed in range(20)]
    assert len({json.dumps([i.scenario for i in r]) for r in runs}) > 1
    assert all([_work(i) for i in r] == [_work(i) for i in runs[0]] for r in runs)


def test_validate_rejects_unsafe_solver_inputs():
    (inv,) = workloads.make("trajectory", 0)
    inv.scenario["time"]["dt"] = 0.05
    with pytest.raises(ValueError, match="dt\\*mu\\*max"):
        workloads.validate(inv)
    (inv,) = workloads.make("sweep", 0)
    inv.scenario["base"]["grid"]["center"] = 15.0
    with pytest.raises(ValueError, match="packet reaches"):
        workloads.validate(inv)
    (inv,) = workloads.make("trajectory", 0)
    inv.scenario["time"]["record_every"] = 0
    with pytest.raises(ValueError, match="record_every"):
        workloads.validate(inv)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced pass of each workload at tiny sizes, in a scratch checkout."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src")
    passes = {}
    for name, sizes in TINY.items():
        invocations = workloads.make(name, 1, **sizes)
        runner = run.Runner(root, name, invocations)
        passes[name] = runner.run_pass("traced", trace=True)
    return passes


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_tiny_outputs_pass_the_checker(traced_runs):
    for results in traced_runs.values():
        for r in results:
            assert r.call.returncode == 0
            assert (r.verdict.failed, r.verdict.problems) == (0, [])
            assert r.verdict.attempted == r.inv.operations()


@pytest.mark.parametrize("workload, filename, edit", [
    ("relations", "relations.csv", lambda rows: rows[1].update(intertwining_v="1e-6")),
    ("cascade", "amplify.csv", lambda rows: rows[4].update(probability="0.25")),
    ("cascade", "amplify.csv", lambda rows: rows.pop(2)),
    ("trajectory", "sterngerlach.csv", lambda rows: rows[7].update(norm="1.0001")),
    ("sweep", "sweep.csv", lambda rows: rows[0].update(flip_probability="1e-9")),
    ("sweep", "sweep.csv", lambda rows: rows[3].update(flip_probability="nan")),
])
def test_checker_fails_exactly_the_corrupted_row(traced_runs, tmp_path, workload, filename, edit):
    result = traced_runs[workload][0]
    out = result.trace_dir.parent / result.inv.name
    copy = tmp_path / "out"
    copy.mkdir()
    for p in out.iterdir():
        copy.joinpath(p.name).write_bytes(p.read_bytes())
    _rewrite_csv(copy / filename, edit)
    verdict = check.check(result.inv, copy, 0)
    assert verdict.failed == 1, verdict.problems


def test_checker_fails_every_row_of_a_failed_invocation(traced_runs):
    result = traced_runs["cascade"][0]
    out = result.trace_dir.parent / result.inv.name
    verdict = check.check(result.inv, out, 2)
    assert verdict.failed == verdict.attempted == result.inv.operations()


def test_nonfinite_kick_down_is_counted_not_failed(traced_runs):
    (result,) = traced_runs["sweep"]
    b2_positive_rows = result.inv.operations() // 2
    assert result.verdict.failed == 0
    assert result.verdict.nonfinite_fields == 2 * b2_positive_rows  # kick_down, kick_down_error


def _bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", list(TINY))
def test_tracer_counts_match_the_prediction(traced_runs, workload):
    traced = traced_runs[workload]
    problems = []
    metrics = run._layer_metrics(_bench(), traced, [], problems)
    assert problems == []
    predicted = Counter()
    for r in traced:
        predicted.update(r.inv.predicted_calls())
    assert {name: metrics[name]["value"] for name in predicted} == predicted
    assert metrics["cli.main.total_s"]["value"] > 0


def test_tracer_reports_missing_worker_spans(traced_runs, tmp_path):
    (result,) = traced_runs["sweep"]
    # Keep only the main process's spans, as if the pool workers were never traced.
    main = next(p for p in result.trace_dir.glob("spans-*.jsonl") if '"cli.main"' in p.read_text())
    (tmp_path / main.name).write_bytes(main.read_bytes())
    problems = []
    run._layer_metrics(_bench(), [dataclasses.replace(result, trace_dir=tmp_path)], [], problems)
    assert any("sterngerlach.evolve.calls" in p for p in problems)


def test_sweep_worker_spans_name_the_pool_owner(traced_runs):
    (result,) = traced_runs["sweep"]
    spans, _ = run.tracer.load_spans(result.trace_dir)
    by_id = {s["id"]: s for s in spans}
    worker_roots = [s for s in spans if s["name"] == "sterngerlach.run_simulation"]
    assert worker_roots
    assert all(by_id[s["parent"]]["name"] == "scenarios.run_sweep" for s in worker_roots)

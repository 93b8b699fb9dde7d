"""qmamp benchmark: drive the real CLI on one seeded workload and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qmamp checkout.  `--workload all` runs relations,
cascade, trajectory and sweep in turn.  Each qmamp invocation runs in a
fresh interpreter (perfbench/child.py) with PYTHONPATH=src, as a user runs
the CLI.  A run first spawns set-up probes, then repeats the workload's invocations (a
"pass") until S seconds have passed, checking every output and that each
pass writes the same bytes as the first.  End-to-end metrics are medians
over the passes.  With --trace 1 one more pass runs under the span tracer
and the run reports the per-layer metrics instead.  The metric names and
units come from BENCHMARK.json.  The last line of stdout is one JSON object;
the exit code is 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
POLL_S = 0.01


@dataclasses.dataclass
class Call:
    """One finished invocation."""

    returncode: int
    setup_s: float | None
    wall_s: float | None
    cpu_s: float | None
    rss_mb: float
    record: dict
    stderr: str


@dataclasses.dataclass
class Result:
    """One checked invocation of a pass."""

    inv: workloads.Invocation
    call: Call
    verdict: check.Verdict
    digests: dict[str, str]
    trace_dir: Path | None = None


class Runner:
    """Spawns and checks the invocations of one workload inside root/.bench_work."""

    def __init__(self, root: Path, workload: str, invocations: list[workloads.Invocation]):
        self.root = root
        self.work = root / ".bench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.invocations = invocations
        for inv in self.invocations:
            with open(self.scenario_path(inv), "w") as fh:
                json.dump(inv.scenario, fh, indent=1)
        self._spawned = 0

    def scenario_path(self, inv) -> Path:
        return self.work / f"{inv.name}.json"

    def spawn(self, qmamp_args: list[str], trace_dir: Path | None = None,
              invocation: str = "-") -> Call:
        self._spawned += 1
        record_path = self.work / f"record-{self._spawned}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(record_path),
               str(trace_dir) if trace_dir else "-", invocation, *qmamp_args]
        stderr_path = self.work / f"stderr-{self._spawned}.txt"
        spawned_at = time.monotonic()
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
        try:
            while True:
                # wait4 reports the usage of the child and of its pool workers, which it waited for.
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    _kill_group(proc.pid)
                time.sleep(POLL_S)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        _kill_group(proc.pid)  # pool workers a killed invocation left behind
        returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {}
        stderr = ""
        if returncode != 0:
            lines = stderr_path.read_text(errors="replace").strip().splitlines()
            stderr = "stderr: " + " | ".join(lines[-3:])
        cpu = usage.ru_utime + usage.ru_stime
        return Call(
            returncode=returncode,
            setup_s=record["imported_at"] - spawned_at if "imported_at" in record else None,
            wall_s=record.get("main_s"),
            cpu_s=cpu - record["cpu_at_import_s"] if "cpu_at_import_s" in record else None,
            rss_mb=usage.ru_maxrss / 1024,
            record=record,
            stderr=stderr,
        )

    def run_pass(self, label: str, trace: bool = False, jobs: int | None = None) -> list[Result]:
        """Run and check every invocation once."""
        results = []
        for inv in self.invocations:
            if jobs is not None:
                inv = dataclasses.replace(inv, jobs=jobs)
            out = self.work / label / inv.name
            trace_dir = None
            if trace:
                trace_dir = self.work / label / f"{inv.name}.trace"
                trace_dir.mkdir(parents=True)
            call = self.spawn(inv.argv(self.scenario_path(inv), out), trace_dir, inv.name)
            verdict = check.check(inv, out, call.returncode)
            if call.stderr:
                verdict.problems.append(call.stderr)
            results.append(Result(inv, call, verdict, _digests(out), trace_dir))
        return results


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _pass_totals(results: list[Result]) -> dict | None:
    calls = [r.call for r in results]
    if any(c.wall_s is None or c.cpu_s is None for c in calls):
        return None
    return {
        "wall_s": sum(c.wall_s for c in calls),
        "cpu_s": sum(c.cpu_s for c in calls),
        "peak_rss_mb": max(c.rss_mb for c in calls),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def run_workload(root: Path, bench: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    runner = Runner(root, workload, workloads.make(workload, seed))
    problems: list[str] = []

    probes = [runner.spawn([]) for _ in range(SETUP_PROBES)]
    failed_probes = [p for p in probes if p.returncode != 0 or p.setup_s is None]
    if failed_probes:
        raise RuntimeError(f"set-up probe failed: {failed_probes[0].stderr}")
    machine = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **{k: probes[0].record.get(k) for k in ("numpy", "blas", "blas_threads")},
        "pool_workers": max(inv.jobs for inv in runner.invocations),
        "commit": _git_commit(root),
        "seed": seed,
    }
    print(f"{workload}: machine {json.dumps(machine)}")

    passes = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        passes.append(runner.run_pass(f"pass{len(passes)}"))
        now = time.monotonic()
        # Stop where the run ends nearest to `seconds`, taking the next pass to last as long.
        if now - start + (now - begun) / 2 >= seconds:
            break
    first = passes[0]
    for results in passes[1:]:
        for r, reference in zip(results, first):
            if r.digests != reference.digests:
                r.verdict.fail_all(f"{r.inv.name}: outputs differ from the first pass")
    verdicts = [r.verdict for results in passes for r in results]
    setups = [p.setup_s for p in probes] + [
        r.call.setup_s for results in passes for r in results if r.call.setup_s is not None
    ]
    totals = [t for t in (_pass_totals(r) for r in passes) if t is not None]
    if not totals:
        problems.append("no pass completed")

    if trace:
        traced = runner.run_pass("traced", trace=True)
        verdicts += [r.verdict for r in traced]
        metrics = _layer_metrics(bench, traced, totals, problems)
        if any(inv.kind == "sweep" for inv in runner.invocations):
            serial = runner.run_pass("jobs1", jobs=1)
            for r, reference in zip(serial, first):
                if r.digests != reference.digests:
                    r.verdict.fail_all(f"{r.inv.name}: --jobs 1 output differs from "
                                       f"--jobs {reference.inv.jobs}")
            verdicts += [r.verdict for r in serial]
    else:
        values = {
            name: statistics.median(t[name] for t in totals) if totals else float("nan")
            for name in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        # Set-up is summed over a pass's invocations, from the median of every sample.
        values["setup_s"] = len(runner.invocations) * statistics.median(setups)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems += [p for v in verdicts for p in v.problems]
    for problem in problems[:20]:
        print(f"{workload}: FAILED {problem}")
    print(f"{workload}: {len(passes)} passes of {len(runner.invocations)} invocations, "
          f"{len(setups)} set-up samples; wall_s per pass: "
          + " ".join(f"{t['wall_s']:.4g}" for t in totals))
    for name, m in metrics.items():
        print(f"{workload}: {name:58s} {m['value']:.6g} {m['unit']}")
    print(f"{workload}: error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations failed)")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _layer_metrics(bench: dict, traced: list[Result], totals, problems: list[str]) -> dict:
    spans, counters, predicted = [], Counter(), Counter()
    for r in traced:
        s, c = tracer.load_spans(r.trace_dir)
        spans += s
        counters += c
        predicted.update(r.inv.predicted_calls())
        if r.call.record.get("unpatched"):
            problems.append(f"tracer left unpatched: {r.call.record['unpatched']}")
    stats = tracer.span_stats(spans)
    pass_wall = _pass_totals(traced)
    evolve = stats.get("sterngerlach.evolve", {}).get("total_s", 0.0)
    point_steps = counters.get("sterngerlach.evolve.point_steps", 0)
    derived = {
        "scenarios.output_bytes": sum(r.verdict.output_bytes for r in traced),
        "scenarios.nonfinite_fields": sum(r.verdict.nonfinite_fields for r in traced),
        "sterngerlach.evolve.ns_per_point_step": evolve * 1e9 / point_steps if point_steps else 0.0,
        "trace.overhead_s": (pass_wall["wall_s"] - statistics.median(t["wall_s"] for t in totals))
        if pass_wall and totals else float("nan"),
    }

    def value(name: str):
        if name in derived:
            return derived[name]
        if name in tracer.COUNTER_NAMES:
            return counters.get(name, 0)
        span, _, stat = name.rpartition(".")
        if stat not in ("calls", "total_s", "self_s"):
            raise KeyError(f"per-layer metric {name!r} has no source")
        return stats.get(span, {}).get(stat, 0)

    for name, expected in predicted.items():
        got = value(name)
        if got != expected:
            problems.append(f"tracer counted {name} = {got}, inputs predict {expected}")
    return {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qmamp" / "cli.py").is_file():
        print(f"error: {root} is not a qmamp checkout (no src/qmamp/cli.py)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    names = list(workloads.SEPARATE) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(root, bench, name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

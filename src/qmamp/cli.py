"""Command-line front end for scenario-driven runs.

Subcommands mirror the scenario kinds (`relations`, `measure`, `amplify`,
`sterngerlach`, `sweep`) plus `selftest`, which runs the built-in acceptance
suite.  Exit codes: 0 success, 1 input/schema error or command-line usage
error, 2 runtime invariant violation.

`main` first moves every object alive at its start to the garbage
collector's permanent generation (`gc.freeze`): the modules, types and
functions that importing numpy and qmamp made, about 22,000 objects.  At exit
CPython runs full cyclic collections, each of which would otherwise walk all
of them again, about 21 ms of CPU per process; objects the run makes are
collected as before.  Where `sweep`'s process pool forks (Linux before Python
3.14), its workers start after the freeze, so collections in a worker do not
write to the inherited objects and their pages stay shared.  A long-lived
program that calls `main` freezes what is alive at each call, garbage that
awaits collection included, and the cycle collector never reclaims it.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import scenarios
from .sterngerlach import FieldError, SolverError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2

# scenario kind -> scenarios.run_<kind>(scenario, out_dir, **options)
RUNNERS = {kind: getattr(scenarios, f"run_{kind}") for kind in scenarios.KINDS}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, as every input error
    does, and not argparse's 2, which qmamp keeps for invariant violations;
    its subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    sub.add_argument("--out", default=".", help="output directory (default: cwd)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmamp",
        description="measurement couplings, amplification cascades, and Stern-Gerlach runs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for kind in scenarios.KINDS:
        sub = subs.add_parser(kind, help=f"run a '{kind}' scenario")
        _add_common(sub)
        if kind == "sweep":
            sub.add_argument(
                "--jobs", type=int, default=1,
                help="parallel sweep workers, at most one per point and per CPU",
            )
    subs.add_parser("selftest", help="run the acceptance suite")
    return parser


def main(argv=None) -> int:
    gc.freeze()  # the imports: the collections at exit need not walk them again
    args = build_parser().parse_args(argv)

    if args.command == "selftest":
        # imported here, as only the self-test needs it
        from . import selfcheck

        ok = selfcheck.run_all()
        return EXIT_OK if ok else EXIT_INVARIANT

    try:
        scenario = scenarios.load_scenario(args.scenario)
        if scenario["kind"] != args.command:
            raise scenarios.ScenarioError(
                f"field 'kind': scenario is '{scenario['kind']}', invoked as '{args.command}'"
            )
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at the path or on the way to it
            raise scenarios.ScenarioError(f"option '--out': {exc}") from exc
        options = {"jobs": args.jobs} if "jobs" in args else {}
        paths = RUNNERS[args.command](scenario, out_dir, **options)
    except (scenarios.ScenarioError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, ValueError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    for p in paths:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end for scenario-driven runs.

Subcommands mirror the scenario kinds (`relations`, `measure`, `amplify`,
`sterngerlach`, `sweep`) plus `selftest`, which runs the built-in acceptance
suite.  Exit codes: 0 success, 1 input/schema error or command-line usage
error, 2 runtime invariant violation.

`read_argv` reads the command line itself: `qmamp COMMAND [--scenario PATH]
[--out DIR] [--jobs N]`, each option as `--opt VALUE` or `--opt=VALUE` or by
a unique prefix.  argparse, with the gettext lookups and the `locale` import
its parsers make, took 3-4 ms of each fresh process to build and run its
parsers, more than the whole relations check of a small group; this reader
takes about 20 us.

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

import gc
import sys
from pathlib import Path

from . import scenarios
from .sterngerlach import FieldError, SolverError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2


def read_argv(argv) -> tuple[str, dict]:
    """The command that `argv` names first and its options: for a scenario
    kind `scenario` (required) and `out` (default "."), for `sweep` also
    `jobs` (an int, default 1), for `selftest` none.  An option is given as
    `--opt VALUE` or `--opt=VALUE`, by its name or a unique prefix of it, and
    the last of repeated ones holds; a VALUE after a space may not begin
    with `--`.  `-h` or `--help` anywhere prints the usage line and a line
    per command and option to stdout and exits 0; any other misuse prints the
    usage line and an error line naming the argument to stderr and exits 1,
    as every input error does, and not 2, which qmamp keeps for invariant
    violations."""
    commands = {kind: {"scenario": None, "out": "."} for kind in scenarios.KINDS}
    commands.update(sweep={**commands["sweep"], "jobs": 1}, selftest={})
    usage = "usage: qmamp COMMAND [--scenario PATH] [--out DIR] [--jobs N]"
    if {"-h", "--help"} & set(argv):
        print(usage, *(f"  {kind:<16}run a '{kind}' scenario" for kind in scenarios.KINDS),
              "  selftest        run the acceptance suite",
              "  --scenario PATH path to a scenario JSON file, required by every kind",
              "  --out DIR       output directory (default: cwd)",
              "  --jobs N        parallel sweep workers, at most one per point and CPU", sep="\n")
        raise SystemExit(EXIT_OK)

    def fail(message):
        print(usage, f"qmamp: error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)

    if not argv or argv[0] not in commands:
        fail(f"expected a command, one of {', '.join(commands)}; got "
             + (repr(argv[0]) if argv else "none"))
    command, args = argv[0], iter(argv[1:])
    options = dict(commands[command])
    for arg in args:
        name, eq, value = arg.partition("=")
        names = [n for n in options if len(name) > 2 and f"--{n}".startswith(name)]
        if len(names) != 1:
            fail(f"unrecognized argument {arg!r} for {command}")
        if not eq and (value := next(args, "--")).startswith("--"):
            fail(f"argument --{names[0]}: expected a value")
        if names[0] == "jobs":
            try:
                value = int(value)
            except ValueError:
                fail(f"argument --jobs: expected an integer, got {value!r}")
        options[names[0]] = value
    if None in options.values():
        fail("argument --scenario: required")
    return command, options


def main(argv=None) -> int:
    gc.freeze()  # the imports: the collections at exit need not walk them again
    command, options = read_argv(sys.argv[1:] if argv is None else argv)

    if command == "selftest":
        # imported here, as only the self-test needs it
        from . import selfcheck

        ok = selfcheck.run_all()
        return EXIT_OK if ok else EXIT_INVARIANT

    try:
        scenario = scenarios.load_scenario(options.pop("scenario"))
        if scenario["kind"] != command:
            raise scenarios.ScenarioError(
                f"field 'kind': scenario is '{scenario['kind']}', invoked as '{command}'"
            )
        out_dir = Path(options.pop("out"))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at the path or on the way to it
            raise scenarios.ScenarioError(f"option '--out': {exc}") from exc
        paths = scenarios.run_scenario(scenario, out_dir, **options)  # sweep's jobs, if any
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

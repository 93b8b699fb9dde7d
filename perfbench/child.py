"""Run one qmamp CLI invocation in this fresh interpreter and record its timings.

    python3 perfbench/child.py RECORD_JSON TRACE_DIR INVOCATION_ID [QMAMP_ARGS...]

TRACE_DIR is "-" for an untraced run.  Without QMAMP_ARGS the process only
imports qmamp.cli and records numpy and its BLAS: a set-up probe.  The
record holds the CLOCK_MONOTONIC time at which `import qmamp.cli` completed,
which the benchmark reads against the time it spawned this process.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _numpy_record() -> dict:
    import numpy

    record = {"numpy": numpy.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas['name']} {blas['version']}"
        record["blas_threads"] = _blas_threads()
    except (TypeError, KeyError, OSError):
        pass
    return record


def main() -> int:
    record_path, trace_dir, invocation = sys.argv[1:4]
    qmamp_args = sys.argv[4:]
    import qmamp.cli

    record = {"imported_at": time.monotonic(), "cpu_at_import_s": _cpu_s()}
    try:
        if not qmamp_args:
            record.update(_numpy_record())
            return 0
        tracer = None
        if trace_dir != "-":
            import tracer as tracing

            tracer = tracing.install(trace_dir, invocation)
            record["unpatched"] = tracer.unpatched
        start = time.perf_counter()
        try:
            return qmamp.cli.main(qmamp_args)
        finally:
            record["main_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.flush()
    finally:
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the benchmark's traced pass, installed from outside qmamp.

`install` wraps every public function of each qmamp module, plus the methods
in METHODS, and writes each wrapper into every qmamp namespace that holds the
original, so a name bound by `from .ktops import build_V` is traced too.  It
then lists any reference to an original that it could not replace.

A span is (id, name, start, end, parent, invocation).  Spans stay in memory
and are written out at the end as JSON lines, one file per process.  Sweep
pool workers get the tracer through the pool initializer and write their
spans after each top-level call, because a pool worker exits without running
exit handlers; their top-level spans name the parent process's open span.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "scenarios", "groups", "hilbert", "ktops", "measurement",
          "amplification", "sterngerlach", "selfcheck")
METHODS = ("ktops.KTOperatorPair.fourier_conjugation_residual", "sterngerlach.SpinorGrid.mean_pz")


def _dense_bytes(args):
    return 16 * args["group"].size ** 4


# Work counters: traced function -> (counter, amount computed from the call's arguments).
COUNTERS = {
    "ktops.build_W": ("ktops.dense_bytes_computed", _dense_bytes),
    "ktops.build_V": ("ktops.dense_bytes_computed", _dense_bytes),
    "amplification.cascade_apply": ("amplification.cascade_apply.amplitudes_computed",
                                    lambda args: args["cfg"].state_dim * args["cfg"].n_copies),
    "sterngerlach.evolve": ("sterngerlach.evolve.point_steps",
                            lambda args: args["grid"].psi[0].size * args["steps"]),
}
COUNTER_NAMES = frozenset(counter for counter, _ in COUNTERS.values())

_active: Tracer | None = None


class Tracer:
    def __init__(self, out_dir, invocation: str, parent: str | None = None):
        self.out_dir = Path(out_dir)
        self.invocation = invocation
        self.parent = parent
        self.flush_each_root = False
        self.unpatched: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.counters: Counter = Counter()
        self._next = 0

    def current(self) -> str | None:
        return self.stack[-1] if self.stack else self.parent

    def call(self, name, fn, args, kwargs):
        sid = f"{self.pid}:{self._next}"
        self._next += 1
        parent = self.current()
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent))
            if self.flush_each_root and not self.stack:
                self.flush()

    def flush(self) -> None:
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": self.invocation}) + "\n")
            if self.counters:
                fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
        self.spans.clear()
        self.counters.clear()


def _wrap(tracer: Tracer, name: str, fn):
    counter, amount = COUNTERS.get(name, (None, None))
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if counter is not None:
            tracer.counters[counter] += amount(signature.bind(*args, **kwargs).arguments)
        return tracer.call(name, fn, args, kwargs)

    return traced


class _TracedPool(concurrent.futures.ProcessPoolExecutor):
    """Process pool whose workers trace into the same directory."""

    def __init__(self, max_workers=None, mp_context=None, initializer=None, initargs=(), **kwargs):
        t = _active
        initargs = (str(t.out_dir), t.invocation, t.current(), initializer, initargs)
        super().__init__(max_workers, mp_context, _worker_init, initargs, **kwargs)


def _worker_init(out_dir, invocation, parent, initializer, initargs):
    tracer = _active if _active is not None else install(out_dir, invocation)
    tracer.reset()  # a forked worker inherits the parent's unwritten spans
    tracer.parent = parent
    tracer.flush_each_root = True
    if initializer is not None:
        initializer(*initargs)


def _namespaces(modules):
    """Module and class dicts of qmamp, plus module-level dicts (such as
    dispatch tables), as (label, mapping, setter)."""
    for mod in modules:
        yield mod.__name__, vars(mod), functools.partial(setattr, mod)
        for attr, obj in list(vars(mod).items()):
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                yield f"{mod.__name__}.{attr}", vars(obj), functools.partial(setattr, obj)
            elif isinstance(obj, dict):
                yield f"{mod.__name__}.{attr}", obj, obj.__setitem__


def _references(obj):
    """Callables directly inside a tuple, list or set that cannot be patched in place."""
    if isinstance(obj, (tuple, list, set, frozenset)):
        return [o for o in obj if callable(o)]
    return []


def install(out_dir, invocation: str) -> Tracer:
    """Trace every qmamp layer in this process; returns the active tracer."""
    global _active
    package = importlib.import_module("qmamp")
    modules = {layer: importlib.import_module(f"qmamp.{layer}") for layer in LAYERS}
    tracer = Tracer(out_dir, invocation)

    wrappers = {}  # id(original) -> (original, wrapper); holding the original keeps its id unique
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", obj))
    for qualname in METHODS:
        layer, cls, meth = qualname.split(".")
        obj = vars(getattr(modules[layer], cls))[meth]
        wrappers[id(obj)] = (obj, _wrap(tracer, qualname, obj))
    pool = concurrent.futures.process.ProcessPoolExecutor
    wrappers[id(pool)] = (pool, _TracedPool)
    concurrent.futures.ProcessPoolExecutor = _TracedPool
    concurrent.futures.process.ProcessPoolExecutor = _TracedPool

    spaces = list(_namespaces([package, *modules.values()]))
    for _, mapping, setter in spaces:
        for key, obj in list(mapping.items()):
            if id(obj) in wrappers:
                setter(key, wrappers[id(obj)][1])
    for label, mapping, _ in spaces:
        for key, obj in mapping.items():
            if any(id(o) in wrappers for o in [obj, *_references(obj)]):
                tracer.unpatched.append(f"{label}.{key}")
    _active = tracer
    return tracer


def load_spans(trace_dir) -> tuple[list[dict], Counter]:
    spans, counters = [], Counter()
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                item = json.loads(line)
                if "counters" in item:
                    counters.update(item["counters"])
                else:
                    spans.append(item)
    return spans, counters


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_stats(spans: list[dict]) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name.

    Self time is a span's duration minus the part of it that child spans of
    the same process cover; spans of pool workers name their parent across
    processes but do not reduce its self time, which so holds the wait.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None and s["parent"].split(":")[0] == s["id"].split(":")[0]:
            children[s["parent"]].append((s["start"], s["end"]))
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        duration = s["end"] - s["start"]
        st = stats[s["name"]]
        st["calls"] += 1
        st["total_s"] += duration
        st["self_s"] += duration - _covered(
            (max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]
        )
    return dict(stats)

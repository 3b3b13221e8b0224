"""In-memory spans recorded around calls into phasewave's public functions.

The benchmark instruments the package from outside: `instrument` replaces
every public library function that the CLI imports or the package exports
with a wrapper that opens a span, then restores the originals.  No file of
the package changes.  A span is [name, layer, start_ns, end_ns, parent,
tag]; `tag` is whatever the caller set on the tracer when the span opened
(the benchmark sets it to the operation it is running).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LIBRARY_LAYERS = ("equilibrium", "modes", "lopatinskii", "kernel", "expsum", "simulate")
LAYERS = ("cli",) + LIBRARY_LAYERS

NAME, LAYER, START, END, PARENT, TAG = range(6)


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self.tag = None
        self._stack: list = []

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter_ns(), 0, parent, self.tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self.open(name, layer)
        try:
            yield idx
        finally:
            self.close(idx)


def duration_ns(span) -> int:
    return span[END] - span[START]


def self_times_ns(spans) -> list:
    """Self time of each span: its duration minus the part its direct
    children cover (a child never outlives its parent)."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration_ns(s)
    return [duration_ns(s) - c for s, c in zip(spans, child)]


def median_or_zero(values) -> float:
    """Median, or 0.0 when the function was never called in the run."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _traced(tracer: Tracer, fn, layer: str):
    name = f"{layer}.{fn.__name__}"
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    if "method" not in names:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # Functions with a `method` switch get one span name per method, so the
    # raw and closed routes of the same object are timed separately.
    pos = names.index("method")
    default = params[pos].default
    short = fn.__name__.replace("lopatinskii_", "")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        method = kwargs.get("method", args[pos] if len(args) > pos else default)
        idx = tracer.open(f"{layer}.{short}_{method}", layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _public_functions():
    """Library functions the CLI imports or the package exports, by layer."""
    import phasewave
    from phasewave import cli, expsum

    found = {cli.load_config: "cli"}
    sources = [vars(cli), {n: getattr(phasewave, n) for n in phasewave.__all__}]
    sources.append({"pair_bilinear": expsum.pair_bilinear, "pair_dot": expsum.pair_dot})
    for namespace in sources:
        for obj in namespace.values():
            if inspect.isfunction(obj):
                layer = obj.__module__.rpartition(".")[2]
                if layer in LIBRARY_LAYERS:
                    found[obj] = layer
    return found


def instrument(tracer: Tracer):
    """Wrap every public library function wherever the package refers to it.

    Returns a function that puts the originals back.
    """
    from phasewave.expsum import ExpProfile

    targets = _public_functions()
    wrappers = {fn: _traced(tracer, fn, layer) for fn, layer in targets.items()}
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "phasewave" or modname.startswith("phasewave.")):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
                undo.append((mod, attr, val))
    integral = ExpProfile.integral
    ExpProfile.integral = _traced(tracer, integral, "expsum")
    undo.append((ExpProfile, "integral", integral))

    def restore() -> None:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return restore

"""Spans recorded around calls into the forcedwaves layers.

The program is not instrumented.  `Tracer.install` replaces, in every loaded
`forcedwaves` module, each public function of each layer module (the names
in its `__all__`, or `main` for the CLI), plus a few named internals, by a
wrapper that records a span; `Tracer.uninstall` restores the originals.  An
untraced pass therefore runs the unmodified program.

A span is (op, name, start_ns, end_ns, parent): `op` is the index of the
benchmark op that caused it, `parent` the index of the enclosing span or -1.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
import types
import warnings
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

PACKAGE = "forcedwaves"
LAYER_MODULES = ("environment", "oracles", "localsolve", "wavesolver",
                 "pdesim", "analysis", "cli")

# (module, attribute path, span name): internals and foreign bindings that
# carry the work but are not in any __all__
EXTRA_FUNCTIONS = (
    ("wavesolver", "discrete_residual", "wavesolver.discrete_residual"),
    ("environment", "EnvironmentProfile.a", "environment.profile_a"),
    ("environment", "ExpTail.slow_scale", "environment.slow_scale"),
    ("environment", "Algebraic.slow_scale", "environment.slow_scale"),
    ("environment", "IteratedLog.slow_scale", "environment.slow_scale"),
    ("environment", "Power.slow_scale", "environment.slow_scale"),
    ("wavesolver", "solve_banded", "linalg.solve_banded"),
    ("pdesim", "solve_banded", "linalg.solve_banded"),
    ("environment", "integrate.quad", "environment.quad"),
)

# factories whose returned callables are the timed work
MONITOR_FACTORIES = ("distance_monitor", "residual_monitor",
                     "front_position_monitor")


class Span(NamedTuple):
    op: int
    name: str
    start: int
    end: int
    parent: int


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are merged, so covered time is never counted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[j].start, s.start),
                              min(spans[j].end, s.end)) for j in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def aggregate(spans: list) -> dict:
    """name -> {"calls", "self_ns", "incl_ns"}.  Inclusive time counts only
    outermost spans of a name, so recursion through one name is not doubled."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "self_ns": 0, "incl_ns": 0})
    for i, s in enumerate(spans):
        rec = agg[s.name]
        rec["calls"] += 1
        rec["self_ns"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            rec["incl_ns"] += s.end - s.start
    return dict(agg)


class _ModuleProxy(types.ModuleType):
    """Stands in for a foreign module bound inside a layer (scipy.integrate
    in environment) so one attribute can be wrapped for that layer only."""

    def __init__(self, real: types.ModuleType, overrides: dict):
        super().__init__(real.__name__)
        self.__dict__.update(overrides)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.active = False
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, returns_callable: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = Span(tracer.op, name, t0, t1, parent)
            if returns_callable and callable(out):
                return tracer._wrap("pdesim.monitor", out)
            return out
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        """Root span of one benchmark op; program calls inside become its
        children."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = Span(op, name, t0, t1, -1)

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not program work."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind `original` to `wrapper` in every loaded package module, so
        calls through `from .x import f` bindings are traced too."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            names = getattr(mod, "__all__", None) or ["main"]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                if not isinstance(fn, types.FunctionType):
                    continue  # classes and constants are not calls
                self._replace_everywhere(
                    fn, self._wrap(f"{layer}.{name}", fn,
                                   returns_callable=name in MONITOR_FACTORIES))
        for layer, path, span_name in EXTRA_FUNCTIONS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{layer}.{path}")
                continue
            wrapper = self._wrap(span_name, fn)
            if isinstance(owner, type):
                if attr not in vars(owner):  # inherited, not its own method
                    self.missing.append(f"{layer}.{path}")
                    continue
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            elif owner is mod:
                self._replace_everywhere(fn, wrapper)
            else:  # attribute of a foreign module bound in the layer
                proxy = _ModuleProxy(owner, {attr: wrapper})
                self._patches.append((mod, owner_path, owner))
                setattr(mod, owner_path, proxy)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.active = False

    @contextlib.contextmanager
    def recording(self):
        self.install()
        self.active = True
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


@contextlib.contextmanager
def counting_warnings(category_name: str, sink: Optional[list]):
    """Count warnings whose class is named `category_name` into sink[0];
    with sink None all warnings are silenced and nothing is counted."""
    with warnings.catch_warnings(record=sink is not None) as caught:
        warnings.simplefilter("always" if sink is not None else "ignore")
        yield
    if sink is not None:
        sink[0] += sum(type(w.message).__name__ == category_name
                       for w in caught)

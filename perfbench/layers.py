"""Outside-in layer tracing for the benchmark's traced runs.

The program under test is not instrumented for this.  Instead, the
traced run replaces the public entry points of each layer with timing
wrappers, from the benchmark's own files, and restores them afterwards.
Each wrapped call is a span; a layer's *self time* is the duration of
its spans minus the part covered by spans nested inside them, so the
self times of all layers plus the unattributed remainder add up to the
traced wall time.

Wrapping a per-call entry point costs about a microsecond per call.
That is real money on the FFI boundary (``sat.load`` and ``sat.read``
make hundreds of thousands of calls per suite pass), so those layers'
shares are inflated in traced runs; ``trace_overhead_frac`` says by
how much the traced run as a whole was slowed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "IN_PROCESS_TARGETS", "DAEMON_TARGETS"]

# (layer, module, class or None for a module function, attribute).
# Entry points are the public calls one layer makes into the next.
IN_PROCESS_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("bmc.driver", "repro.bmc.session", "BmcSession", "check"),
    ("bmc.driver", "repro.bmc.session", "BmcSession", "sweep"),
    ("bmc.jsat", "repro.bmc.jsat", "JsatSolver", "solve"),
    ("system.frame", "repro.system.model", "TransitionSystem",
     "trans_between"),
    ("logic.encode", "repro.logic.tseitin", "TseitinEncoder", "encode"),
    ("logic.encode", "repro.logic.tseitin", "TseitinEncoder",
     "assert_expr"),
    ("system.validate", "repro.system.trace", "Trace", "validate"),
    ("reduce", "repro.reduce", None, "identity_reduction"),
    ("reduce", "repro.reduce", None, "reduce_for_target"),
)

# Daemon-side layers of ``repro serve``; the worker's solve time is
# reported by the daemon itself (``wall_seconds`` on every result).
DAEMON_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("reduce", "repro.serve.daemon", None, "identity_reduction"),
    ("reduce", "repro.serve.daemon", None, "reduce_for_target"),
    ("models.build", "repro.serve.daemon", None, "build_suite"),
    ("sim.presolve", "repro.sim", None, "presolve"),
)

# The SAT engine's FFI entry points, wrapped on the engine class the
# process actually instantiates (see ``LayerTracer.install_engine``).
_ENGINE_TARGETS = (
    ("sat.load", "add_clause"),
    ("sat.solve", "solve"),
    ("sat.read", "model_value"),
    ("sat.read", "model"),
    ("sat.read", "core"),
)

_SOLVER_COUNTERS = ("conflicts", "propagations", "decisions")


class LayerTracer:
    """Span stack plus per-layer totals: calls, self seconds, counts."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # One accumulator of child-span time per open span.
        self._stack: List[float] = []
        self._restore: List[Tuple[object, str, object, bool]] = []
        self._live_solvers: "weakref.WeakSet" = weakref.WeakSet()
        self._paused = False

    # ------------------------------------------------------------------
    def _close(self, layer: str, start: float) -> None:
        duration = time.perf_counter() - start
        child = self._stack.pop()
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        if self._stack:
            self._stack[-1] += duration

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark's own code."""
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            yield
        finally:
            self._close(layer, start)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own verdict checks) are
        not recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, name: str, amount: int) -> None:
        """Add to a per-layer work counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrapped(self, layer: str, fn: Callable,
                 clauses: bool = False) -> Callable:
        stack = self._stack
        close = self._close

        if clauses:
            # Encoder calls also report the clauses they emitted.
            @functools.wraps(fn)
            def encode_wrapper(encoder, *args, **kwargs):
                if self._paused:
                    return fn(encoder, *args, **kwargs)
                before = len(encoder.cnf.clauses)
                start = time.perf_counter()
                stack.append(0.0)
                try:
                    return fn(encoder, *args, **kwargs)
                finally:
                    close(layer, start)
                    self.count("logic.clauses",
                               len(encoder.cnf.clauses) - before)
            return encode_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer, start)
        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object
               ) -> None:
        own = attr in vars(owner)
        self._restore.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    def install(self, targets) -> None:
        """Wrap every ``(layer, module, class, attribute)`` target."""
        for layer, module_name, class_name, attr in targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self._patch(owner, attr,
                        self._wrapped(layer, getattr(owner, attr),
                                      clauses=(layer == "logic.encode")))

    def install_engine(self, engine_cls: type) -> None:
        """Wrap the SAT engine's FFI calls and collect its counters.

        Search counters are read once per solver, when it is freed (or
        at :meth:`finish` for solvers still alive), instead of around
        every solve call: jSAT makes ~100k solve calls per suite pass.
        """
        for layer, attr in _ENGINE_TARGETS:
            self._patch(engine_cls, attr,
                        self._wrapped(layer, getattr(engine_cls, attr)))
        live = self._live_solvers
        original_init = engine_cls.__init__
        original_del = engine_cls.__del__

        @functools.wraps(original_init)
        def init(solver, *args, **kwargs):
            original_init(solver, *args, **kwargs)
            live.add(solver)

        @functools.wraps(original_del)
        def finalize(solver):
            self._add_solver_counters(solver)
            original_del(solver)

        self._patch(engine_cls, "__init__", init)
        self._patch(engine_cls, "__del__", finalize)

    def _add_solver_counters(self, solver) -> None:
        # A solver is counted once: when freed, or at finish() if it
        # is still alive then (the flag stops a later free recounting).
        if getattr(solver, "_bench_counted", False) or \
                not getattr(solver, "_h", None):
            return
        solver._bench_counted = True
        stats = solver.stats
        for name in _SOLVER_COUNTERS:
            self.count(f"sat.{name}", getattr(stats, name))

    def finish(self) -> None:
        """Collect the counters of solvers still alive, then restore
        every wrapped entry point."""
        gc.collect()
        for solver in list(self._live_solvers):
            self._add_solver_counters(solver)
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        """Total self time claimed by the layers."""
        return sum(self.self_s.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Serialisable totals (used to ship the daemon's trace)."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def merge(self, data: Dict[str, Dict[str, float]]) -> None:
        """Add totals produced by another process."""
        for layer, n in data.get("calls", {}).items():
            self.calls[layer] = self.calls.get(layer, 0) + n
        for layer, s in data.get("self_s", {}).items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + s
        for name, n in data.get("counts", {}).items():
            self.count(name, n)

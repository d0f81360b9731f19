"""The kernel engine: the compiled CDCL core behind ``make_solver``.

:class:`KernelSolver` is a thin ctypes shim over ``ckernel.c`` (built
and loaded by :mod:`repro.sat.ckernel`), an array-based CDCL core with
the public surface of the pure reference solver
(:class:`repro.sat.solver.CdclSolver`):

* **clause arena** — every clause lives in one flat uint32 array; a
  clause reference is an arena index, so propagation and analysis
  never chase per-clause objects;
* **lazy watcher lists with blocker literals** — a satisfied blocker
  skips the clause without touching the arena, and watcher lists are
  compacted in place;
* **EVSIDS branching with decay and phase saving**, **reluctant-
  doubling restarts** (Knuth's (u, v) pair for the Luby sequence) and
  **LBD-aged learnt-clause GC** with arena compaction.

:func:`make_solver` is the one place that picks an engine (flag
``solver="kernel"|"reference"`` on every backend, env
``REPRO_SAT_KERNEL``).  ``"kernel"`` gets this class when the compiled
core loads and no proof sink is asked for; otherwise — no C compiler,
or a resolution/DRAT proof to log for UNSAT cores and Craig
interpolation — it gets the reference solver, which logs both proof
kinds.  :func:`engine_provenance` says which one this process gets.
Semantics are pinned to the reference by the differential suite in
``tests/test_kernel_differential.py``: both engines must return
identical verdicts on every workload.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from . import ckernel as _ckernel
from .proof import ResolutionProof
from .solver import CdclSolver, SolverStats
from .types import (Budget, SolveResult, resolve_engine,
                    stop_check_installed, stop_requested)

__all__ = ["KernelSolver", "CompiledCoreUnavailable", "make_solver",
           "engine_provenance"]

_UNLIMITED = 1 << 62     # sentinel for "no countable budget limit"

#: Live cancellation probe handed across the FFI boundary.  Must stay
#: referenced at module level so the ctypes thunk is never collected.
_STOP_PROBE = _ckernel.STOP_CB(lambda: 1 if stop_requested() else 0)


def _lim(value: int | None) -> int:
    return _UNLIMITED if value is None else value


#: ``bytes.translate`` table mapping a model byte (1 true, 0xff false,
#: 0 unassigned) to 1 iff true.
_TRUE_BYTE = bytes(1 if b == 1 else 0 for b in range(256))


def _int32_view(values: Sequence[int]):
    """A ctypes int32 array over ``values`` (copied once into an
    ``array('i')`` unless it already is one)."""
    if not (isinstance(values, array) and values.typecode == "i"):
        values = array("i", values)
    return (ctypes.c_int32 * len(values)).from_buffer(values)


class CompiledCoreUnavailable(RuntimeError):
    """The compiled core could not be built or loaded (no C compiler,
    or the build failed; ``REPRO_SAT_CC_DEBUG=1`` shows why)."""


class _CKernelStats:
    """``SolverStats`` facade reading counters live from the C core.

    Exposes exactly the reference counter vocabulary (every
    ``SolverStats`` slot, same names) so telemetry and budget-slicing
    callers never notice which engine produced the numbers.
    """

    _IDX = {"conflicts": 0, "decisions": 1, "propagations": 2,
            "restarts": 3, "learned": 4, "deleted": 5, "purged": 6,
            "db_literals": 7, "peak_db_literals": 8,
            "minimized_literals": 9}

    __slots__ = ("_lib", "_h", "solve_calls")

    def __init__(self, lib, handle) -> None:
        self._lib = lib
        self._h = handle
        self.solve_calls = 0

    def __getattr__(self, name: str) -> int:
        idx = _CKernelStats._IDX.get(name)
        if idx is None:
            raise AttributeError(name)
        return self._lib.ck_stat(self._h, idx)

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot keyed by the shared stat names (one
        ``ck_stats`` call for every counter)."""
        buf = (ctypes.c_int64 * len(_CKernelStats._IDX))()
        self._lib.ck_stats(self._h, buf, len(buf))
        out = {name: buf[idx] for name, idx in _CKernelStats._IDX.items()}
        out["solve_calls"] = self.solve_calls
        return {name: out[name] for name in SolverStats.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        return f"_CKernelStats({self.as_dict()})"


class KernelSolver:
    """The kernel engine: CDCL on the compiled core, no proof logging.

    Every method is a thin ctypes shim over ``ckernel.c``.  Raises
    :class:`CompiledCoreUnavailable` when the core cannot be loaded;
    :func:`make_solver` checks first and hands out the reference
    solver instead.
    """

    engine = "kernel"
    backend = "compiled"

    def __init__(self) -> None:
        lib = _ckernel.load_core()
        if lib is None:
            raise CompiledCoreUnavailable(
                "no compiled SAT core (no C compiler, or the build "
                "failed); use make_solver() or the reference engine")
        self._lib = lib
        self._h = lib.ck_new()
        self.stats = _CKernelStats(lib, self._h)

    def __del__(self) -> None:
        h = getattr(self, "_h", None)
        if h:
            self._h = None
            try:
                self._lib.ck_free(h)
            except (AttributeError, OSError):  # pragma: no cover
                pass

    @property
    def ok(self) -> bool:
        """False once the clause set is known unsatisfiable."""
        return bool(self._lib.ck_ok(self._h))

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its DIMACS index."""
        return self._lib.ck_new_var(self._h)

    def ensure_vars(self, up_to: int) -> None:
        """Make sure variables ``1..up_to`` exist."""
        self._lib.ck_ensure_vars(self._h, up_to)

    @property
    def num_vars(self) -> int:
        """Number of allocated variables."""
        return self._lib.ck_num_vars(self._h)

    def fixed_value(self, dimacs_lit: int) -> Optional[bool]:
        """Value of a literal fixed at decision level 0, else None."""
        a = self._lib.ck_fixed_value(self._h, dimacs_lit)
        return None if a == 0 else a > 0

    def set_default_phase(self, dimacs_var: int, phase: bool) -> None:
        """Seed the saved phase of a variable (decision polarity)."""
        self._lib.ck_set_phase(self._h, abs(dimacs_var),
                               1 if phase else 0)

    def add_clause(self, dimacs_lits: Iterable[int]) -> bool:
        """Add a clause; returns False iff the formula is now UNSAT."""
        lits = list(dimacs_lits)
        arr = (ctypes.c_int32 * len(lits))(*lits)
        return bool(self._lib.ck_add_clause(self._h, arr, len(lits)))

    def add_clauses(self, clause_list: Iterable[Iterable[int]]) -> bool:
        """Add many clauses in one FFI call; returns False if the
        formula is UNSAT afterwards."""
        lits = array("i")
        ends = array("i")
        for clause in clause_list:
            lits.extend(clause)
            ends.append(len(lits))
        return self.add_clauses_flat(lits, ends)

    def add_clauses_flat(self, lits: Sequence[int],
                         ends: Sequence[int]) -> bool:
        """Add clauses given flat, with one ``ck_add_clauses`` call:
        clause i is ``lits[ends[i-1]:ends[i]]`` (the first starts at
        0).  Returns the ``ok`` flag afterwards."""
        lit_buf = _int32_view(lits)
        end_buf = _int32_view(ends)
        ok = self._lib.ck_add_clauses(self._h, lit_buf, len(lit_buf),
                                      end_buf, len(end_buf))
        if ok < 0:
            raise ValueError("clause ends must be non-decreasing and "
                             "within the literal array")
        return bool(ok)

    def purge_satisfied(self) -> int:
        """Physically delete clauses satisfied at level 0 (jSAT
        group retirement); returns the number purged."""
        return self._lib.ck_purge_satisfied(self._h)

    def solve(self, assumptions: Sequence[int] = (),
              budget: Budget | None = None) -> SolveResult:
        """Decide satisfiability under the given assumptions.

        Returns SAT / UNSAT / UNKNOWN (budget exhausted).  After SAT,
        :meth:`model_value` reads the model; after UNSAT under
        assumptions, :meth:`core` gives the failed-assumption subset.
        Emits the same ``sat.solve`` telemetry span and counters as the
        reference engine.
        """
        tracer = current_tracer()
        registry = current_metrics()
        if not tracer.enabled and not registry.enabled:
            return self._solve(assumptions, budget)

        stats = self.stats
        before = (stats.conflicts, stats.decisions, stats.propagations,
                  stats.restarts, stats.learned)
        start = time.monotonic()
        with tracer.span("sat.solve", assumptions=len(assumptions),
                         engine=self.engine) as sp:
            result = self._solve(assumptions, budget)
            sp.set(result=result.name,
                   conflicts=stats.conflicts - before[0],
                   decisions=stats.decisions - before[1],
                   propagations=stats.propagations - before[2],
                   db_literals=stats.db_literals)
        registry.inc("sat.solve_calls")
        registry.inc("sat.conflicts", stats.conflicts - before[0])
        registry.inc("sat.decisions", stats.decisions - before[1])
        registry.inc("sat.propagations", stats.propagations - before[2])
        registry.inc("sat.restarts", stats.restarts - before[3])
        registry.inc("sat.learned", stats.learned - before[4])
        registry.gauge("sat.db_literals", stats.db_literals)
        registry.gauge_max("sat.peak_db_literals", stats.peak_db_literals)
        registry.observe("sat.solve_seconds", time.monotonic() - start)
        return result

    def _solve(self, assumptions: Sequence[int] = (),
               budget: Budget | None = None) -> SolveResult:
        """Uninstrumented body of :meth:`solve` (C core dispatch)."""
        self.stats.solve_calls += 1
        b = budget or Budget.unlimited()
        if b.deadline is not None:
            deadline = b.deadline
        elif b.max_seconds is not None:
            deadline = time.monotonic() + b.max_seconds
        else:
            deadline = -1.0
        # Pre-expired deadlines / pending cancellations must stop the
        # call before level-0 propagation, like the reference engine.
        if (deadline >= 0.0 and time.monotonic() > deadline) \
                or stop_requested():
            return SolveResult.UNKNOWN
        assumps = list(assumptions)
        arr = (ctypes.c_int32 * len(assumps))(*assumps)
        probe = _STOP_PROBE if stop_check_installed() \
            else _ckernel.STOP_CB()
        res = self._lib.ck_solve(
            self._h, arr, len(assumps),
            _lim(b.max_conflicts), _lim(b.max_decisions),
            _lim(b.max_propagations), _lim(b.max_literals),
            deadline, probe)
        if res == 1:
            return SolveResult.SAT
        if res == 0:
            return SolveResult.UNSAT
        return SolveResult.UNKNOWN

    def model_value(self, dimacs_var: int) -> Optional[bool]:
        """Value of a variable in the last model (None if unassigned)."""
        a = self._lib.ck_model_value(self._h, abs(dimacs_var))
        if a == 0:
            return None
        return (a > 0) if dimacs_var > 0 else (a < 0)

    def model(self) -> Dict[int, bool]:
        """The last satisfying assignment as var -> bool."""
        n = self._lib.ck_num_vars(self._h)
        buf = (ctypes.c_int8 * (n + 1))()
        mn = self._lib.ck_copy_model(self._h, buf, n)
        return {v: buf[v] > 0 for v in range(1, min(mn, n) + 1)
                if buf[v] != 0}

    def model_bits(self) -> bytes:
        """The last model in one ``ck_copy_model`` call: byte ``v`` is
        1 iff variable ``v`` is true (slot 0 unused)."""
        n = self._lib.ck_num_vars(self._h)
        buf = (ctypes.c_int8 * (n + 1))()
        self._lib.ck_copy_model(self._h, buf, n)
        return bytes(buf).translate(_TRUE_BYTE)

    def core(self) -> List[int]:
        """Failed assumption literals of the last UNSAT-under-
        assumptions call (DIMACS form, sorted by variable)."""
        n = self._lib.ck_core_size(self._h)
        if not n:
            return []
        buf = (ctypes.c_int32 * n)()
        self._lib.ck_copy_core(self._h, buf)
        return sorted(set(buf), key=abs)

    def num_clauses(self) -> int:
        """Number of attached problem clauses (excludes learnt)."""
        return self._lib.ck_num_clauses(self._h)

    def num_learnts(self) -> int:
        """Number of learnt clauses currently retained."""
        return self._lib.ck_num_learnts(self._h)


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def make_solver(engine: str | None = None,
                proof: ResolutionProof | None = None):
    """Build a SAT solver for the requested engine.

    ``engine`` is ``"kernel"`` (the compiled core in this module),
    ``"reference"`` (the pure-Python :class:`CdclSolver` the kernel is
    differentially pinned against), or None / ``"auto"`` to resolve the
    process default from ``REPRO_SAT_KERNEL`` (kernel when unset).
    ``"kernel"`` gets the reference solver when the compiled core is
    unavailable or a ``proof`` sink is passed (only the reference logs
    proofs).  Both engines share one public surface and one
    :class:`SolverStats` vocabulary, so callers never branch on the
    engine.

    >>> s = make_solver()
    >>> s.add_clause([1, 2]), s.add_clause([-1, 2])
    (True, True)
    >>> s.solve() is SolveResult.SAT, s.model_value(2)
    (True, True)
    """
    if resolve_engine(engine) == "kernel" and proof is None \
            and _ckernel.load_core() is not None:
        return KernelSolver()
    return CdclSolver(proof=proof)


def engine_provenance() -> str:
    """One line naming the engine :func:`make_solver` returns in this
    process (with the loaded core's path, or why the kernel is not
    used)."""
    solver = make_solver()
    if isinstance(solver, KernelSolver):
        return f"kernel (compiled core, {solver._lib._name})"
    if resolve_engine() == "kernel":
        return "reference (kernel requested; no compiled core)"
    return "reference (requested)"

"""Incremental BMC: one CDCL solver across an entire bound sweep.

Classical BMC (``method="sat-unroll"``) builds a fresh solver for
every bound, throwing away the whole clause database — k shared
transition frames *and* every learnt clause — between k and k+1.  This
module keeps **one** solver alive for the whole sweep:

* each new bound adds exactly one transition frame to a
  :class:`~repro.bmc.frames.FrameStack`: the TR clauses of a
  :class:`~repro.bmc.frames.FrameTemplate`, encoded once per driver
  and placed on fresh variables by integer offset (frames 0..k-1 and
  the init constraint carry over verbatim);
* bound k's final-state constraint F(Z_k) is activated through an
  assumption *group literal* ``g_k``: the clause ``(-g_k, f_k)`` only
  bites while ``g_k`` is assumed, and once the bound is passed the
  group is permanently retired with the unit ``-g_k`` — exactly the
  retractable-constraint idiom jSAT uses (see :mod:`repro.sat.solver`),
  after which ``purge_satisfied`` physically reclaims the constraint
  and every learnt clause derived from it;
* learnt clauses not derived from a retired final constraint are
  resolvents of the carried-over frames and therefore stay valid for
  every later bound — the incremental-SAT speedup of Biere et al.'s
  linear encodings and of incremental symbolic BMC.

Because the sweep asks exact-k queries in increasing order, the first
SAT answer is the *shortest* counterexample, and no strict prefix of
its witness reaches the target (otherwise an earlier bound would have
answered SAT).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult, resolve_engine
from ..system.model import TransitionSystem
from ..system.trace import Trace
# The sweep record types and the shared ladder loop live with the
# Backend protocol; re-exported here for the callers that historically
# imported them from this module.
from .backend import (BoundResult, SweepBudget, SweepResult,  # noqa: F401
                      drive_sweep, emit_bound)
from .frames import FrameStack, FrameTemplate

__all__ = ["IncrementalBmc", "BoundResult", "SweepResult", "SweepBudget",
           "emit_bound"]


class IncrementalBmc:
    """Exact-k reachability over a growing unrolling, one solver for all.

    Parameters
    ----------
    system, final:
        The reachability query family: is a state satisfying ``final``
        reachable from init in exactly k steps, for k = 0, 1, 2, ...?
    polarity_reduction:
        Use Plaisted–Greenbaum definitions for the frame encodings
        (sound here: every constraint is used positively).
    solver:
        SAT engine for the long-lived solver: ``"kernel"`` or
        ``"reference"`` (None defers to the process default).

    Example
    -------
    >>> from repro.models import counter
    >>> system, final, depth = counter.make(3, 5)
    >>> result = IncrementalBmc(system, final).sweep(depth + 1)
    >>> result.shortest_k == depth
    True
    """

    def __init__(self, system: TransitionSystem, final: Expr,
                 polarity_reduction: bool = False,
                 solver: Optional[str] = None) -> None:
        stray = final.support() - set(system.state_vars)
        if stray:
            raise ValueError(f"final predicate uses non-state vars: {stray}")
        self.system = system
        self.final = final
        self.polarity_reduction = polarity_reduction
        self.engine = resolve_engine(solver)
        self.template = FrameTemplate(system, final, polarity_reduction)
        self.stack = FrameStack(self.template, self.engine)

    @property
    def k(self) -> int:
        """Transition frames encoded on the main stack."""
        return self.stack.k

    @property
    def solver(self):
        """The main stack's long-lived solver."""
        return self.stack.solver

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def check_bound(self, k: int, budget: Budget | None = None
                    ) -> Tuple[SolveResult, Optional[Trace], Dict[str, int]]:
        """Decide exact-k reachability, reusing all prior work.

        Returns ``(status, trace, stats)``; the trace is the length-k
        witness on SAT.  The bound may be queried repeatedly; a bound
        below the frames already encoded is answered by the stack's
        auxiliary low stack (:meth:`FrameStack.driver_for`).
        """
        if k < 0:
            raise ValueError("bound k must be non-negative")
        stack = self.stack.driver_for(k)
        solver = stack.solver
        clauses_before = solver.num_clauses()
        learnts_before = solver.num_learnts()
        conflicts_before = solver.stats.conflicts
        decisions_before = solver.stats.decisions
        propagations_before = solver.stats.propagations
        stack.ensure_frames(k)
        g = stack.groups.get(k)
        if g is None:
            g = stack.activate(k, stack.root(self.template.target, k))
        status = solver.solve([g], budget=budget)
        trace = stack.trace(k) if status is SolveResult.SAT else None
        stats = {
            "trans_frames": stack.k,
            "clauses_reused": clauses_before,
            "clauses_added": solver.num_clauses() - clauses_before,
            "learnts_retained": learnts_before,
            "learnts_now": solver.num_learnts(),
            "vars": solver.num_vars,
            "db_literals": solver.stats.db_literals,
            "peak_db_literals": solver.stats.peak_db_literals,
            "solver_conflicts": solver.stats.conflicts - conflicts_before,
            "solver_decisions": solver.stats.decisions - decisions_before,
            "solver_propagations":
                solver.stats.propagations - propagations_before,
        }
        return status, trace, stats

    def retire_bound(self, k: int) -> None:
        """Permanently disable bound k's final constraint, on both the
        main and the low stack (after check_bound(3), check_bound(5),
        check_bound(3) both hold a group for bound 3; retiring only one
        would leave the other's unreclaimable forever)."""
        self.stack.retire(k)

    # ------------------------------------------------------------------
    def sweep(self, max_k: int, budget: Budget | None = None,
              on_bound=None) -> SweepResult:
        """Sweep bounds 0..max_k; stop at the shortest counterexample.

        The budget is global across the whole sweep (one deadline, one
        conflict pool), mirroring how a fresh per-bound run would split
        the same resources.  ``on_bound`` (an ``on_bound(BoundResult)``
        callable) streams each bound's record as it lands — the
        progress hook :class:`repro.bmc.session.BmcSession` exposes.
        """
        if max_k < 0:
            raise ValueError("max_k must be non-negative")
        def check(k: int, remaining: Budget | None):
            return self.check_bound(k, budget=remaining)
        return drive_sweep("sat-incremental", max_k, range(max_k + 1),
                           check, budget=budget, on_bound=on_bound,
                           after_unsat=self.retire_bound)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"IncrementalBmc({self.system.name!r}, frames={self.k}, "
                f"clauses={self.solver.num_clauses()})")

"""Incremental BMC: one CDCL solver across an entire bound sweep.

Classical BMC (``method="sat-unroll"``) builds a fresh solver for
every bound, throwing away the whole clause database — k shared
transition frames *and* every learnt clause — between k and k+1.  This
module keeps **one** solver alive for the whole sweep:

* each new bound adds exactly one transition frame: the TR clauses of
  a :class:`~repro.bmc.frames.FrameTemplate`, encoded once per driver
  and placed on fresh variables by integer offset (frames 0..k-1 and
  the init constraint carry over verbatim);
* bound k's final-state constraint F(Z_k) is activated through an
  assumption *group literal* ``g_k``: the clause ``(-g_k, f_k)`` only
  bites while ``g_k`` is assumed, and once the bound is passed the
  group is permanently retired with ``add_clause([-g_k])`` — exactly
  the retractable-constraint idiom jSAT uses (see
  :mod:`repro.sat.solver`), after which ``purge_satisfied`` physically
  reclaims the constraint and every learnt clause derived from it;
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

from typing import Dict, List, Optional, Tuple

from ..logic.expr import Expr
from ..sat.kernel import make_solver
from ..sat.types import Budget, SolveResult, resolve_engine
from ..system.model import TransitionSystem
from ..system.trace import Trace
from ..telemetry.trace import current_tracer
# The sweep record types and the shared ladder loop live with the
# Backend protocol; re-exported here for the callers that historically
# imported them from this module.
from .backend import (BoundResult, SweepBudget, SweepResult,  # noqa: F401
                      drive_sweep, emit_bound)
from .frames import ClauseTemplate, FrameTemplate

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
    purge_interval:
        Retired final-constraint groups are physically reclaimed every
        this many retirements (1 = immediately).
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
                 purge_interval: int = 4,
                 solver: Optional[str] = None) -> None:
        stray = final.support() - set(system.state_vars)
        if stray:
            raise ValueError(f"final predicate uses non-state vars: {stray}")
        self.system = system
        self.final = final
        self.polarity_reduction = polarity_reduction
        self.purge_interval = max(1, purge_interval)
        self.engine = resolve_engine(solver)
        self.template = FrameTemplate(system, final, polarity_reduction)
        self.solver = make_solver(self.engine)
        self._num_vars = 0
        self._groups: Dict[int, int] = {}      # bound -> live group literal
        self._retired_since_purge = 0
        self.k = 0                             # transition frames encoded
        # Auxiliary driver answering bounds below self.k (see
        # check_bound); grows ascending like any driver, so a sweep
        # after a deep check reuses one encoding instead of building a
        # throwaway per bound.
        self._low: Optional["IncrementalBmc"] = None
        # Z_i is variables z_base[i]+1 .. z_base[i]+n; the inputs X_i
        # of transition frame i start right after x_base[i].
        self._z_base: List[int] = [self._alloc(self.template.n)]
        self._x_base: List[int] = []
        self._load(self.template.init, 0)

    # ------------------------------------------------------------------
    # Template placement: instantiated clauses -> live solver
    # ------------------------------------------------------------------
    def _alloc(self, count: int) -> int:
        """Reserve ``count`` fresh variables; returns the base before."""
        base = self._num_vars
        self._num_vars += count
        return base

    def _load(self, template: ClauseTemplate, z_base: int) -> int:
        """Place ``template`` with Z at ``z_base`` and everything else on
        fresh variables, into the solver; returns the rest base."""
        rest_base = self._alloc(template.rest)
        self.solver.ensure_vars(self._num_vars)
        self.solver.add_clauses_flat(template.placed(z_base, rest_base),
                                     template.ends)
        return rest_base

    def extend(self) -> int:
        """Add one transition frame TR(Z_k, Z_{k+1}); returns clauses added.

        Everything previously encoded — init, earlier frames, learnt
        clauses — stays in the solver untouched.
        """
        i = self.k
        tpl = self.template
        with current_tracer().span("encode.frame", frame=i + 1) as sp:
            # Template order after Z is X_i, aux_i, Z_{i+1}.
            rest_base = self._load(tpl.trans, self._z_base[i])
            self._x_base.append(rest_base)
            self._z_base.append(rest_base + tpl.width - tpl.n)
            self.k += 1
            added = len(tpl.trans.ends)
            sp.set(clauses=added)
        return added

    def _final_group(self, k: int) -> int:
        """Group literal activating F(Z_k) (allocated on first use).

        Group variables are reserved like every other variable, so
        they can never collide with frames added by later ``extend``s.
        """
        g = self._groups.get(k)
        if g is not None:
            return g
        target = self.template.target
        z_base = self._z_base[k]
        lit = target.place_lit(target.root, z_base,
                               self._load(target, z_base))
        g = self._alloc(1) + 1
        self.solver.ensure_vars(g)
        self.solver.add_clause([-g, lit])
        self._groups[k] = g
        return g

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def check_bound(self, k: int, budget: Budget | None = None
                    ) -> Tuple[SolveResult, Optional[Trace], Dict[str, int]]:
        """Decide exact-k reachability, reusing all prior work.

        Returns ``(status, trace, stats)``; the trace is the length-k
        witness on SAT.  The bound may be queried repeatedly; a bound
        *below* the frames already encoded is answered by an auxiliary
        driver (kept, and itself grown ascending, so e.g. a sweep after
        a deep check reuses one encoding), because frames k+1..self.k
        are asserted unconditionally and, for a transition relation
        that is not total, would exclude witnesses whose final state
        has no successor (spurious UNSAT).
        """
        if k < 0:
            raise ValueError("bound k must be non-negative")
        if k < self.k:
            low = self._low
            if low is None or k < low.k:
                # Replace rather than chain: a long-lived session must
                # stay bounded at two drivers.  Monotone patterns (the
                # advertised sweep-after-deep-check) reuse the one low
                # driver ascending; a strictly descending probe pays
                # one re-encode per step — the same cost as the
                # pre-session per-call baseline, never more.
                low = IncrementalBmc(
                    self.system, self.final,
                    polarity_reduction=self.polarity_reduction,
                    purge_interval=self.purge_interval,
                    solver=self.engine)
                self._low = low
            return low.check_bound(k, budget=budget)
        solver = self.solver
        clauses_before = solver.num_clauses()
        learnts_before = solver.num_learnts()
        conflicts_before = solver.stats.conflicts
        decisions_before = solver.stats.decisions
        propagations_before = solver.stats.propagations
        while self.k < k:
            self.extend()
        g = self._final_group(k)
        status = solver.solve([g], budget=budget)
        trace = self.extract_trace(k) if status is SolveResult.SAT else None
        stats = {
            "trans_frames": self.k,
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
        """Permanently disable bound k's final constraint.

        Adds the unit ``-g_k`` — every clause carrying ``-g_k`` (the
        constraint and all learnt clauses derived from it) becomes
        satisfied at level 0 and is physically reclaimed on the next
        purge, exactly as jSAT retires its blocking-clause groups.
        Retirement always also reaches the auxiliary low-bound driver
        (see :meth:`check_bound`): after an interleaving like
        check_bound(3), check_bound(5), check_bound(3), BOTH drivers
        hold a group for bound 3, and retiring only one would leave the
        other's constraint clauses unreclaimable forever.
        """
        if self._low is not None:
            self._low.retire_bound(k)
        g = self._groups.pop(k, None)
        if g is None:
            return
        self.solver.add_clause([-g])
        self._retired_since_purge += 1
        if self._retired_since_purge >= self.purge_interval:
            self.solver.purge_satisfied()
            self._retired_since_purge = 0

    def extract_trace(self, k: int) -> Trace:
        """Rebuild the witness path for bound k from the last model."""
        bits = self.solver.model_bits()
        n, m = self.template.n, self.template.m
        system = self.system
        states = [dict(zip(system.state_vars,
                           map(bool, bits[z + 1:z + 1 + n])))
                  for z in self._z_base[:k + 1]]
        inputs = [dict(zip(system.input_vars,
                           map(bool, bits[x + 1:x + 1 + m])))
                  for x in self._x_base[:k]]
        return Trace(states, inputs)

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

    # ------------------------------------------------------------------
    def resident_literals(self) -> int:
        """Current clause-database size in literals."""
        return self.solver.stats.db_literals

    def __repr__(self) -> str:  # pragma: no cover
        return (f"IncrementalBmc({self.system.name!r}, frames={self.k}, "
                f"clauses={self.solver.num_clauses()})")

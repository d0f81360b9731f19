"""Formula (1): classical BMC by unrolling the transition relation.

    R_k(Z0, Zk) = ∃ Z1..Zk-1 : I(Z0) ∧ F(Zk) ∧ ⋀_{i<k} TR(Zi, Zi+1)

The existentials are plain propositional variables, so the formula is
decided by a SAT solver.  The price is **k copies of TR** — the memory
growth the paper sets out to avoid; :func:`repro.bmc.metrics` measures
exactly this.  The copies are only *stored* k times: TR is
Tseitin-encoded once (:mod:`repro.bmc.frames`) and each copy is an
integer shift of that template.
"""

from __future__ import annotations

from typing import Dict, List

from ..logic.cnf import CNF
from ..logic.expr import Expr
from ..system.model import TransitionSystem
from ..system.trace import Trace
from ..telemetry.trace import current_tracer
from .frames import FrameTemplate

__all__ = ["UnrolledEncoding", "encode_unrolled"]


class UnrolledEncoding:
    """The CNF of formula (1) plus the bookkeeping to read traces back.

    TR, init and the target are Tseitin-encoded once into a
    :class:`~repro.bmc.frames.FrameTemplate`; frame i is the TR
    template shifted by ``i * W`` (layout ``Z_i X_i aux_i``, then
    ``Z_k``), followed by the init and target instances' auxiliaries.

    Attributes
    ----------
    lits, ends:
        The clauses, flat (see :meth:`load`).
    num_vars:
        Number of CNF variables.
    template:
        The :class:`~repro.bmc.frames.FrameTemplate` the copies came from.
    k:
        The bound.
    """

    def __init__(self, system: TransitionSystem, final: Expr, k: int,
                 semantics: str = "exact",
                 polarity_reduction: bool = False) -> None:
        if k < 0:
            raise ValueError("bound k must be non-negative")
        if semantics not in ("exact", "within"):
            raise ValueError(f"unknown semantics {semantics!r}")
        stray = final.support() - set(system.state_vars)
        if stray:
            raise ValueError(f"final predicate uses non-state vars: {stray}")
        self.system = system
        self.final = final
        self.k = k
        self.semantics = semantics
        self._cnf: CNF | None = None
        with current_tracer().span("encode.unroll", k=k,
                                   semantics=semantics) as sp:
            self._encode(FrameTemplate(system, final, polarity_reduction))
            sp.set(clauses=len(self.ends), vars=self.num_vars)

    # ------------------------------------------------------------------
    def _encode(self, tpl: FrameTemplate) -> None:
        k, n, width = self.k, tpl.n, tpl.width
        lits: List[int] = []
        ends: List[int] = []

        def place(template, z_base: int, rest_base: int) -> None:
            base = len(lits)
            lits.extend(template.placed(z_base, rest_base))
            ends.extend(e + base for e in template.ends)

        # Clause order is init, TR frames, target (as the solver would
        # see them from a frame-by-frame encoder): the compiled core
        # simplifies each clause against the level-0 units loaded
        # before it, so init's units shrink the frames behind them.
        top = k * width + n                  # the last frame is Z_k only
        place(tpl.init, 0, top)
        top += tpl.init.rest
        # TR(Z_i, X_i, Z_i+1) for i < k: the template shifted by i * W,
        # all k copies in one pass (this loop is the hot path).
        trans = tpl.trans
        base, size = len(lits), len(trans.lits)
        lits.extend([l + o if l > 0 else l - o
                     for o in [i * width for i in range(k)]
                     for l in trans.lits])
        ends.extend([e + o for o in [base + i * size for i in range(k)]
                     for e in trans.ends])
        target = tpl.target
        roots = []
        for i in ([k] if self.semantics == "exact" else range(k + 1)):
            place(target, i * width, top)
            roots.append(target.place_lit(target.root, i * width, top))
            top += target.rest
        lits.extend(roots)                   # F(Z_k), or a disjunction
        ends.append(len(lits))
        self.template = tpl
        self.lits = lits
        self.ends = ends
        self.num_vars = top

    # ------------------------------------------------------------------
    @property
    def cnf(self) -> CNF:
        """The formula as a :class:`CNF` (built on first access)."""
        if self._cnf is None:
            cnf = CNF(self.num_vars)
            start = 0
            for end in self.ends:
                cnf.clauses.append(tuple(self.lits[start:end]))
                cnf.has_empty_clause |= end == start
                start = end
            self._cnf = cnf
        return self._cnf

    def load(self, solver) -> bool:
        """Put the formula into ``solver`` with one bulk call; returns
        False when it is already known unsatisfiable."""
        solver.ensure_vars(self.num_vars)
        return solver.add_clauses_flat(self.lits, self.ends)

    def state_var(self, name: str, step: int) -> int:
        """CNF variable of state bit ``name`` at the given step."""
        return step * self.template.width + \
            self.template.state_index[name] + 1

    def input_var(self, name: str, step: int) -> int:
        """CNF variable of input ``name`` driving step -> step+1."""
        tpl = self.template
        return step * tpl.width + tpl.n + tpl.input_index[name] + 1

    def extract_trace(self, model) -> Trace:
        """Rebuild the witness path from a satisfying assignment.

        ``model`` is a solver's :meth:`model_bits` (byte v is 1 iff
        variable v is true) or a ``model_value``-style callable mapping
        a CNF variable to bool/None; unassigned variables read False.
        """
        if callable(model):
            bits = bytes([0]) + bytes(bool(model(v))
                                      for v in range(1, self.num_vars + 1))
        else:
            bits = model
        system = self.system
        width, n, m = self.template.width, self.template.n, \
            self.template.m
        # Frame i's Z and X slots are contiguous: one slice each.
        starts = [i * width + 1 for i in range(self.k + 1)]
        states = [dict(zip(system.state_vars, map(bool, bits[z:z + n])))
                  for z in starts]
        inputs = [dict(zip(system.input_vars,
                           map(bool, bits[z + n:z + n + m])))
                  for z in starts[:-1]]
        return Trace(states, inputs)

    def stats(self) -> Dict[str, int]:
        return {"vars": self.num_vars, "clauses": len(self.ends),
                "literals": len(self.lits), "trans_copies": self.k}


def encode_unrolled(system: TransitionSystem, final: Expr, k: int,
                    semantics: str = "exact",
                    polarity_reduction: bool = False) -> UnrolledEncoding:
    """Build the formula (1) encoding for the given query."""
    return UnrolledEncoding(system, final, k, semantics, polarity_reduction)

"""Encode TR once: Tseitin frame templates and the one frame stack.

Formula (1) needs k copies of TR in the solver, but it does not need k
*encodings* of it.  :class:`FrameTemplate` Tseitin-encodes the
transition relation once, over the system's own variable names, into a
flat clause array with a fixed local numbering:

    Z = 1..n,  X = n+1..n+m,  aux = n+m+1..W,  Z' = W+1..W+n

where W = n + m + |aux|.  Init I(Z) and state predicates such as the
target F(Z) get the same treatment over Z alone (a predicate also keeps
its root literal, so callers can disjoin it across frames, negate it or
guard it with a group literal).

A template is *placed* by two integer bases: variable ``j`` of Z lands
on ``z_base + j`` and the ``r``-th variable after Z on ``rest_base +
r``.  Laying frame i out as ``Z_i X_i aux_i | Z_i+1`` at ``i * W``
makes every TR copy a plain shift of the template by ``i * W`` — the
linear per-step unrolling of Biere et al.'s *Linear Encodings of
Bounded LTL Model Checking* — and the solver receives the whole
formula through one ``add_clauses_flat`` call.

:class:`FrameStack` is the one incremental unrolling built on this:
one solver holding (optionally) init plus TR copies appended one frame
at a time, predicates placed per frame, retractable constraints on
assumption-group literals, ``v@i``-named ``Expr`` constraints encoded
through a pool bound to the placed variables, and traces read with one
``model_bits()`` call.  ``sat-incremental``, the property checker's
cones, the k-induction step case and the recurrence-diameter check all
run on it.

Because nothing is renamed (no ``Expr`` substitution), the numbering of
the frames depends only on the system and the predicate, never on what
else was encoded earlier in the process.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..logic.cnf import CNF, VarPool
from ..logic.expr import Expr
from ..logic.tseitin import TseitinEncoder
from ..sat.kernel import make_solver
from ..sat.types import resolve_engine
from ..system.model import TransitionSystem
from ..system.trace import Trace
from ..telemetry.trace import current_tracer

__all__ = ["ClauseTemplate", "FrameTemplate", "FrameStack",
           "predicate_template", "PURGE_INTERVAL"]

#: Retired groups are physically reclaimed (``purge_satisfied``) every
#: this many retirements.
PURGE_INTERVAL = 4


class ClauseTemplate:
    """Clauses over a local numbering whose first ``n`` variables are Z.

    Attributes
    ----------
    lits, ends:
        The clauses, flat: clause c is ``lits[ends[c-1]:ends[c]]``
        (the first starts at 0).
    n:
        Width of the Z slot (variables ``1..n``).
    rest:
        Number of template variables after Z.
    root:
        Literal of the encoded expression (predicates only), else None.
    """

    __slots__ = ("lits", "ends", "n", "rest", "root")

    def __init__(self, clauses: Sequence[Sequence[int]], n: int,
                 rest: int, root: Optional[int] = None) -> None:
        lits: List[int] = []
        ends: List[int] = []
        for clause in clauses:
            lits.extend(clause)
            ends.append(len(lits))
        self.lits = lits
        self.ends = ends
        self.n = n
        self.rest = rest
        self.root = root

    def place_lit(self, lit: int, z_base: int, rest_base: int) -> int:
        """Where one template literal lands under a placement."""
        v = abs(lit)
        v += z_base if v <= self.n else rest_base - self.n
        return v if lit > 0 else -v

    def placed(self, z_base: int, rest_base: int) -> List[int]:
        """The literals of this template under a placement."""
        n = self.n
        z_off, r_off = z_base, rest_base - n
        return [(l + z_off if l <= n else l + r_off) if l > 0
                else (l - z_off if l >= -n else l - r_off)
                for l in self.lits]


def _encode(seed: Sequence[str], root: Expr, polarity_reduction: bool,
            as_root: bool):
    """Tseitin-encode ``root`` over a pool pre-seeded with ``seed``;
    returns (cnf, num_vars, root literal or None)."""
    cnf = CNF()
    pool = VarPool()
    for name in seed:
        pool.named(name)
    encoder = TseitinEncoder(cnf, pool, polarity_reduction)
    lit = None
    if as_root:
        lit = encoder.encode(root)
    else:
        encoder.assert_expr(root)
    return cnf, pool.num_vars, lit


def predicate_template(system: TransitionSystem, predicate: Expr,
                       polarity_reduction: bool = False) -> ClauseTemplate:
    """A state predicate encoded once over Z, keeping its root literal.

    With full Tseitin (the default) the root is equivalent to the
    predicate, so a placed root may be negated as well as asserted.
    """
    cnf, num_vars, root = _encode(system.state_vars, predicate,
                                  polarity_reduction, as_root=True)
    n = len(system.state_vars)
    return ClauseTemplate(cnf.clauses, n, num_vars - n, root)


class FrameTemplate:
    """TR, init and (optionally) one target of a system, each
    Tseitin-encoded once.

    Parameters
    ----------
    system:
        The transition system; its state and input orders fix the Z and
        X slots.
    final:
        Target predicate over the state variables, or None for a
        template of the system alone (``target`` is then None).
    polarity_reduction:
        Plaisted–Greenbaum instead of full Tseitin definitions.

    Example
    -------
    >>> from repro.models import counter
    >>> system, final, _ = counter.make(3, 5)
    >>> tpl = FrameTemplate(system, final)
    >>> tpl.width - tpl.n - tpl.m >= 0     # W = n + m + |aux|
    True
    """

    def __init__(self, system: TransitionSystem,
                 final: Optional[Expr] = None,
                 polarity_reduction: bool = False) -> None:
        self.system = system
        self.n = n = len(system.state_vars)
        self.m = m = len(system.input_vars)
        self.state_index = {v: i for i, v in enumerate(system.state_vars)}
        self.input_index = {v: i for i, v in enumerate(system.input_vars)}

        cnf, num_vars, _ = _encode(
            system.state_vars + system.input_vars + system.next_vars,
            system.trans, polarity_reduction, as_root=False)
        # The pool order was Z, X, Z', aux; move Z' behind aux so that
        # frame i+1's Z slot starts exactly one frame width later.
        aux = num_vars - (2 * n + m)

        def renumber(lit: int) -> int:
            v = abs(lit)
            if v > n + m:
                v = v + aux if v <= 2 * n + m else v - n
            return v if lit > 0 else -v

        self.trans = ClauseTemplate(
            [[renumber(l) for l in c] for c in cnf.clauses], n,
            rest=num_vars - n)
        #: W: variables per frame block ``Z_i X_i aux_i``.
        self.width = num_vars - n

        cnf, num_vars, _ = _encode(system.state_vars, system.init,
                                   polarity_reduction, as_root=False)
        self.init = ClauseTemplate(cnf.clauses, n, num_vars - n)
        self.target = (None if final is None else
                       predicate_template(system, final,
                                          polarity_reduction))


class _FramePool(VarPool):
    """A Tseitin pool over a :class:`FrameStack`: ``v@i`` names resolve
    to frame i's placed variables, and every other name and auxiliary
    is allocated on the stack's own variable counter."""

    def __init__(self, stack: "FrameStack") -> None:
        super().__init__()
        self._stack = stack

    @property
    def num_vars(self) -> int:
        return self._stack.num_vars

    def fresh(self, hint: str | None = None) -> int:
        return self._stack._alloc(1) + 1

    def named(self, name: str) -> int:
        v = self._by_name.get(name)
        if v is None:
            v = self._stack.frame_var(name)
            if v is None:
                v = self.fresh()
            self._by_name[name] = v
        return v


class FrameStack:
    """One incremental solver over a growing I ∧ TR^k unrolling.

    Frames are only ever appended (:meth:`extend`), each a copy of the
    template's TR placed by integer offset; everything loaded stays in
    the solver with every surviving learnt clause.  Per-query
    constraints attach through assumption groups: :meth:`activate`
    guards a clause with a fresh group literal, :meth:`retire` adds its
    negation as a unit and every :data:`PURGE_INTERVAL` retirements the
    solver physically reclaims what those units satisfied — the jSAT
    blocking-clause idiom.

    Parameters
    ----------
    template:
        The :class:`FrameTemplate` every frame is placed from.
    solver:
        SAT engine (None defers to the process default).
    init:
        Load I(Z_0) (the k-induction step case runs without it).
    loop_free:
        Constrain every new frame's state to differ from all earlier
        ones, so the stack holds only loop-free (simple) paths.

    Example
    -------
    >>> from repro.models import counter
    >>> system, final, depth = counter.make(3, 5)
    >>> tpl = FrameTemplate(system, final)
    >>> stack = FrameStack(tpl)
    >>> stack.ensure_frames(depth)
    >>> g = stack.activate("hit", stack.root(tpl.target, depth))
    >>> stack.solver.solve([g]).name, stack.trace(depth).length
    ('SAT', 5)
    """

    def __init__(self, template: FrameTemplate,
                 solver: Optional[str] = None, init: bool = True,
                 loop_free: bool = False) -> None:
        self.template = template
        self.engine = resolve_engine(solver)
        self.init = init
        self.loop_free = loop_free
        self.solver = make_solver(self.engine)
        self.k = 0                            # transition frames placed
        #: Live group literals by caller key (see :meth:`activate`).
        self.groups: Dict[Hashable, int] = {}
        #: The auxiliary stack answering bounds below ``k``
        #: (see :meth:`driver_for`).
        self.low: Optional[FrameStack] = None
        self.num_vars = 0
        self._retired = 0
        self._roots: Dict[Tuple[ClauseTemplate, int], int] = {}
        self._encoder: Optional[TseitinEncoder] = None
        # Z_i is variables z_base[i]+1 .. z_base[i]+n; the inputs X_i
        # of transition frame i start right after x_base[i].
        self._z_base: List[int] = [self._alloc(template.n)]
        self._x_base: List[int] = []
        self.solver.ensure_vars(self.num_vars)
        if init:
            self._load(template.init, 0)

    # ------------------------------------------------------------------
    # Placement: template clauses -> live solver
    # ------------------------------------------------------------------
    def _alloc(self, count: int) -> int:
        """Reserve ``count`` fresh variables; returns the base before."""
        base = self.num_vars
        self.num_vars += count
        return base

    def _load(self, template: ClauseTemplate, z_base: int) -> int:
        """Place ``template`` with Z at ``z_base`` and everything else on
        fresh variables, into the solver; returns the rest base."""
        rest_base = self._alloc(template.rest)
        self.solver.ensure_vars(self.num_vars)
        self.solver.add_clauses_flat(template.placed(z_base, rest_base),
                                     template.ends)
        return rest_base

    def extend(self) -> int:
        """Append one transition frame TR(Z_k, Z_k+1); returns the TR
        clauses added."""
        i = self.k
        tpl = self.template
        with current_tracer().span("encode.frame", frame=i + 1) as sp:
            # Template order after Z is X_i, aux_i, Z_{i+1}.
            rest_base = self._load(tpl.trans, self._z_base[i])
            self._x_base.append(rest_base)
            self._z_base.append(rest_base + tpl.width - tpl.n)
            self.k += 1
            if self.loop_free:
                self._distinct(i + 1)
            added = len(tpl.trans.ends)
            sp.set(clauses=added)
        return added

    def ensure_frames(self, k: int) -> None:
        """Grow the unrolling to ``k`` transition frames (append-only)."""
        while self.k < k:
            self.extend()

    def _distinct(self, j: int) -> None:
        """Assert Z_j != Z_i for every earlier frame i: per pair, n
        fresh d_t with d_t -> (z_i,t xor z_j,t) and the clause (d_1 |
        ... | d_n), positive-only definitions as the constraint is only
        ever asserted."""
        n = self.template.n
        b = self._z_base[j]
        clauses = []
        for a in self._z_base[:j]:
            base = self._alloc(n)
            for t in range(1, n + 1):
                clauses.append((-(base + t), a + t, b + t))
                clauses.append((-(base + t), -(a + t), -(b + t)))
            clauses.append(tuple(range(base + 1, base + n + 1)))
        self.solver.ensure_vars(self.num_vars)
        self.solver.add_clauses(clauses)

    def driver_for(self, k: int) -> "FrameStack":
        """The stack that answers a query at bound ``k``.

        Frames beyond k are asserted unconditionally, which for a
        transition relation that is not total could exclude witnesses
        whose final state has no successor (spurious UNSAT).  So a bound
        *below* the frames already placed goes to an auxiliary low
        stack, itself grown ascending: a monotone re-sweep reuses it
        until it rejoins this one, and only a query below the low
        stack's frames replaces it — never a chain, so a long-lived
        owner stays bounded at two stacks.
        """
        if k >= self.k:
            return self
        low = self.low
        if low is None or k < low.k:
            low = FrameStack(self.template, self.engine, self.init,
                             self.loop_free)
            self.low = low
        return low

    # ------------------------------------------------------------------
    # Predicates, Expr constraints and groups
    # ------------------------------------------------------------------
    def root(self, template: ClauseTemplate, i: int) -> int:
        """Literal of a :func:`predicate_template` over Z_i (placed on
        first use, then reused)."""
        key = (template, i)
        lit = self._roots.get(key)
        if lit is None:
            z_base = self._z_base[i]
            lit = template.place_lit(template.root, z_base,
                                     self._load(template, z_base))
            self._roots[key] = lit
        return lit

    def frame_var(self, name: str) -> Optional[int]:
        """The placed variable of a frame name ``v@i`` (state or input),
        or None when ``name`` is not one."""
        var, sep, step = name.rpartition("@")
        if not sep or not step.isdigit():
            return None
        i = int(step)
        j = self.template.state_index.get(var)
        if j is not None and i <= self.k:
            return self._z_base[i] + j + 1
        j = self.template.input_index.get(var)
        if j is not None and i < self.k:
            return self._x_base[i] + j + 1
        if j is not None or var in self.template.state_index:
            raise ValueError(f"{name!r} names a frame not placed yet "
                             f"({self.k} frames)")
        return None

    def encode(self, constraint: Expr) -> int:
        """Tseitin-encode an ``Expr`` over frame names (``v@i``; any
        other name is a fresh variable) into the solver; returns the
        literal equivalent to it (full Tseitin definitions)."""
        encoder = self._encoder
        if encoder is None:
            encoder = TseitinEncoder(CNF(), _FramePool(self), False)
            self._encoder = encoder
        lit = encoder.encode(constraint)
        self.solver.ensure_vars(self.num_vars)
        self.solver.add_clauses(encoder.cnf.clauses)
        encoder.cnf.clauses.clear()
        return lit

    def named_bits(self, names: Iterable[str], bits: bytes) -> List[bool]:
        """Values in a model (``model_bits()``) of names encoded through
        :meth:`encode`; a name never encoded reads False."""
        pool = self._encoder.pool if self._encoder is not None else None
        out = []
        for name in names:
            v = pool.lookup(name) if pool is not None else None
            out.append(bool(bits[v]) if v is not None else False)
        return out

    def activate(self, key: Hashable, *lits: int) -> int:
        """Guard the clause ``(l1 | l2 | ...)`` by a fresh group literal
        ``g`` (clause ``(-g, l1, l2, ...)``), registered under ``key``;
        solving under the assumption ``g`` makes the clause bite."""
        g = self._alloc(1) + 1
        self.solver.ensure_vars(g)
        self.solver.add_clause([-g, *lits])
        self.groups[key] = g
        return g

    def retire(self, key: Hashable) -> None:
        """Permanently disable the group under ``key`` — here and on the
        low stack, which may hold a group under the same key.

        Adds the unit ``-g``: every clause carrying ``-g`` (the guarded
        clause and each learnt clause derived from it) is satisfied at
        level 0 and physically reclaimed on the next purge.
        """
        if self.low is not None:
            self.low.retire(key)
        g = self.groups.pop(key, None)
        if g is None:
            return
        self.solver.add_clause([-g])
        self._retired += 1
        if self._retired >= PURGE_INTERVAL:
            self.solver.purge_satisfied()
            self._retired = 0

    # ------------------------------------------------------------------
    def trace(self, k: int, bits: Optional[bytes] = None) -> Trace:
        """The length-k path of the last model (read with one
        ``model_bits()`` call unless ``bits`` is given)."""
        if bits is None:
            bits = self.solver.model_bits()
        tpl = self.template
        n, m = tpl.n, tpl.m
        system = tpl.system
        states = [dict(zip(system.state_vars,
                           map(bool, bits[z + 1:z + 1 + n])))
                  for z in self._z_base[:k + 1]]
        inputs = [dict(zip(system.input_vars,
                           map(bool, bits[x + 1:x + 1 + m])))
                  for x in self._x_base[:k]]
        return Trace(states, inputs)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FrameStack({self.template.system.name!r}, frames={self.k}, "
                f"clauses={self.solver.num_clauses()})")

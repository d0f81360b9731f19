"""Encode TR once: Tseitin frame templates instantiated by integer offset.

Formula (1) needs k copies of TR in the solver, but it does not need k
*encodings* of it.  :class:`FrameTemplate` Tseitin-encodes the
transition relation once, over the system's own variable names, into a
flat clause array with a fixed local numbering:

    Z = 1..n,  X = n+1..n+m,  aux = n+m+1..W,  Z' = W+1..W+n

where W = n + m + |aux|.  Init I(Z) and the target F(Z) get the same
treatment over Z alone (the target also keeps its root literal, so
callers can disjoin it across frames or guard it with a group literal).

A template is *placed* by two integer bases: variable ``j`` of Z lands
on ``z_base + j`` and the ``r``-th variable after Z on ``rest_base +
r``.  Laying frame i out as ``Z_i X_i aux_i | Z_i+1`` at ``i * W``
makes every TR copy a plain shift of the template by ``i * W`` — the
linear per-step unrolling of Biere et al.'s *Linear Encodings of
Bounded LTL Model Checking* — and the solver receives the whole
formula through one ``add_clauses_flat`` call.

Because nothing is renamed (no ``Expr`` substitution), the numbering
depends only on the system and the target, never on what else was
encoded earlier in the process.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..logic.cnf import CNF, VarPool
from ..logic.expr import Expr
from ..logic.tseitin import TseitinEncoder
from ..system.model import TransitionSystem

__all__ = ["ClauseTemplate", "FrameTemplate"]


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
        Literal of the encoded expression (targets only), else None.
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


class FrameTemplate:
    """TR, init and one target of a system, each Tseitin-encoded once.

    Parameters
    ----------
    system:
        The transition system; its state and input orders fix the Z and
        X slots.
    final:
        Target predicate over the state variables.
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

    def __init__(self, system: TransitionSystem, final: Expr,
                 polarity_reduction: bool = False) -> None:
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
        cnf, num_vars, root = _encode(system.state_vars, final,
                                      polarity_reduction, as_root=True)
        self.target = ClauseTemplate(cnf.clauses, n, num_vars - n, root)


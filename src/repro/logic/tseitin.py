"""Tseitin (structural) CNF transformation.

Converts :class:`repro.logic.expr.Expr` DAGs into CNF while introducing
one auxiliary variable per internal DAG node.  Because expressions are
hash-consed, shared sub-formulae are encoded exactly once.

Two encoding styles are provided:

* **Tseitin** (default) — full bi-implication definitions; the auxiliary
  variables are *functionally determined* by the inputs, which matters
  for the QBF encodings (the auxiliaries can soundly live in an
  innermost existential block regardless of the matrix polarity).
* **Plaisted–Greenbaum** — polarity-reduced definitions; smaller, but
  only equisatisfiable, and therefore used only for plain SAT encodings.
  Polarities are computed as a fixpoint over the DAG, so shared nodes
  reachable under both phases receive the full definition.

The encoder deliberately has *no* global state: it writes into a caller-
supplied :class:`repro.logic.cnf.CNF` and :class:`VarPool` so that BMC
unrollers can mix several encoded formulae in one variable space.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from .cnf import CNF, VarPool
from .expr import Expr

__all__ = ["TseitinEncoder", "encode_expr", "expr_to_cnf"]

# Polarity lattice: 1 (positive only), -1 (negative only), 0 (both).
_BOTH = 0


def _merge_polarity(old: int | None, new: int) -> int:
    if old is None:
        return new
    if old == new:
        return old
    return _BOTH


def _child_polarity(op: str, polarity: int) -> int:
    """Polarity of children given the parent's op and polarity."""
    if polarity == _BOTH:
        return _BOTH
    if op == "not":
        return -polarity
    if op in ("and", "or"):
        return polarity
    # XOR / IFF / ITE use their children in both phases.
    return _BOTH


class TseitinEncoder:
    """Encodes expressions into a shared CNF/VarPool pair.

    The encoder memoizes node -> literal across calls, so encoding several
    formulae over the same variables reuses all shared structure.

    Parameters
    ----------
    cnf:
        Destination clause container.
    pool:
        Variable allocator; named expression variables map through
        ``pool.named(name)``.
    polarity_reduction:
        Use Plaisted–Greenbaum instead of full Tseitin definitions.
    """

    def __init__(self, cnf: CNF, pool: VarPool,
                 polarity_reduction: bool = False) -> None:
        self.cnf = cnf
        self.pool = pool
        self.polarity_reduction = polarity_reduction
        self._lit_cache: Dict[int, int] = {}
        # Which polarities already have definitional clauses emitted.
        self._emitted: Dict[int, set[int]] = {}
        self.aux_vars: List[int] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def encode(self, root: Expr) -> int:
        """Return a literal defined to be equivalent to ``root``.

        With full Tseitin the returned literal is logically equivalent to
        the expression; with Plaisted–Greenbaum it is only constrained in
        the polarities under which it is used (the caller is expected to
        assert it positively).  Constants are materialized as a fresh unit-
        constrained literal so the result is always a plain literal.
        """
        if root.is_const:
            # Pin a fresh variable to the constant's value and return
            # the *variable* literal, so the returned literal evaluates
            # to the constant (returning the asserted unit itself would
            # hand back a true literal even for FALSE).
            v = self.pool.fresh("const")
            self._sync_vars()
            self.cnf.add_unit(v if root.value else -v)
            return v
        polarity = 1 if self.polarity_reduction else _BOTH
        return self._encode_dag(root, polarity)

    def assert_expr(self, root: Expr) -> None:
        """Add ``root`` as a constraint (unit clause on its literal)."""
        if root.is_true:
            return
        if root.is_false:
            self.cnf.add_clause(())      # empty clause: unsatisfiable
            return
        polarity = 1 if self.polarity_reduction else _BOTH
        self.cnf.add_unit(self._encode_dag(root, polarity))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sync_vars(self) -> None:
        if self.pool.num_vars > self.cnf.num_vars:
            self.cnf.num_vars = self.pool.num_vars

    def _compute_polarities(self, root: Expr, polarity: int) -> Dict[int, int]:
        """Fixpoint polarity labelling of the DAG under ``root``."""
        node_pol: Dict[int, int] = {root.uid: polarity}
        worklist: List[Expr] = [root]
        while worklist:
            node = worklist.pop()
            pol = node_pol[node.uid]
            child_pol = _child_polarity(node.op, pol)
            for child in node.args:
                old = node_pol.get(child.uid)
                new = _merge_polarity(old, child_pol)
                if new != old:
                    node_pol[child.uid] = new
                    worklist.append(child)
        return node_pol

    def _encode_dag(self, root: Expr, polarity: int) -> int:
        lits: Dict[int, int] = {}
        if self.polarity_reduction:
            node_pol = self._compute_polarities(root, polarity)
            for node in root.iter_dag():      # post-order: children first
                lits[node.uid] = self._emit(node, lits, node_pol[node.uid])
        else:
            for node in self._fresh_nodes(root):
                lits[node.uid] = self._emit(node, lits, _BOTH)
        return lits[root.uid]

    def _fresh_nodes(self, root: Expr) -> Iterator[Expr]:
        """``root.iter_dag()`` without descending into nodes an earlier
        call already encoded: with full definitions nothing below such a
        node needs emitting again (same order as ``iter_dag`` otherwise,
        so a fresh encoder numbers exactly as before)."""
        cache = self._lit_cache
        seen: Set[int] = set()
        stack: List[Tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.uid in seen:
                continue
            if expanded or node.uid in cache:
                seen.add(node.uid)
                yield node
            else:
                stack.append((node, True))
                for child in node.args:
                    if child.uid not in seen:
                        stack.append((child, False))

    def _emit(self, node: Expr, lits: Dict[int, int], polarity: int) -> int:
        op = node.op
        if op == "var":
            assert node.name is not None
            v = self.pool.named(node.name)
            self._sync_vars()
            return v
        if op == "const":
            # The mk_* constructors fold constants below the root away.
            raise AssertionError("constant below the root of a simplified Expr")
        if op == "not":
            return -lits[node.args[0].uid]

        out = self._lit_cache.get(node.uid)
        if out is None:
            v = self.pool.fresh(f"t{node.uid}")
            self._sync_vars()
            out = v
            self._lit_cache[node.uid] = out
            self.aux_vars.append(v)
            self._emitted[node.uid] = set()

        if not self.polarity_reduction:
            polarity = _BOTH
        done = self._emitted[node.uid]
        if _BOTH in done or polarity in done:
            return out
        want_pos = polarity >= 0 and not any(p >= 0 for p in done)
        want_neg = polarity <= 0 and not any(p <= 0 for p in done)
        done.add(polarity)

        args = [lits[a.uid] for a in node.args]
        add = self.cnf.add_clause
        if op == "and":
            # positive use needs: out -> each arg
            if want_pos:
                for a in args:
                    add((-out, a))
            # negative use needs: all args -> out
            if want_neg:
                add(tuple(-a for a in args) + (out,))
        elif op == "or":
            # positive use needs: out -> (a1 | ... | an)
            if want_pos:
                add((-out,) + tuple(args))
            # negative use needs: each arg -> out
            if want_neg:
                for a in args:
                    add((out, -a))
        elif op == "xor":
            a, b = args
            if want_pos:
                add((-out, a, b))
                add((-out, -a, -b))
            if want_neg:
                add((out, -a, b))
                add((out, a, -b))
        elif op == "iff":
            a, b = args
            if want_pos:
                add((-out, -a, b))
                add((-out, a, -b))
            if want_neg:
                add((out, a, b))
                add((out, -a, -b))
        elif op == "ite":
            c, t, e = args
            if want_pos:
                add((-out, -c, t))
                add((-out, c, e))
                add((-out, t, e))        # redundant, strengthens propagation
            if want_neg:
                add((out, -c, -t))
                add((out, c, -e))
                add((out, -t, -e))       # redundant, strengthens propagation
        else:
            raise ValueError(f"unknown operator {op!r}")
        return out


def encode_expr(root: Expr, cnf: CNF, pool: VarPool,
                polarity_reduction: bool = False) -> int:
    """One-shot helper: encode ``root`` into ``cnf`` and return its literal."""
    return TseitinEncoder(cnf, pool, polarity_reduction).encode(root)


def expr_to_cnf(root: Expr, polarity_reduction: bool = False,
                pool: VarPool | None = None) -> tuple[CNF, VarPool]:
    """Convert an expression to a standalone CNF asserting the expression.

    Returns the CNF and the variable pool (for name lookups).
    """
    if pool is None:
        pool = VarPool()
    cnf = CNF()
    enc = TseitinEncoder(cnf, pool, polarity_reduction)
    enc.assert_expr(root)
    cnf.num_vars = max(cnf.num_vars, pool.num_vars)
    return cnf, pool

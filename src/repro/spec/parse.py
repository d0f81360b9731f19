"""Parser for spec strings — the textual form of the Property AST.

Grammar (loosest to tightest binding)::

    formula  :=  iff
    iff      :=  implies ( '<->' implies )*
    implies  :=  or ( '->' implies )?          -- right-associative
    or       :=  and ( '|' and )*
    and      :=  until ( '&' until )*
    until    :=  unary ( ('U' | 'R') until )?  -- right-associative
    unary    :=  '!' unary
              |  ('G' | 'F' | 'X') unary       -- LTL combinators
              |  'AG' unary                    -- Invariant (top level)
              |  'EF' unary                    -- Reachable (top level)
              |  '(' formula ')'
              |  identifier | 'TRUE' | 'FALSE'

    -- 'xor' binds like '&' between plain predicates.

Boolean connectives between *plain predicates* fold into a single
:class:`~repro.spec.property.Atom` at the expression level, so
``!(req0 & req1)`` parses to one atom over the hash-consed
``Expr`` — and :func:`parse_spec` round-trips ``str(property)``.

``AG`` / ``EF`` wrap predicate arguments into the top-level
:class:`Invariant` / :class:`Reachable` forms; they are rejected in
nested positions (use ``G`` / ``F`` there).

Example
-------
>>> prop = parse_spec("G !(req0 & req1)")
>>> type(prop).__name__
'Globally'
>>> parse_spec(str(prop)) == prop
True
>>> parse_spec("AG !bad") == parse_spec("AG (!bad)")
True
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional

from ..logic import expr as ex
from .property import (Atom, Finally, Globally, Invariant, Next, Not,
                       Property, Reachable, Release, Until, as_property,
                       iff as mk_iff_prop, implies as mk_implies_prop)

__all__ = ["parse_spec", "SpecError"]


class SpecError(ValueError):
    """Raised on malformed spec strings."""


_TOKEN = re.compile(r"""
    (?P<skip>\s+|--[^\n]*)
  | (?P<op><->|->|[!&|()]|\bxor\b)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*(?:-[A-Za-z0-9_.]+)*'?)
""", re.VERBOSE)
# The name class admits interior dashes (suite properties use them) but
# never a trailing one, so an unspaced "a->b" tokenizes as a, ->, b.

_TEMPORAL = {"G", "F", "X", "AG", "EF"}
#: Deepest nesting of parentheses, prefix operators and right-associative
#: chains a spec may use; deeper input is rejected with a SpecError
#: instead of exhausting the interpreter stack.
MAX_NESTING = 100
_RESERVED = _TEMPORAL | {"U", "R", "TRUE", "FALSE", "xor"}


def _tokenize(text: str) -> List[str]:
    out: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise SpecError(
                f"cannot tokenize spec near {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup != "skip":
            out.append(m.group())
    return out


def _both_atoms(left: Property, right: Property) -> bool:
    return isinstance(left, Atom) and isinstance(right, Atom)


class _Parser:
    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def deeper(self, parse: Callable[[], Property]) -> Property:
        """Run a nested sub-parse, bounded by :data:`MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SpecError(f"spec nests deeper than {MAX_NESTING} levels")
        out = parse()
        self.depth -= 1
        return out

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise SpecError("unexpected end of spec")
        if expected is not None and tok != expected:
            raise SpecError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    # ------------------------------------------------------------------
    def parse(self, *, top: bool = True) -> Property:
        out = self._iff(top=top)
        if top and self.peek() is not None:
            raise SpecError(f"trailing tokens: {self.tokens[self.pos:]}")
        return out

    def _iff(self, *, top: bool = False) -> Property:
        left = self._implies(top=top)
        while self.peek() == "<->":
            self.take()
            left = mk_iff_prop(left, self._implies())
        return left

    def _implies(self, *, top: bool = False) -> Property:
        left = self._or(top=top)
        if self.peek() == "->":
            self.take()
            return mk_implies_prop(left, self.deeper(self._implies))
        return left

    def _or(self, *, top: bool = False) -> Property:
        left = self._and(top=top)
        while self.peek() == "|":
            self.take()
            right = self._and()
            if _both_atoms(left, right):
                left = Atom(ex.mk_or(left.expr, right.expr))
            else:
                left = left | right
        return left

    def _and(self, *, top: bool = False) -> Property:
        left = self._until(top=top)
        while self.peek() in ("&", "xor"):
            op = self.take()
            right = self._until()
            if op == "xor":
                if not _both_atoms(left, right):
                    raise SpecError(
                        "'xor' is only supported between plain "
                        "predicates, not temporal formulas")
                left = Atom(ex.mk_xor(left.expr, right.expr))
            elif _both_atoms(left, right):
                left = Atom(ex.mk_and(left.expr, right.expr))
            else:
                left = left & right
        return left

    def _until(self, *, top: bool = False) -> Property:
        left = self._unary(top=top)
        tok = self.peek()
        if tok in ("U", "R"):
            self.take()
            right = self.deeper(self._until)
            return Until(left, right) if tok == "U" \
                else Release(left, right)
        return left

    def _unary(self, *, top: bool = False) -> Property:
        tok = self.peek()
        if tok == "!":
            self.take()
            inner = self.deeper(self._unary)
            if isinstance(inner, Atom):
                return Atom(ex.mk_not(inner.expr))
            return Not(inner)
        if tok in ("G", "F", "X"):
            self.take()
            inner = self.deeper(self._unary)
            return {"G": Globally, "F": Finally, "X": Next}[tok](inner)
        if tok in ("AG", "EF"):
            self.take()
            if not top:
                raise SpecError(
                    f"{tok} is a top-level form and cannot be nested; "
                    f"use {'G' if tok == 'AG' else 'F'} inside formulas")
            inner = self.deeper(self._unary)
            if not isinstance(inner, Atom):
                raise SpecError(
                    f"{tok} takes a plain state predicate; for temporal "
                    f"bodies use {'G' if tok == 'AG' else 'F'} directly")
            return Invariant(inner) if tok == "AG" else Reachable(inner)
        if tok == "(":
            self.take()
            inner = self.deeper(lambda: self._iff(top=top))
            self.take(")")
            return inner
        if tok == "TRUE":
            self.take()
            return Atom(ex.TRUE)
        if tok == "FALSE":
            self.take()
            return Atom(ex.FALSE)
        if tok is None:
            raise SpecError("unexpected end of spec")
        if not re.match(r"[A-Za-z_]", tok):
            raise SpecError(f"unexpected token {tok!r}")
        if tok in _RESERVED:
            raise SpecError(f"{tok!r} cannot be used as a variable name")
        self.take()
        return Atom(ex.var(tok))


def parse_spec(text: str) -> Property:
    """Parse a spec string into a :class:`Property`."""
    tokens = _tokenize(text)
    if not tokens:
        raise SpecError("empty spec string")
    return _Parser(tokens).parse()

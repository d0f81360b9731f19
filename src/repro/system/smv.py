"""A parser for a Boolean subset of the SMV modelling language.

Supports the single-module Boolean core used by NuSMV-era model
checkers — the natural textual front end for this library::

    MODULE main
    VAR
      x : boolean;
      y : boolean;
    IVAR
      press : boolean;          -- primary input
    ASSIGN
      init(x) := FALSE;
      next(x) := x xor press;
      next(y) := x & !y;        -- init(y) omitted: unconstrained
    DEFINE
      both := x & y;
    SPEC AG !both

Expression operators (loosest to tightest): ``<->``, ``->``, ``|``,
``xor``, ``&``, ``!``; constants ``TRUE``/``FALSE``; parentheses;
``--`` comments.

Specifications::

    SPEC AG !both                  -- anonymous: property "spec0"
    SPEC no_both := AG !both       -- labelled
    INVARSPEC !both                -- anonymous: property "invar0"
    INVARSPEC safe := x -> !y      -- labelled

``SPEC AG p`` and ``INVARSPEC p`` are equivalent in this Boolean
subset: each contributes (a) a named bad-state target ``!p`` on the
produced :class:`repro.system.circuit.Circuit` and (b) the named
:class:`repro.spec.property.Invariant` in ``circuit.properties``, so
multi-property sessions check every spec of the module over one shared
unrolling.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..logic import expr as ex
from ..logic.expr import Expr
from .circuit import Circuit

__all__ = ["parse_smv", "SmvError"]


class SmvError(ValueError):
    """Raised on malformed SMV input."""


_TOKEN = re.compile(r"""
    (?P<skip>\s+|--[^\n]*)
  | (?P<op><->|->|:=|[!&|();:?]|\bxor\b)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)
""", re.VERBOSE)

_KEYWORDS = {"MODULE", "VAR", "IVAR", "ASSIGN", "DEFINE", "SPEC",
             "INVARSPEC", "AG", "init", "next", "boolean", "TRUE",
             "FALSE", "xor"}

_SECTIONS = ("VAR", "IVAR", "ASSIGN", "DEFINE", "SPEC", "INVARSPEC")


def _tokenize(text: str) -> List[str]:
    out: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise SmvError(f"cannot tokenize near {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup != "skip":
            out.append(m.group())
    return out


#: Deepest nesting of parentheses, negations and ``->`` chains an
#: expression may use; deeper input is rejected with an SmvError instead
#: of exhausting the interpreter stack.
MAX_NESTING = 100


class _ExprParser:
    """Recursive-descent parser over a token window."""

    def __init__(self, tokens: List[str], defines: Dict[str, Expr],
                 declared: Set[str]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.defines = defines
        self.declared = declared
        self.depth = 0

    def deeper(self, parse: Callable[[], Expr]) -> Expr:
        """Run a nested sub-parse, bounded by :data:`MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SmvError(
                f"expression nests deeper than {MAX_NESTING} levels")
        out = parse()
        self.depth -= 1
        return out

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise SmvError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise SmvError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        out = self._iff()
        if self.peek() is not None:
            raise SmvError(f"trailing tokens: {self.tokens[self.pos:]}")
        return out

    def _iff(self) -> Expr:
        left = self._implies()
        while self.peek() == "<->":
            self.take()
            left = ex.mk_iff(left, self._implies())
        return left

    def _implies(self) -> Expr:
        left = self._or()
        if self.peek() == "->":
            self.take()
            return ex.mk_implies(left,                  # right-assoc
                                 self.deeper(self._implies))
        return left

    def _or(self) -> Expr:
        left = self._xor()
        while self.peek() == "|":
            self.take()
            left = ex.mk_or(left, self._xor())
        return left

    def _xor(self) -> Expr:
        left = self._and()
        while self.peek() == "xor":
            self.take()
            left = ex.mk_xor(left, self._and())
        return left

    def _and(self) -> Expr:
        left = self._unary()
        while self.peek() == "&":
            self.take()
            left = ex.mk_and(left, self._unary())
        return left

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok == "!":
            self.take()
            return ex.mk_not(self.deeper(self._unary))
        if tok == "(":
            self.take()
            inner = self.deeper(self._iff)
            self.take(")")
            return inner
        if tok == "TRUE":
            self.take()
            return ex.TRUE
        if tok == "FALSE":
            self.take()
            return ex.FALSE
        if tok is None or not re.match(r"[A-Za-z_]", tok):
            raise SmvError(f"unexpected token {tok!r}")
        self.take()
        if tok in self.defines:
            return self.defines[tok]
        if tok not in self.declared:
            raise SmvError(f"undeclared identifier {tok!r}")
        return ex.var(tok)


def parse_smv(text: str, name: str = "smv") -> Circuit:
    """Parse the SMV subset into a :class:`Circuit` (specs become bads)."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise SmvError("unexpected end of input")
        if expected is not None and tok != expected:
            raise SmvError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def expr_until(stops: Tuple[str, ...]) -> List[str]:
        nonlocal pos
        out: List[str] = []
        depth = 0
        while pos < len(tokens):
            tok = tokens[pos]
            if depth == 0 and tok in stops:
                break
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
            out.append(tok)
            pos += 1
        return out

    take("MODULE")
    module_name = take()
    circuit = Circuit(f"{name}.{module_name}")
    state_vars: List[str] = []
    declared: Set[str] = set()
    init_exprs: Dict[str, List[str]] = {}
    next_exprs: Dict[str, List[str]] = {}
    define_order: List[Tuple[str, List[str]]] = []
    # (kind, optional label, body tokens) per SPEC/INVARSPEC entry.
    spec_entries: List[Tuple[str, Optional[str], List[str]]] = []

    def spec_label() -> Optional[str]:
        # An optional "name :=" prefix before the spec body.
        if pos + 1 < len(tokens) and tokens[pos + 1] == ":=" \
                and re.match(r"[A-Za-z_]", tokens[pos]) \
                and tokens[pos] not in _KEYWORDS:
            label = take()
            take(":=")
            return label
        return None

    section = None
    while (tok := peek()) is not None:
        if tok in _SECTIONS:
            section = take()
            if section in ("SPEC", "INVARSPEC"):
                label = spec_label()
                if section == "SPEC":
                    take("AG")
                spec_entries.append(
                    (section, label, expr_until(("MODULE",) + _SECTIONS)))
            continue
        if section in ("VAR", "IVAR"):
            var_name = take()
            take(":")
            take("boolean")
            take(";")
            declared.add(var_name)
            if section == "VAR":
                state_vars.append(var_name)
                circuit.add_latch(var_name, init=None)
            else:
                circuit.add_input(var_name)
        elif section == "ASSIGN":
            kind = take()
            if kind not in ("init", "next"):
                raise SmvError(f"expected init/next, got {kind!r}")
            take("(")
            var_name = take()
            take(")")
            take(":=")
            body = expr_until((";",))
            take(";")
            (init_exprs if kind == "init" else next_exprs)[var_name] = body
        elif section == "DEFINE":
            def_name = take()
            take(":=")
            body = expr_until((";",))
            take(";")
            define_order.append((def_name, body))
        else:
            raise SmvError(f"unexpected token {tok!r} outside any section")

    defines: Dict[str, Expr] = {}

    def parse(body: List[str]) -> Expr:
        return _ExprParser(body, defines, declared).parse()

    for def_name, body in define_order:
        defines[def_name] = parse(body)

    for var_name in state_vars:
        if var_name in init_exprs:
            value = parse(init_exprs[var_name])
            if not value.is_const:
                raise SmvError(
                    f"init({var_name}) must be a constant in this subset")
            circuit._init_values[var_name] = bool(value.value)
        if var_name not in next_exprs:
            raise SmvError(f"next({var_name}) is missing")
        circuit.set_next(var_name, parse(next_exprs[var_name]))

    # Imported lazily: repro.spec imports the system layer.
    from ..spec.property import Invariant

    counters = {"SPEC": 0, "INVARSPEC": 0}
    for kind, label, body in spec_entries:
        if label is None:
            prefix = "spec" if kind == "SPEC" else "invar"
            label = f"{prefix}{counters[kind]}"
            counters[kind] += 1
        if label in circuit.bad:
            raise SmvError(f"duplicate spec label {label!r}")
        predicate = parse(body)
        circuit.add_bad(label, ex.mk_not(predicate))
        # The spec's own reading is the invariant, not bad-state
        # reachability — override the Reachable form add_bad registered.
        circuit.add_property(label, Invariant(predicate))
    for def_name, _ in define_order:
        circuit.add_output(def_name, defines[def_name])
    return circuit

"""Constraint language: AST, parser, canonical printer, three-valued evaluator.

Grammar (precedence not > and > or, both binary operators left-associative)::

    expr := or
    or   := and ("or" and)*
    and  := not ("and" not)*
    not  := "not" not | atom
    atom := "(" expr ")" | "exists(" ident ")" | ident op literal

"(" and "not" nest at most ``MAX_NESTING`` levels deep, and the tree of
"and", "or" and "not" nodes is at most ``MAX_NESTING`` levels deep: a chain of
n "and" (or n "or") adds n levels, since it parses left-deep.

Literals are quoted text, integers, booleans ``true|false``, dotted versions
and sizes ``<int><B|KB|MB|GB>``. Evaluation is three-valued: a comparison on a
missing property yields Unknown rather than a violation, so that sites with
undeclared properties are reported distinctly from sites that fail a check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from typing import Union

from .errors import ExpressionSyntaxError
from .values import (
    PropertyValue,
    Size,
    Version,
    kind_of,
)

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Exists:
    name: str


@dataclass(frozen=True)
class Compare:
    name: str
    op: str  # one of = != < <= > >=
    literal: PropertyValue


@dataclass(frozen=True)
class Not:
    operand: "Expression"


@dataclass(frozen=True)
class And:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Or:
    left: "Expression"
    right: "Expression"


Expression = Union[Exists, Compare, Not, And, Or]

# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<size>\d+(?:B|KB|MB|GB)\b)
  | (?P<version>\d+(?:\.\d+)+)
  | (?P<int>\d+)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_.]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
    """,
    re.VERBOSE,
)

KEYWORDS = {"and", "or", "not", "true", "false", "exists"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos]!r}", pos, frozenset({"token"})
            )
        kind = m.lastgroup
        if kind != "ws":
            tok_text = m.group()
            if kind == "ident" and tok_text in KEYWORDS:
                kind = tok_text
            tokens.append(Token(kind, tok_text, pos))
        pos = m.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# Deepest nesting of "(" and "not", and deepest tree, accepted. Each "(" or
# "not" costs the parser up to four stack frames, and evaluate and
# print_expression recurse once per tree level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail({expected})
        return self.advance()

    def enter(self) -> None:
        """Consume a "(" or "not" that opens one more nesting level."""
        self.depth = _level(self.advance(), self.depth)

    def fail(self, expected: set[str]):
        tok = self.peek()
        what = tok.text or "end of input"
        raise ExpressionSyntaxError(f"unexpected {what!r}", tok.offset, frozenset(expected))

    def parse(self) -> Expression:
        node, _ = self.parse_or()
        if self.peek().kind != "eof":
            self.fail({"end of input", "'and'", "'or'"})
        return node

    # Each parse_* returns a node and the height of its "and"/"or"/"not" tree.

    def parse_or(self) -> tuple[Expression, int]:
        node, height = self.parse_and()
        while self.peek().kind == "or":
            op = self.advance()
            right, right_height = self.parse_and()
            node, height = Or(node, right), _level(op, height, right_height)
        return node, height

    def parse_and(self) -> tuple[Expression, int]:
        node, height = self.parse_not()
        while self.peek().kind == "and":
            op = self.advance()
            right, right_height = self.parse_not()
            node, height = And(node, right), _level(op, height, right_height)
        return node, height

    def parse_not(self) -> tuple[Expression, int]:
        op = self.peek()
        if op.kind == "not":
            self.enter()
            operand, height = self.parse_not()
            self.depth -= 1
            return Not(operand), _level(op, height)
        return self.parse_atom()

    def parse_atom(self) -> tuple[Expression, int]:
        tok = self.peek()
        if tok.kind == "lparen":
            self.enter()
            node = self.parse_or()
            self.expect("rparen", "')'")
            self.depth -= 1
            return node
        if tok.kind == "exists":
            self.advance()
            self.expect("lparen", "'('")
            name = self.expect("ident", "identifier").text
            self.expect("rparen", "')'")
            return Exists(name), 0
        if tok.kind == "ident":
            name = self.advance().text
            op = self.expect("op", "comparison operator").text
            return Compare(name, op, self.parse_literal()), 0
        self.fail({"'('", "'exists('", "identifier", "'not'"})

    def parse_literal(self) -> PropertyValue:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return _unquote(tok.text)
        if tok.kind == "size":
            self.advance()
            return Size.parse(tok.text)
        if tok.kind == "version":
            self.advance()
            return Version.parse(tok.text)
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        if tok.kind in ("true", "false"):
            self.advance()
            return tok.kind == "true"
        self.fail({"literal"})


def _level(tok: Token, *below: int) -> int:
    """The level one above ``below`` that ``tok`` opens or builds; SYNTAX at
    ``tok`` past ``MAX_NESTING``."""
    if max(below) >= MAX_NESTING:
        raise ExpressionSyntaxError(
            "nesting too deep",
            tok.offset,
            frozenset({f"at most {MAX_NESTING} levels of '(', 'not', 'and' and 'or'"}),
        )
    return 1 + max(below)


def parse_expression(text: str) -> Expression:
    """Parse constraint text; raises ExpressionSyntaxError with offset."""
    return _Parser(text).parse()


# Trees by source text, so that every holder of one text shares one tree.
# Trees are immutable. The oldest entry goes first once the table is full, so
# text from outside cannot grow it without bound.
MAX_PARSED = 4096
_parsed: dict[str, Expression] = {}


def parse_once(text: str) -> Expression:
    """The tree of ``text`` from the shared table; ``parse_expression`` runs
    only on a miss, and text that fails to parse is not kept."""
    tree = _parsed.get(text)
    if tree is None:
        tree = parse_expression(text)
        if len(_parsed) >= MAX_PARSED:
            del _parsed[next(iter(_parsed))]
        _parsed[text] = tree
    return tree


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# Canonical printer

_PRECEDENCE = {Or: 1, And: 2, Not: 3, Exists: 4, Compare: 4}


def print_literal(value: PropertyValue) -> str:
    kind = kind_of(value)
    if kind == "text":
        return _quote(value)
    if kind == "boolean":
        return "true" if value else "false"
    if kind == "version":
        # A single-part version would re-tokenize as an integer; pad with .0
        # (equal under component-wise comparison).
        return str(value) if len(value.parts) > 1 else f"{value.parts[0]}.0"
    return str(value)  # integer, bytes


def print_expression(expr: Expression) -> str:
    """Canonical text form; ``parse_expression`` round-trips it."""
    return _render(expr, 0, False)


def print_conjunction(exprs) -> str | None:
    """``print_expression(conjunction(exprs))``, printed term by term, so a
    chain of any length costs no recursion (None if empty)."""
    terms = list(exprs)
    if len(terms) <= 1:
        return print_expression(terms[0]) if terms else None
    return " and ".join(_render(e, _PRECEDENCE[And], i > 0) for i, e in enumerate(terms))


def _render(node: Expression, parent_prec: int, right_of_binary: bool) -> str:
    prec = _PRECEDENCE[type(node)]
    if isinstance(node, Exists):
        out = f"exists({node.name})"
    elif isinstance(node, Compare):
        out = f"{node.name} {node.op} {print_literal(node.literal)}"
    elif isinstance(node, Not):
        out = "not " + _render(node.operand, prec, False)
    elif isinstance(node, And):
        out = _render(node.left, prec, False) + " and " + _render(node.right, prec, True)
    else:
        out = _render(node.left, prec, False) + " or " + _render(node.right, prec, True)
    # Left-associative binaries: a right child at equal precedence needs
    # parentheses to preserve the tree shape.
    if prec < parent_prec or (prec == parent_prec and right_of_binary):
        return "(" + out + ")"
    return out


# ---------------------------------------------------------------------------
# Three-valued evaluation


class Status(str, Enum):
    SATISFIED = "SATISFIED"
    VIOLATED = "VIOLATED"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Reason:
    clause: str
    code: str  # FALSE_CLAUSE | TYPE_MISMATCH


@dataclass(frozen=True)
class EvalOutcome:
    status: Status
    reasons: tuple[Reason, ...] = ()
    missing: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def satisfied(cls) -> "EvalOutcome":
        return cls(Status.SATISFIED)

    @classmethod
    def violated(cls, reasons) -> "EvalOutcome":
        return cls(Status.VIOLATED, reasons=_dedupe(reasons))

    @classmethod
    def unknown(cls, names) -> "EvalOutcome":
        return cls(Status.UNKNOWN, missing=frozenset(names))

    @property
    def is_satisfied(self) -> bool:
        return self.status is Status.SATISFIED

    def to_json(self) -> dict:
        """The outcome's report fragment, built once per outcome and shared
        by every report that holds the outcome: read it, never write it."""
        return self._json

    @cached_property
    def _json(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.reasons:
            out["reasons"] = [{"clause": r.clause, "code": r.code} for r in self.reasons]
        if self.missing:
            out["missing"] = sorted(self.missing)
        return out


def _dedupe(reasons) -> tuple[Reason, ...]:
    seen = set()
    out = []
    for r in reasons:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return tuple(out)


def evaluate(expr: Expression, props: dict[str, PropertyValue]) -> EvalOutcome:
    """Evaluate an expression against a property set.

    Combination tables: And(V, _) = V, And(U, S) = U, Or(S, _) = S,
    Or(U, V) = U, Not(U) = U. Violated sides contribute their reasons in
    left-to-right order; Unknown sides pool their missing names.
    """
    if isinstance(expr, Exists):
        if expr.name in props:
            return EvalOutcome.satisfied()
        return EvalOutcome.violated([Reason(print_expression(expr), "FALSE_CLAUSE")])

    if isinstance(expr, Compare):
        if expr.name not in props:
            return EvalOutcome.unknown([expr.name])
        actual = props[expr.name]
        if kind_of(actual) != kind_of(expr.literal):
            return EvalOutcome.violated([Reason(print_expression(expr), "TYPE_MISMATCH")])
        if _compare(actual, expr.op, expr.literal):
            return EvalOutcome.satisfied()
        return EvalOutcome.violated([Reason(print_expression(expr), "FALSE_CLAUSE")])

    if isinstance(expr, Not):
        inner = evaluate(expr.operand, props)
        if inner.status is Status.UNKNOWN:
            return inner
        if inner.status is Status.VIOLATED:
            return EvalOutcome.satisfied()
        return EvalOutcome.violated([Reason(print_expression(expr), "FALSE_CLAUSE")])

    if isinstance(expr, And):
        return combine_and(evaluate(expr.left, props), evaluate(expr.right, props))

    if isinstance(expr, Or):
        return combine_or(evaluate(expr.left, props), evaluate(expr.right, props))

    raise TypeError(f"not an expression: {expr!r}")


def combine_and(left: EvalOutcome, right: EvalOutcome) -> EvalOutcome:
    if left.status is Status.VIOLATED or right.status is Status.VIOLATED:
        return EvalOutcome.violated(left.reasons + right.reasons)
    if left.status is Status.UNKNOWN or right.status is Status.UNKNOWN:
        return EvalOutcome.unknown(left.missing | right.missing)
    return EvalOutcome.satisfied()


def combine_or(left: EvalOutcome, right: EvalOutcome) -> EvalOutcome:
    if left.status is Status.SATISFIED or right.status is Status.SATISFIED:
        return EvalOutcome.satisfied()
    if left.status is Status.UNKNOWN or right.status is Status.UNKNOWN:
        return EvalOutcome.unknown(left.missing | right.missing)
    return EvalOutcome.violated(left.reasons + right.reasons)


def _compare(actual: PropertyValue, op: str, literal: PropertyValue) -> bool:
    if op == "=":
        return actual == literal
    if op == "!=":
        return actual != literal
    if op == "<":
        return actual < literal
    if op == "<=":
        return actual <= literal
    if op == ">":
        return actual > literal
    if op == ">=":
        return actual >= literal
    raise ValueError(f"unknown operator {op!r}")


def names_read(expr: Expression) -> frozenset[str]:
    """The property names an expression reads."""
    if isinstance(expr, (Exists, Compare)):
        return frozenset((expr.name,))
    if isinstance(expr, Not):
        return names_read(expr.operand)
    return names_read(expr.left) | names_read(expr.right)


def conjunction(exprs) -> Expression | None:
    """Fold expressions into a left-associated conjunction (None if empty)."""
    node: Expression | None = None
    for e in exprs:
        node = e if node is None else And(node, e)
    return node


# ---------------------------------------------------------------------------
# Shared evaluation

_MISSING = object()


class EvalMemo:
    """Outcomes shared by the evaluations of one push, as in Rete's alpha
    memory (Forgy 1982): a fleet has few distinct property tuples.

    A key is the constraint text plus, for each property name the text reads
    in sorted order, the value's type and the value (or a missing marker).
    Never ``Expression`` or bare value equality: ``1 == True`` would merge
    ``tier = 1`` with ``tier = true``, and ``Version`` padding ``v >= 1.0``
    with ``v >= 1.0.0``, whose reasons print differently. Site values equal
    under padding may share an entry: an outcome prints only the expression.
    Outcomes, checks and their report fragments are shared; never write them.
    Equal outcomes, and equal checks, are one object: they hold only printed
    clauses, codes and names, so equal ones print alike. ``reports`` holds
    the values callers build from shared outcomes, under keys of their own
    (``select_package``'s candidate reports).
    """

    def __init__(self):
        self._names: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._outcomes: dict[tuple, EvalOutcome] = {}
        self._standing: dict[tuple, StandingCheck] = {}
        self._values: dict = {}  # each distinct outcome and check, itself
        self.reports: dict[tuple, object] = {}

    def _key(self, texts: tuple[str, ...], props: dict[str, PropertyValue]) -> tuple:
        names = self._names.get(texts)
        if names is None:
            read = frozenset().union(*(names_read(parse_once(t)) for t in texts))
            names = self._names[texts] = tuple(sorted(read))
        return texts, tuple([(type(v), v) for v in (props.get(n, _MISSING) for n in names)])

    def outcome(self, texts: tuple[str, ...], props: dict[str, PropertyValue]) -> EvalOutcome:
        """The conjunction of ``texts`` on ``props`` (SATISFIED when empty).
        Each distinct text is evaluated once per distinct typed value of the
        properties it reads."""
        key = self._key(texts, props)
        out = self._outcomes.get(key)
        if out is None:
            if len(texts) == 1:
                out = evaluate(parse_once(texts[0]), props)
            else:
                parts = (self.outcome((t,), props) for t in texts)
                out = reduce(combine_and, parts, EvalOutcome.satisfied())
            out = self._outcomes[key] = self._values.setdefault(out, out)
        return out

    def standing(self, text: str, props: dict[str, PropertyValue]) -> StandingCheck:
        key = self._key((text,), props)
        check = self._standing.get(key)
        if check is None:
            check = StandingCheck(text, self.outcome((text,), props))
            check = self._standing[key] = self._values.setdefault(check, check)
        return check


# ---------------------------------------------------------------------------
# Standing constraints

DISK_FREE = "disk.free"


@dataclass(frozen=True)
class StandingCheck:
    constraint: str
    outcome: EvalOutcome

    def to_json(self) -> dict:
        """Built once per check and shared, like ``EvalOutcome.to_json``."""
        return self._json

    @cached_property
    def _json(self) -> dict:
        return {"constraint": self.constraint, "outcome": self.outcome.to_json()}


def check_standing(
    site, delta_footprint: Size | int = 0, memo: EvalMemo | None = None
) -> tuple[StandingCheck, ...]:
    """Evaluate a machine's standing constraints under a simulated install.

    The conventional ``disk.free`` property is reduced by ``delta_footprint``
    (floored at zero) before evaluation; other properties are untouched.
    Checks come from ``memo``, or from a memo local to the call.
    """
    memo = EvalMemo() if memo is None else memo
    delta = delta_footprint.count if isinstance(delta_footprint, Size) else int(delta_footprint)
    props = site.properties
    free = props.get(DISK_FREE)
    if delta and isinstance(free, Size):
        props = {**props, DISK_FREE: Size(max(0, free.count - delta))}
    return tuple(memo.standing(text, props) for text in site.standing_constraints)

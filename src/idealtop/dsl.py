"""A tiny law language over subsets of a space.

Grammar (whitespace insignificant, function-call syntax only):

    law  := expr rel expr
    rel  := "==" | "<="
    expr := name "(" expr { "," expr } ")" | var | "empty" | "X"
    var  := single uppercase letter other than X

``union``, ``inter`` and ``diff`` are binary, ``compl`` is unary, and every
operator alias from :mod:`idealtop.operators` (including ``clstar:<op>``)
is unary. ``X`` denotes the whole ground set, ``empty`` the empty set. A
law quantifies implicitly over all assignments of its free variables;
``check_law`` scans assignments lexicographically (first variable
outermost, masks ascending) and reports the first violation.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from . import operators as ops
from .space import Space
from .verdicts import Verdict, Witness


class DslError(ValueError):
    """Base error for law parsing and evaluation; carries a text offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class DslSyntaxError(DslError):
    pass


class UnknownOperatorError(DslError):
    pass


class ArityError(DslError):
    pass


class UnboundVariableError(DslError):
    pass


class VariableCapError(DslError):
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    kind: str  # "empty" | "universe"


@dataclass(frozen=True)
class Union:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Inter:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Diff:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Compl:
    child: "Expr"


@dataclass(frozen=True)
class Apply:
    op: str
    child: "Expr"


Expr = Var | Const | Union | Inter | Diff | Compl | Apply


@dataclass(frozen=True)
class LawAst:
    lhs: Expr
    relation: str  # "==" | "<="
    rhs: Expr
    free_vars: tuple[str, ...]


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?::[A-Za-z][A-Za-z0-9]*)*")


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME LPAREN RPAREN COMMA REL END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            out.append(_Token("LPAREN", c, i))
            i += 1
        elif c == ")":
            out.append(_Token("RPAREN", c, i))
            i += 1
        elif c == ",":
            out.append(_Token("COMMA", c, i))
            i += 1
        elif text.startswith("==", i) or text.startswith("<=", i):
            out.append(_Token("REL", text[i : i + 2], i))
            i += 2
        else:
            m = _NAME_RE.match(text, i)
            if m is None:
                raise DslSyntaxError(f"unexpected character {c!r}", i)
            out.append(_Token("NAME", m.group(), i))
            i = m.end()
    out.append(_Token("END", "", n))
    return out


_BINARY = {"union": Union, "inter": Inter, "diff": Diff}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(f"expected {what}", tok.pos)
        return self.take()

    def parse_expr(self) -> Expr:
        tok = self.peek()
        if tok.kind != "NAME":
            raise DslSyntaxError("expected an expression", tok.pos)
        self.take()
        if self.peek().kind == "LPAREN":
            self.take()
            args = [self.parse_expr()]
            while self.peek().kind == "COMMA":
                self.take()
                args.append(self.parse_expr())
            self.expect("RPAREN", "',' or ')'")
            return self._make_call(tok, args)
        name = tok.text
        if name == "empty":
            return Const("empty")
        if name == "X":
            return Const("universe")
        if len(name) == 1 and name.isupper():
            return Var(name)
        raise DslSyntaxError(
            f"{name!r} is not a variable (single uppercase letter), 'empty' or 'X'",
            tok.pos,
        )

    def _make_call(self, tok: _Token, args: list[Expr]) -> Expr:
        name = tok.text
        if name in _BINARY:
            if len(args) != 2:
                raise ArityError(f"{name} takes 2 arguments, got {len(args)}", tok.pos)
            return _BINARY[name](*args)
        if name == "compl":
            if len(args) != 1:
                raise ArityError(f"compl takes 1 argument, got {len(args)}", tok.pos)
            return Compl(args[0])
        if not ops.is_operator(name):
            raise UnknownOperatorError(f"unknown operator {name!r}", tok.pos)
        if len(args) != 1:
            raise ArityError(f"{name} takes 1 argument, got {len(args)}", tok.pos)
        return Apply(name, args[0])

    def parse_law(self) -> LawAst:
        lhs = self.parse_expr()
        rel = self.expect("REL", "'==' or '<='").text
        rhs = self.parse_expr()
        end = self.peek()
        if end.kind != "END":
            raise DslSyntaxError("trailing input after law", end.pos)
        return LawAst(lhs, rel, rhs, _free_vars((lhs, rhs)))

    def parse_only_expr(self) -> Expr:
        expr = self.parse_expr()
        end = self.peek()
        if end.kind != "END":
            raise DslSyntaxError("trailing input after expression", end.pos)
        return expr


def _walk(node: Expr) -> Iterator[Expr]:
    yield node
    if isinstance(node, (Union, Inter, Diff)):
        yield from _walk(node.left)
        yield from _walk(node.right)
    elif isinstance(node, (Compl, Apply)):
        yield from _walk(node.child)


def _free_vars(roots) -> tuple[str, ...]:
    seen: list[str] = []
    for root in roots:
        for node in _walk(root):
            if isinstance(node, Var) and node.name not in seen:
                seen.append(node.name)
    return tuple(seen)


def parse_law(text: str) -> LawAst:
    return _Parser(text).parse_law()


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse_only_expr()


def format_expr(node: Expr) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return "empty" if node.kind == "empty" else "X"
    if isinstance(node, Union):
        return f"union({format_expr(node.left)},{format_expr(node.right)})"
    if isinstance(node, Inter):
        return f"inter({format_expr(node.left)},{format_expr(node.right)})"
    if isinstance(node, Diff):
        return f"diff({format_expr(node.left)},{format_expr(node.right)})"
    if isinstance(node, Compl):
        return f"compl({format_expr(node.child)})"
    return f"{node.op}({format_expr(node.child)})"


def format_law(law: LawAst) -> str:
    return f"{format_expr(law.lhs)} {law.relation} {format_expr(law.rhs)}"


def eval_expr(space: Space, bindings: Mapping[str, int], node: Expr) -> int:
    """Definition-direct evaluation of one expression under one assignment."""
    full = space.ground.universe
    if isinstance(node, Var):
        try:
            return bindings[node.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Const):
        return 0 if node.kind == "empty" else full
    if isinstance(node, Union):
        return eval_expr(space, bindings, node.left) | eval_expr(space, bindings, node.right)
    if isinstance(node, Inter):
        return eval_expr(space, bindings, node.left) & eval_expr(space, bindings, node.right)
    if isinstance(node, Diff):
        return eval_expr(space, bindings, node.left) & ~eval_expr(space, bindings, node.right) & full
    if isinstance(node, Compl):
        return full ^ eval_expr(space, bindings, node.child)
    try:
        table = ops.unary_table(space, node.op)
    except KeyError:
        raise UnknownOperatorError(f"unknown operator {node.op!r}") from None
    return table[eval_expr(space, bindings, node.child)]


# Assignments evaluated together by ``scan_law``: 2**16 bits per plane.
_BLOCK_BITS = 16

# Bit positions set in each subset mask of up to 8 points.
_BIT_POSITIONS = tuple(tuple(q for q in range(8) if v >> q & 1) for v in range(256))


@functools.lru_cache(maxsize=None)
def _index_bit_planes(width: int) -> tuple[int, ...]:
    """Plane ``s`` has bit ``i`` set iff bit ``s`` of ``i`` is set, for i < 2**width."""
    ones = (1 << (1 << width)) - 1
    return tuple(
        ones // ((1 << (2 << s)) - 1) * (((1 << (1 << s)) - 1) << (1 << s))
        for s in range(width)
    )


def _apply_planes(table, planes: list[int], ones: int) -> list[int]:
    """Push per-point planes through a unary table via its input minterms.

    Minterm ``a`` marks the assignments whose input subset is exactly ``a``;
    they are built point by point, dropping the empty ones, and each is ORed
    into the output planes of the points in ``table[a]``.
    """
    minterms = [(0, ones)]
    for p, c in enumerate(planes):
        bit = 1 << p
        split = []
        for a, m in minterms:
            hi = m & c
            lo = m ^ hi
            if lo:
                split.append((a, lo))
            if hi:
                split.append((a | bit, hi))
        minterms = split
    out = [0] * len(planes)
    for a, m in minterms:
        for q in _BIT_POSITIONS[table[a]]:
            out[q] |= m
    return out


def _eval_planes(node: Expr, env, tables, ones: int, n: int) -> list[int]:
    """Evaluate ``node`` for a whole block: plane ``p`` holds point ``p``."""
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Const):
        return [0 if node.kind == "empty" else ones] * n
    if isinstance(node, Compl):
        return [ones ^ a for a in _eval_planes(node.child, env, tables, ones, n)]
    if isinstance(node, Apply):
        child = _eval_planes(node.child, env, tables, ones, n)
        return _apply_planes(tables[node.op], child, ones)
    left = _eval_planes(node.left, env, tables, ones, n)
    right = _eval_planes(node.right, env, tables, ones, n)
    if isinstance(node, Union):
        return [a | b for a, b in zip(left, right)]
    if isinstance(node, Inter):
        return [a & b for a, b in zip(left, right)]
    return [a & ~b for a, b in zip(left, right)]


def _value_at(planes: list[int], offset: int) -> int:
    return sum((plane >> offset & 1) << p for p, plane in enumerate(planes))


def scan_law(
    space: Space,
    law: LawAst,
    *,
    var_cap: int = 3,
    budget: int | None = None,
) -> tuple[str, Verdict | None, int]:
    """Scan all assignments; returns (outcome, verdict, assignments evaluated).

    Outcome is "holds", "violated" or "budget". The scan is bit-sliced:
    assignment ``i`` is the concatenation of the variables' masks (first
    variable in the high bits), every subexpression is one big int per
    point whose bit ``i`` is that point's membership under assignment
    ``i``, and blocks of ``2**16`` assignments are evaluated at once. The
    first witness is the lowest violating index, which is the serial
    lexicographic order (first variable outermost, masks ascending), and
    the count is what a serial scan would have evaluated: index + 1 on a
    violation, the budget when it runs out first, otherwise every
    assignment.
    """
    names = law.free_vars
    if len(names) > var_cap:
        raise VariableCapError(
            f"law has {len(names)} free variables, cap is {var_cap}"
        )
    tables = {
        node.op: ops.unary_table(space, node.op)
        for node in itertools.chain(_walk(law.lhs), _walk(law.rhs))
        if isinstance(node, Apply)
    }
    n, k = space.ground.n, len(names)
    width = n * k
    total = 1 << width
    limit = total if budget is None else max(0, min(budget, total))
    block_bits = min(width, _BLOCK_BITS)
    size = 1 << block_bits
    ones = (1 << size) - 1
    low = _index_bit_planes(block_bits)
    shifts = [n * (k - 1 - j) for j in range(k)]
    for start in range(0, limit, size):
        index_planes = [*low, *(ones if start >> s & 1 else 0 for s in range(block_bits, width))]
        env = {name: index_planes[sh : sh + n] for name, sh in zip(names, shifts)}
        lhs = _eval_planes(law.lhs, env, tables, ones, n)
        rhs = _eval_planes(law.rhs, env, tables, ones, n)
        mismatch = 0
        if law.relation == "==":
            for a, b in zip(lhs, rhs):
                mismatch |= a ^ b
        else:
            for a, b in zip(lhs, rhs):
                mismatch |= a & ~b
        if limit - start < size:
            mismatch &= (1 << (limit - start)) - 1
        if mismatch:
            offset = (mismatch & -mismatch).bit_length() - 1
            index = start + offset
            point_mask = (1 << n) - 1
            bindings = tuple((name, index >> sh & point_mask) for name, sh in zip(names, shifts))
            witness = Witness(bindings, _value_at(lhs, offset), _value_at(rhs, offset))
            return "violated", Verdict(False, witness), index + 1
    if limit < total:
        return "budget", None, limit
    return "holds", Verdict.ok(), total


def check_law(space: Space, law: LawAst, *, var_cap: int = 3) -> Verdict:
    """Check one law over all assignments of its free variables."""
    outcome, verdict, _ = scan_law(space, law, var_cap=var_cap)
    assert outcome in ("holds", "violated")
    return verdict


def read_laws_file(text: str) -> list[LawAst]:
    """One law per line; blank lines and '#' comments are skipped."""
    out = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            out.append(parse_law(stripped))
    return out

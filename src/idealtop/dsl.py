"""A tiny law language over subsets of a space.

Grammar (whitespace insignificant, function-call syntax only):

    law  := expr rel expr ["if" expr rel expr { "," expr rel expr }]
    rel  := "==" | "<="
    expr := name "(" expr { "," expr } ")" | var | "empty" | "X"
    var  := single uppercase letter other than X

``union``, ``inter`` and ``diff`` are binary, ``compl`` is unary, and every
operator alias from :mod:`idealtop.operators` (including ``clstar:<op>``)
is unary. ``X`` denotes the whole ground set, ``empty`` the empty set.
An assignment violates a law when its hypotheses (after ``if``) all hold
there and its conclusion fails.

A parsed expression is one ``Expr(name, args)`` node per production: a
leaf (variable, ``empty`` or ``X``) has no ``args``, and a call holds its
arguments in order. A law quantifies implicitly over all assignments of
its free variables; ``scan_law`` scans them lexicographically (first
variable outermost, masks ascending) and reports the first violation. It
scans a law whole: the variable cap guards law text only where it enters
(``read_laws_file``, ``check --var-cap`` and a search task's cap).
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterator, Mapping, NamedTuple

from . import operators as ops
from .space import Frozen, Space, Witness, _set, nonzero


class DslError(ValueError):
    """Base error for law parsing and evaluation; carries a text offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset
        self.line: int | None = None  # set by ``read_laws_file``


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


class Expr(NamedTuple):
    """One node of a parsed expression, shaped like the grammar: a leaf (a
    variable, ``empty`` or ``X``) has no ``args``; ``union``, ``inter``,
    ``diff``, ``compl`` and an operator alias apply to their ``args``."""

    name: str
    args: tuple[Expr, ...] = ()


_CONSTANTS = ("empty", "X")

# Calls an expression may nest, counting every call. The parser refuses
# deeper text, so no recursive walk of a parsed law can overflow the stack.
MAX_NESTING = 100

# Step codes of a compiled law.
_VAR, _CONST, _UNION, _INTER, _DIFF, _COMPL, _APPLY = range(7)

# (arity, step code) of each set operation; every operator alias is
# (1, _APPLY).
_SET_OPS = {"union": (2, _UNION), "inter": (2, _INTER), "diff": (2, _DIFF), "compl": (1, _COMPL)}


class LawAst(Frozen):
    """The conclusion ``lhs relation rhs`` and its hypotheses, which are
    laws with no hypotheses of their own. ``free_vars`` lists the law's
    variables in order of first occurrence."""

    __slots__ = ("lhs", "relation", "rhs", "hypotheses", "free_vars", "_compiled")
    _fields = ("lhs", "relation", "rhs", "hypotheses")

    def __init__(
        self,
        lhs: Expr,
        relation: str,  # "==" | "<="
        rhs: Expr,
        hypotheses: tuple[LawAst, ...] = (),
    ):
        _set(self, "lhs", lhs)
        _set(self, "relation", relation)
        _set(self, "rhs", rhs)
        _set(self, "hypotheses", hypotheses)
        _set(self, "free_vars", free_vars(*self.sides))
        _set(self, "_compiled", None)

    @property
    def sides(self) -> tuple[Expr, ...]:
        """Both sides of the conclusion, then both sides of each hypothesis."""
        return (self.lhs, self.rhs, *(side for h in self.hypotheses for side in h.sides))

    @property
    def _program(self) -> "_Program":
        """This law compiled for ``scan_law``, once, on first use."""
        if self._compiled is None:
            _set(self, "_compiled", _compile(self))
        return self._compiled


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?::[A-Za-z][A-Za-z0-9]*)*")


class _Token(NamedTuple):
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

    def parse_expr(self, depth: int = 0) -> Expr:
        tok = self.peek()
        if tok.kind != "NAME":
            raise DslSyntaxError("expected an expression", tok.pos)
        self.take()
        name = tok.text
        if self.peek().kind != "LPAREN":
            if name in _CONSTANTS or (len(name) == 1 and name.isupper()):
                return Expr(name)
            raise DslSyntaxError(
                f"{name!r} is not a variable (single uppercase letter), 'empty' or 'X'",
                tok.pos,
            )
        if depth == MAX_NESTING:
            raise DslSyntaxError(f"calls nest deeper than {MAX_NESTING} levels", tok.pos)
        self.take()
        args = [self.parse_expr(depth + 1)]
        while self.peek().kind == "COMMA":
            self.take()
            args.append(self.parse_expr(depth + 1))
        self.expect("RPAREN", "',' or ')'")
        if name in _SET_OPS:
            arity = _SET_OPS[name][0]
        elif ops.is_operator(name):
            arity = 1
        else:
            raise UnknownOperatorError(f"unknown operator {name!r}", tok.pos)
        if len(args) != arity:
            plural = "s" if arity > 1 else ""
            raise ArityError(f"{name} takes {arity} argument{plural}, got {len(args)}", tok.pos)
        return Expr(name, tuple(args))

    def parse_relation(self) -> LawAst:
        lhs = self.parse_expr()
        rel = self.expect("REL", "'==' or '<='").text
        return LawAst(lhs, rel, self.parse_expr())

    def parse_law(self) -> LawAst:
        law = self.parse_relation()
        hypotheses = []  # the first follows "if", the others ","
        while self.peek().text == ("," if hypotheses else "if"):
            self.take()
            hypotheses.append(self.parse_relation())
        end = self.peek()
        if end.kind != "END":
            raise DslSyntaxError("trailing input after law", end.pos)
        return LawAst(law.lhs, law.relation, law.rhs, tuple(hypotheses))

    def parse_only_expr(self) -> Expr:
        expr = self.parse_expr()
        end = self.peek()
        if end.kind != "END":
            raise DslSyntaxError("trailing input after expression", end.pos)
        return expr


def _walk(node: Expr) -> Iterator[Expr]:
    yield node
    for arg in node.args:
        yield from _walk(arg)


def free_vars(*roots: Expr) -> tuple[str, ...]:
    """The variables of the expressions, in order of first occurrence."""
    seen: list[str] = []
    for root in roots:
        for node in _walk(root):
            if not node.args and node.name not in _CONSTANTS and node.name not in seen:
                seen.append(node.name)
    return tuple(seen)


def parse_law(text: str) -> LawAst:
    return _Parser(text).parse_law()


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse_only_expr()


def format_expr(node: Expr) -> str:
    if not node.args:
        return node.name
    return f"{node.name}({','.join(map(format_expr, node.args))})"


def format_law(law: LawAst) -> str:
    text = f"{format_expr(law.lhs)} {law.relation} {format_expr(law.rhs)}"
    if law.hypotheses:
        text += " if " + ", ".join(map(format_law, law.hypotheses))
    return text


def eval_expr(space: Space, bindings: Mapping[str, int], node: Expr) -> int:
    """Definition-direct evaluation of one expression under one assignment."""
    full = space.ground.universe
    name = node.name
    if not node.args:
        if name in _CONSTANTS:
            return full if name == "X" else 0
        try:
            return bindings[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name!r}") from None
    vals = [eval_expr(space, bindings, arg) for arg in node.args]
    if name == "union":
        return vals[0] | vals[1]
    if name == "inter":
        return vals[0] & vals[1]
    if name == "diff":
        return vals[0] & ~vals[1] & full
    if name == "compl":
        return full ^ vals[0]
    try:
        table = ops.unary_table(space, name)
    except KeyError:
        raise UnknownOperatorError(f"unknown operator {name!r}") from None
    return table[vals[0]]


def _fails(relation: str, lhs: int, rhs: int, full: int) -> int:
    """Nonzero where ``lhs relation rhs`` fails: in a value, or in each lane."""
    return lhs ^ rhs if relation == "==" else lhs & (full ^ rhs)


def eval_law(space: Space, law: LawAst, bindings: Mapping[str, int]) -> tuple[int, int, bool]:
    """Both sides of the conclusion at one assignment, and whether they
    violate the law there, every hypothesis holding."""
    lhs = eval_expr(space, bindings, law.lhs)
    rhs = eval_expr(space, bindings, law.rhs)
    violated = bool(_fails(law.relation, lhs, rhs, space.ground.universe)) and not any(
        eval_law(space, h, bindings)[2] for h in law.hypotheses
    )
    return lhs, rhs, violated


# Assignments evaluated together by ``scan_law``: 2**16 byte lanes per value.
_BLOCK_BITS = 16


class _Program(Frozen):
    """A law as straight-line code: one step per distinct subexpression.

    Step ``i`` is ``(code, a, b)``: a variable index, a constant (``a`` true
    for ``X``), or an operation on earlier steps ``a`` and ``b`` (for
    ``_APPLY``, ``b`` numbers the operator among the distinct ones). A step
    is space-free when no operator lies below it; its lanes depend only on
    the point count and the block, and ``space_free`` lists those steps,
    ``per_space`` the rest, each in evaluation order. It compares by identity, which is all the
    ``_space_free_block`` and ``_scan_lanes`` memos need of their keys.
    """

    __slots__ = _fields = (
        "names",  # the free variables, in order
        "relation",  # of the conclusion
        "steps",
        "space_free",
        "per_space",
        "lhs",  # the conclusion's sides, as steps
        "rhs",
        "hypotheses",  # (relation, lhs step, rhs step) each
        "ops",  # the operator of every operator node, repeats included
        "firsts",  # where in ``ops`` each distinct operator first occurs
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)


def _compile(law: LawAst) -> _Program:
    ops = tuple(
        node.name
        for node in itertools.chain.from_iterable(map(_walk, law.sides))
        if node.args and node.name not in _SET_OPS
    )
    firsts = {op: ops.index(op) for op in ops}
    slots: dict[Expr, int] = {}
    steps: list[tuple] = []
    free: list[bool] = []

    def slot(node: Expr) -> int:
        if node in slots:
            return slots[node]
        args = [slot(arg) for arg in node.args]
        name = node.name
        if not args:
            if name in _CONSTANTS:
                step = (_CONST, name == "X", None)
            else:
                step = (_VAR, law.free_vars.index(name), None)
            is_free = True
        elif name in _SET_OPS:
            step = (_SET_OPS[name][1], args[0], args[1] if len(args) > 1 else None)
            is_free = all(free[a] for a in args)
        else:
            step, is_free = (_APPLY, args[0], list(firsts).index(name)), False
        slots[node] = len(steps)
        steps.append(step)
        free.append(is_free)
        return slots[node]

    lhs, rhs = slot(law.lhs), slot(law.rhs)
    hypotheses = tuple((h.relation, slot(h.lhs), slot(h.rhs)) for h in law.hypotheses)
    return _Program(
        law.free_vars,
        law.relation,
        tuple(steps),
        tuple(i for i, f in enumerate(free) if f),
        tuple(i for i, f in enumerate(free) if not f),
        lhs,
        rhs,
        hypotheses,
        ops,
        tuple(firsts.values()),
    )


@functools.lru_cache(maxsize=None)
def _block_shape(n: int, k: int) -> tuple[int, int, int, int]:
    """(index width, bits per block, ``0x01`` in every lane, every lane the
    full set) for n points, k variables."""
    width = n * k
    block_bits = min(width, _BLOCK_BITS)
    ones = int.from_bytes(b"\1" * (1 << block_bits), "little")
    return width, block_bits, ones, ones * ((1 << n) - 1)


@functools.lru_cache(maxsize=None)
def _index_lanes(shift: int, n: int, block_bits: int) -> int:
    """Lane ``i`` holds ``i >> shift & (2**n - 1)``, for i < 2**block_bits."""
    if shift >= block_bits:
        return 0
    values = range(1 << min(n, block_bits - shift))
    period = b"".join(bytes([v]) * (1 << shift) for v in values)
    return int.from_bytes(period * ((1 << block_bits) // len(period)), "little")


def _run(program: _Program, order, vals: list, env, tables, inputs, size: int, full: int) -> None:
    """Evaluate the steps in ``order`` into ``vals``: byte ``i`` of a value
    is its subset at assignment ``i``."""
    steps = program.steps
    for i in order:
        code, a, b = steps[i]
        if code == _APPLY:  # the per-space case, first
            lanes = inputs[i] or vals[a].to_bytes(size, "little")
            vals[i] = int.from_bytes(lanes.translate(tables[b]), "little")
        elif code == _VAR:
            vals[i] = env[a]
        elif code == _CONST:
            vals[i] = full if a else 0
        elif code == _COMPL:
            vals[i] = full ^ vals[a]
        elif code == _UNION:
            vals[i] = vals[a] | vals[b]
        elif code == _INTER:
            vals[i] = vals[a] & vals[b]
        elif code == _DIFF:
            # ``full ^ y`` rather than ``~y``: a negative int costs extra passes
            vals[i] = vals[a] & (full ^ vals[b])


# Blocks of space-free values kept, each keyed on the compiled law, the
# point count and the block's first assignment; this constant bounds the
# count. A scan that ``_scan_lanes`` answers from its memo reads none.
# A search whose law fits in one block
# (n * variables <= 16) needs one per point count it scans, and a 7-point
# 3-variable law needs its 32, so each is computed once per search. A block
# holds at most 64 KiB per step, and as much again for the bytes of an
# operator input: the 32 blocks of a 7-point three-variable additivity
# law are about 14 MiB, held once per process. A scan walks a law's
# blocks in the same order on every space, so a law with more blocks than
# this, like an 8-point 3-variable law (256 blocks), would miss on every
# one; it skips the memo and holds none.
_SPACE_FREE_BLOCKS = 32


@functools.lru_cache(maxsize=_SPACE_FREE_BLOCKS)
def _space_free_block(program: _Program, n: int, start: int) -> tuple[tuple, tuple]:
    """Lanes of the space-free steps for the block at ``start``, and the
    ``bytes`` of every space-free operator input (None elsewhere).

    Both are the same on every space with ``n`` points, so a search
    computes them once and each space only translates those bytes through
    its operator tables.
    """
    k = len(program.names)
    _, block_bits, ones, full = _block_shape(n, k)
    point_mask = (1 << n) - 1
    env = [
        _index_lanes(shift, n, block_bits) | (start >> shift & point_mask) * ones
        for shift in (n * (k - 1 - j) for j in range(k))
    ]
    size = 1 << block_bits
    vals: list = [None] * len(program.steps)
    _run(program, program.space_free, vals, env, None, None, size, full)
    inputs = [None] * len(program.steps)
    for i in program.per_space:
        code, a, _ = program.steps[i]
        if code == _APPLY and vals[a] is not None:
            inputs[i] = vals[a].to_bytes(size, "little")
    return tuple(vals), tuple(inputs)


def _check_var_cap(law: LawAst, var_cap: int) -> None:
    """Refuse a law with more free variables than ``var_cap``."""
    count = len(law.free_vars)
    if count > var_cap:
        plural = "" if count == 1 else "s"
        raise VariableCapError(f"law has {count} free variable{plural}, cap is {var_cap}")


def scan_law(
    space: Space, law: LawAst, *, budget: int | None = None
) -> tuple[str, Witness | None, int]:
    """Scan all assignments; returns (outcome, witness, assignments evaluated).

    Outcome is "holds", "violated" or "budget", and the witness is None
    unless it is "violated". The scan runs in byte lanes: assignment ``i``
    is the concatenation of the variables' masks (first variable in the
    high bits), every subexpression is one big int
    whose byte ``i`` is its subset under assignment ``i`` (``MAX_POINTS``
    is 8, so a subset fits in a byte), and blocks of ``2**16`` assignments
    are evaluated at once. Set operations act on all lanes in one int
    operation, and an operator is applied to every lane at once with
    ``bytes.translate`` through its table. The first witness is the lowest
    violating lane, which is the serial lexicographic order (first
    variable outermost, masks ascending), and the count is what a serial
    scan would have evaluated: index + 1 on a violation, the budget when
    it runs out first, otherwise every assignment. Lanes where a
    hypothesis fails are cleared before the lowest is taken.

    The law is compiled once into straight-line code with one step per
    distinct subexpression, so a repeated subexpression is evaluated once.
    Steps with no operator below them are space-free: their lanes, and the
    bytes of operator inputs among them, come from a small memo keyed by
    point count and block and shared by every space, so a space only
    translates those bytes through its own operator tables.

    A space enters the scan only through its point count and its operator
    tables, so the lane scan itself, ``_scan_lanes``, is memoized on the
    compiled law, the point count, the assignments to scan and the table
    of each operator node: a space whose tables repeat an earlier space's
    gets that scan's result without scanning. Nodes of one operator carry
    one table, so two keys are equal exactly when the law's distinct
    operator tables are.
    """
    program = law._program
    n = space.ground.n
    total = 1 << n * len(program.names)
    limit = total if budget is None else max(0, min(budget, total))
    # One lookup per operator node, repeats included: the space's table
    # counts do not depend on how the law compiles or on the memo.
    return _scan_lanes(program, n, limit, *[ops.unary_table(space, op) for op in program.ops])


# Lane scans kept by ``_scan_lanes``. A key holds the compiled law and
# its operator nodes' tables (``2**n`` bytes each, so at most 256, and
# the nodes of one operator share one), and a result is at most one small
# witness, so a full memo is a few MiB at most. An exhaustive 4-point
# search has 1,136 distinct ``star`` tables over its 5,680 spaces, and
# every one stays in the memo.
_SCAN_MEMO_SIZE = 2048


@functools.lru_cache(maxsize=_SCAN_MEMO_SIZE)
def _scan_lanes(
    program: _Program, n: int, limit: int, *tables: bytes
) -> tuple[str, Witness | None, int]:
    """The first ``limit`` assignments of ``program`` on n points, with
    ``tables[j]`` the table of ``program.ops[j]``; see ``scan_law``."""
    k = len(program.names)
    width, block_bits, ones, full = _block_shape(n, k)
    total = 1 << width
    size = 1 << block_bits
    # ``bytes.translate`` takes a 256-byte table; lanes only ever index
    # its first 2**n bytes.
    padded = [tables[j].ljust(256, b"\0") for j in program.firsts]
    free_block = _space_free_block
    if limit > size * _SPACE_FREE_BLOCKS:
        free_block = _space_free_block.__wrapped__
    for start in range(0, limit, size):
        fixed, inputs = free_block(program, n, start)
        vals = list(fixed)
        _run(program, program.per_space, vals, None, padded, inputs, size, full)
        lhs, rhs = vals[program.lhs], vals[program.rhs]
        mismatch = _fails(program.relation, lhs, rhs, full)
        for rel, a, b in program.hypotheses:
            mismatch &= (ones ^ nonzero(_fails(rel, vals[a], vals[b], full), ones)) * 0xFF
        if limit - start < size:
            mismatch &= (1 << 8 * (limit - start)) - 1
        if mismatch:
            offset = ((mismatch & -mismatch).bit_length() - 1) // 8
            index = start + offset
            point_mask = (1 << n) - 1
            shifts = [n * (k - 1 - j) for j in range(k)]
            bindings = tuple(
                (name, index >> sh & point_mask) for name, sh in zip(program.names, shifts)
            )
            witness = Witness(bindings, lhs >> 8 * offset & 0xFF, rhs >> 8 * offset & 0xFF)
            return "violated", witness, index + 1
    if limit < total:
        return "budget", None, limit
    return "holds", None, total


def read_laws_file(text: str, *, var_cap: int = 3) -> list[LawAst]:
    """One law per line; blank lines and '#' comments are skipped. A law
    that fails to parse, or has more free variables than ``var_cap``,
    raises its error with ``line`` set to its line number, counted from 1,
    and its offset counted from the line's start."""
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        code = line.split("#", 1)[0]
        if code.strip():
            try:
                out.append(parse_law(code))
                _check_var_cap(out[-1], var_cap)
            except DslError as exc:
                exc.line = number
                raise
    return out

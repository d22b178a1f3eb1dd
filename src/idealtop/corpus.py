"""Embedded regression corpus: small spaces with frozen expected outputs.

Each entry pins down one way a closure-like operator misbehaves (or
behaves) on a concrete four-point space, through three kinds of check: an
expression's exact value at fixed bindings, an exact generalized-open
family, and a law's verdict, over every assignment or at known bindings.
``run_corpus`` re-derives everything from the engine and reports any
mismatch with expected vs got.
"""

from __future__ import annotations

from typing import NamedTuple

from . import dsl, laws
from . import operators as ops
from .space import Space, space_from_document
from .verdicts import Witness

W1, W2, W3, W4 = 1, 2, 4, 8
ALL = W1 | W2 | W3 | W4

SPACE_A_DOC = {
    "points": ["w1", "w2", "w3", "w4"],
    "topology": [[], ["w1"], ["w2"], ["w1", "w2"], ["w1", "w2", "w3", "w4"]],
    "ideal": [[], ["w3"]],
}

SPACE_B_DOC = {
    "points": ["w1", "w2", "w3", "w4"],
    "topology": [
        [],
        ["w3", "w4"],
        ["w1", "w3", "w4"],
        ["w2", "w3", "w4"],
        ["w1", "w2", "w3", "w4"],
    ],
    "ideal": [[], ["w1"]],
}


def _fmt_bindings(space: Space, bindings) -> str:
    return ", ".join(f"{name}={space.ground.format(bits)}" for name, bits in bindings)


class EvalCheck(NamedTuple):
    """An expression evaluates to an exact subset under fixed bindings."""

    expr: str
    bindings: tuple[tuple[str, int], ...]
    expected: int

    def run(self, space: Space) -> str | None:
        got = dsl.eval_expr(space, dict(self.bindings), dsl.parse_expr(self.expr))
        if got == self.expected:
            return None
        return (
            f"{self.expr} [{_fmt_bindings(space, self.bindings)}]: "
            f"expected {space.ground.format(self.expected)}, got {space.ground.format(got)}"
        )


class LawCheck(NamedTuple):
    """A law's verdict on the entry space, over every assignment or, with
    ``at``, at those bindings only.

    ``law`` is a registry name or DSL law text. Without ``at``, a given
    ``tag`` must be the tag of the first failing template; with ``at``, it
    picks the template to evaluate.
    """

    law: str
    holds: bool
    at: tuple[tuple[str, int], ...] | None = None
    tag: str | None = None

    def run(self, space: Space) -> str | None:
        law = _resolve_law(self.law)
        want = ("Holds" if self.holds else "Violated") + (f" ({self.tag})" if self.tag else "")
        if self.at is None:
            verdict = law.check(space)
            tag = None if verdict.holds else verdict.witness.operation
            if verdict.holds == self.holds and self.tag in (None, tag):
                return None
            got = "Holds" if verdict.holds else f"Violated at {verdict.witness.line(space.ground)}"
            return f"{self.law}: expected {want}, got {got}"
        violated = law.witness_violates(space, Witness(self.at, 0, operation=self.tag))
        if violated != self.holds:
            return None
        got = "Violated" if violated else "Holds"
        return f"{self.law} [{_fmt_bindings(space, self.at)}]: expected {want}, got {got}"


def _resolve_law(text: str) -> laws.Law:
    """A registry name, or DSL law text as an untagged one-template law;
    only law text holds a relation such as ``==`` or ``<=``."""
    if "=" in text:
        return laws.Law(text, ((None, dsl.parse_law(text)),))
    return laws.get_law(text)


def _pair(a: int, b: int) -> tuple[tuple[str, int], ...]:
    return (("A", a), ("B", b))


class FamilyCheck(NamedTuple):
    """A generalized-open family equals an exact frozen list."""

    kind: str
    expected: tuple[int, ...]

    def run(self, space: Space) -> str | None:
        got = ops.kopen_family(space, self.kind).members
        if got == self.expected:
            return None
        fmt = lambda fam: "[" + ", ".join(space.ground.format(s) for s in fam) + "]"
        name = "open" if self.kind == "open" else f"{self.kind}-open"
        return f"{name} family: expected {fmt(self.expected)}, got {fmt(got)}"


class CorpusEntry(NamedTuple):
    id: str
    title: str
    document: dict
    checks: tuple

    def space(self) -> Space:
        return space_from_document(self.document)


class EntryReport(NamedTuple):
    entry_id: str
    title: str
    checks: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_entry(entry: CorpusEntry) -> EntryReport:
    space = entry.space()
    failures = tuple(
        failure for check in entry.checks if (failure := check.run(space)) is not None
    )
    return EntryReport(entry.id, entry.title, len(entry.checks), failures)


def run_corpus(only: str | None = None) -> list[EntryReport]:
    entries = ENTRIES if only is None else tuple(e for e in ENTRIES if e.id == only)
    if not entries:
        raise ValueError(f"no such entry: {only}")
    return [run_entry(entry) for entry in entries]


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "ex-3.3-1",
        "semi-star additivity fails where open-star additivity holds",
        SPACE_A_DOC,
        (
            FamilyCheck("semi", (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)),
            EvalCheck("sstar(E)", (("E", W1 | W3),), W1),
            EvalCheck("sstar(F)", (("F", W2 | W3),), W2),
            EvalCheck("sstar(union(E,F))", (("E", W1 | W3), ("F", W2 | W3)), ALL),
            LawCheck("additivity:star", holds=True),
            LawCheck("additivity:sstar", holds=False),
            LawCheck("additivity:sstar", False, _pair(W1 | W3, W2 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-3.3-2",
        "pre-star and beta-star additivity fail; their star closures are not Kuratowski",
        SPACE_B_DOC,
        (
            FamilyCheck("pre", (0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
            FamilyCheck("beta", (0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
            EvalCheck("pstar(A)", (("A", W1 | W3),), W3),
            EvalCheck("pstar(B)", (("B", W1 | W4),), W4),
            EvalCheck("pstar(union(A,B))", (("A", W1 | W3), ("B", W1 | W4)), ALL),
            EvalCheck("betastar(A)", (("A", W1 | W3),), W3),
            EvalCheck("betastar(B)", (("B", W1 | W4),), W4),
            EvalCheck("betastar(union(A,B))", (("A", W1 | W3), ("B", W1 | W4)), ALL),
            LawCheck("additivity:pstar", holds=False),
            LawCheck("additivity:betastar", holds=False),
            LawCheck("additivity:pstar", False, _pair(W1 | W3, W1 | W4)),
            LawCheck("additivity:betastar", False, _pair(W1 | W3, W1 | W4)),
            LawCheck("kuratowski:pstar", False, _pair(W1 | W3, W1 | W4), "additive"),
            LawCheck("kuratowski:betastar", False, _pair(W1 | W3, W1 | W4), "additive"),
            LawCheck("kuratowski:pstar", False, tag="additive"),
            LawCheck("kuratowski:betastar", False, tag="additive"),
        ),
    ),
    CorpusEntry(
        "ex-3.6",
        "the difference law fails for the semi local function",
        SPACE_A_DOC,
        (
            EvalCheck(
                "diff(sstar(A),sstar(B))",
                (("A", W1 | W2 | W3), ("B", W1 | W3)),
                W2 | W3 | W4,
            ),
            EvalCheck(
                "diff(sstar(diff(A,B)),sstar(B))",
                (("A", W1 | W2 | W3), ("B", W1 | W3)),
                W2,
            ),
            LawCheck("diff-law:sstar", holds=False),
            LawCheck("diff-law:sstar", False, _pair(W1 | W2 | W3, W1 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-3.7",
        "the difference law fails for the pre local function",
        SPACE_B_DOC,
        (
            EvalCheck(
                "diff(pstar(A),pstar(B))",
                (("A", W1 | W3 | W4), ("B", W1 | W3)),
                W1 | W2 | W4,
            ),
            EvalCheck(
                "diff(pstar(diff(A,B)),pstar(B))",
                (("A", W1 | W3 | W4), ("B", W1 | W3)),
                W4,
            ),
            LawCheck("diff-law:pstar", holds=False),
            LawCheck("diff-law:pstar", False, _pair(W1 | W3 | W4, W1 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-3.8",
        "psi of the pre local function distributes over neither meet nor join",
        SPACE_B_DOC,
        (
            EvalCheck("psip(A)", (("A", W2 | W4),), W1 | W2 | W4),
            EvalCheck("psip(B)", (("B", W2 | W3),), W1 | W2 | W3),
            EvalCheck("psip(inter(A,B))", (("A", W2 | W4), ("B", W2 | W3)), 0),
            EvalCheck("psip(E)", (("E", W3),), W1 | W3),
            EvalCheck("psip(F)", (("F", W1 | W2),), 0),
            EvalCheck("psip(union(E,F))", (("E", W3), ("F", W1 | W2)), W1 | W2 | W3),
            LawCheck("psi-cap:pstar", holds=False),
            LawCheck("psi-cup:pstar", holds=False),
            LawCheck("psi-cap:pstar", False, _pair(W2 | W4, W2 | W3)),
            LawCheck("psi-cup:pstar", False, _pair(W3, W1 | W2)),
        ),
    ),
    CorpusEntry(
        "ex-3.10",
        "sets below their psi-pre image do not form a topology",
        SPACE_B_DOC,
        (
            LawCheck("A <= psip(A)", True, (("A", W2 | W4),)),
            LawCheck("A <= psip(A)", True, (("A", W2 | W3),)),
            LawCheck("A <= psip(A)", False, (("A", W2),)),
            LawCheck("eta-topology:pstar", holds=False),
            LawCheck("eta-topology:pstar", False, _pair(W2 | W4, W2 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-4.2",
        "the closure-expanded semi local function is not additive",
        SPACE_A_DOC,
        (
            EvalCheck("xis(A)", (("A", W2 | W3),), W2),
            EvalCheck("xis(B)", (("B", W1 | W3),), W1),
            EvalCheck("xis(union(A,B))", (("A", W2 | W3), ("B", W1 | W3)), ALL),
            LawCheck("additivity:xis", holds=False),
            LawCheck("additivity:xis", False, _pair(W2 | W3, W1 | W3)),
            LawCheck("additivity:xis", False, _pair(W2 | W4, W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.3",
        "the closure-expanded beta local function is not additive",
        SPACE_B_DOC,
        (
            EvalCheck("xibeta(A)", (("A", W1 | W3),), W3),
            EvalCheck("xibeta(B)", (("B", W1 | W4),), W4),
            EvalCheck("xibeta(union(A,B))", (("A", W1 | W3), ("B", W1 | W4)), ALL),
            LawCheck("additivity:xibeta", holds=False),
            LawCheck("additivity:xibeta", False, _pair(W1 | W3, W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.4",
        "the closure-expanded pre local function is not additive",
        SPACE_B_DOC,
        (
            EvalCheck("xip(E)", (("E", W1 | W3),), W3),
            EvalCheck("xip(F)", (("F", W1 | W4),), W4),
            EvalCheck("xip(union(E,F))", (("E", W1 | W3), ("F", W1 | W4)), ALL),
            LawCheck("additivity:xip", holds=False),
            LawCheck("additivity:xip", False, _pair(W1 | W3, W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.7",
        "psi of the closure-expanded semi operator breaks meets and its fix family",
        SPACE_A_DOC,
        (
            EvalCheck("psixis(A)", (("A", W2 | W4),), W2 | W3 | W4),
            EvalCheck("psixis(B)", (("B", W1 | W4),), W1 | W3 | W4),
            EvalCheck("psixis(inter(A,B))", (("A", W2 | W4), ("B", W1 | W4)), 0),
            LawCheck("psi-cap:xis", holds=False),
            LawCheck("psi-cap:xis", False, _pair(W2 | W4, W1 | W4)),
            LawCheck("A <= psixis(A)", True, (("A", W2 | W4),)),
            LawCheck("A <= psixis(A)", True, (("A", W1 | W4),)),
            LawCheck("A <= psixis(A)", False, (("A", W4),)),
            LawCheck("eta-topology:xis", holds=False),
            LawCheck("eta-topology:xis", False, _pair(W2 | W4, W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.8",
        "psi of the closure-expanded beta operator breaks meets and its fix family",
        SPACE_B_DOC,
        (
            EvalCheck("psixibeta(A)", (("A", W2 | W4),), W1 | W2 | W4),
            EvalCheck("psixibeta(B)", (("B", W2 | W3),), W1 | W2 | W3),
            EvalCheck("psixibeta(inter(A,B))", (("A", W2 | W4), ("B", W2 | W3)), 0),
            LawCheck("psi-cap:xibeta", holds=False),
            LawCheck("psi-cap:xibeta", False, _pair(W2 | W4, W2 | W3)),
            LawCheck("A <= psixibeta(A)", True, (("A", W2 | W4),)),
            LawCheck("A <= psixibeta(A)", True, (("A", W2 | W3),)),
            LawCheck("A <= psixibeta(A)", False, (("A", W2),)),
            LawCheck("eta-topology:xibeta", holds=False),
            LawCheck("eta-topology:xibeta", False, _pair(W2 | W4, W2 | W3)),
        ),
    ),
)

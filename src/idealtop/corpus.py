"""Embedded regression corpus: small spaces with frozen expected outputs.

Each entry pins down one way a closure-like operator misbehaves (or
behaves) on a concrete four-point space: exact operator values, family
listings, law verdicts, known violating pairs, and refused topology
constructions. ``run_corpus`` re-derives everything from the engine and
reports any mismatch with expected vs got.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dsl, laws
from . import operators as ops
from .space import Space, space_from_document

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


@dataclass(frozen=True)
class EvalCheck:
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


@dataclass(frozen=True)
class LawCheck:
    """A registry law holds (or is violated) on the entry space."""

    law: str
    holds: bool

    def run(self, space: Space) -> str | None:
        verdict = laws.get_law(self.law).check(space)
        if verdict.holds == self.holds:
            return None
        want = "Holds" if self.holds else "Violated"
        got = "Holds" if verdict.holds else f"Violated at {verdict.witness}"
        return f"{self.law}: expected {want}, got {got}"


@dataclass(frozen=True)
class PairCheck:
    """A specific pair is a genuine violating instance of a two-variable law."""

    law: str
    a: int
    b: int

    def run(self, space: Space) -> str | None:
        if laws.get_law(self.law).pair_violates(space, self.a, self.b):
            return None
        pair = _fmt_bindings(space, (("A", self.a), ("B", self.b)))
        return f"{self.law}: expected [{pair}] to violate, but it does not"


@dataclass(frozen=True)
class FamilyCheck:
    """A generalized-open family equals an exact frozen list."""

    kind: str
    expected: tuple[int, ...]

    def run(self, space: Space) -> str | None:
        got = ops.kopen_family(space, ops.KIND_BY_NAME[self.kind]).members
        if got == self.expected:
            return None
        fmt = lambda fam: "[" + ", ".join(space.ground.format(s) for s in fam) + "]"
        return f"{self.kind}-open family: expected {fmt(self.expected)}, got {fmt(got)}"


@dataclass(frozen=True)
class MemberCheck:
    """Membership fact about the family of sets below their psi image."""

    op: str
    subset: int
    present: bool

    def run(self, space: Space) -> str | None:
        fam = ops.psi_fix_family(space, ops.LOCAL_FN_ALIASES[self.op])
        if (self.subset in fam) == self.present:
            return None
        where = "in" if self.present else "not in"
        return (
            f"expected {space.ground.format(self.subset)} {where} "
            f"the psi-fix family of {self.op}"
        )


@dataclass(frozen=True)
class KuratowskiCheck:
    """One closure axiom's verdict for a | f(a), with an optional known pair."""

    op: str
    axiom: str
    holds: bool
    pair: tuple[int, int] | None = None

    def run(self, space: Space) -> str | None:
        spec = ops.LOCAL_FN_ALIASES[self.op]
        verdict = laws.check_kuratowski(space, spec).verdict(self.axiom)
        if verdict.holds != self.holds:
            want = "Holds" if self.holds else "Violated"
            return f"kuratowski {self.axiom} for {self.op}: expected {want}"
        if self.pair is not None:
            a, b = self.pair
            star = ops.unary_table(space, "clstar:" + self.op)
            if star[a | b] == star[a] | star[b]:
                pair = _fmt_bindings(space, (("A", a), ("B", b)))
                return f"kuratowski additive for {self.op}: [{pair}] does not violate"
        return None


@dataclass(frozen=True)
class StarRefusalCheck:
    """Building the star topology must be refused, blaming a known axiom."""

    op: str
    axiom: str

    def run(self, space: Space) -> str | None:
        try:
            laws.star_topology(space, ops.LOCAL_FN_ALIASES[self.op])
        except laws.StarTopologyRefused as refusal:
            if refusal.axiom == self.axiom:
                return None
            return (
                f"star topology for {self.op}: refused for {refusal.axiom!r}, "
                f"expected {self.axiom!r}"
            )
        return f"star topology for {self.op}: expected a refusal, got a topology"


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    title: str
    document: dict
    checks: tuple

    def space(self) -> Space:
        return space_from_document(self.document)


@dataclass(frozen=True)
class EntryReport:
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


def get_entry(entry_id: str) -> CorpusEntry:
    for entry in ENTRIES:
        if entry.id == entry_id:
            return entry
    raise ValueError(f"no such entry: {entry_id}")


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
            PairCheck("additivity:sstar", W1 | W3, W2 | W3),
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
            PairCheck("additivity:pstar", W1 | W3, W1 | W4),
            PairCheck("additivity:betastar", W1 | W3, W1 | W4),
            KuratowskiCheck("pstar", "additive", holds=False, pair=(W1 | W3, W1 | W4)),
            KuratowskiCheck("betastar", "additive", holds=False, pair=(W1 | W3, W1 | W4)),
            StarRefusalCheck("pstar", "additive"),
            StarRefusalCheck("betastar", "additive"),
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
            PairCheck("diff-law:sstar", W1 | W2 | W3, W1 | W3),
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
            PairCheck("diff-law:pstar", W1 | W3 | W4, W1 | W3),
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
            PairCheck("psi-cap:pstar", W2 | W4, W2 | W3),
            PairCheck("psi-cup:pstar", W3, W1 | W2),
        ),
    ),
    CorpusEntry(
        "ex-3.10",
        "sets below their psi-pre image do not form a topology",
        SPACE_B_DOC,
        (
            MemberCheck("pstar", W2 | W4, present=True),
            MemberCheck("pstar", W2 | W3, present=True),
            MemberCheck("pstar", W2, present=False),
            LawCheck("eta-topology:pstar", holds=False),
            PairCheck("eta-topology:pstar", W2 | W4, W2 | W3),
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
            PairCheck("additivity:xis", W2 | W3, W1 | W3),
            PairCheck("additivity:xis", W2 | W4, W1 | W4),
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
            PairCheck("additivity:xibeta", W1 | W3, W1 | W4),
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
            PairCheck("additivity:xip", W1 | W3, W1 | W4),
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
            PairCheck("psi-cap:xis", W2 | W4, W1 | W4),
            MemberCheck("xis", W2 | W4, present=True),
            MemberCheck("xis", W1 | W4, present=True),
            MemberCheck("xis", W4, present=False),
            LawCheck("eta-topology:xis", holds=False),
            PairCheck("eta-topology:xis", W2 | W4, W1 | W4),
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
            PairCheck("psi-cap:xibeta", W2 | W4, W2 | W3),
            MemberCheck("xibeta", W2 | W4, present=True),
            MemberCheck("xibeta", W2 | W3, present=True),
            MemberCheck("xibeta", W2, present=False),
            LawCheck("eta-topology:xibeta", holds=False),
            PairCheck("eta-topology:xibeta", W2 | W4, W2 | W3),
        ),
    ),
)

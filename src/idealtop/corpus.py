"""Embedded regression corpus: small spaces with frozen expected outputs.

Each entry pins down one way a closure-like operator misbehaves (or
behaves) on a concrete four-point space, through two kinds of check: an
exact generalized-open family, and a law's verdict, over every assignment
or at known bindings. An expression's exact value at fixed bindings is the
law ``<expr> == R`` holding with ``R`` bound to the value.
``run_corpus`` re-derives everything from the engine and reports any
mismatch with expected vs got.
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple

from . import laws
from . import operators as ops
from .space import Space, parse_space

W1, W2, W3, W4 = 1, 2, 4, 8
ALL = W1 | W2 | W3 | W4


def _fmt_bindings(space: Space, bindings) -> str:
    return ", ".join(f"{name}={space.ground.format(bits)}" for name, bits in bindings)


class LawCheck(NamedTuple):
    """A law's verdict on the entry space, over every assignment or, with
    ``at``, at those bindings only.

    ``law`` is a registry name or DSL law text of any variable count (see
    ``laws.resolve_law``). Without ``at``, a given ``tag`` must be the tag
    of the first failing template; with ``at``, it picks the template to
    evaluate. A failure names the verdict expected and the one got, with
    the violated template's witness.
    """

    law: str
    holds: bool
    at: tuple[tuple[str, int], ...] | None = None
    tag: str | None = None

    def run(self, space: Space) -> str | None:
        law = laws.resolve_law(self.law)
        want = ("Holds" if self.holds else "Violated") + (f" ({self.tag})" if self.tag else "")
        if self.at is None:
            where, witness = "", law.check(space)
            tag = None if witness is None else witness.operation
        else:
            where = f" [{_fmt_bindings(space, self.at)}]"
            witness, tag = law.violated_at(space, self.at, self.tag), self.tag
        if (witness is None) == self.holds and self.tag in (None, tag):
            return None
        got = "Holds" if witness is None else f"Violated at {witness.line(space.ground)}"
        return f"{self.law}{where}: expected {want}, got {got}"


def _at(**subsets: int) -> tuple[tuple[str, int], ...]:
    """Bindings in the order written: ``_at(A=W1, B=W2 | W3)``."""
    return tuple(subsets.items())


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


def space_text(name: str) -> str:
    """The space document ``spaces/<name>.json`` shipped with the package."""
    return (resources.files("idealtop") / "spaces" / f"{name}.json").read_text(encoding="utf-8")


class CorpusEntry(NamedTuple):
    id: str
    title: str
    document: str  # the name of the entry's space document, see ``space_text``
    checks: tuple

    def space(self) -> Space:
        return parse_space(space_text(self.document))


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
        "ex-3.3-1",
        (
            FamilyCheck("semi", (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)),
            LawCheck("sstar(E) == R", True, _at(E=W1 | W3, R=W1)),
            LawCheck("sstar(F) == R", True, _at(F=W2 | W3, R=W2)),
            LawCheck("sstar(union(E,F)) == R", True, _at(E=W1 | W3, F=W2 | W3, R=ALL)),
            LawCheck("additivity:star", holds=True),
            LawCheck("additivity:sstar", holds=False),
            LawCheck("additivity:sstar", False, _at(A=W1 | W3, B=W2 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-3.3-2",
        "pre-star and beta-star additivity fail; their star closures are not Kuratowski",
        "ex-3.3-2",
        (
            FamilyCheck("pre", (0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
            FamilyCheck("beta", (0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
            LawCheck("pstar(A) == R", True, _at(A=W1 | W3, R=W3)),
            LawCheck("pstar(B) == R", True, _at(B=W1 | W4, R=W4)),
            LawCheck("pstar(union(A,B)) == R", True, _at(A=W1 | W3, B=W1 | W4, R=ALL)),
            LawCheck("betastar(A) == R", True, _at(A=W1 | W3, R=W3)),
            LawCheck("betastar(B) == R", True, _at(B=W1 | W4, R=W4)),
            LawCheck("betastar(union(A,B)) == R", True, _at(A=W1 | W3, B=W1 | W4, R=ALL)),
            LawCheck("additivity:pstar", holds=False),
            LawCheck("additivity:betastar", holds=False),
            LawCheck("additivity:pstar", False, _at(A=W1 | W3, B=W1 | W4)),
            LawCheck("additivity:betastar", False, _at(A=W1 | W3, B=W1 | W4)),
            LawCheck("kuratowski:pstar", False, _at(A=W1 | W3, B=W1 | W4), "additive"),
            LawCheck("kuratowski:betastar", False, _at(A=W1 | W3, B=W1 | W4), "additive"),
            LawCheck("kuratowski:pstar", False, tag="additive"),
            LawCheck("kuratowski:betastar", False, tag="additive"),
        ),
    ),
    CorpusEntry(
        "ex-3.6",
        "the difference law fails for the semi local function",
        "ex-3.3-1",
        (
            LawCheck(
                "diff(sstar(A),sstar(B)) == R", True, _at(A=W1 | W2 | W3, B=W1 | W3, R=W2 | W3 | W4)
            ),
            LawCheck(
                "diff(sstar(diff(A,B)),sstar(B)) == R", True, _at(A=W1 | W2 | W3, B=W1 | W3, R=W2)
            ),
            LawCheck("diff-law:sstar", holds=False),
            LawCheck("diff-law:sstar", False, _at(A=W1 | W2 | W3, B=W1 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-3.7",
        "the difference law fails for the pre local function",
        "ex-3.3-2",
        (
            LawCheck(
                "diff(pstar(A),pstar(B)) == R", True, _at(A=W1 | W3 | W4, B=W1 | W3, R=W1 | W2 | W4)
            ),
            LawCheck(
                "diff(pstar(diff(A,B)),pstar(B)) == R", True, _at(A=W1 | W3 | W4, B=W1 | W3, R=W4)
            ),
            LawCheck("diff-law:pstar", holds=False),
            LawCheck("diff-law:pstar", False, _at(A=W1 | W3 | W4, B=W1 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-3.8",
        "psi of the pre local function distributes over neither meet nor join",
        "ex-3.3-2",
        (
            LawCheck("psip(A) == R", True, _at(A=W2 | W4, R=W1 | W2 | W4)),
            LawCheck("psip(B) == R", True, _at(B=W2 | W3, R=W1 | W2 | W3)),
            LawCheck("psip(inter(A,B)) == R", True, _at(A=W2 | W4, B=W2 | W3, R=0)),
            LawCheck("psip(E) == R", True, _at(E=W3, R=W1 | W3)),
            LawCheck("psip(F) == R", True, _at(F=W1 | W2, R=0)),
            LawCheck("psip(union(E,F)) == R", True, _at(E=W3, F=W1 | W2, R=W1 | W2 | W3)),
            LawCheck("psi-cap:pstar", holds=False),
            LawCheck("psi-cup:pstar", holds=False),
            LawCheck("psi-cap:pstar", False, _at(A=W2 | W4, B=W2 | W3)),
            LawCheck("psi-cup:pstar", False, _at(A=W3, B=W1 | W2)),
        ),
    ),
    CorpusEntry(
        "ex-3.10",
        "sets below their psi-pre image do not form a topology",
        "ex-3.3-2",
        (
            LawCheck("A <= psip(A)", True, _at(A=W2 | W4)),
            LawCheck("A <= psip(A)", True, _at(A=W2 | W3)),
            LawCheck("A <= psip(A)", False, _at(A=W2)),
            LawCheck("eta-topology:pstar", holds=False),
            LawCheck("eta-topology:pstar", False, _at(A=W2 | W4, B=W2 | W3)),
        ),
    ),
    CorpusEntry(
        "ex-4.2",
        "the closure-expanded semi local function is not additive",
        "ex-3.3-1",
        (
            LawCheck("xis(A) == R", True, _at(A=W2 | W3, R=W2)),
            LawCheck("xis(B) == R", True, _at(B=W1 | W3, R=W1)),
            LawCheck("xis(union(A,B)) == R", True, _at(A=W2 | W3, B=W1 | W3, R=ALL)),
            LawCheck("additivity:xis", holds=False),
            LawCheck("additivity:xis", False, _at(A=W2 | W3, B=W1 | W3)),
            LawCheck("additivity:xis", False, _at(A=W2 | W4, B=W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.3",
        "the closure-expanded beta local function is not additive",
        "ex-3.3-2",
        (
            LawCheck("xibeta(A) == R", True, _at(A=W1 | W3, R=W3)),
            LawCheck("xibeta(B) == R", True, _at(B=W1 | W4, R=W4)),
            LawCheck("xibeta(union(A,B)) == R", True, _at(A=W1 | W3, B=W1 | W4, R=ALL)),
            LawCheck("additivity:xibeta", holds=False),
            LawCheck("additivity:xibeta", False, _at(A=W1 | W3, B=W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.4",
        "the closure-expanded pre local function is not additive",
        "ex-3.3-2",
        (
            LawCheck("xip(E) == R", True, _at(E=W1 | W3, R=W3)),
            LawCheck("xip(F) == R", True, _at(F=W1 | W4, R=W4)),
            LawCheck("xip(union(E,F)) == R", True, _at(E=W1 | W3, F=W1 | W4, R=ALL)),
            LawCheck("additivity:xip", holds=False),
            LawCheck("additivity:xip", False, _at(A=W1 | W3, B=W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.7",
        "psi of the closure-expanded semi operator breaks meets and its fix family",
        "ex-3.3-1",
        (
            LawCheck("psixis(A) == R", True, _at(A=W2 | W4, R=W2 | W3 | W4)),
            LawCheck("psixis(B) == R", True, _at(B=W1 | W4, R=W1 | W3 | W4)),
            LawCheck("psixis(inter(A,B)) == R", True, _at(A=W2 | W4, B=W1 | W4, R=0)),
            LawCheck("psi-cap:xis", holds=False),
            LawCheck("psi-cap:xis", False, _at(A=W2 | W4, B=W1 | W4)),
            LawCheck("A <= psixis(A)", True, _at(A=W2 | W4)),
            LawCheck("A <= psixis(A)", True, _at(A=W1 | W4)),
            LawCheck("A <= psixis(A)", False, _at(A=W4)),
            LawCheck("eta-topology:xis", holds=False),
            LawCheck("eta-topology:xis", False, _at(A=W2 | W4, B=W1 | W4)),
        ),
    ),
    CorpusEntry(
        "ex-4.8",
        "psi of the closure-expanded beta operator breaks meets and its fix family",
        "ex-3.3-2",
        (
            LawCheck("psixibeta(A) == R", True, _at(A=W2 | W4, R=W1 | W2 | W4)),
            LawCheck("psixibeta(B) == R", True, _at(B=W2 | W3, R=W1 | W2 | W3)),
            LawCheck("psixibeta(inter(A,B)) == R", True, _at(A=W2 | W4, B=W2 | W3, R=0)),
            LawCheck("psi-cap:xibeta", holds=False),
            LawCheck("psi-cap:xibeta", False, _at(A=W2 | W4, B=W2 | W3)),
            LawCheck("A <= psixibeta(A)", True, _at(A=W2 | W4)),
            LawCheck("A <= psixibeta(A)", True, _at(A=W2 | W3)),
            LawCheck("A <= psixibeta(A)", False, _at(A=W2)),
            LawCheck("eta-topology:xibeta", holds=False),
            LawCheck("eta-topology:xibeta", False, _at(A=W2 | W4, B=W2 | W3)),
        ),
    ),
)

"""Verdict and witness types shared by the law checkers."""

from __future__ import annotations

from typing import NamedTuple


class Witness(NamedTuple):
    """A concrete refutation: variable bindings plus the evaluated sides.

    ``bindings`` pairs variable names with subset bitmasks, in scan order.
    ``operation`` tags witnesses whose meaning is not a bare equation, such
    as family-closure failures ("union", "inter") or a failed closure-axiom
    name ("idempotent", "additive", ...).
    """

    bindings: tuple[tuple[str, int], ...]
    lhs: int
    rhs: int | None = None
    operation: str | None = None


class Verdict(NamedTuple):
    """Outcome of one law check: holds, or violated with a witness."""

    holds: bool
    witness: Witness | None = None

    @classmethod
    def ok(cls) -> "Verdict":
        return HOLDS

    @classmethod
    def violated(cls, bindings, lhs, rhs=None, operation=None) -> "Verdict":
        return cls(False, Witness(tuple(bindings), lhs, rhs, operation))


# The one verdict of a law that holds; immutable, so every check shares it.
HOLDS = Verdict(True)

KURATOWSKI_AXIOMS = ("fixes-empty", "extensive", "idempotent", "additive")


class KuratowskiReport(NamedTuple):
    """Per-axiom verdicts for a candidate closure operator."""

    fixes_empty: Verdict
    extensive: Verdict
    idempotent: Verdict
    additive: Verdict

    def verdict(self, axiom: str) -> Verdict:
        table = {
            "fixes-empty": self.fixes_empty,
            "extensive": self.extensive,
            "idempotent": self.idempotent,
            "additive": self.additive,
        }
        try:
            return table[axiom]
        except KeyError:
            raise ValueError(f"unknown closure axiom {axiom!r}") from None

    @property
    def first_violation(self) -> tuple[str, Verdict] | None:
        for axiom in KURATOWSKI_AXIOMS:
            v = self.verdict(axiom)
            if not v.holds:
                return axiom, v
        return None

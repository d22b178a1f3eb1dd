"""Verdict and witness types shared by the law checkers."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .space import GroundSet


class Witness(NamedTuple):
    """A concrete refutation: variable bindings plus the evaluated sides.

    ``bindings`` pairs variable names with subset bitmasks, in scan order.
    ``operation`` tags witnesses whose meaning is not a bare equation, such
    as family-closure failures ("union", "inter") or a failed closure axiom
    (one of ``KURATOWSKI_AXIOMS``).
    """

    bindings: tuple[tuple[str, int], ...]
    lhs: int
    rhs: int | None = None
    operation: str | None = None

    def by_label(self, ground: GroundSet) -> dict:
        """The witness in point labels, as reports print it: ``bindings``
        maps each variable to its subset, ``lhs`` and ``rhs`` are subsets
        (``rhs`` None when the witness has none), and ``operation`` is the
        tag."""
        labels = ground.labels_of
        return {
            "bindings": {name: labels(bits) for name, bits in self.bindings},
            "lhs": labels(self.lhs),
            "rhs": None if self.rhs is None else labels(self.rhs),
            "operation": self.operation,
        }

    def line(self, ground: GroundSet) -> str:
        """``by_label`` on one line: ``A={w1} lhs={w1,w2} rhs={w2} (tag)``,
        without ``rhs=`` when the witness has none."""
        fields = self.by_label(ground)
        subsets = {**fields["bindings"], "lhs": fields["lhs"]}
        if fields["rhs"] is not None:
            subsets["rhs"] = fields["rhs"]
        line = " ".join(f"{name}={{{','.join(subset)}}}" for name, subset in subsets.items())
        return line if self.operation is None else f"{line} ({self.operation})"


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


class KuratowskiReport(NamedTuple):
    """Per-axiom verdicts for a candidate closure operator, one field per
    axiom in ``KURATOWSKI_AXIOMS`` order."""

    fixes_empty: Verdict
    extensive: Verdict
    idempotent: Verdict
    additive: Verdict

    def verdict(self, axiom: str) -> Verdict:
        if axiom not in KURATOWSKI_AXIOMS:
            raise ValueError(f"unknown closure axiom {axiom!r}")
        return self[KURATOWSKI_AXIOMS.index(axiom)]

    @property
    def first_violation(self) -> tuple[str, Verdict] | None:
        for axiom, v in zip(KURATOWSKI_AXIOMS, self):
            if not v.holds:
                return axiom, v
        return None


# The axiom names, spelled once: the report's fields, in order, hyphenated.
KURATOWSKI_AXIOMS = tuple(name.replace("_", "-") for name in KuratowskiReport._fields)

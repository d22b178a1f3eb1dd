"""Verdict and witness types shared by the law checkers.

A verdict is ``HOLDS`` or ``Verdict(False, Witness(...))``; the scan builds
the witness, and the registry (``laws.Law``) tags it with its template.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .space import GroundSet


class Witness(NamedTuple):
    """A concrete refutation: variable bindings plus the evaluated sides.

    ``bindings`` pairs variable names with subset bitmasks, in scan order.
    ``operation`` is the tag of the registry template the witness
    violates, a key of ``laws.LAW_TEMPLATES[<law>]``: a family-closure
    failure ("union", "inter"), a missing bound, or a failed closure axiom
    (one of ``laws.KURATOWSKI_AXIOMS``). Bare equations and search
    witnesses are untagged (None).
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


# The one verdict of a law that holds; immutable, so every check shares it.
HOLDS = Verdict(True)

"""The witness type shared by the law checkers.

A check answers None where a law holds, or its first ``Witness``; the scan
builds the witness, and the registry (``laws.Law``) tags it with its template.
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
    rhs: int
    operation: str | None = None

    def by_label(self, ground: GroundSet) -> dict:
        """The witness in point labels, as reports print it: ``bindings``
        maps each variable to its subset, ``lhs`` and ``rhs`` are subsets,
        and ``operation`` is the tag."""
        labels = ground.labels_of
        return {
            "bindings": {name: labels(bits) for name, bits in self.bindings},
            "lhs": labels(self.lhs),
            "rhs": labels(self.rhs),
            "operation": self.operation,
        }

    def line(self, ground: GroundSet) -> str:
        """``by_label`` on one line: ``A={w1} lhs={w1,w2} rhs={w2} (tag)``."""
        subsets = (*self.bindings, ("lhs", self.lhs), ("rhs", self.rhs))
        line = " ".join(f"{name}={ground.format(bits)}" for name, bits in subsets)
        return line if self.operation is None else f"{line} ({self.operation})"

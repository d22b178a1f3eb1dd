"""Ground sets, bitmask subsets, set families, and validated spaces.

A subset of the ground set is a plain ``int``: bit ``i`` set means point
``i`` (in declared label order) belongs to the subset. A family of subsets
is a strictly increasing tuple of such masks; constructors canonicalize, so
equality is structural. Each family also carries a ``2**2**n``-bit
membership mask giving O(1) membership tests in axiom checks.

Space documents are JSON objects with keys ``points``, ``topology`` or
``topology_subbase``, and ``ideal`` or ``ideal_generators``; subsets are
written as arrays of point labels. ``parse_space`` validates the axioms and
reports the first offending pair on failure.

A ``Space`` builds its interior and closure tables; every operator value,
those two included, is read through ``operators.unary_table``, which
memoizes one table per alias on the space.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

MAX_POINTS = 8

# Labels appear in comma/brace subset syntax, so keep them delimiter-free.
_LABEL_FORBIDDEN = set(" \t\r\n,{}")


class SpaceDocumentError(ValueError):
    """A space document failed schema or axiom validation."""


class SchemaError(SpaceDocumentError):
    pass


class UnknownLabelError(SpaceDocumentError):
    pass


class TopologyAxiomError(SpaceDocumentError):
    def __init__(self, message: str, issue: "TopologyIssue"):
        super().__init__(message)
        self.issue = issue


class IdealAxiomError(SpaceDocumentError):
    def __init__(self, message: str, issue: "IdealIssue"):
        super().__init__(message)
        self.issue = issue


@dataclass(frozen=True)
class GroundSet:
    """Ordered point labels; bit ``i`` of a subset mask is ``labels[i]``."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if not 1 <= n <= MAX_POINTS:
            raise ValueError(f"ground set needs 1..{MAX_POINTS} points, got {n}")
        seen = set()
        for lab in self.labels:
            if not isinstance(lab, str) or not lab or any(c in _LABEL_FORBIDDEN for c in lab):
                raise ValueError(f"bad point label {lab!r}")
            if lab in seen:
                raise ValueError(f"duplicate point label {lab!r}")
            seen.add(lab)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def universe(self) -> int:
        return (1 << len(self.labels)) - 1

    def bit(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"unknown point label {label!r}") from None

    def subset(self, labels: Iterable[str]) -> int:
        bits = 0
        for lab in labels:
            bits |= 1 << self.bit(lab)
        return bits

    def labels_of(self, bits: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if bits >> i & 1)

    def format(self, bits: int) -> str:
        """Render a subset as ``{w1,w3}`` in declared label order."""
        return "{" + ",".join(self.labels_of(bits)) + "}"

    def parse_subset(self, text: str) -> int:
        """Parse ``w1,w3`` or ``{w1,w3}``; empty text means the empty set."""
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        if not text.strip():
            return 0
        return self.subset(part.strip() for part in text.split(","))


@dataclass(frozen=True)
class Family:
    """Canonical family of subsets: sorted, deduplicated masks."""

    members: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        if members and members[0] < 0:
            raise ValueError("subset masks must be non-negative")
        object.__setattr__(self, "members", members)
        mask = 0
        for s in members:
            mask |= 1 << s
        object.__setattr__(self, "mask", mask)

    def __contains__(self, bits: int) -> bool:
        return bits >= 0 and bool(self.mask >> bits & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Topology:
    """Open-set family. Axioms are enforced wherever a ground set is in
    scope (``validate_topology``, ``parse_space``, ``Space``)."""

    family: Family

    def __iter__(self) -> Iterator[int]:
        return iter(self.family)

    def __len__(self) -> int:
        return len(self.family)


@dataclass(frozen=True)
class Ideal:
    """Hereditary, finitely-union-closed family containing the empty set.
    Axioms are enforced wherever a ground set is in scope."""

    family: Family

    def __iter__(self) -> Iterator[int]:
        return iter(self.family)

    def __len__(self) -> int:
        return len(self.family)


@dataclass(frozen=True)
class TopologyIssue:
    """First axiom failure found in a candidate open-set family."""

    kind: str  # "missing-empty" | "missing-universe" | "union" | "inter"
    pair: tuple[int, int] | None = None
    missing: int | None = None

    def describe(self, ground: GroundSet) -> str:
        if self.kind == "missing-empty":
            return "topology must contain the empty set"
        if self.kind == "missing-universe":
            return "topology must contain the whole ground set"
        a, b = self.pair
        op = "∪" if self.kind == "union" else "∩"
        return (
            f"topology not closed under {self.kind}: {ground.format(a)} {op} "
            f"{ground.format(b)} = {ground.format(self.missing)} is missing"
        )


@dataclass(frozen=True)
class IdealIssue:
    """First axiom failure found in a candidate ideal family."""

    kind: str  # "missing-empty" | "heredity" | "union"
    member: int | None = None
    pair: tuple[int, int] | None = None
    missing: int | None = None

    def describe(self, ground: GroundSet) -> str:
        if self.kind == "missing-empty":
            return "ideal must contain the empty set"
        if self.kind == "heredity":
            return (
                f"ideal violates heredity: {ground.format(self.member)} is a member "
                f"but its subset {ground.format(self.missing)} is not"
            )
        a, b = self.pair
        return (
            f"ideal not closed under union: {ground.format(a)} ∪ {ground.format(b)} "
            f"= {ground.format(self.missing)} is missing"
        )


def _check_members_in_range(family: Family, ground: GroundSet) -> None:
    if family.members and family.members[-1] > ground.universe:
        raise ValueError(
            f"subset mask {family.members[-1]} out of range for {ground.n} points"
        )


def validate_topology(family: Family, ground: GroundSet) -> TopologyIssue | None:
    """Return None when the family is a topology, else the first failure.

    Pairs are scanned in lexicographic order of (first mask, second mask);
    for each pair the union is checked before the intersection.
    """
    _check_members_in_range(family, ground)
    if 0 not in family:
        return TopologyIssue("missing-empty")
    if ground.universe not in family:
        return TopologyIssue("missing-universe")
    members, mask = family.members, family.mask
    for i, a in enumerate(members):
        for b in members[i:]:
            if not mask >> (a | b) & 1:
                return TopologyIssue("union", (a, b), a | b)
            if not mask >> (a & b) & 1:
                return TopologyIssue("inter", (a, b), a & b)
    return None


def validate_ideal(family: Family, ground: GroundSet) -> IdealIssue | None:
    """Return None when the family is an ideal, else the first failure.

    A family that is exactly the power set of its largest member passes at
    once. Otherwise checks the empty set, then heredity (members ascending,
    missing subsets ascending), then pairwise unions in lexicographic pair
    order.
    """
    _check_members_in_range(family, ground)
    members, mask = family.members, family.mask
    # Fast path: a finite ideal is the power set of its largest member.
    if members:
        top = members[-1]
        if len(members) == 1 << top.bit_count() and all(m & ~top == 0 for m in members):
            return None
    if 0 not in family:
        return IdealIssue("missing-empty")
    for b in members:
        for t in range(b):
            if t & b == t and not mask >> t & 1:
                return IdealIssue("heredity", member=b, missing=t)
    for i, a in enumerate(members):
        for b in members[i:]:
            if not mask >> (a | b) & 1:
                return IdealIssue("union", pair=(a, b), missing=a | b)
    return None


def _close_pairwise(start: set[int], op) -> set[int]:
    out = set(start)
    frontier = list(out)
    while frontier:
        added = []
        for a in frontier:
            for b in list(out):
                c = op(a, b)
                if c not in out:
                    out.add(c)
                    added.append(c)
        frontier = added
    return out


def generate_topology(subbase: Iterable[int], ground: GroundSet) -> Topology:
    """Smallest topology containing the subbase: finite intersections of
    subbase members form the base, unions of base members the topology."""
    full = ground.universe
    sets = set()
    for s in subbase:
        if not 0 <= s <= full:
            raise ValueError(f"subbase mask {s} out of range")
        sets.add(s)
    base = _close_pairwise(sets | {full}, lambda a, b: a & b)
    opens = _close_pairwise(base | {0}, lambda a, b: a | b)
    return Topology(Family(tuple(opens)))


def generate_ideal(generators: Iterable[int], ground: GroundSet) -> Ideal:
    """Smallest ideal containing the generators: the downward closure of
    all finite unions, i.e. the power set of the union of the generators."""
    full = ground.universe
    top = 0
    for g in generators:
        if not 0 <= g <= full:
            raise ValueError(f"generator mask {g} out of range")
        top |= g
    members = []
    s = top
    while True:
        members.append(s)
        if s == 0:
            break
        s = (s - 1) & top
    return Ideal(Family(tuple(members)))


@dataclass(frozen=True, eq=False)
class TopologyTables:
    """What a space derives from its ground set and topology alone.

    Interior/closure tables are built eagerly; ``cache`` holds the operator
    layer's ideal-free tables (generalized-open families and neighborhoods,
    generalized closures, local-function hit tables). Every ideal on the
    same topology shares one instance.
    """

    int_table: tuple[int, ...]
    cl_table: tuple[int, ...]
    cache: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=1)
def topology_tables(ground: GroundSet, topology: Topology) -> TopologyTables:
    """Validate ``topology`` on ``ground`` and build its tables.

    One entry: search streams yield every ideal of a topology in a row, so
    the last topology is the only one worth keeping.
    """
    issue = validate_topology(topology.family, ground)
    if issue is not None:
        raise TopologyAxiomError(issue.describe(ground), issue)
    full = ground.universe
    opens = topology.family.members
    int_table = []
    for a in range(full + 1):
        u = 0
        for o in opens:
            if o & a == o:
                u |= o
        int_table.append(u)
    cl_table = tuple(full ^ int_table[full ^ a] for a in range(full + 1))
    return TopologyTables(tuple(int_table), cl_table)


@dataclass(frozen=True)
class Space:
    """A validated (ground set, topology, ideal) triple.

    Topology-only tables live in a shared :class:`TopologyTables` taken from
    a one-entry memo, so consecutive spaces on one topology validate it and
    build its tables once. The ideal is the power set of ``ideal_top``; the
    operator layer reads it only through that mask. Operator tables, one
    per alias, are memoized into ``_cache`` by ``operators.unary_table``.
    Caches never feed back into equality and always equal fresh
    recomputation.
    """

    ground: GroundSet
    topology: Topology
    ideal: Ideal
    tables: TopologyTables = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tables", topology_tables(self.ground, self.topology))
        issue = validate_ideal(self.ideal.family, self.ground)
        if issue is not None:
            raise IdealAxiomError(issue.describe(self.ground), issue)
        object.__setattr__(self, "_cache", {})

    @property
    def n_subsets(self) -> int:
        return 1 << self.ground.n

    @property
    def int_table(self) -> tuple[int, ...]:
        return self.tables.int_table

    @property
    def cl_table(self) -> tuple[int, ...]:
        return self.tables.cl_table

    @property
    def ideal_top(self) -> int:
        """Largest ideal member; the ideal is its power set."""
        return self.ideal.family.members[-1]

    def format(self, bits: int) -> str:
        return self.ground.format(bits)


_DOCUMENT_KEYS = {"points", "topology", "topology_subbase", "ideal", "ideal_generators", "name"}


def _subset_list(ground: GroundSet, raw, key: str) -> list[int]:
    if not isinstance(raw, list):
        raise SchemaError(f"{key!r} must be an array of subsets")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise SchemaError(f"each subset under {key!r} must be an array of labels")
        out.append(ground.subset(entry))
    return out


def space_from_document(doc) -> Space:
    """Build a Space from a decoded space document, validating everything."""
    if not isinstance(doc, dict):
        raise SchemaError("space document must be a JSON object")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise SchemaError(f"unknown document keys: {sorted(unknown)}")
    if "points" not in doc:
        raise SchemaError("space document needs a 'points' array")
    points = doc["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise SchemaError("'points' must be an array of label strings")
    try:
        ground = GroundSet(tuple(points))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    if ("topology" in doc) == ("topology_subbase" in doc):
        raise SchemaError("give exactly one of 'topology' or 'topology_subbase'")
    if ("ideal" in doc) == ("ideal_generators" in doc):
        raise SchemaError("give exactly one of 'ideal' or 'ideal_generators'")

    if "topology" in doc:
        fam = Family(tuple(_subset_list(ground, doc["topology"], "topology")))
        issue = validate_topology(fam, ground)
        if issue is not None:
            raise TopologyAxiomError(issue.describe(ground), issue)
        topology = Topology(fam)
    else:
        topology = generate_topology(
            _subset_list(ground, doc["topology_subbase"], "topology_subbase"), ground
        )

    if "ideal" in doc:
        fam = Family(tuple(_subset_list(ground, doc["ideal"], "ideal")))
        issue = validate_ideal(fam, ground)
        if issue is not None:
            raise IdealAxiomError(issue.describe(ground), issue)
        ideal = Ideal(fam)
    else:
        ideal = generate_ideal(
            _subset_list(ground, doc["ideal_generators"], "ideal_generators"), ground
        )

    return Space(ground, topology, ideal)


def parse_space(text: str) -> Space:
    """Parse and validate a JSON space document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return space_from_document(doc)


def space_to_document(space: Space, name: str | None = None) -> dict:
    """Explicit document form: topology and ideal listed in canonical order."""
    ground = space.ground
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    doc["points"] = list(ground.labels)
    doc["topology"] = [list(ground.labels_of(s)) for s in space.topology]
    doc["ideal"] = [list(ground.labels_of(s)) for s in space.ideal]
    return doc


def serialize_space(space: Space, name: str | None = None) -> str:
    return json.dumps(space_to_document(space, name), indent=2, ensure_ascii=False) + "\n"

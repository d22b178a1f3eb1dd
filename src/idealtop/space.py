"""Ground sets, bitmask subsets, set families, validated spaces, and the
witness that answers a law check.

A subset of the ground set is a plain ``int``: bit ``i`` set means point
``i`` (in declared label order) belongs to the subset. A family of subsets
is a strictly increasing tuple of such masks; constructors canonicalize, so
equality is structural. Each family also carries a ``2**2**n``-bit
membership mask giving O(1) membership tests in axiom checks.

Space documents are JSON objects with keys ``points``, ``topology`` or
``topology_subbase``, and ``ideal`` or ``ideal_generators``; subsets are
written as arrays of point labels. ``parse_space`` validates the axioms and
reports the first offending pair on failure.

A finite ideal is the power set of its largest member, so an ``Ideal``
is that one mask, ``top``, and cannot hold a family that is not an
ideal. Only a document's listed ``ideal`` is checked member by member
(``validate_ideal``) before it becomes the ``Ideal`` of its top.

The generators build every topology and ideal the package uses apart
from listed documents: ``generate_topology`` unions the minimal
neighbourhoods U(x) of a subbase (a finite topology is the same thing as
its preorder y ∈ U(x)), ``topology_of_neighbourhoods`` unions given
U(x), and ``generate_ideal`` takes the power set of the union of its
generators.

A law check answers None where the law holds, or its first ``Witness``,
which the scan builds and ``laws.Law`` tags with its template.

A ``Space`` reads its interior and closure tables from its topology,
which validates and builds them on first use (``topology_tables``);
every operator value, those two included, is read through
``operators.unary_table``, which memoizes one table per alias on the
space. Tables are built in byte lanes:
lane ``a`` of a ``2**n``-byte int holds the value at subset ``a`` (a subset
fits in a byte, as ``MAX_POINTS`` is 8), so a per-subset loop becomes a
few big-int operations per point or family member. A finished table is
stored as the ``2**n`` bytes of its lanes, so ``table[a]`` is an ``int``.
The table builders share ``lanes`` and ``nonzero``, plus ``union_below``
(per subset, the union of the members filed under a key inside it: the
interior, for the opens filed under themselves) and ``dual`` (lanes
reversed and complemented: the closure, from it).
"""

from __future__ import annotations

import functools
import json
import operator
from typing import Iterable, Iterator, NamedTuple

MAX_POINTS = 8


class SpaceDocumentError(ValueError):
    """A space document failed schema or axiom validation."""


class SchemaError(SpaceDocumentError):
    pass


class UnknownLabelError(SpaceDocumentError):
    pass


class TopologyAxiomError(SpaceDocumentError):
    """The first topology axiom a family fails on ``ground``: ``kind`` is
    "missing-empty", "missing-universe", "union" or "inter", and a failing
    pair of open sets gives its ``pair`` and the ``missing`` subset."""

    def __init__(self, ground: GroundSet, kind: str, pair=None, missing=None):
        if pair is None:
            whole = "the empty set" if kind == "missing-empty" else "the whole ground set"
            message = f"topology must contain {whole}"
        else:
            a, b, c = map(ground.format, (*pair, missing))
            op = "∪" if kind == "union" else "∩"
            message = f"topology not closed under {kind}: {a} {op} {b} = {c} is missing"
        super().__init__(message)
        self.ground, self.kind, self.pair, self.missing = ground, kind, pair, missing

    def __reduce__(self):
        return self.__class__, (self.ground, self.kind, self.pair, self.missing)


class IdealAxiomError(SpaceDocumentError):
    """The first ideal axiom a family fails on ``ground``: ``kind`` is
    "missing-empty", "heredity" (a ``member`` whose subset is ``missing``)
    or "union" (a ``pair`` whose union is ``missing``)."""

    def __init__(self, ground: GroundSet, kind: str, member=None, pair=None, missing=None):
        f = ground.format
        if kind == "missing-empty":
            message = "ideal must contain the empty set"
        elif kind == "heredity":
            message = (
                f"ideal violates heredity: {f(member)} is a member "
                f"but its subset {f(missing)} is not"
            )
        else:
            a, b = pair
            message = f"ideal not closed under union: {f(a)} ∪ {f(b)} = {f(missing)} is missing"
        super().__init__(message)
        self.ground, self.kind, self.member = ground, kind, member
        self.pair, self.missing = pair, missing

    def __reduce__(self):
        return self.__class__, (self.ground, self.kind, self.member, self.pair, self.missing)


# Assigns a field of a ``Frozen`` value, whose own ``__setattr__`` refuses.
_set = object.__setattr__


class Frozen:
    """Base of the slotted value types: fields are read-only, and equality,
    hashing, ``repr`` and pickling go by the fields named in ``_fields``.

    Constructors assign fields with ``object.__setattr__``; other slots
    hold what a constructor derives, or what is cached on the value later
    (a topology's tables, a law's compiled program), which never feeds
    back into equality. Unpickling calls the constructor on the fields, so
    it validates and derives them again and starts with empty caches.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class GroundSet(Frozen):
    """Ordered point labels; bit ``i`` of a subset mask is ``labels[i]``.
    ``n`` is the point count and ``universe`` the mask of all points."""

    __slots__ = ("labels", "n", "universe")
    _fields = ("labels",)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        n = len(labels)
        if not 1 <= n <= MAX_POINTS:
            raise ValueError(f"ground set needs 1..{MAX_POINTS} points, got {n}")
        seen = set()
        for lab in labels:
            # subsets are written {a,b}, and the whitespace around a label is stripped
            if not isinstance(lab, str) or not lab or any(c in ",{}" or c.isspace() for c in lab):
                raise ValueError(f"bad point label {lab!r}")
            if lab in seen:
                raise ValueError(f"duplicate point label {lab!r}")
            seen.add(lab)
        _set(self, "labels", labels)
        _set(self, "n", n)
        _set(self, "universe", (1 << n) - 1)

    def bit(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"unknown point label {label!r}") from None

    def subset(self, labels: Iterable[str]) -> int:
        """The mask of the labels; a label given twice is refused."""
        bits = 0
        for lab in labels:
            bit = 1 << self.bit(lab)
            if bits & bit:
                raise SchemaError(f"point label {lab!r} listed twice in one subset")
            bits |= bit
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


class Family(Frozen):
    """Canonical family of subsets: sorted, deduplicated masks."""

    __slots__ = ("members", "mask")
    _fields = ("members",)

    def __init__(self, members: Iterable[int]):
        members = tuple(sorted(set(members)))
        if members and members[0] < 0:
            raise ValueError("subset masks must be non-negative")
        mask = 0
        for s in members:
            mask |= 1 << s
        _set(self, "members", members)
        _set(self, "mask", mask)

    def __contains__(self, bits: int) -> bool:
        return bits >= 0 and bool(self.mask >> bits & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class Topology(Frozen):
    """Open-set family. Axioms are enforced wherever a ground set is in
    scope (``validate_topology``, ``parse_space``, ``Space``).

    ``_tables`` is None until ``topology_tables`` validates the family on
    n points; then it holds ``(n, tables)``, the tables every space on
    this topology with n points shares.
    """

    __slots__ = ("family", "_tables")
    _fields = ("family",)

    def __init__(self, family: Family):
        _set(self, "family", family)
        _set(self, "_tables", None)

    def __iter__(self) -> Iterator[int]:
        return iter(self.family)

    def __len__(self) -> int:
        return len(self.family)


class Ideal(Frozen):
    """The power set of ``top``. A finite family that is hereditary and
    closed under unions is exactly the power set of its largest member, so
    the top mask is the whole ideal. Members iterate in ascending order."""

    __slots__ = _fields = ("top",)

    def __init__(self, top: int):
        if top < 0:
            raise ValueError("subset masks must be non-negative")
        _set(self, "top", top)

    def __iter__(self) -> Iterator[int]:
        top, s = self.top, 0
        while True:
            yield s
            if s == top:
                return
            s = (s - top) & top  # the next submask of top, ascending

    def __len__(self) -> int:
        return 1 << bin(self.top).count("1")


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


def _check_in_range(largest: int, ground: GroundSet) -> None:
    if not 0 <= largest <= ground.universe:
        raise ValueError(f"subset mask {largest} out of range for {ground.n} points")


def validate_topology(family: Family, ground: GroundSet) -> TopologyAxiomError | None:
    """Return None when the family is a topology, else the unraised error
    of its first failure.

    Pairs are scanned in lexicographic order of (first mask, second mask);
    for each pair the union is checked before the intersection.
    """
    if family.members:
        _check_in_range(family.members[-1], ground)
    if 0 not in family:
        return TopologyAxiomError(ground, "missing-empty")
    if ground.universe not in family:
        return TopologyAxiomError(ground, "missing-universe")
    members, mask = family.members, family.mask
    for i, a in enumerate(members):
        for b in members[i:]:
            if not mask >> (a | b) & 1:
                return TopologyAxiomError(ground, "union", (a, b), a | b)
            if not mask >> (a & b) & 1:
                return TopologyAxiomError(ground, "inter", (a, b), a & b)
    return None


def validate_ideal(family: Family, ground: GroundSet) -> IdealAxiomError | None:
    """Return None when the family is an ideal, else the unraised error of
    its first failure.

    Checks the empty set, then heredity (members ascending, missing subsets
    ascending), then pairwise unions in lexicographic pair order. A family
    that passes is ``Ideal(family.members[-1])``.
    """
    if family.members:
        _check_in_range(family.members[-1], ground)
    members, mask = family.members, family.mask
    if 0 not in family:
        return IdealAxiomError(ground, "missing-empty")
    for b in members:
        t = 0
        while t != b:  # the proper subsets of b, ascending
            if not mask >> t & 1:
                return IdealAxiomError(ground, "heredity", member=b, missing=t)
            t = (t - b) & b
    # a hereditary family that holds the union of its members is the power
    # set of that union, so no pair can fail
    if mask >> functools.reduce(operator.or_, members) & 1:
        return None
    for i, a in enumerate(members):
        for b in members[i:]:
            if not mask >> (a | b) & 1:
                return IdealAxiomError(ground, "union", pair=(a, b), missing=a | b)
    return None


def generate_topology(subbase: Iterable[int], ground: GroundSet) -> Topology:
    """Smallest topology containing the subbase.

    A finite topology is fixed by its minimal neighbourhoods: U(x) is the
    intersection of the subbase members that contain point x (the whole
    ground set if none do), and the open sets are all unions of the U(x).
    """
    full = ground.universe
    nbhd = [full] * ground.n
    for s in subbase:
        if not 0 <= s <= full:
            raise ValueError(f"subbase mask {s} out of range")
        for x in range(ground.n):
            if s >> x & 1:
                nbhd[x] &= s
    return topology_of_neighbourhoods(nbhd)


def topology_of_neighbourhoods(nbhd: Iterable[int]) -> Topology:
    """The topology whose minimal neighbourhoods are ``nbhd``: all unions
    of its members. ``nbhd`` must be the U(x) of a preorder (x in U(x),
    and y in U(x) implies U(y) ⊆ U(x)); then U(x) is the least open set
    holding x."""
    opens = {0}
    for u in set(nbhd):
        opens |= {o | u for o in opens}
    return Topology(Family(opens))


def generate_ideal(generators: Iterable[int], ground: GroundSet) -> Ideal:
    """Smallest ideal containing the generators: the downward closure of
    all finite unions, i.e. the power set of the union of the generators."""
    full = ground.universe
    top = 0
    for g in generators:
        if not 0 <= g <= full:
            raise ValueError(f"generator mask {g} out of range")
        top |= g
    return Ideal(top)


@functools.lru_cache(maxsize=None)
def lanes(n: int) -> tuple[int, int]:
    """Byte lanes over the ``2**n`` subsets of n points: ``0x01`` in every
    lane, and the identity lanes (lane ``a`` holds ``a``)."""
    size = 1 << n
    return int.from_bytes(b"\1" * size, "little"), int.from_bytes(bytes(range(size)), "little")


def nonzero(x: int, ones: int) -> int:
    """1 in each nonzero byte lane of ``x``, 0 in the others.

    Adding 0x7F to the low seven bits of a lane sets its top bit iff they
    are not all zero, and cannot carry into the next lane.
    """
    low = 0x7F * ones
    return ((x & low) + low | x) >> 7 & ones


def union_below(filed: Iterable[tuple[int, int]], n: int) -> int:
    """Lane ``b`` holds the union of the members filed under a key inside
    ``b``, given ``(key, member)`` pairs. Filed under themselves, the opens
    of a topology give its interior.

    Lane ``b`` starts as the union of the members filed under ``b``; then,
    point by point, every lane ORs in the lane of its subset without that
    point.
    """
    ones, identity = lanes(n)
    start = bytearray(1 << n)
    for key, member in filed:
        start[key] |= member
    out = int.from_bytes(start, "little")
    for i in range(n):
        out |= out << (8 << i) & (identity >> i & ones) * 0xFF
    return out


def dual(x: int, n: int) -> int:
    """The complement dual of a lane table: lane ``a`` gets the complement
    of lane ``full ^ a``, so the dual of the interior is the closure."""
    ones, _ = lanes(n)
    return int.from_bytes(x.to_bytes(1 << n, "little"), "big") ^ ((1 << n) - 1) * ones


def topology_tables(ground: GroundSet, topology: Topology) -> dict:
    """The dict every space on ``topology`` with ``ground``'s point count
    shares, held by the topology.

    On first use for a point count, the topology is validated on
    ``ground`` and its interior and closure tables are built in byte
    lanes, under ``"int"`` and ``"cl"``: the interior of ``a`` is the
    union of the opens inside it, and the closure is the interior's dual.
    The operator layer adds its ideal-free tables (generalized-open
    families and closures, local-function hit tables). A family is a
    topology on at most one point count (it must hold that count's
    universe and nothing above it), so the topology holds at most one
    dict, and on any other count it fails validation.
    """
    n = ground.n
    held = topology._tables
    if held is not None and held[0] == n:
        return held[1]
    error = validate_topology(topology.family, ground)
    if error is not None:
        raise error
    opens = topology.family.members
    int_lanes = union_below(zip(opens, opens), n)
    tables = {
        "int": int_lanes.to_bytes(1 << n, "little"),
        "cl": dual(int_lanes, n).to_bytes(1 << n, "little"),
    }
    _set(topology, "_tables", (n, tables))
    return tables


class Space(Frozen):
    """A validated (ground set, topology, ideal) triple.

    ``tables`` is the dict held by the topology (``topology_tables``), so
    every space on one ``Topology`` object validates it and builds its
    tables once. An ``Ideal`` is an ideal by construction, so only its top
    is checked against the ground set; the operator layer reads that mask.
    Operator tables, one per alias, are memoized into ``_cache`` by
    ``operators.unary_table``. Caches never feed back into equality and
    always equal fresh recomputation.
    """

    __slots__ = ("ground", "topology", "ideal", "tables", "_cache")
    _fields = ("ground", "topology", "ideal")

    def __init__(self, ground: GroundSet, topology: Topology, ideal: Ideal):
        _set(self, "ground", ground)
        _set(self, "topology", topology)
        _set(self, "ideal", ideal)
        self.__post_init__()

    def __post_init__(self):
        # Validation and tables; a method of its own, so it can be traced.
        _set(self, "tables", topology_tables(self.ground, self.topology))
        _check_in_range(self.ideal.top, self.ground)
        _set(self, "_cache", {})

    @property
    def n_subsets(self) -> int:
        return 1 << self.ground.n

    @property
    def int_table(self) -> bytes:
        return self.tables["int"]

    @property
    def cl_table(self) -> bytes:
        return self.tables["cl"]


_DOCUMENT_KEYS = {"points", "topology", "topology_subbase", "ideal", "ideal_generators", "name"}


def _subset_list(ground: GroundSet, raw, key: str) -> list[int]:
    if not isinstance(raw, list):
        raise SchemaError(f"{key!r} must be an array of subsets")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise SchemaError(f"each subset under {key!r} must be an array of labels")
        try:
            bits = ground.subset(entry)
        except SpaceDocumentError as exc:  # an unknown label or one given twice
            written = json.dumps(entry, ensure_ascii=False)
            raise exc.__class__(f"{key!r} subset {written}: {exc}") from None
        if bits in out:  # at most 2**MAX_POINTS masks are ever held
            raise SchemaError(f"{key!r} lists the subset {ground.format(bits)} twice")
        out.append(bits)
    return out


def space_from_document(doc) -> Space:
    """Build a Space from a decoded space document, validating everything."""
    if not isinstance(doc, dict):
        raise SchemaError("space document must be a JSON object")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise SchemaError(f"unknown document keys: {sorted(unknown)}")
    if not isinstance(doc.get("name", ""), str):
        raise SchemaError("'name' must be a string")
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
        topology = Topology(Family(_subset_list(ground, doc["topology"], "topology")))
    else:
        topology = generate_topology(
            _subset_list(ground, doc["topology_subbase"], "topology_subbase"), ground
        )
    # Validated here, before the ideal's labels are read: a topology error
    # is reported first. ``Space`` finds the tables held by the topology.
    topology_tables(ground, topology)

    if "ideal" in doc:
        family = Family(_subset_list(ground, doc["ideal"], "ideal"))
        error = validate_ideal(family, ground)
        if error is not None:
            raise error
        ideal = Ideal(family.members[-1])
    else:
        ideal = generate_ideal(
            _subset_list(ground, doc["ideal_generators"], "ideal_generators"), ground
        )
    return Space(ground, topology, ideal)


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key written twice in one object,
    where ``json`` would keep the last value without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _json_document(text: str):
    """Decode the JSON of a space document; the one decoder of documents.
    Every decoder failure becomes a ``SchemaError``: bad syntax, an integer
    over the digit limit, or nesting deep enough to raise ``RecursionError``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except SchemaError:  # a duplicate key, from ``_unique_keys``
        raise
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def parse_space(text: str) -> Space:
    """Parse and validate a JSON space document."""
    return space_from_document(_json_document(text))


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

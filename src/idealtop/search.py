"""Enumerate spaces on small ground sets and hunt for law violations.

A search crosses a stream of topologies with all ideals on the same
ground set, scans the law on every resulting space, and reports either
the first violating space, or all spaces tied for the minimal
(|topology|, |ideal|) among violators, or a certification that the law
held everywhere. "LawCertified" is only ever emitted when the scanned
stream was provably the complete enumeration for the given point count;
a finished subbase-generated or user-supplied scan that found nothing
reports "BudgetExhausted" because it proves nothing about other spaces.

Results are deterministic: the space stream has a fixed order and one
loop in the calling process scans it, each space with the assignments
that remain of the budget.

Every topology and ideal in the stream comes from the generators of
:mod:`idealtop.space`. The exhaustive stream grows every preorder of
minimal neighbourhoods U(x) one point at a time (each way a new point can
join the old ones and keep a preorder) and sorts the topologies of their
unions by family mask; the subbase stream generates from small
subbases; the ideals are the power sets of the 2^n subsets.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator, NamedTuple

from . import dsl
from .space import (
    MAX_POINTS,
    Frozen,
    GroundSet,
    Ideal,
    Space,
    Topology,
    Witness,
    _json_document,
    _set,
    generate_topology,
    space_from_document,
    space_to_document,
    topology_of_neighbourhoods,
)

EXHAUSTIVE_MAX_POINTS = 4
MAX_SUBBASE_SIZE = 3

STATUS_FOUND = "CounterexampleFound"
STATUS_CERTIFIED = "LawCertified"
STATUS_BUDGET = "BudgetExhausted"


def _check_points(n: int) -> None:
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be between 1 and {MAX_POINTS}, got {n}")


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


# ---------------------------------------------------------------------------
# enumeration


def _topology_members(n: int) -> tuple[Topology, ...]:
    """All topologies on n labeled points, ascending by membership mask.

    A finite topology is fixed by its minimal neighbourhoods U(x), and a
    tuple (U(0), ..., U(n-1)) with x in U(x) is one exactly when
    y in U(x) implies U(y) ⊆ U(x) (a preorder; Alexandrov 1937). Each
    preorder on points 0..p-1 grows by a point p in every way that keeps
    it one: p takes U(p) = S ∪ {p}, and p joins U(x) for the x in a set
    P of old points. The result is a preorder iff S holds U(y) for each
    of its y, U(x) misses P for every old x outside P, and S ⊆ U(x) for
    every x in P: iff S is open, the old points outside P form an open
    set, and P lies within the hosts of S, the x with S ⊆ U(x).
    """
    grown = [()]  # the U tuples of the preorders on points 0..p-1
    for p in range(n):
        bit, grown_by_p = 1 << p, []
        for nbhd in grown:
            opens = topology_of_neighbourhoods(nbhd).family.members
            for below in opens:  # S
                hosts = sum(1 << x for x, u in enumerate(nbhd) if below & ~u == 0)
                for joins in ((bit - 1) ^ rest for rest in opens):  # P
                    if joins & ~hosts == 0:
                        grown_by_p.append(tuple(
                            u | bit if joins >> x & 1 else u for x, u in enumerate(nbhd)
                        ) + (below | bit,))
        grown = grown_by_p
    found = [topology_of_neighbourhoods(nbhd) for nbhd in grown]
    found.sort(key=lambda topology: topology.family.mask)
    return tuple(found)


def _subbase_topology_members(n: int) -> Iterator[Topology]:
    """Topologies generated from small subbases, first-seen order, deduplicated.

    Covers sizes 0..MAX_SUBBASE_SIZE with subbase members drawn from the
    nonempty proper subsets in ascending order; sizes past the number of
    those subsets have no subbases and are skipped. Incomplete by design.
    """
    ground = GroundSet(default_labels(n))
    pool = range(1, ground.universe)
    seen: set[int] = set()
    for size in range(min(MAX_SUBBASE_SIZE, len(pool)) + 1):
        for subbase in itertools.combinations(pool, size):
            topo = generate_topology(subbase, ground)
            if topo.family.mask not in seen:
                seen.add(topo.family.mask)
                yield topo


def enumerate_topologies(n: int, mode: str = "exhaustive") -> Iterator[Topology]:
    """Stream topologies on n points.

    mode "exhaustive" (n <= 4) yields every topology in ascending order of
    the family membership mask; mode "subbase" yields a deduplicated but
    incomplete stream for any n. Arguments are checked when this is
    called, before the first topology.
    """
    _check_points(n)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_POINTS:
            raise ValueError(
                f"exhaustive enumeration needs n <= {EXHAUSTIVE_MAX_POINTS}, got {n}"
            )
        return iter(_topology_members(n))
    if mode == "subbase":
        return _subbase_topology_members(n)
    raise ValueError(f"unknown enumeration mode {mode!r}")


def enumerate_ideals(n: int) -> Iterator[Ideal]:
    """Stream every ideal on n points: ``Ideal(m)`` for the 2^n tops ``m``
    ascending, which is ascending membership-mask order."""
    _check_points(n)
    return map(Ideal, range(1 << n))


def count_topologies(n: int) -> int:
    return len(_topology_members(n))


# ---------------------------------------------------------------------------
# search


class SearchTask(Frozen):
    """One search, validated when built."""

    __slots__ = _fields = (
        "law_text", "n", "mode", "want", "budget_spaces", "budget_assignments",
        "var_cap", "documents",
    )

    def __init__(
        self,
        law_text: str,
        n: int,
        mode: str = "exhaustive",  # "exhaustive" | "subbase" | "documents"
        want: str = "first",  # "first" | "all-minimal"
        budget_spaces: int | None = None,
        budget_assignments: int | None = None,
        var_cap: int = 3,
        documents: tuple[str, ...] = (),  # JSON space documents, "documents" mode
    ):
        for name, value in zip(self._fields, (
            law_text, n, mode, want, budget_spaces, budget_assignments, var_cap, documents
        )):
            _set(self, name, value)
        if self.mode not in ("exhaustive", "subbase", "documents"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.want not in ("first", "all-minimal"):
            raise ValueError(f"unknown want {self.want!r}")
        for name in ("n", "budget_spaces", "budget_assignments", "var_cap"):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and "budget" in name):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if name != "n" and value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.mode == "documents":
            if not self.documents:
                raise ValueError("documents mode needs at least one space document")
        elif self.documents:
            raise ValueError(f"space documents conflict with mode {self.mode!r}")
        else:
            _check_points(self.n)


class DocumentError(ValueError):
    """Space document ``index`` of a documents-mode task failed to load."""

    def __init__(self, index: int, error: ValueError):
        super().__init__(f"document {index + 1}: {error}")
        self.index = index
        self.error = error


class ScanError(RuntimeError):
    """A law scan raised; the message names the space's index in the stream."""


class SpaceWitness(NamedTuple):
    """One violating space, as the stream yielded it, with the scan's
    witness: the first violating assignment found in it."""

    ground: GroundSet
    topology: Topology
    ideal: Ideal
    witness: Witness

    def space(self) -> Space:
        """The space rebuilt on a new ``Topology`` of the same family, so
        that it is validated and tabulated again, not read from the scan's
        tables."""
        return Space(self.ground, Topology(self.topology.family), self.ideal)

    def sort_key(self):
        return (
            len(self.topology),
            len(self.ideal),
            self.topology.family.mask,
            # a power set's membership mask orders as its top, its highest bit
            self.ideal.top,
        )


class SearchResult(NamedTuple):
    task: SearchTask
    status: str
    witnesses: tuple[SpaceWitness, ...]
    spaces_scanned: int
    assignments_evaluated: int
    spaces_total: int | None  # None when the stream size is not known upfront


def _space_stream(task: SearchTask) -> tuple[Iterator[tuple], int | None]:
    """Yield (ground, topology, ideal) space keys; also the total when known.

    Each topology and each ideal is built once and shared by all the
    spaces that contain it.
    """
    if task.mode == "documents":
        spaces = []
        for index, text in enumerate(task.documents):
            try:
                spaces.append(space_from_document(_json_document(text)))
            except ValueError as exc:  # a SpaceDocumentError, bad JSON included
                raise DocumentError(index, exc) from exc
        return iter([(sp.ground, sp.topology, sp.ideal) for sp in spaces]), len(spaces)
    ground = GroundSet(default_labels(task.n))
    ideals = list(enumerate_ideals(task.n))
    topologies: Iterable[Topology] = enumerate_topologies(task.n, task.mode)
    total = None
    if task.mode == "exhaustive":
        topologies = list(topologies)
        total = len(topologies) * len(ideals)
    stream = ((ground, topology, ideal) for topology in topologies for ideal in ideals)
    return stream, total


def run_search(task: SearchTask) -> SearchResult:
    law = dsl.parse_law(task.law_text)  # fail fast on bad law text
    dsl._check_var_cap(law, task.var_cap)  # and on too many variables
    stream, total = _space_stream(task)

    witnesses: list[SpaceWitness] = []
    scanned = 0
    used = 0
    cut = False
    for space_key in stream:
        remaining = None if task.budget_assignments is None else task.budget_assignments - used
        try:
            outcome, witness, count = dsl.scan_law(Space(*space_key), law, budget=remaining)
        except Exception as exc:
            raise ScanError(
                f"scan failed at space {scanned}: {type(exc).__name__}: {exc}"
            ) from exc
        # the space past either budget is scanned before the cut is seen, as
        # the benchmark's counters pin (513 scans for 512 spaces on tables-n8)
        if scanned == task.budget_spaces or remaining == 0:
            cut = True
            break
        scanned += 1
        used += count
        if outcome == "budget":  # the budget ran out inside this space
            cut = True
            break
        if outcome == "violated":
            witnesses.append(SpaceWitness(*space_key, witness))
            if task.want == "first":
                break

    if witnesses:
        status = STATUS_BUDGET if cut else STATUS_FOUND
        if task.want == "all-minimal":
            best = min(w.sort_key()[:2] for w in witnesses)
            witnesses = [w for w in witnesses if w.sort_key()[:2] == best]
            witnesses.sort(key=SpaceWitness.sort_key)
    elif not cut and task.mode == "exhaustive":
        status = STATUS_CERTIFIED
    else:
        status = STATUS_BUDGET

    for w in witnesses:
        _revalidate(w, law)
    return SearchResult(task, status, tuple(witnesses), scanned, used, total)


def _revalidate(found: SpaceWitness, law: dsl.LawAst) -> None:
    """Definition-direct recheck of a reported witness; guards the byte-lane scan."""
    witness = found.witness
    lhs, rhs, violated = dsl.eval_law(found.space(), law, dict(witness.bindings))
    if not violated or lhs != witness.lhs or rhs != witness.rhs:
        raise AssertionError(f"search produced a witness that does not re-validate: {found}")


# ---------------------------------------------------------------------------
# reports


def result_to_report(result: SearchResult) -> dict:
    task = result.task
    witnesses = []
    for w in result.witnesses:
        space = w.space()
        fields = w.witness.by_label(space.ground)
        del fields["operation"]  # search witnesses are untagged
        witnesses.append({"space": space_to_document(space), **fields})
    return {
        "status": result.status,
        "law": task.law_text,
        "n": None if task.mode == "documents" else task.n,
        "mode": task.mode,
        "want": task.want,
        "witnesses": witnesses,
        "stats": {
            "spaces_scanned": result.spaces_scanned,
            "assignments_evaluated": result.assignments_evaluated,
            "spaces_total": result.spaces_total,
        },
    }


def report_json(result: SearchResult) -> str:
    return json.dumps(result_to_report(result), indent=2, sort_keys=True) + "\n"

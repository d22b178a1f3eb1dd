"""The three search workloads, their seeded inputs and their output checks.

Each workload is one ``idealtop search`` command. ``certify-n4`` and
``tables-n8`` have fixed inputs; ``documents-w2`` scans space documents
drawn from the run's seed and written under ``perfbench/_work``, so the
program receives only the generated files.

Why these three: ``certify-n4`` scans every assignment of every n = 4
space (the law evaluator dominates); ``tables-n8`` scans 256 assignments on
each of 512 eight-point spaces, so operator tables dominate; and
``documents-w2`` scans large spaces that share no topology and stop at
their first violation, with two workers. A change that helps one layer
should show on one of them and leave the others unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
EXPECTED_FILE = BENCH_DIR / "expected.json"

DEFAULT_SEED = 1
# A second seed that no tuning looked at; re-check a claimed gain on it.
HELD_OUT_SEED = 2

DOCUMENT_COUNT = 160
DOCUMENT_POINTS = (6, 7)
DOCUMENTS_LAW = "pstar(union(A,B)) == union(pstar(A),pstar(B))"

STATUS_EXIT = {"LawCertified": 0, "CounterexampleFound": 1, "BudgetExhausted": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    law: str
    argv: tuple[str, ...]  # search options after the law
    workers: int  # worker processes the timed command asks for

    def search_argv(self, documents: list[str], workers: int | None = None) -> list[str]:
        workers = self.workers if workers is None else workers
        return ["search", self.law, *self.argv, *_space_args(documents),
                "--workers", str(workers)]

    def setup_argv(self, documents: list[str]) -> list[str]:
        """The same command cut before its first assignment."""
        return ["search", self.law, *self.argv, *_space_args(documents),
                "--budget-assignments", "0", "--workers", "1"]


def _space_args(documents: list[str]) -> list[str]:
    out = []
    for path in documents:
        out += ["--space", path]
    return out


def workloads(nproc: int) -> dict[str, Workload]:
    doc_workers = max(1, min(2, nproc))  # never more workers than cores
    loads = (
        Workload("certify-n4", "star(union(A,B)) == union(star(A),star(B))",
                 ("--points", "4"), 1),
        Workload("tables-n8", "clstar:xib(clstar:xib(A)) == clstar:xib(A)",
                 ("--points", "8", "--mode", "subbase", "--all-minimal",
                  "--budget-spaces", "512"), 1),
        Workload("documents-w2", DOCUMENTS_LAW, ("--all-minimal",), doc_workers),
    )
    return {w.name: w for w in loads}


# ---------------------------------------------------------------------------
# seeded space documents


def _close(subbase: list[int], full: int) -> frozenset[int]:
    """Smallest family holding the subbase, the empty set and X, closed
    under pairwise union and intersection: the generated topology."""
    members = {0, full, *subbase}
    frontier = list(members)
    while frontier:
        new = set()
        for a in frontier:
            for b in members:
                for c in (a | b, a & b):
                    if c not in members:
                        new.add(c)
        members |= new
        frontier = list(new)
    return frozenset(members)


def generate_documents(seed: int, count: int = DOCUMENT_COUNT) -> list[dict]:
    """``count`` space documents on 6 or 7 points, each with a random
    ``topology_subbase`` of 2-4 members and a random ``ideal_generators``
    top. No two documents generate the same topology, so this workload is
    the one on which a topology-keyed cache cannot help."""
    rng = random.Random(seed)
    # Equal shares of each point count, so the scan size hardly depends on
    # the seed; only the order is random.
    points = [DOCUMENT_POINTS[i % len(DOCUMENT_POINTS)] for i in range(count)]
    rng.shuffle(points)
    docs: list[dict] = []
    seen: set[tuple[int, frozenset[int]]] = set()
    while len(docs) < count:
        n = points[len(docs)]
        full = (1 << n) - 1
        labels = [f"p{i + 1}" for i in range(n)]
        subbase = rng.sample(range(1, full), rng.randint(2, 4))
        key = (n, _close(subbase, full))
        top = rng.randrange(full + 1)
        if key in seen:
            continue
        seen.add(key)
        docs.append(
            {
                "points": labels,
                "topology_subbase": [_labels(labels, s) for s in subbase],
                "ideal_generators": [_labels(labels, top)],
            }
        )
    return docs


def _labels(labels: list[str], bits: int) -> list[str]:
    return [p for i, p in enumerate(labels) if bits >> i & 1]


def write_documents(seed: int) -> list[str]:
    """Write the seed's documents under ``_work`` and return their paths
    relative to the repository root, in scan order."""
    docs = generate_documents(seed)
    folder = WORK_DIR / f"documents-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = folder / f"space{i:03d}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths.append(str(path.relative_to(BENCH_DIR.parent)))
    return paths


# ---------------------------------------------------------------------------
# output checks


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def summarize(exit_code: int, stdout: bytes) -> dict:
    """The pinned fields of one search run."""
    out = {"exit": exit_code, "sha256": hashlib.sha256(stdout).hexdigest()}
    try:
        report = json.loads(stdout)
        out["status"] = report["status"]
        out["spaces_scanned"] = report["stats"]["spaces_scanned"]
        out["assignments_evaluated"] = report["stats"]["assignments_evaluated"]
        out["witnesses"] = len(report["witnesses"])
    except (ValueError, KeyError, TypeError):
        out["status"] = None
    return out


def check_run(workload: str, seed: int, setup: bool, exit_code: int, stdout: bytes,
              expected: dict) -> list[str]:
    """Problems with one run's output; an empty list means it is correct.

    Fixed workloads are pinned field by field. ``documents-w2`` is pinned
    per seed where ``expected.json`` has the seed; any seed is also held to
    consistency rules and an independent recheck of every witness.
    """
    got = summarize(exit_code, stdout)
    if got["status"] is None:
        return [f"exit {exit_code}, stdout is not a search report"]
    problems = []
    if STATUS_EXIT.get(got["status"]) != exit_code:
        problems.append(f"exit {exit_code} does not match status {got['status']}")
    kind = "setup" if setup else "run"
    pins = expected[workload][kind]
    if workload == "documents-w2" and not setup:
        pins = pins.get(str(seed))
        try:
            problems += _check_documents(seed, got, json.loads(stdout))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed report: {exc!r}")
    if pins is not None:
        for key, want in pins.items():
            if got.get(key) != want:
                problems.append(f"{key}: got {got.get(key)!r}, pinned {want!r}")
    return problems


def _check_documents(seed: int, got: dict, report: dict) -> list[str]:
    problems = []
    if got["spaces_scanned"] != DOCUMENT_COUNT or report["stats"]["spaces_total"] != DOCUMENT_COUNT:
        problems.append(f"scanned {got['spaces_scanned']} of {DOCUMENT_COUNT} documents")
    if (got["witnesses"] > 0) != (got["status"] == "CounterexampleFound"):
        problems.append(f"{got['witnesses']} witnesses with status {got['status']}")
    spaces = {_space_key(d) for d in generate_documents(seed)}
    for w in report["witnesses"]:
        if _witness_problem(w, spaces):
            problems.append(f"witness does not recheck: {_witness_problem(w, spaces)}")
    return problems


def _space_key(doc: dict) -> tuple:
    """(labels, topology, ideal top) of a generated or reported document."""
    labels = doc["points"]
    full = (1 << len(labels)) - 1
    if "topology" in doc:
        topo = frozenset(_bits(labels, s) for s in doc["topology"])
        top = max(_bits(labels, s) for s in doc["ideal"])
    else:
        topo = _close([_bits(labels, s) for s in doc["topology_subbase"]], full)
        top = _bits(labels, doc["ideal_generators"][0])
    return tuple(labels), topo, top


def _bits(labels: list[str], subset: list[str]) -> int:
    return sum(1 << labels.index(p) for p in subset)


def _witness_problem(witness: dict, spaces: set) -> str | None:
    """Recheck one ``pstar`` additivity witness by the definitions, with
    no code shared with the program: pre-open means A <= int(cl(A)), and
    x is in pstar(A) when every pre-open U containing x meets A outside
    the ideal, the power set of its top member."""
    labels, topo, top = key = _space_key(witness["space"])
    if key not in spaces:
        return "space is not one of the generated documents"
    full = (1 << len(labels)) - 1

    def interior(a):
        out = 0
        for u in topo:
            if u & a == u:
                out |= u
        return out

    def closure(a):
        return full ^ interior(full ^ a)

    pre_open = [u for u in range(full + 1) if u & ~interior(closure(u)) == 0]

    def pstar(a):
        return sum(1 << x for x in range(len(labels))
                   if all((u & a) & ~top for u in pre_open if u >> x & 1))

    a = _bits(labels, witness["bindings"]["A"])
    b = _bits(labels, witness["bindings"]["B"])
    lhs, rhs = pstar(a | b), pstar(a) | pstar(b)
    if (lhs, rhs) != (_bits(labels, witness["lhs"]), _bits(labels, witness["rhs"])):
        return "lhs/rhs differ from the definitions"
    if lhs == rhs:
        return "the law holds at these bindings"
    return None

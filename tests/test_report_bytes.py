"""The bytes of ``search`` reports over a fixed grid of tasks, pinned by hash.

One sha256 covers every report in the grid, so a change anywhere in the
stream order, the scan, the budget accounting, witness choice or the JSON
layout shows up here. The grid crosses laws (one with an ``if`` clause) with
n = 1-3, both ``want`` values and several space and assignment budgets, and
adds the corpus documents and a budgeted 5-point subbase run. A second
hash pins three exhaustive 4-point reports: two ``--all-minimal``
refutations that scan every space and one certification. The output of
``check`` over every registry law on both package spaces, and of ``repro``
in both formats, is pinned the same way.
"""

import hashlib
from pathlib import Path

import pytest

from idealtop import cli, corpus, search

LAWS = (
    "sstar(union(A,B)) == union(sstar(A),sstar(B))",
    "star(union(A,B)) == union(star(A),star(B))",
    "pstar(A) <= cl(A)",
    "int(star(A)) == star(int(A))",
    "star(A) == A if A <= int(A)",
    "inter(A,B) <= cl(int(inter(A,B))) if A <= cl(int(A)), B <= cl(int(B))",
)
BUDGETS = (  # (budget_spaces, budget_assignments)
    (None, None), (0, None), (1, None), (7, None),
    (None, 0), (None, 1), (None, 5), (None, 100), (100, None), (30, 1000),
    (None, 3082),
)

# sha256 of the reports below, joined in order; unchanged since before
# ``Ideal`` held only its top
REPORTS_SHA256 = "684abe38f729d43dcecb523743bba177727e7b4b107756e5380bd40cdb627d76"


def grid_tasks():
    for law in LAWS:
        for n in (1, 2, 3):
            for want in ("first", "all-minimal"):
                for spaces, assignments in BUDGETS:
                    yield search.SearchTask(
                        law, n, want=want,
                        budget_spaces=spaces, budget_assignments=assignments,
                    )
    entries = sorted(corpus.ENTRIES, key=lambda entry: entry.id)
    documents = tuple(corpus.space_text(entry.document) for entry in entries)
    for law in LAWS[:2]:
        for want in ("first", "all-minimal"):
            for assignments in (None, 50, 700):
                yield search.SearchTask(
                    law, 0, mode="documents", want=want,
                    budget_assignments=assignments, documents=documents,
                )
    yield search.SearchTask(LAWS[1], 5, mode="subbase", budget_spaces=40)
    yield search.SearchTask(LAWS[0], 5, mode="subbase", budget_assignments=20_000)


def test_report_bytes_are_pinned():
    digest = hashlib.sha256()
    for task in grid_tasks():
        digest.update(search.report_json(search.run_search(task)).encode("utf-8"))
    assert digest.hexdigest() == REPORTS_SHA256


FOUR_POINT_TASKS = (  # (task, status, witnesses)
    (search.SearchTask("sstar(union(A,B)) == union(sstar(A),sstar(B))", 4, want="all-minimal"),
     search.STATUS_FOUND, 18),
    (search.SearchTask("xis(union(A,B)) == union(xis(A),xis(B))", 4, want="all-minimal"),
     search.STATUS_FOUND, 18),
    (search.SearchTask("pstar(inter(A,B)) <= inter(pstar(A),pstar(B))", 4),
     search.STATUS_CERTIFIED, 0),
)

# sha256 of the three reports, joined in order; computed on the code from
# before scans were memoized by operator table and topologies were grown
FOUR_POINT_SHA256 = "63f5a3e78412d26a0d2224ac3d50a2a48b4d66e487353a55e8e5a5d104e91e72"


def test_four_point_report_bytes_are_pinned():
    digest = hashlib.sha256()
    for task, status, witnesses in FOUR_POINT_TASKS:
        result = search.run_search(task)
        assert (result.status, len(result.witnesses), result.spaces_scanned) == (
            status, witnesses, 5680
        )
        digest.update(search.report_json(result).encode("utf-8"))
    assert digest.hexdigest() == FOUR_POINT_SHA256


# sha256 of ``check --law <every registry name> --json``, then of the same
# run as text, on ex-3.3-1 and then on ex-3.3-2; computed before checks
# answered with a bare witness
CHECK_SHA256 = "5799ed4324629403351379cbb96f94a34bee5bcc1ebb2d60dd313b4a01b08612"


def test_check_bytes_are_pinned(registry_names, capsys):
    digest = hashlib.sha256()
    for document in ("ex-3.3-1", "ex-3.3-2"):
        path = Path(corpus.__file__).parent / "spaces" / f"{document}.json"
        argv = ["check", "--space", str(path)]
        argv += [arg for name in registry_names for arg in ("--law", name)]
        for extra in (["--json"], []):
            assert cli.main(argv + extra) == 1  # some registry law fails on each
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == CHECK_SHA256


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["repro"], "d446f20463b185b5225b28215cd4379f6abd7c8abbb0da9cdae62ea633d7fcfa"),
        (["repro", "--json"], "67455f1ea6af4256afd29a6d954aa425fa5490712d5505cefdc4416caa2310e5"),
    ],
    ids=["text", "json"],
)
def test_repro_bytes_are_pinned(argv, sha256, capsys):
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256

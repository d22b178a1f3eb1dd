"""Tests of the benchmark itself: exact per-layer counters, unchanged
output under tracing, the seeded documents and the output checks.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import sys

import pytest

import run
import spans
import workloads as wl

sys.path.insert(0, str(run.SRC))

LOADS = wl.workloads(nproc=2)
EXPECTED = wl.load_expected()


def traced_run(name, seed=wl.DEFAULT_SEED):
    docs = wl.write_documents(seed) if name == "documents-w2" else []
    argv = LOADS[name].search_argv(docs, workers=1)
    _, plain_code, plain_out = run.run_in_process(argv)
    tracer = spans.Tracer()
    _, code, out = run.run_in_process(argv, tracer)
    assert (code, out) == (plain_code, plain_out), "tracing changed the program's output"
    assert wl.check_run(name, seed, False, code, out, EXPECTED) == []
    report = json.loads(out)
    return spans.layer_metrics(tracer, report["stats"]["spaces_scanned"]), report, tracer


def test_certify_n4_counters_are_exact():
    layers, report, tracer = traced_run("certify-n4")
    assert layers["dsl.assignments"] == 5680 * 256 == 1_454_080
    assert report["stats"]["assignments_evaluated"] == layers["dsl.assignments"]
    assert layers["space.built"] == layers["dsl.scans"] == 5680
    assert layers["search.scan_useful_ratio"] == 1.0
    assert layers["dsl.early_exit_share"] == 1.0
    assert layers["search.topologies"] == 355
    assert layers["operators.topology_reuse_share"] == (5680 - 355) / 5680
    # three applications of star per law, one table built per space
    assert (layers["operators.tables_built"], layers["operators.table_hits"]) == (5680, 11360)
    assert layers["search.witnesses"] == 0
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_tables_n8_scans_one_space_past_the_budget():
    layers, report, _ = traced_run("tables-n8")
    # The serial scan evaluates space 513 before the merge loop sees that
    # --budget-spaces 512 is spent; its assignments are not reported.
    assert layers["dsl.scans"] == 513
    assert layers["search.spaces_scanned"] == report["stats"]["spaces_scanned"] == 512
    assert report["stats"]["assignments_evaluated"] == 512 * 256
    assert layers["dsl.assignments"] == 513 * 256
    assert layers["search.scan_useful_ratio"] == 512 / 513
    assert layers["operators.tables_built"] == 513


def test_documents_w2_shares_no_topology_and_builds_each_space_twice():
    layers, report, _ = traced_run("documents-w2")
    witnesses = len(report["witnesses"])
    assert layers["dsl.scans"] == layers["search.spaces_scanned"] == wl.DOCUMENT_COUNT
    assert layers["operators.topology_reuse_share"] == 0.0
    # once when parsed, once when scanned; each witness once to recheck, once to print
    assert layers["space.built"] == 2 * wl.DOCUMENT_COUNT + 2 * witnesses
    assert layers["search.witnesses"] == witnesses > 0
    assert 0.0 < layers["dsl.early_exit_share"] < 1.0


def test_documents_are_seeded_and_distinct():
    docs = wl.generate_documents(wl.DEFAULT_SEED)
    assert docs == wl.generate_documents(wl.DEFAULT_SEED)
    assert docs != wl.generate_documents(wl.HELD_OUT_SEED)
    assert len(docs) == wl.DOCUMENT_COUNT
    assert len({wl._space_key(d)[:2] for d in docs}) == wl.DOCUMENT_COUNT
    assert sorted(len(d["points"]) for d in docs) == [6] * 80 + [7] * 80
    assert all(2 <= len(d["topology_subbase"]) <= 4 for d in docs)
    assert all(len(d["ideal_generators"]) == 1 for d in docs)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1],
                    ["inner", 5.0, 6.0, 0]]
    self_s, durations = tracer.self_times()
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert durations["inner"] == [3.0, 1.0]


def test_checks_catch_wrong_output():
    seed = wl.DEFAULT_SEED
    pins = EXPECTED["documents-w2"]["run"][str(seed)]
    _, report, _ = traced_run("documents-w2", seed)
    good = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    assert wl.check_run("documents-w2", seed, False, pins["exit"], good, EXPECTED) == []
    assert wl.check_run("documents-w2", seed, False, 3, good, EXPECTED)
    assert wl.check_run("documents-w2", seed, False, 1, b"Traceback", EXPECTED)

    tampered = json.loads(good)
    tampered["witnesses"][0]["lhs"] = tampered["witnesses"][0]["rhs"]
    spaces = {wl._space_key(d) for d in wl.generate_documents(seed)}
    assert wl._witness_problem(report["witnesses"][0], spaces) is None
    assert wl._witness_problem(tampered["witnesses"][0], spaces) is not None
    # an unpinned seed is still held to the witness recheck
    unpinned = {**EXPECTED, "documents-w2": {**EXPECTED["documents-w2"], "run": {}}}
    assert wl.check_run("documents-w2", seed, False, 1, json.dumps(tampered).encode(), unpinned)


@pytest.mark.parametrize("name", ["certify-n4", "tables-n8"])
def test_setup_command_scans_nothing(name):
    [run_] = run.run_children(LOADS[name].setup_argv([]))
    assert wl.check_run(name, 0, True, run_["exit"], run_["stdout"], EXPECTED) == []
    assert json.loads(run_["stdout"])["stats"]["assignments_evaluated"] == 0

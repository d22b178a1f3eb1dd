"""Space enumeration and the counterexample search driver.

Enumeration counts are checked against the oracle's validator scan; search
fixtures (status, spaces scanned, witness) are frozen from the deterministic
scan, and ``--workers`` must not change a report's bytes.
"""

import itertools
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from idealtop import cli, corpus, dsl, laws, search
from idealtop import space as space_mod
from idealtop.space import (
    MAX_POINTS,
    Family,
    GroundSet,
    Ideal,
    SchemaError,
    Space,
    Topology,
    Witness,
    generate_topology,
    serialize_space,
    space_from_document,
    space_to_document,
    validate_topology,
)
from test_scan import random_law

ADDITIVITY = "{op}(union(A,B)) == union({op}(A),{op}(B))"
SPACES = Path(__file__).resolve().parent.parent / "src" / "idealtop" / "spaces"
# each corpus entry's space file, entries in id order
CORPUS_FILES = [SPACES / f"{e.document}.json" for e in sorted(corpus.ENTRIES, key=lambda e: e.id)]


def bits_family(ground, family):
    return frozenset(oracle.bits_to_set(ground, m) for m in family)


class TestEnumeration:
    def test_topology_counts_match_oracle(self):
        for n, want in ((1, 1), (2, 4), (3, 29), (4, 355)):
            assert search.count_topologies(n) == want
        for n in (1, 2, 3):
            labels = list(search.default_labels(n))
            assert search.count_topologies(n) == len(oracle.all_topologies(labels))

    def test_topologies_match_oracle_setwise(self):
        for n in (1, 2, 3):
            g = GroundSet(search.default_labels(n))
            mine = {bits_family(g, t.family) for t in search.enumerate_topologies(n)}
            theirs = {frozenset(t) for t in oracle.all_topologies(list(g.labels))}
            assert mine == theirs

    @pytest.mark.parametrize("n, count", [(3, 29), (4, 355)])
    def test_exhaustive_stream_ascends_and_passes_the_oracle(self, n, count):
        labels = search.default_labels(n)
        g = GroundSet(labels)
        topologies = list(search.enumerate_topologies(n, "exhaustive"))
        masks = [t.family.mask for t in topologies]
        assert len(topologies) == count
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert all(oracle.is_topology(bits_family(g, t.family), labels) for t in topologies)

    def test_ideal_counts_and_sets_match_oracle(self):
        for n in (1, 2, 3):
            g = GroundSet(search.default_labels(n))
            mine = [tuple(i) for i in search.enumerate_ideals(n)]
            assert len(mine) == 2 ** n
            theirs = {frozenset(i) for i in oracle.all_ideals(list(g.labels))}
            assert {bits_family(g, m) for m in mine} == theirs

    def test_enumeration_order_is_membership_mask_ascending(self):
        assert [t.family.members for t in search.enumerate_topologies(2)] == [
            (0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3),
        ]
        assert [tuple(i) for i in search.enumerate_ideals(2)] == [
            (0,), (0, 1), (0, 2), (0, 1, 2, 3),
        ]

    def test_every_ideal_is_a_powerset(self):
        for n in (1, 2, 3, 4):
            assert list(search.enumerate_ideals(n)) == [Ideal(top) for top in range(1 << n)]

    def test_exhaustive_mode_bounds(self):
        # Arguments are checked by the call itself, before any iteration,
        # so an out-of-range request never starts enumerating.
        with pytest.raises(ValueError, match="needs n <= 4, got 5"):
            search.enumerate_topologies(5, "exhaustive")
        with pytest.raises(ValueError):
            search.enumerate_topologies(0)
        with pytest.raises(ValueError):
            search.enumerate_topologies(3, "weird")
        out = subprocess.run(
            [sys.executable, "-m", "idealtop", "search", "A == A", "--points", "5",
             "--mode", "exhaustive"],
            capture_output=True, text=True, timeout=30,
        )
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: exhaustive enumeration needs n <= 4, got 5\n"
        # the default mode is exhaustive at every n; subbases are asked for
        with pytest.raises(ValueError, match="needs n <= 4, got 5"):
            search.enumerate_topologies(5)
        first = next(search.enumerate_topologies(5, "subbase"))
        assert first.family.members == (0, 31)

    def test_grown_topology_counts(self):
        # labelled topologies on n points: OEIS A000798
        counts = [len(search._topology_members(n)) for n in range(1, 6)]
        assert counts == [1, 4, 29, 355, 6942]

    def test_five_point_topologies_are_distinct_and_valid(self):
        ground = GroundSet(search.default_labels(5))
        members = search._topology_members(5)
        assert len({t.family.members for t in members}) == len(members) == 6942
        assert all(validate_topology(t.family, ground) is None for t in members)
        # and by the oracle's own definition, not only the program's validator
        assert all(oracle.is_topology(bits_family(ground, t.family), ground.labels) for t in members)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_growth_equals_the_product_filter(self, n):
        # Every choice of U(x) containing x, kept where it is a preorder,
        # then sorted: the exhaustive stream must be this, item for item.
        ground = GroundSet(search.default_labels(n))
        points = range(n)
        choices = [[u for u in range(ground.universe + 1) if u >> x & 1] for x in points]
        filtered = [
            generate_topology(nbhd, ground)
            for nbhd in itertools.product(*choices)
            if all(nbhd[y] & ~u == 0 for u in nbhd for y in points if u >> y & 1)
        ]
        filtered.sort(key=lambda topology: topology.family.mask)
        grown = search._topology_members(n)
        assert [t.family.members for t in grown] == [t.family.members for t in filtered]
        assert grown == tuple(filtered)

    def test_subbase_mode_covers_everything_at_three_points(self):
        exhaustive = {t.family.members for t in search.enumerate_topologies(3)}
        sub = [t.family.members for t in search.enumerate_topologies(3, "subbase")]
        assert len(sub) == len(set(sub))  # deduplicated
        assert set(sub) == exhaustive


class TestTaskValidation:
    def test_mode_and_want_validated(self):
        with pytest.raises(ValueError):
            search.SearchTask("star(A) == A", 2, mode="nope")
        with pytest.raises(ValueError):
            search.SearchTask("star(A) == A", 2, want="everything")
        with pytest.raises(ValueError):
            search.SearchTask("star(A) == A", 0)
        with pytest.raises(ValueError):
            search.SearchTask("star(A) == A", 2, mode="documents")
        for n in (True, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
                search.SearchTask("star(A) == A", n)

    @pytest.mark.parametrize("mode", ["exhaustive", "subbase"])
    def test_documents_refused_outside_documents_mode(self, mode):
        with pytest.raises(ValueError, match=f"^space documents conflict with mode '{mode}'$"):
            search.SearchTask("A == A", 2, mode=mode, documents=("not json",))

    @pytest.mark.parametrize(
        "field", ["budget_spaces", "budget_assignments", "var_cap"]
    )
    def test_negative_budgets_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            search.SearchTask("star(A) == A", 2, **{field: -1})
        assert getattr(search.SearchTask("star(A) == A", 2, **{field: 0}), field) == 0
        # a bool or a float is refused when the task is built; None only
        # means "no budget"
        refused = (True, 2.0, "2", None) if field == "var_cap" else (True, 2.0, "2")
        for value in refused:
            match = f"^{field} must be an int, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=match):
                search.SearchTask("star(A) == A", 2, **{field: value})

    def test_bad_document_names_its_index(self, space_a):
        task = search.SearchTask(
            "star(A) == A", 0, mode="documents", documents=(serialize_space(space_a), "{x}")
        )
        with pytest.raises(search.DocumentError, match="^document 2: ") as info:
            search.run_search(task)
        assert info.value.index == 1
        # the decoder ``parse_space`` uses: bad JSON is a schema error
        assert isinstance(info.value.error, SchemaError)
        assert str(info.value.error).startswith("invalid JSON: Expecting property name")

    def test_run_rejects_bad_law_and_scale(self):
        with pytest.raises(dsl.DslError):
            search.run_search(search.SearchTask("star(A == A", 2))
        with pytest.raises(ValueError):
            search.run_search(search.SearchTask(ADDITIVITY.format(op="star"), 5))
        with pytest.raises(dsl.VariableCapError):
            search.run_search(
                search.SearchTask("union(union(A,B),union(C,D)) == X", 2)
            )


    @pytest.mark.parametrize("law, error", [
        ("bad(", dsl.DslError),
        ("union(union(A,B),union(C,D)) == X", dsl.VariableCapError),
    ])
    def test_bad_law_fails_before_the_stream_is_built(self, monkeypatch, law, error):
        def no_stream(task):
            raise AssertionError("the space stream was built")

        monkeypatch.setattr(search, "_space_stream", no_stream)
        with pytest.raises(error):
            search.run_search(search.SearchTask(law, 4))


# (op, n=3 spaces_scanned): ops whose additivity first fails on the chain
# {{}, {w1,w2}, X} scan position 25, vs. those needing {{},{w1},{w2},{w1,w2},X}
MINIMAL_N3 = {
    "sstar": 49, "pstar": 25, "bstar": 25, "betastar": 25,
    "xis": 49, "xip": 25, "xib": 25, "xibeta": 25,
}


class TestSearchFixtures:
    @pytest.mark.parametrize("op", sorted(MINIMAL_N3))
    def test_additivity_certified_at_two_points(self, op):
        result = search.run_search(search.SearchTask(ADDITIVITY.format(op=op), 2))
        assert result.status == search.STATUS_CERTIFIED
        assert result.witnesses == ()
        assert result.spaces_scanned == result.spaces_total == 16
        assert result.assignments_evaluated == 16 * 16

    @pytest.mark.parametrize("op", sorted(MINIMAL_N3))
    def test_additivity_refuted_at_three_points(self, op):
        result = search.run_search(search.SearchTask(ADDITIVITY.format(op=op), 3))
        assert result.status == search.STATUS_FOUND
        assert result.spaces_scanned == MINIMAL_N3[op]
        w, = result.witnesses
        expected_topo = (0, 1, 2, 3, 7) if MINIMAL_N3[op] == 49 else (0, 3, 7)
        assert w.topology.family.members == expected_topo
        assert tuple(w.ideal) == (0,)
        assert w.witness == Witness((("A", 1), ("B", 2)), 7, 3)

    def test_witnesses_hold_up_in_the_oracle(self):
        for op in ("sstar", "xibeta"):
            result = search.run_search(search.SearchTask(ADDITIVITY.format(op=op), 3))
            w, = result.witnesses
            space = w.space()
            topo, ideal, points = oracle.space_to_oracle(space)
            nbhd, cl = oracle.NAMED_LOCAL_FNS[op]
            f = lambda s: oracle.local_function(topo, ideal, points, nbhd, cl, s)
            env = {
                name: oracle.bits_to_set(space.ground, bits) for name, bits in w.witness.bindings
            }
            lhs = f(env["A"] | env["B"])
            rhs = f(env["A"]) | f(env["B"])
            assert lhs != rhs
            assert oracle.set_to_bits(space.ground, lhs) == w.witness.lhs
            assert oracle.set_to_bits(space.ground, rhs) == w.witness.rhs

    def test_b_local_function_fails_at_four_points_too(self):
        result = search.run_search(search.SearchTask(ADDITIVITY.format(op="bstar"), 4))
        assert result.status == search.STATUS_FOUND
        assert result.spaces_scanned == 49
        assert result.spaces_total == 355 * 16
        w, = result.witnesses
        assert (w.topology.family.members, tuple(w.ideal)) == ((0, 3, 15), (0,))
        assert w.witness == Witness((("A", 1), ("B", 2)), 15, 3)

    def test_conditional_laws_search_and_revalidate(self):
        # intersection closure of the open sets holds everywhere; of the
        # semi-open sets it first fails on {}, {w1}, {w2}, {w1,w2}, X, where
        # {w1,w3} and {w2,w3} are semi-open and their meet {w3} is not
        law = "inter(A,B) <= int(inter(A,B)) if A <= int(A), B <= int(B)"
        result = search.run_search(search.SearchTask(law, 3))
        assert result.status == search.STATUS_CERTIFIED
        assert result.assignments_evaluated == 232 * 64
        law = "inter(A,B) <= cl(int(inter(A,B))) if A <= cl(int(A)), B <= cl(int(B))"
        result = search.run_search(search.SearchTask(law, 3))
        assert result.status == search.STATUS_FOUND
        assert result.spaces_scanned == 49
        w, = result.witnesses
        assert (w.topology.family.members, tuple(w.ideal)) == ((0, 1, 2, 3, 7), (0,))
        assert w.witness == Witness((("A", 5), ("B", 6)), 4, 0)

    def test_open_star_additivity_certified_at_three_points(self):
        result = search.run_search(search.SearchTask(ADDITIVITY.format(op="star"), 3))
        assert result.status == search.STATUS_CERTIFIED
        assert result.spaces_scanned == 232
        assert result.assignments_evaluated == 232 * 64


class TestRevalidation:
    def test_a_witness_that_does_not_hold_up_is_refused(self, monkeypatch):
        # A scan that claims star additivity fails at A={w1}, B={w2}, where
        # it holds on every space, must not reach a report.
        claim = ("violated", Witness((("A", 1), ("B", 2)), 3, 3), 1)
        monkeypatch.setattr(dsl, "_scan_lanes", lambda *args: claim)
        with pytest.raises(AssertionError, match="does not re-validate"):
            search.run_search(search.SearchTask(ADDITIVITY.format(op="star"), 2))

    def test_a_witness_with_wrong_sides_is_refused(self, monkeypatch):
        scan = dsl._scan_lanes

        def misreported(*args):
            outcome, witness, count = scan(*args)
            if outcome == "violated":
                witness = witness._replace(lhs=witness.lhs ^ 1)
            return outcome, witness, count

        monkeypatch.setattr(dsl, "_scan_lanes", misreported)
        with pytest.raises(AssertionError, match="does not re-validate"):
            search.run_search(search.SearchTask(ADDITIVITY.format(op="sstar"), 3))

    def test_recheck_builds_the_space_afresh(self):
        w, = search.run_search(search.SearchTask(ADDITIVITY.format(op="sstar"), 3)).witnesses
        space = w.space()
        assert (space.ground, space.topology, space.ideal) == (w.ground, w.topology, w.ideal)
        # a new topology object, validated and tabulated again: the recheck
        # does not read the tables the scan read
        assert space.topology is not w.topology
        scanned = w.topology._tables[1]
        assert space.tables is not scanned
        assert (space.int_table, space.cl_table) == (scanned["int"], scanned["cl"])


class TestAllMinimal:
    def test_collects_tied_minimal_spaces_in_order(self):
        task = search.SearchTask(ADDITIVITY.format(op="xis"), 3, want="all-minimal")
        result = search.run_search(task)
        assert result.status == search.STATUS_FOUND
        assert result.spaces_scanned == 232  # full sweep before filtering
        assert [
            (w.topology.family.members, tuple(w.ideal), w.witness.bindings)
            for w in result.witnesses
        ] == [
            ((0, 1, 2, 3, 7), (0,), (("A", 1), ("B", 2))),
            ((0, 1, 4, 5, 7), (0,), (("A", 1), ("B", 4))),
            ((0, 2, 4, 6, 7), (0,), (("A", 2), ("B", 4))),
        ]
        keys = [w.sort_key() for w in result.witnesses]
        assert keys == sorted(keys)
        sizes = {(len(w.topology), len(w.ideal)) for w in result.witnesses}
        assert sizes == {(5, 1)}

    def test_first_and_all_minimal_agree_on_the_minimum(self):
        for op in ("pstar", "xis"):
            law = ADDITIVITY.format(op=op)
            first = search.run_search(search.SearchTask(law, 3))
            all_min = search.run_search(search.SearchTask(law, 3, want="all-minimal"))
            fw, = first.witnesses
            assert (len(fw.topology), len(fw.ideal)) == (
                len(all_min.witnesses[0].topology),
                len(all_min.witnesses[0].ideal),
            )
            assert fw in all_min.witnesses


class TestBudgets:
    LAW = ADDITIVITY.format(op="sstar")

    def test_space_budget(self):
        result = search.run_search(search.SearchTask(self.LAW, 3, budget_spaces=5))
        assert result.status == search.STATUS_BUDGET
        assert result.spaces_scanned == 5
        assert result.assignments_evaluated == 5 * 64
        assert result.witnesses == ()

    def test_assignment_budget_cuts_mid_space(self):
        result = search.run_search(search.SearchTask(self.LAW, 3, budget_assignments=100))
        assert result.status == search.STATUS_BUDGET
        assert (result.spaces_scanned, result.assignments_evaluated) == (2, 100)

    def test_budget_boundary_around_the_witness(self):
        full = search.run_search(search.SearchTask(self.LAW, 3))
        assert (full.status, full.assignments_evaluated) == (search.STATUS_FOUND, 3083)
        exact = search.run_search(
            search.SearchTask(self.LAW, 3, budget_assignments=3083)
        )
        assert exact.status == search.STATUS_FOUND
        assert exact.witnesses == full.witnesses
        short = search.run_search(
            search.SearchTask(self.LAW, 3, budget_assignments=3082)
        )
        assert short.status == search.STATUS_BUDGET
        assert short.witnesses == ()
        assert short.assignments_evaluated == 3082

    def test_budget_spent_on_a_space_boundary(self):
        # the sixth space finds no assignment left, so it is not counted
        result = search.run_search(search.SearchTask(self.LAW, 3, budget_assignments=5 * 64))
        assert result.status == search.STATUS_BUDGET
        assert (result.spaces_scanned, result.assignments_evaluated) == (5, 5 * 64)

    def test_zero_space_budget(self):
        result = search.run_search(search.SearchTask(self.LAW, 3, budget_spaces=0))
        assert (result.status, result.spaces_scanned) == (search.STATUS_BUDGET, 0)


class TestNonExhaustiveModes:
    def test_subbase_scan_never_certifies(self):
        result = search.run_search(
            search.SearchTask(ADDITIVITY.format(op="star"), 3, mode="subbase")
        )
        assert result.status == search.STATUS_BUDGET
        assert result.spaces_scanned == 232
        assert result.spaces_total is None

    def test_subbase_scan_still_finds_witnesses(self):
        result = search.run_search(
            search.SearchTask(ADDITIVITY.format(op="pstar"), 3, mode="subbase")
        )
        assert result.status == search.STATUS_FOUND
        w, = result.witnesses
        assert w.space()  # revalidated, constructible

    def test_documents_mode(self, space_a):
        law = ADDITIVITY.format(op="sstar")
        doc_a = serialize_space(space_a)
        doc_1pt = json.dumps({"points": ["w1"], "topology": [[], ["w1"]], "ideal": [[]]})
        hit = search.run_search(
            search.SearchTask(law, 0, mode="documents", documents=(doc_1pt, doc_a))
        )
        assert hit.status == search.STATUS_FOUND
        assert hit.spaces_scanned == 2
        w, = hit.witnesses
        assert w.witness.bindings == (("A", 1), ("B", 2))
        miss = search.run_search(
            search.SearchTask(law, 0, mode="documents", documents=(doc_1pt,))
        )
        assert miss.status == search.STATUS_BUDGET
        assert miss.spaces_total == 1

    @pytest.mark.parametrize("op, witnesses", [("star", 0), ("pstar", 7)])
    def test_documents_mode_validates_each_topology_once(self, monkeypatch, op, witnesses):
        # A document's topology is validated when it is parsed; the space
        # that is scanned reuses the tables it holds. A witness is rebuilt
        # from its masks for the definition-direct recheck, and validated
        # there again.
        calls = []

        def counting(family, ground):
            calls.append(family)
            return validate_topology(family, ground)

        monkeypatch.setattr(space_mod, "validate_topology", counting)
        documents = tuple(path.read_text() for path in CORPUS_FILES)
        task = search.SearchTask(
            ADDITIVITY.format(op=op), 0, mode="documents", want="all-minimal",
            documents=documents,
        )
        result = search.run_search(task)
        assert result.spaces_scanned == len(documents) == 11
        assert len(result.witnesses) == witnesses
        assert len(calls) == len(documents) + witnesses


class TestDeterminismAndReports:
    def test_parallel_report_is_byte_identical(self, capsys):
        # --workers is accepted and ignored: every mode prints the same bytes
        documents = [f"--space={path}" for path in CORPUS_FILES]
        for argv in (
            [ADDITIVITY.format(op="xis"), "--points", "3"],
            [ADDITIVITY.format(op="xis"), "--points", "3", "--all-minimal"],
            [ADDITIVITY.format(op="star"), "--points", "2"],
            [ADDITIVITY.format(op="sstar"), "--points", "3", "--budget-assignments", "3082"],
            [ADDITIVITY.format(op="pstar"), "--all-minimal", *documents],
            [ADDITIVITY.format(op="star"), "--points", "5", "--mode", "subbase",
             "--budget-spaces", "70"],
        ):
            outputs = set()
            for workers in ("1", "2", "3"):
                code = cli.main(["search", *argv, "--workers", workers])
                outputs.add((code, capsys.readouterr()))
            assert len(outputs) == 1

    def test_report_shape(self):
        task = search.SearchTask(ADDITIVITY.format(op="pstar"), 3)
        report = search.result_to_report(search.run_search(task))
        assert sorted(report) == ["law", "mode", "n", "stats", "status", "want", "witnesses"]
        assert report["n"] == 3
        assert report["status"] == "CounterexampleFound"
        w, = report["witnesses"]
        assert sorted(w) == ["bindings", "lhs", "rhs", "space"]
        assert w["space"]["points"] == ["w1", "w2", "w3"]
        assert w["space"]["topology"] == [[], ["w1", "w2"], ["w1", "w2", "w3"]]
        assert w["bindings"] == {"A": ("w1",), "B": ("w2",)}
        assert w["lhs"] == ("w1", "w2", "w3")
        assert w["rhs"] == ("w1", "w2")
        # 24 clean spaces of 8*8 assignments, then 11 in the violating one
        assert report["stats"] == {
            "spaces_scanned": 25,
            "assignments_evaluated": 24 * 64 + 11,
            "spaces_total": 232,
        }

    def test_documents_report_has_null_n(self):
        doc = json.dumps({"points": ["w1"], "topology": [[], ["w1"]], "ideal": [[]]})
        task = search.SearchTask("star(A) == cl(A)", 0, mode="documents", documents=(doc,))
        report = search.result_to_report(search.run_search(task))
        assert report["n"] is None
        assert report["mode"] == "documents"

    def test_report_json_is_stable_text(self):
        task = search.SearchTask(ADDITIVITY.format(op="star"), 2)
        text = search.report_json(search.run_search(task))
        assert text.endswith("\n")
        assert json.loads(text)["status"] == "LawCertified"
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestScanLoop:
    """The one serial loop, seen through the scans it asks ``dsl.scan_law`` for."""

    def logging_scans(self, monkeypatch, fail_past=None):
        """Record each scan's (topology mask, count); raise on topologies
        other than ``fail_past`` when it is given."""
        scan_law, scans = dsl.scan_law, []

        def scan(space, *args, **kwargs):
            mask = space.topology.family.mask
            if fail_past is not None and mask != fail_past:
                raise ValueError("scan broke")
            outcome, verdict, count = scan_law(space, *args, **kwargs)
            scans.append((mask, count))
            return outcome, verdict, count

        monkeypatch.setattr(dsl, "scan_law", scan)
        return scans

    def test_space_past_the_budget_is_scanned(self, monkeypatch):
        # the loop scans space 71 before it sees that 70 are spent; the
        # benchmark's tables-n8 counters pin the same rule at 513
        scans = self.logging_scans(monkeypatch)
        task = search.SearchTask("A == A", 5, mode="subbase", budget_spaces=70)
        result = search.run_search(task)
        assert (result.status, result.spaces_scanned) == (search.STATUS_BUDGET, 70)
        assert len(scans) == 71

    def test_last_space_is_scanned_with_what_remains(self, monkeypatch):
        # 300 whole spaces of 256 assignments, then 5 of space 301: no scan
        # evaluates past the budget
        scans = self.logging_scans(monkeypatch)
        budget = 300 * 256 + 5
        task = search.SearchTask("A == A", 8, mode="subbase", budget_assignments=budget)
        result = search.run_search(task)
        assert result.status == search.STATUS_BUDGET
        assert (result.spaces_scanned, result.assignments_evaluated) == (301, budget)
        assert sum(count for _, count in scans) == budget == 76_805

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_scan_exits_2(self, monkeypatch, capsys, workers):
        # at three points the second topology's spaces are 8-15
        self.logging_scans(monkeypatch, fail_past=next(search.enumerate_topologies(3)).family.mask)
        argv = ["search", ADDITIVITY.format(op="star"), "--points", "3"]
        assert cli.main([*argv, "--workers", str(workers)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: scan failed at space 8: ValueError: scan broke\n"


# ---------------------------------------------------------------------------
# law-level metamorphic relations, through documents-mode searches


def _document_search(space, law_text):
    """A documents-mode search of ``law_text`` on ``space`` alone, from the
    space's document: the violation it finds, a ``Witness``, or None."""
    document = json.dumps(space_to_document(space))
    result = search.run_search(
        search.SearchTask(law_text, 0, mode="documents", documents=(document,))
    )
    assert result.status in (search.STATUS_FOUND, search.STATUS_BUDGET)
    return result.witnesses[0].witness if result.witnesses else None


def _hypotheses_can_hold(space, law):
    """Whether some assignment on ``space`` meets every hypothesis of ``law``:
    then, and only then, ``X <= empty if <hypotheses>`` is violated."""
    if not law.hypotheses:
        return True
    text = "X <= empty if " + ", ".join(map(dsl.format_law, law.hypotheses))
    return _document_search(space, text) is not None


def _seeded_law_cases():
    """Seeded random spaces on 5-8 points, each with a random law of 0-2
    variables (up to 3 on five points); every third law with variables
    has hypotheses."""
    rng = random.Random(20261020)
    out = []
    for i in range(48):
        n = 5 + i % 4
        labels = search.default_labels(n)
        subset = lambda: tuple(lab for lab in labels if rng.random() < 0.5)
        space = space_from_document({
            "points": list(labels),
            "topology_subbase": [list(s) for s in dict.fromkeys(subset() for _ in range(3))],
            "ideal_generators": [list(subset())],
        })
        k = rng.randint(0, 3 if n == 5 else 2)
        law = random_law(rng, k, rng.randint(1, 2) if i % 3 == 0 and k else 0)
        out.append((rng, space, law))
    return out


class TestLawMetamorphic:
    """Relations between a law's searches on two spaces, which need no
    oracle and so reach eight points (Chen, Cheung and Yiu, 1998). Every
    space is searched from its document, and every search re-validates its
    own witness."""

    def test_relabelling(self):
        """R1: for a permutation π of the points, a law is violated on π·S
        (the opens and the ideal of S carried along π) iff it is violated on
        S, and the π-image of S's witness is a witness on π·S, with sides
        the π-images of S's."""
        verdicts = []
        for rng, space, law in _seeded_law_cases():
            n, text = space.ground.n, dsl.format_law(law)
            perm = rng.sample(range(n), n)
            move = lambda bits: sum(1 << perm[i] for i in range(n) if bits >> i & 1)
            moved = Space(
                space.ground,
                Topology(Family(move(u) for u in space.topology.family.members)),
                Ideal(move(space.ideal.top)),
            )
            witness = _document_search(space, text)
            assert (_document_search(moved, text) is None) == (witness is None), text
            verdicts.append(witness is None)
            if witness is not None:
                bindings = tuple((name, move(bits)) for name, bits in witness.bindings)
                assert laws.text_law(text).violated_at(moved, bindings) == Witness(
                    bindings, move(witness.lhs), move(witness.rhs)
                ), text
        assert min(verdicts.count(True), verdicts.count(False)) >= 10

    def test_lifting(self):
        """R2: add a point p to S as its own clopen component, inside the
        ideal. S+p is the sum of S and the one-point space P = {p} with
        ideal {∅, {p}}, and every operator acts on each component alone. So
        an assignment on S+p is a pair of assignments, on S and on P; it
        violates a law iff the hypotheses hold on both parts and the
        conclusion fails on one. Hence a law is violated on S+p iff
        (violated on S, and its hypotheses can hold on P) or (violated on P,
        and its hypotheses can hold on S); without hypotheses, a violation
        on S persists. The verdict of S alone is not enough: ``star(X) ==
        X`` holds on S with the ideal {∅} and fails on P. And S's witness,
        with p added to some of its variables, is a witness on S+p, with
        sides that agree with S's on the old points, iff the hypotheses can
        hold on P. The 5-7-point spaces lift to 6-8."""
        point = Space(GroundSet(("p",)), Topology(Family((0, 1))), Ideal(1))
        seen = set()
        for _, space, law in _seeded_law_cases():
            n, text = space.ground.n, dsl.format_law(law)
            if n == MAX_POINTS:
                continue
            p, old = 1 << n, space.ground.universe
            members = space.topology.family.members
            lifted = Space(
                GroundSet(space.ground.labels + ("p",)),
                Topology(Family(members + tuple(u | p for u in members))),
                Ideal(space.ideal.top | p),
            )
            witness = _document_search(space, text)
            on_point = _document_search(point, text) is not None
            can_hold = _hypotheses_can_hold(point, law)
            expected = (witness is not None and can_hold) or (
                on_point and _hypotheses_can_hold(space, law)
            )
            assert (_document_search(lifted, text) is not None) == expected, text
            seen.add((witness is not None, on_point, can_hold))
            if witness is None:
                continue
            rechecks = [
                laws.text_law(text).violated_at(lifted, tuple(
                    (name, bits | extra) for (name, bits), extra in zip(witness.bindings, chosen)
                ))
                for chosen in itertools.product((0, p), repeat=len(witness.bindings))
            ]
            found = [w for w in rechecks if w is not None]
            assert bool(found) == can_hold, text
            for w in found:
                assert (w.lhs & old, w.rhs & old) == (witness.lhs, witness.rhs), text
        # a violation that persists, one on P alone, and hypotheses that
        # cannot hold on P
        assert {(True, False, True), (False, True, True)} <= seen
        assert any(not can_hold for _, _, can_hold in seen)

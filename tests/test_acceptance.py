"""Acceptance gate: one test per shipped criterion, each timed at its
stated tolerance and printing a single summary line (visible with -s).

Criteria, in order: corpus reproduction; three-point certification of
open-star additivity; four-point refutation of semi-star additivity;
Kuratowski refutation for the plain pre/beta functions; fix-family
topology refutations; the exhaustive property suite; DSL/registry witness
equivalence; parallel-search determinism; enumeration counts against the
validator-scan oracle.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import oracle
from idealtop import corpus, dsl, laws, search
from idealtop import operators as ops
from idealtop.space import Space, generate_ideal
from idealtop.verdicts import Witness
from test_dsl import serial_first_violation

REPO = Path(__file__).resolve().parent.parent
ADDITIVITY = "{op}(union(A,B)) == union({op}(A),{op}(B))"


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_corpus_reproduction():
    t0 = time.monotonic()
    reports = corpus.run_corpus()
    elapsed = time.monotonic() - t0
    failed = [r.entry_id for r in reports if not r.passed]
    assert len(reports) == 11
    assert not failed, failed
    assert elapsed < 5.0
    report(f"PASS criterion 1: corpus reproduction 11/11 entries in {elapsed:.2f}s (< 5s)")


def test_criterion_2_three_point_certification():
    t0 = time.monotonic()
    result = search.run_search(search.SearchTask(ADDITIVITY.format(op="star"), 3))
    elapsed = time.monotonic() - t0
    assert result.status == search.STATUS_CERTIFIED
    assert result.spaces_scanned == result.spaces_total == 29 * 8
    assert result.assignments_evaluated == 232 * 64
    assert elapsed < 60.0
    report(
        "PASS criterion 2: open-star additivity certified over 232 spaces "
        f"in {elapsed:.2f}s (< 60s)"
    )


def test_criterion_3_four_point_refutation(space_a):
    t0 = time.monotonic()
    result = search.run_search(search.SearchTask(ADDITIVITY.format(op="sstar"), 4))
    elapsed = time.monotonic() - t0
    assert result.status == search.STATUS_FOUND
    assert result.spaces_total == 355 * 16
    assert result.spaces_scanned == 97  # deterministic early exit
    assert result.assignments_evaluated == 24595
    w, = result.witnesses
    assert (w.topology.family.members, tuple(w.ideal)) == ((0, 1, 2, 3, 15), (0,))
    # the reference four-point space is itself a violating space, at the
    # pinned pair A={w1,w3}, B={w2,w3}
    law = laws.get_law("additivity:sstar")
    assert not law.check(space_a).holds
    assert law.witness_violates(space_a, Witness((("A", 5), ("B", 6)), 0))
    assert elapsed < 600.0
    report(
        "PASS criterion 3: semi-star additivity refuted at n=4 "
        f"(97/5680 spaces, {result.assignments_evaluated} assignments, {elapsed:.2f}s < 10min)"
    )


def test_criterion_4_kuratowski_refutation(space_b):
    for alias in ("pstar", "betastar"):
        verdict = laws.get_law("kuratowski:" + alias).verdicts(space_b)["additive"]
        assert not verdict.holds
        w = verdict.witness
        # self-validating: read the star closure off its table
        star = ops.unary_table(space_b, "clstar:" + alias)
        a, b = (bits for _, bits in w.bindings)
        assert star[a | b] != star[a] | star[b]
        assert star[a | b] == w.lhs and star[a] | star[b] == w.rhs
        try:
            laws.star_topology(space_b, alias)
        except laws.StarTopologyRefused as exc:
            assert exc.axiom == "additive"
        else:
            raise AssertionError(f"star_topology accepted {alias}")
    report(
        "PASS criterion 4: plain pre/beta star closures fail additivity with "
        "self-validating witnesses; star_topology refuses both"
    )


def test_criterion_5_fix_family_topology_refutations(space_a, space_b):
    cases = (
        ("pstar", space_b, (5, 9), 1),
        ("xis", space_a, (5, 6), 4),
        ("xibeta", space_b, (5, 9), 1),
    )
    for alias, space, pair, missing in cases:
        fam = ops.psi_fix_family(space, alias)
        verdict = laws.check_family_is_topology(fam, space.ground)
        assert not verdict.holds
        w = verdict.witness
        assert w.operation == "inter"
        assert tuple(bits for _, bits in w.bindings) == pair
        assert w.lhs == missing
        a, b = pair
        assert a in fam and b in fam and (a & b) not in fam
    report(
        "PASS criterion 5: psi-fix families fail intersection closure for "
        "pre, expanded-semi and expanded-beta with pinned witnesses"
    )


def test_criterion_6_property_suite(small_spaces, space_a, space_b):
    t0 = time.monotonic()
    violations = 0
    spaces = small_spaces + [space_a, space_b]
    chains = (
        ("betastar", "bstar"), ("bstar", "sstar"), ("bstar", "pstar"),
        ("sstar", "star"), ("pstar", "star"),
    )
    for space in spaces:
        full = space.ground.universe
        n_subsets = space.n_subsets
        o_topo, o_ideal, o_points = oracle.space_to_oracle(space)
        tables = {}
        for alias in ops.LOCAL_FN_ALIASES:
            t = ops.unary_table(space, alias)
            psi = ops.unary_table(space, ops.PSI_ALIAS[alias])
            tables[alias] = t
            nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
            literal = oracle.local_function_table(o_topo, o_ideal, o_points, nbhd, cl)
            x_set = frozenset(o_points)
            for a in range(n_subsets):
                aset = oracle.bits_to_set(space.ground, a)
                # f(0) = 0, monotone, and psi-duality against the oracle
                if t[0] != 0:
                    violations += 1
                if oracle.set_to_bits(space.ground, literal[aset]) != t[a]:
                    violations += 1
                want_psi = x_set - literal[x_set - aset]
                if psi[a] != oracle.set_to_bits(space.ground, want_psi):
                    violations += 1
                for b in range(n_subsets):
                    if a & ~b == 0 and t[a] & ~t[b]:
                        violations += 1
            fix = ops.psi_fix_family(space, alias)
            if 0 not in fix or full not in fix:
                violations += 1
            violations += sum(
                1 for x in fix for y in fix if (x | y) not in fix
            )
        for lo, hi in chains:
            for a in range(n_subsets):
                if tables[lo][a] & ~tables[hi][a]:
                    violations += 1
        for kind in ops.KINDS:
            fam = ops.kopen_family(space, kind)
            if 0 not in fam or full not in fam:
                violations += 1
            violations += sum(1 for x in fam for y in fam if (x | y) not in fam)
            kcl = ops.kclosure_table(space, kind)
            for a in range(n_subsets):
                if a & ~kcl[a] or kcl[kcl[a]] != kcl[a]:
                    violations += 1
                for b in range(n_subsets):
                    if a & ~b == 0 and kcl[a] & ~kcl[b]:
                        violations += 1
    # ideal extremes on every small topology
    for space in small_spaces:
        if space.ideal.top == 0:
            if ops.unary_table(space, "star") != space.cl_table:
                violations += 1
    for base in (space_a, space_b):
        discrete = Space(
            base.ground, base.topology,
            generate_ideal([base.ground.universe], base.ground),
        )
        for alias in ops.LOCAL_FN_ALIASES:
            if set(ops.unary_table(discrete, alias)) != {0}:
                violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    report(
        f"PASS criterion 6: property suite on 252 spaces, 0 violations ({elapsed:.1f}s)"
    )


def test_criterion_7_dsl_registry_equivalence(space_a, space_b):
    equation_templates = {
        "additivity": "{op}(union(A,B)) == union({op}(A),{op}(B))",
        "diff-law": "diff({op}(A),{op}(B)) == diff({op}(diff(A,B)),{op}(B))",
        "psi-cap": "{psi}(inter(A,B)) == inter({psi}(A),{psi}(B))",
        "psi-cup": "{psi}(union(A,B)) == union({psi}(A),{psi}(B))",
    }
    kuratowski_templates = {
        "fixes-empty": "clstar:{op}(empty) == empty",
        "extensive": "A <= clstar:{op}(A)",
        "idempotent": "clstar:{op}(clstar:{op}(A)) == clstar:{op}(A)",
        "additive": "clstar:{op}(union(A,B)) == union(clstar:{op}(A),clstar:{op}(B))",
    }
    # Each registry verdict, from the byte-lane scan, against a serial
    # ``dsl.eval_law`` sweep of the template text in lexicographic order.
    def agree(space, direct, text):
        serial = serial_first_violation(space, dsl.parse_law(text))
        if direct.holds:
            return serial is None
        return (direct.witness.bindings, direct.witness.lhs, direct.witness.rhs) == serial

    compared = 0
    for space in (space_a, space_b):
        for alias in ops.LOCAL_FN_ALIASES:
            for head, template in equation_templates.items():
                text = template.format(op=alias, psi=ops.PSI_ALIAS[alias])
                assert agree(space, laws.get_law(f"{head}:{alias}").check(space), text), text
                compared += 1
            rep = laws.get_law("kuratowski:" + alias).verdicts(space)
            for axiom, template in kuratowski_templates.items():
                text = template.format(op=alias)
                assert agree(space, rep[axiom], text), text
                compared += 1
    report(
        f"PASS criterion 7: DSL and registry agree on {compared} law checks "
        "(verdicts and first witnesses)"
    )


def test_criterion_8_parallel_determinism():
    # at least two workers so the parallel merge path really runs
    workers = max(2, min(os.cpu_count() or 2, 8))
    argvs = (
        ["search", ADDITIVITY.format(op="xis"), "--points", "3", "--all-minimal"],
        ["search", ADDITIVITY.format(op="sstar"), "--points", "3"],
    )
    for argv in argvs:
        outs = []
        for w in ("1", str(workers)):
            proc = subprocess.run(
                [sys.executable, "-m", "idealtop", *argv, "--workers", w],
                capture_output=True, text=True, cwd=REPO, timeout=300,
            )
            assert proc.returncode == 1
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["status"] == "CounterexampleFound"
    report(
        f"PASS criterion 8: search reports byte-identical at 1 vs {workers} workers"
    )


def test_criterion_9_enumeration_cross_check():
    t0 = time.monotonic()
    want = {1: 1, 2: 4, 3: 29, 4: 355}
    for n, count in want.items():
        assert search.count_topologies(n) == count
        labels = list(search.default_labels(n))
        scanned = oracle.all_topologies(labels)
        assert len(scanned) == count
        if n <= 3:
            g = search.GroundSet(labels)
            mine = {
                frozenset(oracle.bits_to_set(g, m) for m in t.family)
                for t in search.enumerate_topologies(n)
            }
            assert mine == {frozenset(t) for t in scanned}
    elapsed = time.monotonic() - t0
    report(
        "PASS criterion 9: topology counts 1, 4, 29, 355 match the "
        f"validator-scan oracle ({elapsed:.1f}s)"
    )

"""Law registry: certified theorems, pinned counterexample witnesses,
witness re-validation, and relabeling equivariance.

Frozen witnesses are the engine's deterministic first finds; each one is
re-validated through the definition-direct recheck path, and one is walked
through the oracle end to end. Every equation law and Kuratowski axiom is
also held to a brute-force scan over the oracle's tables.
"""

import functools
import random
from itertools import permutations, product
from pathlib import Path

import pytest

import oracle
from idealtop import laws
from idealtop import operators as ops
from idealtop.search import default_labels
from idealtop.space import (
    Family,
    GroundSet,
    Ideal,
    Space,
    Topology,
    parse_space,
    space_from_document,
)
from idealtop.verdicts import Verdict, Witness

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# theorems for the plain open-neighborhood local function; each of these
# holds on every ideal topological space
OPEN_STAR_THEOREMS = (
    "additivity:star",
    "diff-law:star",
    "psi-cap:star",
    "kuratowski:star",
    "eta-topology:star",
    "family-cap-closed:open",
)


class TestCertifiedTheorems:
    @pytest.mark.parametrize("name", OPEN_STAR_THEOREMS)
    def test_holds_on_every_small_space(self, name, small_spaces):
        law = laws.get_law(name)
        for space in small_spaces:
            assert law.check(space).holds

    @pytest.mark.parametrize("name", OPEN_STAR_THEOREMS)
    def test_holds_on_reference_spaces(self, name, space_a, space_b):
        law = laws.get_law(name)
        assert law.check(space_a).holds
        assert law.check(space_b).holds


# (law, fixture name, bindings, lhs, rhs, operation) engine-first witnesses
FROZEN_VIOLATIONS = (
    ("additivity:sstar", "a", (("A", 1), ("B", 2)), 15, 3, None),
    ("additivity:xis", "a", (("A", 1), ("B", 2)), 15, 3, None),
    ("additivity:pstar", "b", (("A", 4), ("B", 8)), 15, 12, None),
    ("additivity:xibeta", "b", (("A", 4), ("B", 8)), 15, 12, None),
    ("diff-law:sstar", "a", (("A", 3), ("B", 1)), 14, 2, None),
    ("diff-law:pstar", "b", (("A", 12), ("B", 4)), 11, 8, None),
    ("psi-cap:xis", "a", (("A", 1), ("B", 2)), 0, 4, "inter"),
    ("psi-cap:xibeta", "b", (("A", 4), ("B", 8)), 0, 1, "inter"),
    ("psi-cap:pstar", "b", (("A", 4), ("B", 8)), 0, 1, "inter"),
    ("psi-cup:pstar", "b", (("A", 2), ("B", 4)), 7, 5, "union"),
    ("kuratowski:sstar", "a", (("A", 1), ("B", 2)), 15, 3, "additive"),
    ("kuratowski:pstar", "b", (("A", 4), ("B", 8)), 15, 12, "additive"),
    ("eta-topology:xis", "a", (("A", 5), ("B", 6)), 4, 0, "inter"),
    ("eta-topology:pstar", "b", (("A", 5), ("B", 9)), 1, 0, "inter"),
    ("eta-topology:xibeta", "b", (("A", 5), ("B", 9)), 1, 0, "inter"),
    ("family-cap-closed:semi", "a", (("A", 5), ("B", 6)), 4, 0, "inter"),
    ("family-cap-closed:pre", "b", (("A", 5), ("B", 9)), 1, 0, "inter"),
)


def pair(a: int, b: int) -> Witness:
    """An untagged witness binding A and B, rechecked on every template."""
    return Witness((("A", a), ("B", b)), 0)


class TestFrozenWitnesses:
    @pytest.mark.parametrize(
        "name,which,bindings,lhs,rhs,operation",
        FROZEN_VIOLATIONS,
        ids=[f"{row[0]}-{row[1]}" for row in FROZEN_VIOLATIONS],
    )
    def test_first_witness_is_pinned(
        self, name, which, bindings, lhs, rhs, operation, space_a, space_b
    ):
        space = space_a if which == "a" else space_b
        law = laws.get_law(name)
        verdict = law.check(space)
        assert not verdict.holds
        w = verdict.witness
        assert (w.bindings, w.lhs, w.rhs, w.operation) == (bindings, lhs, rhs, operation)
        # the recheck path recomputes from definitions and must agree
        assert law.witness_violates(space, w)

    def test_verdicts_tag_every_template_in_order(self):
        # eta-topology has four templates; on ex-3.3-2 only the last fails
        space = parse_space((CORPUS / "ex-3.3-2.json").read_text())
        law = laws.get_law("eta-topology:pstar")
        verdicts = law.verdicts(space)
        assert tuple(verdicts) == ("missing-empty", "missing-universe", "union", "inter")
        assert tuple(verdicts) == tuple(tag for tag, _ in law.templates)
        assert [v.holds for v in verdicts.values()] == [True, True, True, False]
        first = next(v for v in verdicts.values() if not v.holds)
        assert first == law.check(space)
        assert first.witness == Witness((("A", 5), ("B", 9)), 1, 0, "inter")

    def test_one_witness_through_the_oracle(self, space_a):
        # additivity:sstar on the first reference space, by hand through the
        # slow path: f(A|B) vs f(A)|f(B) for A={w1}, B={w2}
        topo, ideal, points = oracle.space_to_oracle(space_a)
        f = lambda s: oracle.local_function(topo, ideal, points, oracle.SEMI, None, s)
        a = oracle.bits_to_set(space_a.ground, 1)
        b = oracle.bits_to_set(space_a.ground, 2)
        lhs = f(a | b)
        rhs = f(a) | f(b)
        assert oracle.set_to_bits(space_a.ground, lhs) == 15
        assert oracle.set_to_bits(space_a.ground, rhs) == 3

    def test_rechecks_reject_non_witnesses(self, space_a, space_b):
        assert not laws.get_law("additivity:sstar").witness_violates(space_a, pair(0, 0))
        assert not laws.get_law("eta-topology:pstar").witness_violates(space_b, pair(4, 8))
        assert not laws.get_law("diff-law:pstar").witness_violates(space_b, pair(1, 1))

    def test_untagged_pair_rechecks(self, space_a, space_b):
        assert laws.get_law("additivity:sstar").witness_violates(space_a, pair(5, 6))
        assert laws.get_law("family-cap-closed:semi").witness_violates(space_a, pair(5, 6))
        assert laws.get_law("eta-topology:pstar").witness_violates(space_b, pair(5, 9))

    def test_untagged_recheck_refuses_bindings_that_cover_no_template(self, space_a):
        # Binding no template's variables checks nothing, so it is refused
        # rather than read as "not violated".
        law = laws.get_law("additivity:sstar")
        with pytest.raises(ValueError, match="^additivity:sstar: bindings of A cover the"):
            law.witness_violates(space_a, Witness((("A", 5),), 0))
        with pytest.raises(ValueError, match="^additivity:sstar: bindings of A, C cover the"):
            law.witness_violates(space_a, Witness((("A", 5), ("C", 6)), 0))

    def test_kuratowski_recheck_needs_named_axiom(self, space_b):
        law = laws.get_law("kuratowski:pstar")
        with pytest.raises(ValueError, match="unknown witness tag 'inter'"):
            law.witness_violates(space_b, Witness((("A", 4), ("B", 8)), 0, operation="inter"))
        # untagged: every axiom whose variables the pair binds is rechecked,
        # and additivity fails at ({w3}, {w4})
        assert law.witness_violates(space_b, pair(4, 8))
        assert not law.witness_violates(space_b, pair(0, 0))
        # binding A alone leaves out the additive axiom, the only one of B
        assert not law.witness_violates(space_b, Witness((("A", 4),), 0))
        assert law.witness_violates(
            space_b, Witness((("A", 4), ("B", 8)), 15, 12, operation="additive")
        )
        assert not law.witness_violates(
            space_b, Witness((("A", 1),), 0, 0, operation="idempotent")
        )


def permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, p in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << p
    return out


def permute_space(space: Space, perm: tuple[int, ...]) -> Space:
    return Space(
        space.ground,
        Topology(Family(tuple(permute_mask(m, perm) for m in space.topology))),
        Ideal(permute_mask(space.ideal.top, perm)),
    )


RELABEL_LAWS = (
    "additivity:sstar",
    "diff-law:pstar",
    "psi-cap:xibeta",
    "kuratowski:pstar",
    "eta-topology:xis",
    "family-cap-closed:semi",
    "additivity:star",
)


class TestRelabelingEquivariance:
    @pytest.mark.parametrize("name", RELABEL_LAWS)
    def test_verdict_survives_any_point_permutation(self, name, space_a, space_b):
        law = laws.get_law(name)
        for space in (space_a, space_b):
            base = law.check(space)
            for perm in permutations(range(space.ground.n)):
                image = permute_space(space, perm)
                moved = law.check(image)
                assert moved.holds == base.holds
                if not base.holds:
                    w = base.witness
                    mapped = Witness(
                        tuple((v, permute_mask(s, perm)) for v, s in w.bindings),
                        permute_mask(w.lhs, perm),
                        None if w.rhs is None else permute_mask(w.rhs, perm),
                        operation=w.operation,
                    )
                    assert law.witness_violates(image, mapped)


class TestFamilyChecks:
    def test_topology_check_reports_missing_constants(self):
        g = GroundSet(("w1", "w2", "w3"))
        v = laws.check_family_is_topology(Family((1, 7)), g)
        assert (v.witness.bindings, v.witness.lhs, v.witness.operation) == ((), 0, "missing-empty")
        v = laws.check_family_is_topology(Family((0, 1)), g)
        assert (v.witness.lhs, v.witness.operation) == (7, "missing-universe")

    def test_topology_witnesses_render_without_rhs(self):
        # a validator witness has no right-hand side: by_label prints it as
        # null and line leaves it out
        g = GroundSet(("w1", "w2", "w3"))
        w = laws.check_family_is_topology(Family((1, 7)), g).witness
        assert w.rhs is None
        assert w.by_label(g) == {
            "bindings": {}, "lhs": (), "rhs": None, "operation": "missing-empty"
        }
        assert w.line(g) == "lhs={} (missing-empty)"
        w = laws.check_family_is_topology(Family((0, 1, 2, 7)), g).witness
        assert w.by_label(g) == {
            "bindings": {"A": ("w1",), "B": ("w2",)},
            "lhs": ("w1", "w2"),
            "rhs": None,
            "operation": "union",
        }
        assert w.line(g) == "A={w1} B={w2} lhs={w1,w2} (union)"

    def test_topology_check_passes_real_topologies(self, small_spaces):
        for space in small_spaces[::11]:
            assert laws.check_family_is_topology(space.topology.family, space.ground).holds

    def test_intersection_check_first_pair(self):
        # opens {}, {w1}, {w2}, {w1,w2}, X: the semi-open sets add {w1,w3}
        # and {w2,w3}, whose meet {w3} is not semi-open (cl(int({w3})) = {})
        space = Space(
            GroundSet(("w1", "w2", "w3")), Topology(Family((0, 1, 2, 3, 7))), Ideal(0)
        )
        assert ops.kopen_family(space, "semi").members == (0, 1, 2, 3, 5, 6, 7)
        v = laws.get_law("family-cap-closed:semi").check(space)
        assert v == Verdict(False, Witness((("A", 5), ("B", 6)), 4, 0, "inter"))
        assert laws.get_law("family-cap-closed:pre").check(space).holds


# The registry's equation laws restated over the oracle's frozensets: name ->
# (witness tag, variable count, relation, sides). ``t`` maps each subset to
# its local function ``f``, dual ``psi`` and star closure ``star``.
ORACLE_EQUATIONS = {
    "additivity": (None, 2, "==", lambda t, a, b: (t.f[a | b], t.f[a] | t.f[b])),
    "diff-law": (None, 2, "==", lambda t, a, b: (t.f[a] - t.f[b], t.f[a - b] - t.f[b])),
    "psi-cap": ("inter", 2, "==", lambda t, a, b: (t.psi[a & b], t.psi[a] & t.psi[b])),
    "psi-cup": ("union", 2, "==", lambda t, a, b: (t.psi[a | b], t.psi[a] | t.psi[b])),
}
# The Kuratowski axioms for the star closure, in the order a law reports them.
ORACLE_AXIOMS = {
    "fixes-empty": (0, "==", lambda t: (t.star[frozenset()], frozenset())),
    "extensive": (1, "<=", lambda t, a: (a, t.star[a])),
    "idempotent": (1, "==", lambda t, a: (t.star[t.star[a]], t.star[a])),
    "additive": (2, "==", lambda t, a, b: (t.star[a | b], t.star[a] | t.star[b])),
}


class OracleTables:
    """The oracle's local-function table, with ``psi`` and ``star`` read off
    it by the definitions of ``oracle.psi_dual`` and ``oracle.cl_star``."""

    def __init__(self, space, alias):
        topo, ideal, points = oracle.space_to_oracle(space)
        nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
        X = frozenset(points)
        self.sets = [oracle.bits_to_set(space.ground, m) for m in range(space.n_subsets)]
        self.f = oracle.local_function_table(topo, ideal, points, nbhd, cl)
        self.psi = {a: X - self.f[X - a] for a in self.f}
        self.star = {a: a | self.f[a] for a in self.f}


def oracle_first_violation(space, tables, arity, relation, sides):
    """Brute-force scan: masks ascending, first variable outermost."""
    for masks in product(range(space.n_subsets), repeat=arity):
        lhs, rhs = sides(tables, *(tables.sets[m] for m in masks))
        if not (lhs <= rhs if relation == "<=" else lhs == rhs):
            bits = lambda s: oracle.set_to_bits(space.ground, s)
            return tuple(zip("AB", masks)), bits(lhs), bits(rhs)
    return None


def outcome(verdict):
    if verdict.holds:
        return None
    w = verdict.witness
    return w.bindings, w.lhs, w.rhs, w.operation


# Four points where the star closure of xip fails both idempotence and
# additivity (no space on three points fails two axioms), so the order in
# which a law reports its axioms shows.
TWO_AXIOMS_FAIL = Space(
    GroundSet(("w1", "w2", "w3", "w4")),
    Topology(Family((0, 3, 4, 7, 15))),
    Ideal(0),
)


class TestRegistryAgainstOracle:
    @pytest.mark.parametrize("alias", sorted(ops.LOCAL_FN_ALIASES))
    def test_verdicts_and_first_witnesses(self, alias, small_spaces, space_a, space_b):
        equations = {head: laws.get_law(f"{head}:{alias}") for head in ORACLE_EQUATIONS}
        kuratowski = laws.get_law(f"kuratowski:{alias}")
        for space in (*small_spaces, space_a, space_b, TWO_AXIOMS_FAIL):
            tables = OracleTables(space, alias)
            for head, (tag, arity, relation, sides) in ORACLE_EQUATIONS.items():
                found = oracle_first_violation(space, tables, arity, relation, sides)
                want = found and (*found, tag)
                assert outcome(equations[head].check(space)) == want, (head, space)
            report = kuratowski.verdicts(space)
            first = None
            for axiom, (arity, relation, sides) in ORACLE_AXIOMS.items():
                found = oracle_first_violation(space, tables, arity, relation, sides)
                want = found and (*found, axiom)
                assert outcome(report[axiom]) == want, (axiom, space)
                first = first or want
            assert outcome(kuratowski.check(space)) == first, space


@functools.lru_cache(maxsize=None)
def seeded_spaces() -> tuple[Space, ...]:
    """Four- and five-point spaces from a seeded random subbase and ideal
    generator, past the n <= 3 of ``small_spaces``."""
    rng = random.Random(20241101)
    out = []
    for n in (4,) * 8 + (5,) * 8:
        labels = default_labels(n)
        subset = lambda: [lab for lab in labels if rng.random() < 0.5]
        out.append(space_from_document({
            "points": list(labels),
            "topology_subbase": [subset() for _ in range(rng.randint(1, 4))],
            "ideal_generators": [subset()],
        }))
    return tuple(out)


def oracle_kind_test(topology, points, kind, a):
    """T(a) for the kind's open-set test ``a <= T(a)``, as in
    ``oracle.is_kind_open``."""
    cl = lambda s: oracle.closure(topology, points, s)
    inte = lambda s: oracle.interior(topology, s)
    return {
        oracle.OPEN: lambda: inte(a),
        oracle.SEMI: lambda: cl(inte(a)),
        oracle.PRE: lambda: inte(cl(a)),
        oracle.B: lambda: inte(cl(a)) | cl(inte(a)),
        oracle.BETA: lambda: cl(inte(cl(a))),
    }[kind]()


def oracle_family_violation(space, family, combinations):
    """Brute-force pair scan of a family: the first (A, B), masks ascending
    and A outermost, with both in the family and a combination outside it,
    trying ``combinations`` in order at each pair; as (bindings, lhs, tag)."""
    sets = [oracle.bits_to_set(space.ground, m) for m in range(space.n_subsets)]
    members = set(family)
    for a, b in product(range(space.n_subsets), repeat=2):
        if sets[a] in members and sets[b] in members:
            for tag, combine in combinations:
                missing = combine(sets[a], sets[b])
                if missing not in members:
                    return (("A", a), ("B", b)), oracle.set_to_bits(space.ground, missing), tag
    return None


class TestFamilyLawsAgainstOracle:
    """``eta-topology:<op>`` and ``family-cap-closed:<kind>`` against the
    oracle's families; ``rhs`` is the psi or kind-test image of ``lhs``.
    The psi-fix family is ``oracle.psi_fix_family`` read off the hoisted
    ``OracleTables.psi``, and is checked to be the same on the reference
    spaces."""

    @staticmethod
    def spaces(small_spaces, space_a, space_b):
        return (*small_spaces, space_a, space_b, *seeded_spaces())

    def test_psi_fix_family_from_tables(self, space_a, space_b):
        for space in (space_a, space_b):
            topo, ideal, points = oracle.space_to_oracle(space)
            for alias, (nbhd, cl) in oracle.NAMED_LOCAL_FNS.items():
                tables = OracleTables(space, alias)
                assert {a for a in tables.sets if a <= tables.psi[a]} == set(
                    oracle.psi_fix_family(topo, ideal, points, nbhd, cl)
                )

    def test_eta_topology(self, small_spaces, space_a, space_b):
        violations = past_three = 0
        for space in self.spaces(small_spaces, space_a, space_b):
            points = space.ground.labels
            X = frozenset(points)
            for alias in oracle.NAMED_LOCAL_FNS:
                tables = OracleTables(space, alias)
                family = [a for a in tables.sets if a <= tables.psi[a]]
                if frozenset() not in family:
                    want = ((), 0, "missing-empty")
                elif X not in family:
                    want = ((), space.ground.universe, "missing-universe")
                else:
                    want = oracle_family_violation(
                        space,
                        family,
                        (("union", frozenset.union), ("inter", frozenset.intersection)),
                    )
                verdict = laws.get_law(f"eta-topology:{alias}").check(space)
                assert verdict.holds == oracle.is_topology(family, points), (alias, space)
                assert verdict.holds == (want is None), (alias, space)
                if want is None:
                    continue
                violations += 1
                past_three += space.ground.n > 3
                w = verdict.witness
                assert (w.bindings, w.lhs, w.operation) == want, (alias, space)
                psi = tables.psi[oracle.bits_to_set(space.ground, w.lhs)]
                assert w.rhs == oracle.set_to_bits(space.ground, psi)
        assert violations >= 20 and past_three >= 5

    def test_family_cap_closed(self, small_spaces, space_a, space_b):
        violations = past_three = 0
        for space in self.spaces(small_spaces, space_a, space_b):
            topo, _, points = oracle.space_to_oracle(space)
            for kind in (oracle.OPEN, oracle.SEMI, oracle.PRE, oracle.B, oracle.BETA):
                family = oracle.kind_open_family(topo, points, kind)
                want = oracle_family_violation(
                    space, family, (("inter", frozenset.intersection),)
                )
                verdict = laws.get_law(f"family-cap-closed:{kind}").check(space)
                assert verdict.holds == (want is None), (kind, space)
                if want is None:
                    continue
                violations += 1
                past_three += space.ground.n > 3
                w = verdict.witness
                assert (w.bindings, w.lhs, w.operation) == want, (kind, space)
                lhs = oracle.bits_to_set(space.ground, w.lhs)
                test = oracle_kind_test(topo, points, kind, lhs)
                assert w.rhs == oracle.set_to_bits(space.ground, test)
        assert violations >= 20 and past_three >= 5


class TestRegistry:
    def test_templates(self):
        assert laws.law_name_templates() == (
            "additivity:<op>",
            "diff-law:<op>",
            "psi-cap:<op>",
            "psi-cup:<op>",
            "kuratowski:<op>",
            "eta-topology:<op>",
            "family-cap-closed:<kind>",
        )

    def test_every_template_instantiates(self, space_a):
        for alias in ops.LOCAL_FN_ALIASES:
            for head in ("additivity", "diff-law", "psi-cap", "psi-cup", "kuratowski", "eta-topology"):
                law = laws.get_law(f"{head}:{alias}")
                assert law.arity == 2
                law.check(space_a)
        for kind in ops.KINDS:
            laws.get_law(f"family-cap-closed:{kind}").check(space_a)

    @pytest.mark.parametrize(
        "bad",
        ["additivity", "nope:star", "additivity:nope", "family-cap-closed:star", "kuratowski:scl", ""],
    )
    def test_bad_names_raise(self, bad):
        with pytest.raises(ValueError):
            laws.get_law(bad)

    def test_law_names_round_trip(self):
        assert laws.get_law("additivity:sstar").name == "additivity:sstar"
        assert laws.get_law("family-cap-closed:b").name == "family-cap-closed:b"

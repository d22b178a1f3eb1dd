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

import pytest

import oracle
from idealtop import dsl, laws, search
from idealtop import operators as ops
from idealtop.search import default_labels
from idealtop.space import (
    Family,
    GroundSet,
    Ideal,
    Space,
    Topology,
    Witness,
    space_from_document,
)


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
            assert law.check(space) is None

    @pytest.mark.parametrize("name", OPEN_STAR_THEOREMS)
    def test_holds_on_reference_spaces(self, name, space_a, space_b):
        law = laws.get_law(name)
        assert law.check(space_a) is None
        assert law.check(space_b) is None


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


def pair(a: int, b: int) -> tuple[tuple[str, int], ...]:
    """Bindings of A and B; untagged, they recheck every template."""
    return (("A", a), ("B", b))


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
        w = law.check(space)
        assert (w.bindings, w.lhs, w.rhs, w.operation) == (bindings, lhs, rhs, operation)
        # the recheck path recomputes from definitions and gives the same witness
        assert law.violated_at(space, w.bindings, w.operation) == w

    def test_verdicts_tag_every_template_in_order(self, space_b):
        # eta-topology has four templates; on ex-3.3-2 only the last fails
        law = laws.get_law("eta-topology:pstar")
        verdicts = law.verdicts(space_b)
        assert tuple(verdicts) == ("missing-empty", "missing-universe", "union", "inter")
        assert tuple(verdicts) == tuple(tag for tag, _ in law.templates)
        assert [w is None for w in verdicts.values()] == [True, True, True, False]
        first = next(w for w in verdicts.values() if w is not None)
        assert first == law.check(space_b)
        assert first == Witness((("A", 5), ("B", 9)), 1, 0, "inter")

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
        assert not laws.get_law("additivity:sstar").violated_at(space_a, pair(0, 0))
        assert not laws.get_law("eta-topology:pstar").violated_at(space_b, pair(4, 8))
        assert not laws.get_law("diff-law:pstar").violated_at(space_b, pair(1, 1))

    def test_untagged_pair_rechecks(self, space_a, space_b):
        assert laws.get_law("additivity:sstar").violated_at(space_a, pair(5, 6))
        assert laws.get_law("family-cap-closed:semi").violated_at(space_a, pair(5, 6))
        assert laws.get_law("eta-topology:pstar").violated_at(space_b, pair(5, 9))

    def test_untagged_recheck_refuses_bindings_that_cover_no_template(self, space_a):
        # Binding no template's variables checks nothing, so it is refused
        # rather than read as "not violated".
        law = laws.get_law("additivity:sstar")
        with pytest.raises(ValueError, match="^additivity:sstar: bindings of A cover the"):
            law.violated_at(space_a, (("A", 5),))
        with pytest.raises(ValueError, match="^additivity:sstar: bindings of A, C cover the"):
            law.violated_at(space_a, (("A", 5), ("C", 6)))

    def test_kuratowski_recheck_needs_named_axiom(self, space_b):
        law = laws.get_law("kuratowski:pstar")
        with pytest.raises(ValueError, match="unknown witness tag 'inter'"):
            law.violated_at(space_b, pair(4, 8), "inter")
        # untagged: every axiom whose variables the pair binds is rechecked,
        # and additivity fails at ({w3}, {w4})
        assert law.violated_at(space_b, pair(4, 8)) == Witness(pair(4, 8), 15, 12, "additive")
        assert law.violated_at(space_b, pair(0, 0)) is None
        # binding A alone leaves out the additive axiom, the only one of B
        assert not law.violated_at(space_b, (("A", 4),))
        assert law.violated_at(space_b, pair(4, 8), "additive")
        assert not law.violated_at(space_b, (("A", 1),), "idempotent")


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
                assert (moved is None) == (base is None)
                if base is not None:
                    mapped = tuple((v, permute_mask(s, perm)) for v, s in base.bindings)
                    assert law.violated_at(image, mapped, base.operation)


class TestFamilyChecks:
    def test_intersection_check_first_pair(self):
        # opens {}, {w1}, {w2}, {w1,w2}, X: the semi-open sets add {w1,w3}
        # and {w2,w3}, whose meet {w3} is not semi-open (cl(int({w3})) = {})
        space = Space(
            GroundSet(("w1", "w2", "w3")), Topology(Family((0, 1, 2, 3, 7))), Ideal(0)
        )
        assert ops.kopen_family(space, "semi").members == (0, 1, 2, 3, 5, 6, 7)
        w = laws.get_law("family-cap-closed:semi").check(space)
        assert w == Witness((("A", 5), ("B", 6)), 4, 0, "inter")
        assert laws.get_law("family-cap-closed:pre").check(space) is None


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


def outcome(w):
    return w and (w.bindings, w.lhs, w.rhs, w.operation)


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
        subset = lambda: tuple(lab for lab in labels if rng.random() < 0.5)
        # each subset listed once; a repeat adds nothing to the topology
        subbase = dict.fromkeys(subset() for _ in range(rng.randint(1, 4)))
        out.append(space_from_document({
            "points": list(labels),
            "topology_subbase": [list(s) for s in subbase],
            "ideal_generators": [list(subset())],
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
                w = laws.get_law(f"eta-topology:{alias}").check(space)
                assert (w is None) == oracle.is_topology(family, points), (alias, space)
                assert (w is None) == (want is None), (alias, space)
                if want is None:
                    continue
                violations += 1
                past_three += space.ground.n > 3
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
                w = laws.get_law(f"family-cap-closed:{kind}").check(space)
                assert (w is None) == (want is None), (kind, space)
                if want is None:
                    continue
                violations += 1
                past_three += space.ground.n > 3
                assert (w.bindings, w.lhs, w.operation) == want, (kind, space)
                lhs = oracle.bits_to_set(space.ground, w.lhs)
                test = oracle_kind_test(topo, points, kind, lhs)
                assert w.rhs == oracle.set_to_bits(space.ground, test)
        assert violations >= 20 and past_three >= 5


# registry laws violated on ex-3.3-1 (46) plus those violated on ex-3.3-2 (44)
VIOLATED_ON_PACKAGE_SPACES = 90


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

    def test_every_check_answers_with_one_first_witness(self, registry_names, space_a, space_b):
        # ``check``, the values of ``verdicts``, ``violated_at`` and the scan
        # all answer a ``Witness`` or None, and name the same first failure
        violated = 0
        for space in (space_a, space_b):
            for name in registry_names:
                law = laws.get_law(name)
                witness = law.check(space)
                answers = law.verdicts(space)
                assert witness == next((w for w in answers.values() if w is not None), None)
                for (tag, ast), answer in zip(law.templates, answers.values()):
                    scanned = dsl.scan_law(space, ast)[1]
                    assert answer == (scanned and scanned._replace(operation=tag)), (name, tag)
                if witness is not None:
                    violated += 1
                    assert type(witness) is Witness
                    assert law.violated_at(space, witness.bindings, witness.operation) == witness
        assert violated == VIOLATED_ON_PACKAGE_SPACES

    def test_every_template_instantiates(self, space_a):
        for alias in ops.LOCAL_FN_ALIASES:
            for head in ("additivity", "diff-law", "psi-cap", "psi-cup", "kuratowski", "eta-topology"):
                law = laws.get_law(f"{head}:{alias}")
                assert max(len(ast.free_vars) for _, ast in law.templates) == 2
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

    def test_resolve_law_tells_names_from_text(self):
        # a registry head before the first ":" makes a name, whose law is
        # the registry's own; any other text is law text, capped
        assert laws.resolve_law("additivity:sstar") is laws.get_law("additivity:sstar")
        assert laws.resolve_law("kuratowski:xis", var_cap=0) is laws.get_law("kuratowski:xis")
        text = "A <= clstar:star(A)"
        assert laws.resolve_law(text) == laws.text_law(text)
        with pytest.raises(dsl.VariableCapError, match="law has 2 free variables, cap is 1"):
            laws.resolve_law("star(union(A,B)) == union(star(A),star(B))", var_cap=1)
        four = "union(A,union(B,union(C,D))) == union(D,union(C,union(B,A)))"
        assert laws.resolve_law(four, var_cap=None).name == four
        with pytest.raises(ValueError, match="unknown operator alias 'nope' in 'additivity:nope'"):
            laws.resolve_law("additivity:nope")
        with pytest.raises(ValueError, match="law name needs an argument: 'additivity'"):
            laws.resolve_law("additivity")
        # an unknown head is no name, so it reads as law text
        with pytest.raises(dsl.DslSyntaxError, match="'bogus:star' is not a variable"):
            laws.resolve_law("bogus:star")

    def test_law_names_round_trip(self):
        assert laws.get_law("additivity:sstar").name == "additivity:sstar"
        assert laws.get_law("family-cap-closed:b").name == "family-cap-closed:b"


# The census of the registry's equation templates through four points: for
# each alias, the first n at which exhaustive search refutes the template,
# or None when it is certified on every space with at most four points.
# Columns are CENSUS_TEMPLATES, in registry order.
CENSUS_TEMPLATES = (
    ("additivity", None),
    ("diff-law", None),
    ("psi-cap", "inter"),
    ("psi-cup", "union"),
    ("kuratowski", "fixes-empty"),
    ("kuratowski", "extensive"),
    ("kuratowski", "idempotent"),
    ("kuratowski", "additive"),
)
FIRST_REFUTED_AT = {
    "G": (None, None, None, 2, None, None, 3, None),
    "betastar": (3, 3, 3, 2, None, None, None, 3),
    "bstar": (3, 3, 3, 2, None, None, None, 3),
    "g": (None, None, None, 2, None, None, None, None),
    "pstar": (3, 3, 3, 2, None, None, None, 3),
    "sstar": (3, 3, 3, 2, None, None, None, 3),
    "star": (None, None, None, 2, None, None, None, None),
    "xib": (3, 3, 3, 2, None, None, None, 3),
    "xibeta": (3, 3, 3, 2, None, None, None, 3),
    "xip": (3, 3, 3, 2, None, None, 3, 3),
    "xis": (3, 3, 3, 2, None, None, None, 3),
}


def first_refutation(law: dsl.LawAst) -> int | None:
    """The least n <= 4 at which exhaustive search refutes ``law``."""
    for n in range(1, 5):
        result = search.run_search(search.SearchTask(dsl.format_law(law), n))
        if result.status == search.STATUS_FOUND:
            return n
        assert result.status == search.STATUS_CERTIFIED
    return None


def test_registry_census_through_four_points():
    heads = ("additivity", "diff-law", "psi-cap", "psi-cup", "kuratowski")
    assert [(h, t) for h in heads for t in laws.LAW_TEMPLATES[h]] == list(CENSUS_TEMPLATES)
    assert sorted(FIRST_REFUTED_AT) == sorted(ops.LOCAL_FN_ALIASES)
    census = {
        (alias, head, tag): first_refutation(dict(laws.get_law(f"{head}:{alias}").templates)[tag])
        for alias in FIRST_REFUTED_AT
        for head, tag in CENSUS_TEMPLATES
    }
    assert census == {
        (alias, head, tag): first
        for alias, row in FIRST_REFUTED_AT.items()
        for (head, tag), first in zip(CENSUS_TEMPLATES, row)
    }
    firsts = list(census.values())
    assert (firsts.count(2), firsts.count(3), firsts.count(None)) == (11, 34, 43)

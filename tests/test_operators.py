"""Operator layer against the definition-literal oracle.

Every exhaustive sweep covers all 250 labeled spaces on up to three points;
the two four-point reference spaces pin frozen tables that were derived by
hand and are re-confirmed against the oracle inside the test, so a wrong
frozen value and a wrong engine disagree loudly.
"""

import pickle
import random
from collections import Counter

import pytest

import oracle
from idealtop import dsl, laws, search
from idealtop import operators as ops
from idealtop.space import (
    MAX_POINTS,
    Family,
    GroundSet,
    Ideal,
    Space,
    Topology,
    generate_ideal,
    generate_topology,
)



def oracle_table(space, alias):
    topo, ideal, points = oracle.space_to_oracle(space)
    nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
    table = oracle.local_function_table(topo, ideal, points, nbhd, cl)
    return bytes(
        oracle.set_to_bits(space.ground, table[oracle.bits_to_set(space.ground, a)])
        for a in range(space.n_subsets)
    )


class TestPointSetOperators:
    def test_derived_set_matches_oracle(self, small_spaces):
        for space in small_spaces:
            topo, _, points = oracle.space_to_oracle(space)
            for a in range(space.n_subsets):
                want = oracle.derived_set(
                    topo, points, oracle.bits_to_set(space.ground, a)
                )
                got = ops.unary_table(space, "der")[a]
                assert oracle.bits_to_set(space.ground, got) == want

    def test_closure_is_union_with_derived_set(self, small_spaces, space_a, space_b):
        for space in small_spaces + [space_a, space_b]:
            cl, der = ops.unary_table(space, "cl"), ops.unary_table(space, "der")
            for a in range(space.n_subsets):
                assert cl[a] == a | der[a]

    def test_interior_closure_duality(self, space_a):
        full = space_a.ground.universe
        it, cl = ops.unary_table(space_a, "int"), ops.unary_table(space_a, "cl")
        for a in range(space_a.n_subsets):
            assert it[a] == full ^ cl[full ^ a]


class TestGeneralizedOpenSets:
    def test_families_match_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::3] + [space_a, space_b]:
            topo, _, points = oracle.space_to_oracle(space)
            for kind in ops.KINDS:
                want = {
                    oracle.set_to_bits(space.ground, s)
                    for s in oracle.kind_open_family(topo, points, kind)
                }
                assert set(ops.kopen_family(space, kind)) == want

    def test_family_inclusion_chain(self, small_spaces):
        # open <= semi <= b <= beta and open <= pre <= b
        for space in small_spaces:
            fams = {k: set(ops.kopen_family(space, k)) for k in ops.KINDS}
            assert fams["open"] <= fams["semi"]
            assert fams["open"] <= fams["pre"]
            assert fams["semi"] <= fams["b"]
            assert fams["pre"] <= fams["b"]
            assert fams["b"] <= fams["beta"]

    def test_families_contain_bounds_and_unions(self, small_spaces):
        for space in small_spaces:
            full = space.ground.universe
            for kind in ops.KINDS:
                fam = ops.kopen_family(space, kind)
                assert 0 in fam and full in fam
                members = fam.members
                for a in members:
                    for b in members:
                        assert (a | b) in fam

    def test_frozen_semi_family(self, space_a):
        assert ops.kopen_family(space_a, "semi").members == (
            0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15,
        )

    def test_frozen_pre_and_beta_family(self, space_b):
        want = (0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
        assert ops.kopen_family(space_b, "pre").members == want
        assert ops.kopen_family(space_b, "beta").members == want

    def test_kclosure_matches_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::5] + [space_a, space_b]:
            topo, _, points = oracle.space_to_oracle(space)
            for kind in ops.KINDS:
                table = ops.kclosure_table(space, kind)
                for a in range(space.n_subsets):
                    want = oracle.kind_closure(
                        topo, points, kind, oracle.bits_to_set(space.ground, a)
                    )
                    assert oracle.bits_to_set(space.ground, table[a]) == want

    def test_kclosure_is_a_closure_operator(self, small_spaces):
        for space in small_spaces:
            full = space.ground.universe
            for kind in ops.KINDS:
                table = ops.kclosure_table(space, kind)
                assert table[0] == 0 and table[full] == full
                for a in range(space.n_subsets):
                    assert a & ~table[a] == 0
                    assert table[table[a]] == table[a]
                    for b in range(a, space.n_subsets):
                        if a & ~b == 0:
                            assert table[a] & ~table[b] == 0


class TestLocalFunctions:
    def test_tables_match_oracle_exhaustively(self, small_spaces):
        for space in small_spaces:
            for alias in ops.LOCAL_FN_ALIASES:
                assert ops.unary_table(space, alias) == oracle_table(space, alias)

    def test_tables_match_oracle_on_reference_spaces(self, space_a, space_b):
        for space in (space_a, space_b):
            for alias in ops.LOCAL_FN_ALIASES:
                assert ops.unary_table(space, alias) == oracle_table(space, alias)

    def test_frozen_closure_style_semi_table(self, space_a):
        assert ops.unary_table(space_a, "xis") == bytes((
            0, 1, 2, 15, 0, 1, 2, 15, 8, 9, 10, 15, 8, 9, 10, 15,
        ))

    def test_frozen_plain_pre_table(self, space_b):
        want = bytes((0, 0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 15, 15, 15, 15))
        assert ops.unary_table(space_b, "pstar") == want
        # the beta-expanded beta function coincides with it on this space
        assert ops.unary_table(space_b, "xibeta") == want

    def test_empty_set_maps_to_empty(self, small_spaces):
        for space in small_spaces:
            for alias in ops.LOCAL_FN_ALIASES:
                assert ops.unary_table(space, alias)[0] == 0

    def test_monotone_in_the_argument(self, small_spaces):
        for space in small_spaces:
            for alias in ops.LOCAL_FN_ALIASES:
                table = ops.unary_table(space, alias)
                for a in range(space.n_subsets):
                    for b in range(space.n_subsets):
                        if a & ~b == 0:
                            assert table[a] & ~table[b] == 0

    def test_plain_below_matching_closure_style(self, small_spaces):
        pairs = [("star", "G"), ("star", "g"), ("sstar", "xis"),
                 ("pstar", "xip"), ("bstar", "xib"), ("betastar", "xibeta")]
        for space in small_spaces:
            for plain, styled in pairs:
                pt = ops.unary_table(space, plain)
                st = ops.unary_table(space, styled)
                for a in range(space.n_subsets):
                    assert pt[a] & ~st[a] == 0

    def test_richer_neighborhood_kind_shrinks_plain_function(self, small_spaces):
        chain = [("betastar", "bstar"), ("bstar", "sstar"), ("bstar", "pstar"),
                 ("sstar", "star"), ("pstar", "star")]
        for space in small_spaces:
            for lo, hi in chain:
                lot = ops.unary_table(space, lo)
                hit = ops.unary_table(space, hi)
                for a in range(space.n_subsets):
                    assert lot[a] & ~hit[a] == 0

    def test_trivial_ideal_turns_star_into_closure(self):
        for n in (1, 2, 3):
            g = GroundSet(tuple(f"w{i + 1}" for i in range(n)))
            for topo in oracle.all_topologies(list(g.labels)):
                masks = tuple(sorted(oracle.set_to_bits(g, s) for s in topo))
                space = Space(g, Topology(Family(masks)), Ideal(0))
                assert ops.unary_table(space, "star") == ops.unary_table(space, "cl")

    def test_discrete_ideal_kills_every_local_function(self, space_a):
        space = Space(
            space_a.ground,
            space_a.topology,
            generate_ideal([space_a.ground.universe], space_a.ground),
        )
        for alias in ops.LOCAL_FN_ALIASES:
            assert set(ops.unary_table(space, alias)) == {0}

    def test_star_stays_below_closure(self, small_spaces):
        for space in small_spaces:
            table, cl = ops.unary_table(space, "star"), ops.unary_table(space, "cl")
            for a in range(space.n_subsets):
                assert table[a] & ~cl[a] == 0


class TestDualsAndFixFamilies:
    def test_psi_dual_matches_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::5] + [space_a, space_b]:
            topo, ideal, points = oracle.space_to_oracle(space)
            for alias in ops.LOCAL_FN_ALIASES:
                nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
                dual = ops.unary_table(space, ops.PSI_ALIAS[alias])
                for a in range(space.n_subsets):
                    want = oracle.psi_dual(
                        topo, ideal, points, nbhd, cl,
                        oracle.bits_to_set(space.ground, a),
                    )
                    assert oracle.bits_to_set(space.ground, dual[a]) == want

    def test_psi_alias_is_complement_dual(self, space_a, space_b):
        for space in (space_a, space_b):
            full = space.ground.universe
            for alias in ops.LOCAL_FN_ALIASES:
                dual = ops.unary_table(space, ops.PSI_ALIAS[alias])
                base = ops.unary_table(space, alias)
                for a in range(space.n_subsets):
                    assert dual[a] == full ^ base[full ^ a]

    def test_frozen_dual_tables(self, space_a, space_b):
        assert ops.unary_table(space_a, "psixis") == bytes((
            0, 5, 6, 7, 0, 5, 6, 7, 0, 13, 14, 15, 0, 13, 14, 15,
        ))
        assert ops.unary_table(space_b, "psixibeta") == bytes((
            0, 0, 0, 0, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 15, 15,
        ))

    def test_fix_family_matches_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::7] + [space_a, space_b]:
            topo, ideal, points = oracle.space_to_oracle(space)
            for alias, (nbhd, cl) in oracle.NAMED_LOCAL_FNS.items():
                want = {
                    oracle.set_to_bits(space.ground, s)
                    for s in oracle.psi_fix_family(topo, ideal, points, nbhd, cl)
                }
                assert set(ops.psi_fix_family(space, alias)) == want

    def test_frozen_fix_families(self, space_a, space_b):
        assert ops.psi_fix_family(space_a, "xis").members == (
            0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15,
        )
        assert ops.psi_fix_family(space_b, "xibeta").members == (
            0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        )

    def test_fix_families_contain_bounds_and_unions(self, small_spaces):
        for space in small_spaces:
            full = space.ground.universe
            for alias in ops.LOCAL_FN_ALIASES:
                fam = ops.psi_fix_family(space, alias)
                assert 0 in fam and full in fam
                for a in fam.members:
                    for b in fam.members:
                        assert (a | b) in fam


class TestStarClosure:
    def test_always_extensive_and_empty_fixing(self, small_spaces):
        for space in small_spaces:
            for alias in ops.LOCAL_FN_ALIASES:
                report = laws.get_law("kuratowski:" + alias).verdicts(space)
                assert report["fixes-empty"] is None
                assert report["extensive"] is None

    def test_axiom_report_matches_oracle_star(self, space_a, space_b):
        for space in (space_a, space_b):
            topo, ideal, points = oracle.space_to_oracle(space)
            for alias, (nbhd, cl) in oracle.NAMED_LOCAL_FNS.items():
                star = {
                    a: oracle.cl_star(topo, ideal, points, nbhd, cl, a)
                    for a in oracle.powerset(points)
                }
                idem = all(star[star[a]] == star[a] for a in star)
                addv = all(
                    star[a | b] == star[a] | star[b] for a in star for b in star
                )
                report = laws.get_law("kuratowski:" + alias).verdicts(space)
                assert (report["idempotent"] is None) == idem
                assert (report["additive"] is None) == addv

    def test_frozen_pre_star_axioms(self, space_b):
        law = laws.get_law("kuratowski:pstar")
        report = law.verdicts(space_b)
        assert report["idempotent"] is None
        w = report["additive"]
        assert (w.bindings, w.lhs, w.rhs, w.operation) == (
            (("A", 4), ("B", 8)), 15, 12, "additive",
        )
        assert law.check(space_b) == report["additive"]
        assert [report[a] is None for a in laws.KURATOWSKI_AXIOMS] == [
            True, True, True, False,
        ]
        assert tuple(report) == laws.KURATOWSKI_AXIOMS and "additivity" not in report

    def test_clstar_alias_composition(self, space_a):
        star = ops.unary_table(space_a, "clstar:sstar")
        for a in range(space_a.n_subsets):
            assert star[a] == a | ops.unary_table(space_a, "sstar")[a]
        assert ops.unary_table(space_a, "clstar:clstar:int")[5] == (
            5 | ops.unary_table(space_a, "int")[5]
        )


class TestStarTopology:
    def test_plain_open_star_topology_refines_base(self, small_spaces):
        for space in small_spaces:
            topo = laws.star_topology(space, "star")
            assert set(space.topology.family) <= set(topo.family)

    def test_opens_are_complements_of_star_fixed_sets(self, space_a):
        topo = laws.star_topology(space_a, "star")
        full = space_a.ground.universe
        star = ops.unary_table(space_a, "clstar:star")
        for a in range(space_a.n_subsets):
            closed = full ^ a
            fixed = star[closed] == closed
            assert (a in topo.family) == fixed

    def test_discrete_ideal_gives_discrete_star_topology(self, space_a):
        space = Space(
            space_a.ground,
            space_a.topology,
            generate_ideal([space_a.ground.universe], space_a.ground),
        )
        topo = laws.star_topology(space, "star")
        assert len(topo.family) == space.n_subsets

    def test_refusal_carries_axiom_and_witness(self, space_b, small_spaces):
        for alias in ("pstar", "betastar"):
            with pytest.raises(laws.StarTopologyRefused) as exc:
                laws.star_topology(space_b, alias)
            assert exc.value.witness.operation == "additive"
            assert exc.value.witness.bindings == (("A", 4), ("B", 8))
            assert str(exc.value) == "star closure violates the additive axiom"
            clone = pickle.loads(pickle.dumps(exc.value))
            assert (type(clone), str(clone)) == (laws.StarTopologyRefused, str(exc.value))
            assert clone.witness == exc.value.witness
        # The refusal is the registry law's first failure, and the first
        # failing axiom among its per-axiom witnesses.
        refused = Counter()
        for space in small_spaces:
            for alias in ops.LOCAL_FN_ALIASES:
                law = laws.get_law("kuratowski:" + alias)
                witness = law.check(space)
                failure = next(
                    ((axiom, w) for axiom, w in law.verdicts(space).items() if w is not None), None
                )
                try:
                    laws.star_topology(space, alias)
                except laws.StarTopologyRefused as refusal:
                    refused[refusal.witness.operation] += 1
                    assert refusal.witness.operation == witness.operation == failure[0]
                    assert refusal.witness == witness == failure[1]
                else:
                    assert witness is None and failure is None
        assert set(refused) == {"idempotent", "additive"}, refused


def oracle_alias_tables(space):
    """Every alias and its ``clstar:`` form, by definition over the oracle."""
    topo, ideal, points = oracle.space_to_oracle(space)
    ground, full = space.ground, space.ground.universe
    sets = [oracle.bits_to_set(ground, a) for a in range(space.n_subsets)]
    bits = lambda values: bytes(oracle.set_to_bits(ground, v) for v in values)
    out = {
        "int": bits(oracle.interior(topo, a) for a in sets),
        "cl": bits(oracle.closure(topo, points, a) for a in sets),
        "der": bits(oracle.derived_set(topo, points, a) for a in sets),
    }
    for name, kind in (("scl", oracle.SEMI), ("pcl", oracle.PRE),
                       ("bcl", oracle.B), ("betacl", oracle.BETA)):
        table = oracle.kind_closure_table(topo, points, kind)
        out[name] = bits(table[a] for a in sets)
    for alias, (nbhd, cl) in oracle.NAMED_LOCAL_FNS.items():
        table = oracle.local_function_table(topo, ideal, points, nbhd, cl)
        out[alias] = bits(table[a] for a in sets)
        out[ops.PSI_ALIAS[alias]] = bytes(full ^ out[alias][full ^ a] for a in range(full + 1))
    for name in list(out):
        out["clstar:" + name] = bytes(a | out[name][a] for a in range(full + 1))
    return out


# Every entry point that takes an open-set kind name, by the argument it names.
KIND_TAKERS = {
    "kopen_family": ops.kopen_family,
    "kclosure_table": ops.kclosure_table,
    "hit_table-nbhd": lambda space, kind: ops.hit_table(space, kind),
    "hit_table-expanded-nbhd": lambda space, kind: ops.hit_table(space, kind, "open"),
    "hit_table-cl": lambda space, kind: ops.hit_table(space, "open", kind),
}


class TestAliasSurface:
    def test_every_alias_matches_oracle_and_eval_expr(self, small_spaces, space_a, space_b):
        names = ops.operator_names()[:-1]
        names += tuple("clstar:" + name for name in names)
        exprs = {name: dsl.parse_expr(f"{name}(A)") for name in names}
        for space in small_spaces + [space_a, space_b]:
            want = oracle_alias_tables(space)
            assert set(want) == set(names)
            for name in names:
                table = ops.unary_table(space, name)
                assert table == want[name], name
                for a in range(space.n_subsets):
                    assert dsl.eval_expr(space, {"A": a}, exprs[name]) == table[a], name

    def test_unary_table_is_memoized(self, space_b):
        assert ops.unary_table(space_b, "g") is ops.unary_table(space_b, "g")

    def test_one_cache_entry_per_alias(self, space_a):
        space = Space(space_a.ground, space_a.topology, space_a.ideal)
        ops.unary_table(space, "clstar:psixis")
        ops.unary_table(space, "xis")
        # a dual's local function is built again, not cached beside it
        assert sorted(space._cache) == ["clstar:psixis", "xis"]

    def test_unknown_alias(self, space_a):
        for name in ("nope", "clstar:nope", "clstar:", "clstar"):
            assert not ops.is_operator(name)
            with pytest.raises(KeyError):
                ops.unary_table(space_a, name)

    def test_operator_names_cover_table(self):
        names = ops.operator_names()
        assert names[-1] == "clstar:<op>"
        assert set(names[:-1]) == {
            "int", "cl", "der", "scl", "pcl", "bcl", "betacl",
            *ops.LOCAL_FN_ALIASES, *ops.PSI_ALIAS.values(),
        }
        assert len(names[:-1]) == 29
        assert all(ops.is_operator(n) and ops.is_operator("clstar:" + n) for n in names[:-1])

    def test_alias_and_oracle_key_tables_agree(self):
        assert ops.LOCAL_FN_ALIASES == oracle.NAMED_LOCAL_FNS
        assert ops.KINDS == (oracle.OPEN, oracle.SEMI, oracle.PRE, oracle.B, oracle.BETA)

    @pytest.mark.parametrize("call", sorted(KIND_TAKERS))
    def test_unknown_kind_raises_key_error_naming_it(self, call, space_a):
        space = Space(space_a.ground, space_a.topology, space_a.ideal)
        for kind in ("bogus", "OPEN", "star"):
            with pytest.raises(KeyError, match=repr(kind)):
                KIND_TAKERS[call](space, kind)

    def test_generalized_closure_aliases(self, space_a):
        for alias, kind in (("scl", "semi"), ("betacl", "beta")):
            assert ops.unary_table(space_a, alias) == ops.kclosure_table(space_a, kind)


# The 29 aliases and their ``clstar:`` forms.
TABLE_NAMES = ops.operator_names()[:-1]
TABLE_NAMES += tuple("clstar:" + name for name in TABLE_NAMES)


def seeded_spaces(seed=1):
    """Two topologies each on 7 and 8 points, from three random subbase
    sets, and two ideals per topology, the power sets of 1-3 random points."""
    rng = random.Random(seed)
    out = []
    for n in (7, 8):
        ground = GroundSet(tuple(f"w{i + 1}" for i in range(n)))
        for _ in range(2):
            topo = generate_topology([rng.randrange(1, 1 << n) for _ in range(3)], ground)
            for _ in range(2):
                top = sum(1 << x for x in rng.sample(range(n), rng.randint(1, 3)))
                out.append(Space(ground, topo, generate_ideal([top], ground)))
    return out


class TestSevenAndEightPoints:
    def test_seeded_spaces_are_nontrivial(self):
        spaces = seeded_spaces()
        assert [s.ground.n for s in spaces] == [7] * 4 + [8] * 4
        assert len({(s.ground.n, s.topology) for s in spaces}) == 4
        for space in spaces:
            assert 2 < len(space.topology) < space.n_subsets
            assert 0 < space.ideal.top < space.ground.universe

    def test_every_table_matches_oracle(self):
        for space in seeded_spaces():
            want = oracle_alias_tables(space)
            for name in TABLE_NAMES:
                assert ops.unary_table(space, name) == want[name], (space.ground.n, name)

    def test_clstar_is_idempotent(self):
        # a | (a | f(a)) = a | f(a), so a chain of prefixes is one prefix
        for space in seeded_spaces():
            for name in ops.operator_names()[:-1]:
                assert ops.unary_table(space, "clstar:clstar:" + name) == ops.unary_table(
                    space, "clstar:" + name
                ), (space.ground.n, name)


def image(perm, n):
    """The image of every subset under the point map ``x -> perm[x]``, as
    ``2**n`` bytes: byte ``a`` is the image of subset ``a``."""
    return bytes(sum(1 << perm[x] for x in range(n) if a >> x & 1) for a in range(1 << n))


class TestMetamorphic:
    """Relations between the tables of two spaces, which need no oracle
    and so reach the seeded 7- and 8-point spaces for every alias and its
    ``clstar:`` form (Chen, Cheung and Yiu, 1998)."""

    def test_relabelling(self):
        """R1: for a permutation π of the points, f_{π·S}(π a) = π f_S(a)
        for every operator f and subset a, where π·S carries the opens and
        the ideal of S along π."""
        rng = random.Random(17)
        for space in seeded_spaces():
            n = space.ground.n
            perm = rng.sample(range(n), n)
            assert perm != sorted(perm)
            pi = image(perm, n)
            moved = Space(
                space.ground,
                Topology(Family(pi[u] for u in space.topology.family.members)),
                Ideal(pi[space.ideal.top]),
            )
            for name in TABLE_NAMES:
                table, moved_table = ops.unary_table(space, name), ops.unary_table(moved, name)
                assert bytes(moved_table[pi[a]] for a in range(space.n_subsets)) == bytes(
                    pi[value] for value in table
                ), (n, perm, name)

    def test_lifting(self):
        """R2: adding a point p as its own clopen component, inside the
        ideal, changes no operator's value on the old points:
        f_{S+p}(a) - {p} = f_S(a - {p}) for every subset a of the larger
        space. The 7-point spaces lift to 8, the largest point count."""
        for space in seeded_spaces():
            n = space.ground.n
            if n == MAX_POINTS:
                continue
            p, old = 1 << n, space.ground.universe
            members = space.topology.family.members
            lifted = Space(
                GroundSet(space.ground.labels + ("p",)),
                Topology(Family(members + tuple(u | p for u in members))),
                Ideal(space.ideal.top | p),
            )
            for name in TABLE_NAMES:
                table, lifted_table = ops.unary_table(space, name), ops.unary_table(lifted, name)
                assert bytes(value & old for value in lifted_table) == bytes(
                    table[a & old] for a in range(lifted.n_subsets)
                ), (n, name)

    def test_ideal_antitone(self):
        """R3: for ideals I ⊆ J, f_J(a) ⊆ f_I(a) for every local function f
        and subset a: a larger ideal forgives more traces. Hence a dual
        grows with the ideal, ψ_I(a) ⊆ ψ_J(a); ``clstar:`` keeps each
        direction; and a table of the topology alone does not change."""
        rng = random.Random(29)
        for space in seeded_spaces():
            n, top = space.ground.n, space.ideal.top
            outside = [x for x in range(n) if not top >> x & 1]
            bigger = top | sum(1 << x for x in rng.sample(outside, rng.randint(1, 2)))
            larger = Space(space.ground, space.topology, Ideal(bigger))
            for name in TABLE_NAMES:
                f_i, f_j = ops.unary_table(space, name), ops.unary_table(larger, name)
                base = name.removeprefix("clstar:")
                if base in ops.LOCAL_FN_ALIASES:
                    assert all(j & ~i == 0 for i, j in zip(f_i, f_j)), (n, name)
                elif base in ops.PSI_ALIAS.values():
                    assert all(i & ~j == 0 for i, j in zip(f_i, f_j)), (n, name)
                else:
                    assert f_i == f_j, (n, name)

    def test_open_subspace_restriction(self):
        """R4: for an open set Y with the subspace topology {U ∩ Y : U open}
        and the trace ideal {I ∩ Y : I in the ideal},
        f_X(a) ∩ Y = f_Y(a ∩ Y) for every subset a of X. Checked at
        Y = U(z), the least open set holding z, for every point z.

        It holds for the operators whose value at a point of Y looks only
        at open neighbourhoods inside Y: ``int``, ``cl``, ``der``, the kind
        closures, the plain local functions, their duals, and the
        ``clstar:`` form of each. It fails somewhere for the local
        functions that expand a neighbourhood by a closure, which reaches
        outside Y (``G``, ``g``, ``xis``, ``xip``, ``xib``, ``xibeta``), for
        their duals and for their ``clstar:`` forms."""
        holds = ["int", "cl", "der", "scl", "pcl", "bcl", "betacl",
                 "star", "sstar", "pstar", "bstar", "betastar",
                 "psi", "psis", "psip", "psib", "psibetastar"]
        fails = ["G", "g", "xis", "xip", "xib", "xibeta",
                 "psiG", "psig", "psixis", "psixip", "psixib", "psixibeta"]
        assert sorted(holds + fails) == sorted(ops.operator_names()[:-1])
        failed = set()
        for space in seeded_spaces():
            n, opens = space.ground.n, space.topology.family.members
            for z in range(n):
                y = space.ground.universe
                for u in opens:
                    if u >> z & 1:
                        y &= u
                points = [x for x in range(n) if y >> x & 1]
                # byte a is a ∩ Y, written on the points of Y
                down = bytes(
                    sum(1 << i for i, x in enumerate(points) if a >> x & 1) for a in range(1 << n)
                )
                sub = Space(
                    GroundSet(space.ground.labels[x] for x in points),
                    Topology(Family(down[u] for u in opens)),
                    Ideal(down[space.ideal.top]),
                )
                for name in TABLE_NAMES:
                    f_x, f_y = ops.unary_table(space, name), ops.unary_table(sub, name)
                    if f_x.translate(down.ljust(256, b"\0")) != down.translate(
                        f_y.ljust(256, b"\0")
                    ):
                        failed.add(name)
        assert failed == {prefix + name for name in fails for prefix in ("", "clstar:")}


# The 5 plain kinds and all 25 (nbhd, cl) pairs, aliased or not.
KIND_PAIRS = [(nbhd, None) for nbhd in ops.KINDS]
KIND_PAIRS += [(nbhd, cl) for nbhd in ops.KINDS for cl in ops.KINDS]


def assert_kind_pairs_match_oracle(space):
    """With the ideal {{}} a local function is its hit table, so every
    kind pair's ``hit_table`` is the oracle's local function on ``space``."""
    assert space.ideal == Ideal(0)
    tp, ideal, points = oracle.space_to_oracle(space)
    sets = [oracle.bits_to_set(space.ground, a) for a in range(space.n_subsets)]
    for nbhd, cl in KIND_PAIRS:
        want = oracle.local_function_table(tp, ideal, points, nbhd, cl)
        got = ops.hit_table(space, nbhd, cl)
        assert got == bytes(oracle.set_to_bits(space.ground, want[a]) for a in sets), (
            space.topology, nbhd, cl,
        )


class TestPlainHitTable:
    def test_is_the_kind_closure_up_to_four_points(self):
        # Every kind-open neighbourhood of z meets b iff z lies in every
        # kind-closed superset of b. With the ideal {{}} a local function
        # is its hit table, so the oracle checks the identity by definition.
        for n in range(1, 5):
            ground = GroundSet(search.default_labels(n))
            for topo in search.enumerate_topologies(n):
                space = Space(ground, topo, Ideal(0))
                tp, ideal, points = oracle.space_to_oracle(space)
                sets = [oracle.bits_to_set(ground, a) for a in range(space.n_subsets)]
                for kind in ops.KINDS:
                    want = oracle.kind_closure_table(tp, points, kind)
                    lf = oracle.local_function_table(tp, ideal, points, kind, None)
                    assert lf == want
                    got = ops.hit_table(space, kind)
                    assert got == bytes(oracle.set_to_bits(ground, want[a]) for a in sets)

    def test_every_kind_pair_matches_oracle_up_to_three_points(self):
        for n in range(1, 4):
            ground = GroundSet(search.default_labels(n))
            for topo in search.enumerate_topologies(n):
                assert_kind_pairs_match_oracle(Space(ground, topo, Ideal(0)))

    def test_every_kind_pair_matches_oracle_on_five_and_six_points(self):
        # Past the exhaustive range: topologies from seeded random subbases
        # of 2-4 members, each checked to be neither discrete nor indiscrete.
        rng = random.Random(25)
        for n in (5, 6):
            ground = GroundSet(search.default_labels(n))
            for _ in range(8):
                subbase = [rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 4))]
                space = Space(ground, generate_topology(subbase, ground), Ideal(0))
                assert 2 < len(space.topology) < space.n_subsets
                assert_kind_pairs_match_oracle(space)

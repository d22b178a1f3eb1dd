"""Operator layer against the definition-literal oracle.

Every exhaustive sweep covers all 250 labeled spaces on up to three points;
the two four-point reference spaces pin frozen tables that were derived by
hand and are re-confirmed against the oracle inside the test, so a wrong
frozen value and a wrong engine disagree loudly.
"""

import pytest

import oracle
from idealtop import laws
from idealtop import operators as ops
from idealtop.space import Family, GroundSet, Ideal, Space, Topology, generate_ideal
from idealtop.verdicts import KURATOWSKI_AXIOMS

ALL_KINDS = tuple(ops.OpenKind)
ALL_SPECS = tuple(ops.LOCAL_FN_ALIASES.items())


def oracle_table(space, alias):
    topo, ideal, points = oracle.space_to_oracle(space)
    nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
    table = oracle.local_function_table(topo, ideal, points, nbhd, cl)
    return tuple(
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
                assert oracle.bits_to_set(space.ground, ops.derived_set(space, a)) == want

    def test_closure_is_union_with_derived_set(self, small_spaces, space_a, space_b):
        for space in small_spaces + [space_a, space_b]:
            for a in range(space.n_subsets):
                assert ops.closure(space, a) == a | ops.derived_set(space, a)

    def test_interior_closure_duality(self, space_a):
        full = space_a.ground.universe
        for a in range(space_a.n_subsets):
            assert ops.interior(space_a, a) == full ^ ops.closure(space_a, full ^ a)


class TestGeneralizedOpenSets:
    def test_families_match_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::3] + [space_a, space_b]:
            topo, _, points = oracle.space_to_oracle(space)
            for kind in ALL_KINDS:
                want = {
                    oracle.set_to_bits(space.ground, s)
                    for s in oracle.kind_open_family(topo, points, kind.value)
                }
                assert set(ops.kopen_family(space, kind)) == want

    def test_family_inclusion_chain(self, small_spaces):
        # open <= semi <= b <= beta and open <= pre <= b
        for space in small_spaces:
            fams = {k: set(ops.kopen_family(space, k)) for k in ALL_KINDS}
            assert fams[ops.OpenKind.OPEN] <= fams[ops.OpenKind.SEMI]
            assert fams[ops.OpenKind.OPEN] <= fams[ops.OpenKind.PRE]
            assert fams[ops.OpenKind.SEMI] <= fams[ops.OpenKind.B]
            assert fams[ops.OpenKind.PRE] <= fams[ops.OpenKind.B]
            assert fams[ops.OpenKind.B] <= fams[ops.OpenKind.BETA]

    def test_families_contain_bounds_and_unions(self, small_spaces):
        for space in small_spaces:
            full = space.ground.universe
            for kind in ALL_KINDS:
                fam = ops.kopen_family(space, kind)
                assert 0 in fam and full in fam
                members = fam.members
                for a in members:
                    for b in members:
                        assert (a | b) in fam

    def test_frozen_semi_family(self, space_a):
        assert ops.kopen_family(space_a, ops.OpenKind.SEMI).members == (
            0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15,
        )

    def test_frozen_pre_and_beta_family(self, space_b):
        want = (0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
        assert ops.kopen_family(space_b, ops.OpenKind.PRE).members == want
        assert ops.kopen_family(space_b, ops.OpenKind.BETA).members == want

    def test_kclosure_matches_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::5] + [space_a, space_b]:
            topo, _, points = oracle.space_to_oracle(space)
            for kind in ALL_KINDS:
                for a in range(space.n_subsets):
                    want = oracle.kind_closure(
                        topo, points, kind.value, oracle.bits_to_set(space.ground, a)
                    )
                    got = ops.kclosure(space, kind, a)
                    assert oracle.bits_to_set(space.ground, got) == want

    def test_kclosure_is_a_closure_operator(self, small_spaces):
        for space in small_spaces:
            full = space.ground.universe
            for kind in ALL_KINDS:
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
            for alias, spec in ALL_SPECS:
                assert ops.local_function_table(space, spec) == oracle_table(space, alias)

    def test_tables_match_oracle_on_reference_spaces(self, space_a, space_b):
        for space in (space_a, space_b):
            for alias, spec in ALL_SPECS:
                assert ops.local_function_table(space, spec) == oracle_table(space, alias)

    def test_frozen_closure_style_semi_table(self, space_a):
        assert ops.unary_table(space_a, "xis") == (
            0, 1, 2, 15, 0, 1, 2, 15, 8, 9, 10, 15, 8, 9, 10, 15,
        )

    def test_frozen_plain_pre_table(self, space_b):
        want = (0, 0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 15, 15, 15, 15)
        assert ops.unary_table(space_b, "pstar") == want
        # the beta-expanded beta function coincides with it on this space
        assert ops.unary_table(space_b, "xibeta") == want

    def test_empty_set_maps_to_empty(self, small_spaces):
        for space in small_spaces:
            for _, spec in ALL_SPECS:
                assert ops.local_function(space, spec, 0) == 0

    def test_monotone_in_the_argument(self, small_spaces):
        for space in small_spaces:
            for _, spec in ALL_SPECS:
                table = ops.local_function_table(space, spec)
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
                space = Space(g, Topology(Family(masks)), Ideal(Family((0,))))
                assert ops.unary_table(space, "star") == space.cl_table

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
            table = ops.unary_table(space, "star")
            for a in range(space.n_subsets):
                assert table[a] & ~space.cl_table[a] == 0


class TestDualsAndFixFamilies:
    def test_psi_dual_matches_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::5] + [space_a, space_b]:
            topo, ideal, points = oracle.space_to_oracle(space)
            for alias, spec in ALL_SPECS:
                nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
                for a in range(space.n_subsets):
                    want = oracle.psi_dual(
                        topo, ideal, points, nbhd, cl,
                        oracle.bits_to_set(space.ground, a),
                    )
                    got = ops.psi_dual(space, spec, a)
                    assert oracle.bits_to_set(space.ground, got) == want

    def test_psi_alias_is_complement_dual(self, space_a, space_b):
        for space in (space_a, space_b):
            full = space.ground.universe
            for alias, spec in ALL_SPECS:
                dual = ops.unary_table(space, ops.PSI_ALIAS[alias])
                base = ops.unary_table(space, alias)
                for a in range(space.n_subsets):
                    assert dual[a] == full ^ base[full ^ a]

    def test_frozen_dual_tables(self, space_a, space_b):
        assert ops.unary_table(space_a, "psixis") == (
            0, 5, 6, 7, 0, 5, 6, 7, 0, 13, 14, 15, 0, 13, 14, 15,
        )
        assert ops.unary_table(space_b, "psixibeta") == (
            0, 0, 0, 0, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 15, 15,
        )

    def test_fix_family_matches_oracle(self, small_spaces, space_a, space_b):
        for space in small_spaces[::7] + [space_a, space_b]:
            topo, ideal, points = oracle.space_to_oracle(space)
            for alias, spec in ALL_SPECS:
                nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
                want = {
                    oracle.set_to_bits(space.ground, s)
                    for s in oracle.psi_fix_family(topo, ideal, points, nbhd, cl)
                }
                assert set(ops.psi_fix_family(space, spec)) == want

    def test_frozen_fix_families(self, space_a, space_b):
        assert ops.psi_fix_family(
            space_a, ops.LOCAL_FN_ALIASES["xis"]
        ).members == (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)
        assert ops.psi_fix_family(
            space_b, ops.LOCAL_FN_ALIASES["xibeta"]
        ).members == (0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)

    def test_fix_families_contain_bounds_and_unions(self, small_spaces):
        for space in small_spaces:
            full = space.ground.universe
            for _, spec in ALL_SPECS:
                fam = ops.psi_fix_family(space, spec)
                assert 0 in fam and full in fam
                for a in fam.members:
                    for b in fam.members:
                        assert (a | b) in fam


class TestStarClosure:
    def test_always_extensive_and_empty_fixing(self, small_spaces):
        for space in small_spaces:
            for _, spec in ALL_SPECS:
                report = laws.check_kuratowski(space, spec)
                assert report.fixes_empty.holds
                assert report.extensive.holds

    def test_axiom_report_matches_oracle_star(self, space_a, space_b):
        for space in (space_a, space_b):
            topo, ideal, points = oracle.space_to_oracle(space)
            for alias, spec in ALL_SPECS:
                nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
                star = {
                    a: oracle.cl_star(topo, ideal, points, nbhd, cl, a)
                    for a in oracle.powerset(points)
                }
                idem = all(star[star[a]] == star[a] for a in star)
                addv = all(
                    star[a | b] == star[a] | star[b] for a in star for b in star
                )
                report = laws.check_kuratowski(space, spec)
                assert report.idempotent.holds == idem
                assert report.additive.holds == addv

    def test_frozen_pre_star_axioms(self, space_b):
        report = laws.check_kuratowski(space_b, ops.LOCAL_FN_ALIASES["pstar"])
        assert report.idempotent.holds
        w = report.additive.witness
        assert (w.bindings, w.lhs, w.rhs, w.operation) == (
            (("A", 4), ("B", 8)), 15, 12, "additive",
        )
        assert report.first_violation == ("additive", report.additive)
        assert [report.verdict(a).holds for a in KURATOWSKI_AXIOMS] == [
            True, True, True, False,
        ]

    def test_clstar_alias_composition(self, space_a):
        fn = ops.resolve_operator("clstar:sstar")
        for a in range(space_a.n_subsets):
            assert fn(space_a, a) == a | ops.unary_table(space_a, "sstar")[a]
        assert ops.resolve_operator("clstar:clstar:int")(space_a, 5) == (
            5 | ops.interior(space_a, 5)
        )


class TestStarTopology:
    def test_plain_open_star_topology_refines_base(self, small_spaces):
        spec = ops.LOCAL_FN_ALIASES["star"]
        for space in small_spaces:
            topo = laws.star_topology(space, spec)
            assert set(space.topology.family) <= set(topo.family)

    def test_opens_are_complements_of_star_fixed_sets(self, space_a):
        spec = ops.LOCAL_FN_ALIASES["star"]
        topo = laws.star_topology(space_a, spec)
        full = space_a.ground.universe
        for a in range(space_a.n_subsets):
            closed = full ^ a
            fixed = ops.cl_star(space_a, spec, closed) == closed
            assert (a in topo.family) == fixed

    def test_discrete_ideal_gives_discrete_star_topology(self, space_a):
        space = Space(
            space_a.ground,
            space_a.topology,
            generate_ideal([space_a.ground.universe], space_a.ground),
        )
        topo = laws.star_topology(space, ops.LOCAL_FN_ALIASES["star"])
        assert len(topo.family) == space.n_subsets

    def test_refusal_carries_axiom_and_witness(self, space_b):
        for alias in ("pstar", "betastar"):
            with pytest.raises(laws.StarTopologyRefused) as exc:
                laws.star_topology(space_b, ops.LOCAL_FN_ALIASES[alias])
            assert exc.value.axiom == "additive"
            assert exc.value.verdict.witness.bindings == (("A", 4), ("B", 8))
            assert "additive" in str(exc.value)


class TestAliasSurface:
    def test_alias_tables_agree_with_resolved_operators(self, space_a):
        for name in ("int", "cl", "der", "scl", "pcl", "bcl", "betacl", "star", "psixip"):
            fn = ops.resolve_operator(name)
            assert ops.unary_table(space_a, name) == tuple(
                fn(space_a, a) for a in range(space_a.n_subsets)
            )

    def test_unary_table_is_memoized(self, space_b):
        assert ops.unary_table(space_b, "g") is ops.unary_table(space_b, "g")

    def test_unknown_alias(self, space_a):
        assert ops.resolve_operator("nope") is None
        assert ops.resolve_operator("clstar:nope") is None
        with pytest.raises(KeyError):
            ops.unary_table(space_a, "nope")

    def test_operator_names_cover_table(self):
        names = ops.operator_names()
        assert names[-1] == "clstar:<op>"
        assert set(names[:-1]) == set(ops.OPERATORS)
        assert len(ops.OPERATORS) == 29

    def test_alias_and_oracle_key_tables_agree(self):
        assert set(ops.LOCAL_FN_ALIASES) == set(oracle.NAMED_LOCAL_FNS)
        for alias, spec in ALL_SPECS:
            nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
            assert spec.nbhd.value == nbhd
            assert (spec.cl.value if spec.cl else None) == cl

    def test_generalized_closure_aliases(self, space_a):
        for alias, kind in (("scl", ops.OpenKind.SEMI), ("betacl", ops.OpenKind.BETA)):
            assert ops.unary_table(space_a, alias) == ops.kclosure_table(space_a, kind)

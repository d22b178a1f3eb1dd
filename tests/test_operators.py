"""Operator layer against the definition-literal oracle.

Every exhaustive sweep covers all 250 labeled spaces on up to three points;
the two four-point reference spaces pin frozen tables that were derived by
hand and are re-confirmed against the oracle inside the test, so a wrong
frozen value and a wrong engine disagree loudly.
"""

import pytest

import oracle
from idealtop import dsl, laws
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
            cl = ops.unary_table(space, "cl")
            for a in range(space.n_subsets):
                assert cl[a] == a | ops.derived_set(space, a)

    def test_interior_closure_duality(self, space_a):
        full = space_a.ground.universe
        it, cl = ops.unary_table(space_a, "int"), ops.unary_table(space_a, "cl")
        for a in range(space_a.n_subsets):
            assert it[a] == full ^ cl[full ^ a]


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
                table = ops.kclosure_table(space, kind)
                for a in range(space.n_subsets):
                    want = oracle.kind_closure(
                        topo, points, kind.value, oracle.bits_to_set(space.ground, a)
                    )
                    assert oracle.bits_to_set(space.ground, table[a]) == want

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
            for alias in ops.LOCAL_FN_ALIASES:
                assert ops.unary_table(space, alias) == oracle_table(space, alias)

    def test_tables_match_oracle_on_reference_spaces(self, space_a, space_b):
        for space in (space_a, space_b):
            for alias in ops.LOCAL_FN_ALIASES:
                assert ops.unary_table(space, alias) == oracle_table(space, alias)

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
        star = ops.unary_table(space_a, "clstar:sstar")
        for a in range(space_a.n_subsets):
            assert star[a] == a | ops.unary_table(space_a, "sstar")[a]
        assert ops.unary_table(space_a, "clstar:clstar:int")[5] == (
            5 | ops.unary_table(space_a, "int")[5]
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
        topo = laws.star_topology(space, ops.LOCAL_FN_ALIASES["star"])
        assert len(topo.family) == space.n_subsets

    def test_refusal_carries_axiom_and_witness(self, space_b):
        for alias in ("pstar", "betastar"):
            with pytest.raises(laws.StarTopologyRefused) as exc:
                laws.star_topology(space_b, ops.LOCAL_FN_ALIASES[alias])
            assert exc.value.axiom == "additive"
            assert exc.value.verdict.witness.bindings == (("A", 4), ("B", 8))
            assert "additive" in str(exc.value)


def oracle_alias_tables(space):
    """Every alias and its ``clstar:`` form, by definition over the oracle."""
    topo, ideal, points = oracle.space_to_oracle(space)
    ground, full = space.ground, space.ground.universe
    sets = [oracle.bits_to_set(ground, a) for a in range(space.n_subsets)]
    bits = lambda values: tuple(oracle.set_to_bits(ground, v) for v in values)
    out = {
        "int": bits(oracle.interior(topo, a) for a in sets),
        "cl": bits(oracle.closure(topo, points, a) for a in sets),
        "der": bits(oracle.derived_set(topo, points, a) for a in sets),
    }
    for name, kind in (("scl", oracle.SEMI), ("pcl", oracle.PRE),
                       ("bcl", oracle.B), ("betacl", oracle.BETA)):
        out[name] = bits(oracle.kind_closure(topo, points, kind, a) for a in sets)
    for alias, (nbhd, cl) in oracle.NAMED_LOCAL_FNS.items():
        table = oracle.local_function_table(topo, ideal, points, nbhd, cl)
        out[alias] = bits(table[a] for a in sets)
        out[ops.PSI_ALIAS[alias]] = tuple(full ^ out[alias][full ^ a] for a in range(full + 1))
    for name in list(out):
        out["clstar:" + name] = tuple(a | out[name][a] for a in range(full + 1))
    return out


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
        assert sorted(space._cache) == ["clstar:psixis", "psixis", "xis"]

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
        assert set(ops.LOCAL_FN_ALIASES) == set(oracle.NAMED_LOCAL_FNS)
        for alias, spec in ALL_SPECS:
            nbhd, cl = oracle.NAMED_LOCAL_FNS[alias]
            assert spec.nbhd.value == nbhd
            assert (spec.cl.value if spec.cl else None) == cl

    def test_generalized_closure_aliases(self, space_a):
        for alias, kind in (("scl", ops.OpenKind.SEMI), ("betacl", ops.OpenKind.BETA)):
            assert ops.unary_table(space_a, alias) == ops.kclosure_table(space_a, kind)

"""Ground sets, families, axiom validators, generators, and documents.

Exhaustive checks run against the definition-literal oracle on up to three
points; validator witnesses are pinned to exact first-failure pairs so the
deterministic scan order stays part of the contract.
"""

import json
from itertools import combinations

import pytest

import oracle
from idealtop.operators import OpenKind, kopen_at
from idealtop.space import (
    Family,
    GroundSet,
    Ideal,
    IdealAxiomError,
    SchemaError,
    Space,
    Topology,
    TopologyAxiomError,
    UnknownLabelError,
    generate_ideal,
    generate_topology,
    parse_space,
    serialize_space,
    space_from_document,
    space_to_document,
    validate_ideal,
    validate_topology,
)

G3 = GroundSet(("w1", "w2", "w3"))
G4 = GroundSet(("w1", "w2", "w3", "w4"))


class TestGroundSet:
    def test_bit_order_follows_declaration(self):
        g = GroundSet(("b", "a", "c"))
        assert g.bit("b") == 0
        assert g.bit("a") == 1
        assert g.subset(["c", "b"]) == 0b101
        assert g.universe == 7
        assert g.n == 3

    def test_labels_of_and_format(self):
        assert G4.labels_of(0b0101) == ("w1", "w3")
        assert G4.format(0b0101) == "{w1,w3}"
        assert G4.format(0) == "{}"
        assert G4.format(15) == "{w1,w2,w3,w4}"

    def test_parse_subset_forms(self):
        assert G4.parse_subset("w1,w3") == 5
        assert G4.parse_subset("{w1,w3}") == 5
        assert G4.parse_subset(" { w3 , w1 } ") == 5
        assert G4.parse_subset("") == 0
        assert G4.parse_subset("{}") == 0

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            G4.bit("w9")
        with pytest.raises(UnknownLabelError):
            G4.parse_subset("w1,w9")

    @pytest.mark.parametrize(
        "labels",
        [(), tuple(f"p{i}" for i in range(9)), ("a", "a"), ("a", ""), ("a", "b,c"), ("a", "{b}"), ("a", "b c")],
    )
    def test_rejected_label_tuples(self, labels):
        with pytest.raises(ValueError):
            GroundSet(labels)

    def test_labels_may_be_any_delimiter_free_text(self):
        g = GroundSet(("0", "x-1", "π"))
        assert g.subset(["π", "0"]) == 0b101
        assert g.format(0b110) == "{x-1,π}"


class TestFamily:
    def test_canonicalizes_order_and_duplicates(self):
        fam = Family((7, 0, 3, 3, 0))
        assert fam.members == (0, 3, 7)
        assert fam == Family((0, 3, 7))

    def test_membership_is_mask_based(self):
        fam = Family((0, 5))
        assert 5 in fam
        assert 4 not in fam
        assert -1 not in fam
        assert list(fam) == [0, 5]
        assert len(fam) == 2

    def test_rejects_negative_masks(self):
        with pytest.raises(ValueError):
            Family((0, -2))

    def test_mask_ignored_by_equality(self):
        assert Family((0, 1)).mask == 0b11
        assert Family((0, 1)) == Family((1, 0, 1))


class TestValidateTopology:
    def test_accepts_all_oracle_topologies(self):
        for n in (1, 2, 3):
            g = GroundSet(tuple(f"w{i + 1}" for i in range(n)))
            for topo in oracle.all_topologies(list(g.labels)):
                fam = Family(tuple(oracle.set_to_bits(g, s) for s in topo))
                assert validate_topology(fam, g) is None

    def test_missing_empty(self):
        issue = validate_topology(Family((1, 7)), G3)
        assert issue.kind == "missing-empty"
        assert "empty set" in issue.describe(G3)

    def test_missing_universe(self):
        issue = validate_topology(Family((0, 1)), G3)
        assert issue.kind == "missing-universe"

    def test_first_failing_pair_is_lexicographic(self):
        # (1,2), (1,4) and (2,4) all fail; lexicographically first wins.
        issue = validate_topology(Family((0, 1, 2, 4, 15)), G4)
        assert (issue.kind, issue.pair, issue.missing) == ("union", (1, 2), 3)

    def test_union_checked_before_intersection(self):
        # for the pair (3,6) both 3|6=7 and 3&6=2 are absent
        issue = validate_topology(Family((0, 3, 6, 15)), G4)
        assert (issue.kind, issue.pair, issue.missing) == ("union", (3, 6), 7)

    def test_intersection_failure(self):
        issue = validate_topology(Family((0, 3, 5, 7)), G3)
        assert (issue.kind, issue.pair, issue.missing) == ("inter", (3, 5), 1)
        assert "∩" in issue.describe(G3)

    def test_out_of_range_mask(self):
        with pytest.raises(ValueError):
            validate_topology(Family((0, 7, 16)), G3)


class TestValidateIdeal:
    def test_accepts_all_oracle_ideals(self):
        for n in (1, 2, 3):
            g = GroundSet(tuple(f"w{i + 1}" for i in range(n)))
            for ideal in oracle.all_ideals(list(g.labels)):
                fam = Family(tuple(oracle.set_to_bits(g, s) for s in ideal))
                assert validate_ideal(fam, g) is None

    def test_accepts_exactly_the_oracle_ideals(self):
        # every family of subsets of three points, ideal or not
        points = list(G3.labels)
        for mask in range(1 << 8):
            members = tuple(s for s in range(8) if mask >> s & 1)
            family = frozenset(oracle.bits_to_set(G3, s) for s in members)
            issue = validate_ideal(Family(members), G3)
            assert (issue is None) == oracle.is_ideal(family, points)

    def test_missing_empty(self):
        assert validate_ideal(Family((1,)), G3).kind == "missing-empty"

    def test_heredity_reports_smallest_missing_subset(self):
        issue = validate_ideal(Family((0, 3)), G3)
        assert (issue.kind, issue.member, issue.missing) == ("heredity", 3, 1)
        assert "heredity" in issue.describe(G3)

    def test_heredity_checked_before_union(self):
        # 6 misses subset 2 before the union check could see pair (1,6)
        issue = validate_ideal(Family((0, 1, 6)), G3)
        assert (issue.kind, issue.member, issue.missing) == ("heredity", 6, 2)

    def test_union_failure(self):
        issue = validate_ideal(Family((0, 1, 2)), G3)
        assert (issue.kind, issue.pair, issue.missing) == ("union", (1, 2), 3)


class TestGenerators:
    def test_topology_from_subbase_example(self):
        topo = generate_topology([3, 5], G3)
        assert topo.family.members == (0, 1, 3, 5, 7)

    def test_empty_subbase_gives_indiscrete(self):
        assert generate_topology([], G3).family.members == (0, 7)

    def test_generated_topologies_are_minimal(self):
        # against the oracle: smallest topology containing the subbase is
        # the intersection of all topologies that contain it
        labels = ["w1", "w2", "w3"]
        every = oracle.all_topologies(labels)
        pool = [s for s in oracle.powerset(labels)]
        for size in (0, 1, 2):
            for subbase in combinations(pool, size):
                want = frozenset.intersection(
                    *(frozenset(t) for t in every if set(subbase) <= t)
                )
                got = generate_topology(
                    [oracle.set_to_bits(G3, s) for s in subbase], G3
                )
                assert {oracle.bits_to_set(G3, m) for m in got.family} == want

    def test_topology_generation_is_idempotent(self):
        for topo in oracle.all_topologies(["w1", "w2", "w3"]):
            masks = [oracle.set_to_bits(G3, s) for s in topo]
            assert generate_topology(masks, G3).family == Family(tuple(masks))

    def test_ideal_from_generators_is_powerset_of_union(self):
        ideal = generate_ideal([1, 4], G3)
        assert ideal.family.members == (0, 1, 4, 5)
        assert generate_ideal([], G3).family.members == (0,)

    def test_generated_ideals_are_minimal(self):
        labels = ["w1", "w2", "w3"]
        every = oracle.all_ideals(labels)
        pool = [s for s in oracle.powerset(labels)]
        for size in (0, 1, 2):
            for gens in combinations(pool, size):
                want = frozenset.intersection(
                    *(frozenset(i) for i in every if set(gens) <= i)
                )
                got = generate_ideal([oracle.set_to_bits(G3, s) for s in gens], G3)
                assert {oracle.bits_to_set(G3, m) for m in got.family} == want

    def test_generator_range_checks(self):
        with pytest.raises(ValueError):
            generate_topology([8], G3)
        with pytest.raises(ValueError):
            generate_ideal([-1], G3)


class TestSpace:
    def test_constructor_revalidates(self):
        with pytest.raises(TopologyAxiomError):
            Space(G3, Topology(Family((0, 1, 2, 7))), Ideal(Family((0,))))
        with pytest.raises(IdealAxiomError):
            Space(G3, Topology(Family((0, 7))), Ideal(Family((0, 3))))

    def test_interior_closure_tables_match_oracle(self, small_spaces):
        for space in small_spaces:
            topo, _, points = oracle.space_to_oracle(space)
            for a in range(space.n_subsets):
                aset = oracle.bits_to_set(space.ground, a)
                assert (
                    oracle.bits_to_set(space.ground, space.int_table[a])
                    == oracle.interior(topo, aset)
                )
                assert (
                    oracle.bits_to_set(space.ground, space.cl_table[a])
                    == oracle.closure(topo, points, aset)
                )

    def test_opens_at_lists_open_neighborhoods(self, space_a):
        # point w1 is bit 0: opens containing it are {w1}, {w1,w2}, X
        opens_at = kopen_at(space_a, OpenKind.OPEN)
        assert opens_at[0] == (1, 3, 15)
        assert opens_at[2] == (15,)


class TestDocuments:
    def test_round_trip_explicit(self, space_a):
        text = serialize_space(space_a, name="demo")
        again = parse_space(text)
        assert again == space_a
        doc = json.loads(text)
        assert doc["name"] == "demo"
        assert doc["points"] == ["w1", "w2", "w3", "w4"]

    def test_subbase_and_generator_form(self):
        space = space_from_document(
            {
                "points": ["w1", "w2", "w3"],
                "topology_subbase": [["w1", "w2"], ["w1", "w3"]],
                "ideal_generators": [["w2"]],
            }
        )
        assert space.topology.family.members == (0, 1, 3, 5, 7)
        assert space.ideal.family.members == (0, 2)

    def test_document_round_trip_for_all_small_spaces(self, small_spaces):
        for space in small_spaces[::7]:
            assert parse_space(serialize_space(space)) == space

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"points": ["w1"], "topology": [[]], "ideal": [[]], "extra": 1},
            {"topology": [[]], "ideal": [[]]},
            {"points": "w1", "topology": [[]], "ideal": [[]]},
            {"points": ["w1"], "ideal": [[]]},
            {
                "points": ["w1"],
                "topology": [[], ["w1"]],
                "topology_subbase": [],
                "ideal": [[]],
            },
            {"points": ["w1"], "topology": [[], ["w1"]]},
            {"points": ["w1"], "topology": [[], ["w1"]], "ideal": [[]], "ideal_generators": []},
            {"points": ["w1"], "topology": "nope", "ideal": [[]]},
            {"points": ["w1"], "topology": [["w1", 3]], "ideal": [[]]},
            {"points": ["w1", "w1"], "topology": [[], ["w1"]], "ideal": [[]]},
        ],
    )
    def test_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            space_from_document(doc)

    def test_axiom_errors_carry_issue(self):
        with pytest.raises(TopologyAxiomError) as exc:
            space_from_document(
                {
                    "points": ["w1", "w2", "w3"],
                    "topology": [[], ["w1"], ["w2"], ["w1", "w2", "w3"]],
                    "ideal": [[]],
                }
            )
        assert (exc.value.issue.kind, exc.value.issue.pair) == ("union", (1, 2))
        with pytest.raises(IdealAxiomError) as exc:
            space_from_document(
                {"points": ["w1", "w2"], "topology": [[], ["w1", "w2"]], "ideal": [[], ["w1", "w2"]]}
            )
        assert exc.value.issue.kind == "heredity"

    def test_unknown_label_in_subset(self):
        with pytest.raises(UnknownLabelError):
            space_from_document(
                {"points": ["w1"], "topology": [[], ["w2"]], "ideal": [[]]}
            )

    def test_invalid_json_reports_schema_error(self):
        with pytest.raises(SchemaError):
            parse_space("{not json")

    def test_document_key_order_is_stable(self, space_b):
        assert list(space_to_document(space_b, name="x")) == ["name", "points", "topology", "ideal"]

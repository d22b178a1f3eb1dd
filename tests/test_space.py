"""Ground sets, families, axiom validators, generators, and documents.

Exhaustive checks run against the definition-literal oracle on up to three
points; validator witnesses are pinned to exact first-failure pairs so the
deterministic scan order stays part of the contract.
"""

import copy
import json
import pickle
import random
import re
from itertools import combinations

import pytest

import oracle
from idealtop import search
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
    dual,
    generate_ideal,
    generate_topology,
    lanes,
    nonzero,
    parse_space,
    serialize_space,
    space_from_document,
    space_to_document,
    union_below,
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

    def test_label_given_twice(self):
        message = "^point label 'w3' listed twice in one subset$"
        with pytest.raises(SchemaError, match=message):
            G4.subset(["w3", "w1", "w3"])
        with pytest.raises(SchemaError, match=message):
            G4.parse_subset("{w3, w3}")

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
        error = validate_topology(Family((1, 7)), G3)
        assert error.kind == "missing-empty"
        assert "empty set" in str(error)

    def test_missing_universe(self):
        error = validate_topology(Family((0, 1)), G3)
        assert error.kind == "missing-universe"

    def test_first_failing_pair_is_lexicographic(self):
        # (1,2), (1,4) and (2,4) all fail; lexicographically first wins.
        error = validate_topology(Family((0, 1, 2, 4, 15)), G4)
        assert (error.kind, error.pair, error.missing) == ("union", (1, 2), 3)

    def test_union_checked_before_intersection(self):
        # for the pair (3,6) both 3|6=7 and 3&6=2 are absent
        error = validate_topology(Family((0, 3, 6, 15)), G4)
        assert (error.kind, error.pair, error.missing) == ("union", (3, 6), 7)

    def test_intersection_failure(self):
        error = validate_topology(Family((0, 3, 5, 7)), G3)
        assert (error.kind, error.pair, error.missing) == ("inter", (3, 5), 1)
        assert "∩" in str(error)

    def test_out_of_range_mask(self):
        with pytest.raises(ValueError):
            validate_topology(Family((0, 7, 16)), G3)

    def test_accepts_exactly_the_oracle_topologies(self):
        # every family of subsets of at most three points, topology or not
        for n in (1, 2, 3):
            ground = GroundSet(tuple(f"w{i + 1}" for i in range(n)))
            points = list(ground.labels)
            for mask in range(1 << (1 << n)):
                members = tuple(s for s in range(1 << n) if mask >> s & 1)
                family = frozenset(oracle.bits_to_set(ground, s) for s in members)
                error = validate_topology(Family(members), ground)
                assert (error is None) == oracle.is_topology(family, points), members

    def test_first_failure_matches_an_ordered_pair_scan_on_four_points(self):
        def pair_scan(family, ground):
            """(kind, pair, missing) of the first failure, and its message:
            pairs in lexicographic order, each one's union before its
            intersection."""
            members, f = family.members, ground.format
            if 0 not in members:
                return ("missing-empty", None, None), "topology must contain the empty set"
            if ground.universe not in members:
                message = "topology must contain the whole ground set"
                return ("missing-universe", None, None), message
            for i, a in enumerate(members):
                for b in members[i:]:
                    for kind, op, c in (("union", "∪", a | b), ("inter", "∩", a & b)):
                        if c not in members:
                            return (kind, (a, b), c), (
                                f"topology not closed under {kind}: {f(a)} {op} {f(b)} = {f(c)} "
                                "is missing"
                            )
            return None

        # half the families are a random topology with one subset toggled,
        # so intersection failures and passes occur as well as unions
        rng = random.Random(20260420)
        kinds = set()
        for _ in range(1500):
            if rng.random() < 0.5:
                members = {s for s in range(16) if rng.random() < 0.5}
            else:
                subbase = [rng.randrange(16) for _ in range(rng.randrange(1, 4))]
                members = set(generate_topology(subbase, G4)) ^ {rng.randrange(16)}
            family = Family(members)
            error = validate_topology(family, G4)
            expected = pair_scan(family, G4)
            if error is None:
                assert expected is None, family
            else:
                assert ((error.kind, error.pair, error.missing), str(error)) == expected, family
            kinds.add(None if error is None else error.kind)
        assert kinds == {None, "missing-empty", "missing-universe", "union", "inter"}


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
            error = validate_ideal(Family(members), G3)
            assert (error is None) == oracle.is_ideal(family, points)

    def test_missing_empty(self):
        assert validate_ideal(Family((1,)), G3).kind == "missing-empty"

    def test_heredity_reports_smallest_missing_subset(self):
        error = validate_ideal(Family((0, 3)), G3)
        assert (error.kind, error.member, error.missing) == ("heredity", 3, 1)
        assert "heredity" in str(error)

    def test_heredity_checked_before_union(self):
        # 6 misses subset 2 before the union check could see pair (1,6)
        error = validate_ideal(Family((0, 1, 6)), G3)
        assert (error.kind, error.member, error.missing) == ("heredity", 6, 2)

    def test_union_failure(self):
        error = validate_ideal(Family((0, 1, 2)), G3)
        assert (error.kind, error.pair, error.missing) == ("union", (1, 2), 3)

    def test_same_first_issue_as_a_scan_of_every_smaller_mask(self):
        # heredity walks the submasks of each member; checking every mask
        # below it instead must report the same first issue and message
        def every_mask_scan(family, ground):
            """(kind, member, pair, missing) of the first failure, and its message."""
            members, mask, f = family.members, family.mask, ground.format
            if 0 not in family:
                return ("missing-empty", None, None, None), "ideal must contain the empty set"
            for b in members:
                for t in range(b):
                    if t & b == t and not mask >> t & 1:
                        return ("heredity", b, None, t), (
                            f"ideal violates heredity: {f(b)} is a member but its subset "
                            f"{f(t)} is not"
                        )
            for i, a in enumerate(members):
                for b in members[i:]:
                    if not mask >> (a | b) & 1:
                        return ("union", None, (a, b), a | b), (
                            f"ideal not closed under union: {f(a)} ∪ {f(b)} = {f(a | b)} "
                            "is missing"
                        )
            return None

        kinds = set()
        for n in (1, 2, 3):
            ground = GroundSet(tuple(f"w{i + 1}" for i in range(n)))
            for mask in range(1 << (1 << n)):
                family = Family(s for s in range(1 << n) if mask >> s & 1)
                error = validate_ideal(family, ground)
                expected = every_mask_scan(family, ground)
                if error is None:
                    assert expected is None, family
                else:
                    fields = (error.kind, error.member, error.pair, error.missing)
                    assert (fields, str(error)) == expected, family
                kinds.add(None if error is None else error.kind)
        assert kinds == {None, "missing-empty", "heredity", "union"}


class TestIdeal:
    def test_members_are_the_submasks_of_top_ascending(self):
        for top in range(1 << 8):
            members = tuple(Ideal(top))
            assert members == tuple(s for s in range(top + 1) if s & ~top == 0)
            assert len(Ideal(top)) == len(members) == 1 << bin(top).count("1")

    def test_the_ideals_are_the_families_that_pass_validation(self):
        passing = {
            members
            for mask in range(1 << 8)
            for members in [tuple(s for s in range(8) if mask >> s & 1)]
            if validate_ideal(Family(members), G3) is None
        }
        assert passing == {tuple(Ideal(top)) for top in range(8)}

    def test_rejects_a_negative_top(self):
        # no ideal has it: its submask walk would never end
        with pytest.raises(ValueError, match="^subset masks must be non-negative$"):
            Ideal(-1)


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

    def test_generated_topology_matches_pairwise_closure(self):
        # seeded differential past the exhaustive oracle range: the
        # minimal-neighbourhood construction against literal closure
        rng = random.Random(20240607)
        for _ in range(400):
            n = rng.randint(4, 8)
            ground = GroundSet(tuple(f"p{i}" for i in range(n)))
            subbase = [rng.randint(0, ground.universe) for _ in range(rng.randint(0, 6))]
            got = generate_topology(subbase, ground)
            want = oracle.generated_topology(
                [oracle.bits_to_set(ground, s) for s in subbase], ground.labels
            )
            assert {oracle.bits_to_set(ground, m) for m in got.family} == want

    def test_ideal_from_generators_is_powerset_of_union(self):
        ideal = generate_ideal([1, 4], G3)
        assert ideal == Ideal(5)
        assert tuple(ideal) == (0, 1, 4, 5)
        assert generate_ideal([], G3) == Ideal(0)

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
                assert {oracle.bits_to_set(G3, m) for m in got} == want

    def test_generator_range_checks(self):
        with pytest.raises(ValueError):
            generate_topology([8], G3)
        with pytest.raises(ValueError):
            generate_ideal([-1], G3)

    @pytest.mark.parametrize(
        "call, args, message",
        [
            # checked when called, before the first topology is asked for
            (search.enumerate_topologies, (2, "bogus"), "unknown enumeration mode 'bogus'"),
            (generate_topology, ((99,), GroundSet(("a", "b"))), "subbase mask 99 out of range"),
            (generate_ideal, ((99,), GroundSet(("a", "b"))), "generator mask 99 out of range"),
        ],
        ids=["enumeration-mode", "subbase-mask", "generator-mask"],
    )
    def test_input_errors_name_the_bad_value(self, call, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(*args)


class TestSpace:
    def test_constructor_revalidates(self):
        with pytest.raises(TopologyAxiomError):
            Space(G3, Topology(Family((0, 1, 2, 7))), Ideal(0))
        with pytest.raises(ValueError, match="^subset mask 8 out of range for 3 points$"):
            Space(G3, Topology(Family((0, 7))), Ideal(8))

    def test_interior_closure_tables_match_oracle(self, small_spaces):
        for space in small_spaces:
            topo, _, points = oracle.space_to_oracle(space)
            for a in range(space.n_subsets):
                aset = oracle.bits_to_set(space.ground, a)
                assert (
                    oracle.bits_to_set(space.ground, space.tables["int"][a])
                    == oracle.interior(topo, aset)
                )
                assert (
                    oracle.bits_to_set(space.ground, space.tables["cl"][a])
                    == oracle.closure(topo, points, aset)
                )


class TestLanes:
    def test_nonzero_on_every_byte_between_empty_and_full_lanes(self):
        # A carry into a neighbouring lane, from either side, would flip
        # that lane's answer or this one's.
        ones = int.from_bytes(b"\1" * 3, "little")
        for v in range(256):
            want = int(v != 0)
            for low, high in ((0x00, 0xFF), (0xFF, 0x00)):
                x = int.from_bytes(bytes((low, v, high)), "little")
                got = nonzero(x, ones).to_bytes(3, "little")
                assert got == bytes((int(low != 0), want, int(high != 0))), (v, low)

    def test_lanes_hold_ones_and_identity(self):
        for n in range(1, 9):
            ones, identity = lanes(n)
            assert ones.to_bytes(1 << n, "little") == b"\1" * (1 << n)
            assert identity.to_bytes(1 << n, "little") == bytes(range(1 << n))

    def test_union_below_and_dual(self):
        # {w1} and {w2} alone, not union-closed: lane {w1,w2} still holds
        # the union of both
        assert union_below([(1, 1), (2, 2)], 2).to_bytes(4, "little") == bytes((0, 1, 2, 3))
        assert union_below([(3, 3)], 2).to_bytes(4, "little") == bytes((0, 0, 0, 3))
        # the dual of that interior is the closure of the indiscrete topology
        assert dual(union_below([(0, 0), (3, 3)], 2), 2).to_bytes(4, "little") == bytes((0, 3, 3, 3))
        # members filed under a key reach the lanes above the key, not
        # above the member; two members under one key are unioned
        assert union_below([(2, 1)], 2).to_bytes(4, "little") == bytes((0, 0, 1, 1))
        assert union_below([(3, 1), (3, 2)], 2).to_bytes(4, "little") == bytes((0, 0, 0, 3))


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
        assert space.ideal == Ideal(2)

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

    def test_name_must_be_a_string(self):
        doc = {"name": [1, 2], "points": ["w1"], "topology": [[], ["w1"]], "ideal": [[]]}
        with pytest.raises(SchemaError, match="^'name' must be a string$"):
            space_from_document(doc)
        doc["name"] = "ok"
        assert space_from_document(doc).ground.labels == ("w1",)

    def test_axiom_errors_carry_issue(self):
        with pytest.raises(TopologyAxiomError) as exc:
            space_from_document(
                {
                    "points": ["w1", "w2", "w3"],
                    "topology": [[], ["w1"], ["w2"], ["w1", "w2", "w3"]],
                    "ideal": [[]],
                }
            )
        assert (exc.value.kind, exc.value.pair) == ("union", (1, 2))
        with pytest.raises(IdealAxiomError) as exc:
            space_from_document(
                {"points": ["w1", "w2"], "topology": [[], ["w1", "w2"]], "ideal": [[], ["w1", "w2"]]}
            )
        assert exc.value.kind == "heredity"

    @pytest.mark.parametrize(
        "validate, members, kind",
        [
            (validate_topology, (1, 7), "missing-empty"),
            (validate_topology, (0, 1), "missing-universe"),
            (validate_topology, (0, 1, 2, 7), "union"),
            (validate_topology, (0, 3, 5, 7), "inter"),
            (validate_ideal, (1,), "missing-empty"),
            (validate_ideal, (0, 3), "heredity"),
            (validate_ideal, (0, 1, 2), "union"),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_axiom_errors_pickle_and_copy(self, validate, members, kind):
        error = validate(Family(members), G3)
        assert error.kind == kind and error.ground == G3
        clones = lambda value: (
            pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)
        )
        for clone in clones(error):
            assert type(clone) is type(error)
            assert str(clone) == str(error)
            assert vars(clone) == vars(error)  # ground, kind and the failing subsets
        # and as the error of a documents-mode task's third document
        document_error = search.DocumentError(2, error)
        for clone in clones(document_error):
            assert type(clone) is search.DocumentError
            assert (clone.index, str(clone)) == (2, str(document_error))
            assert type(clone.error) is type(error) and vars(clone.error) == vars(error)

    def test_unknown_label_in_subset(self):
        with pytest.raises(UnknownLabelError):
            space_from_document(
                {"points": ["w1"], "topology": [[], ["w2"]], "ideal": [[]]}
            )
        # the message names the family key and the subset as written
        for key in ("topology", "topology_subbase", "ideal", "ideal_generators"):
            doc = {"points": ["w1", "w2"], "topology": [[], ["w1", "w2"]], "ideal": [[]]}
            del doc["topology" if key.startswith("topology") else "ideal"]
            doc[key] = [[], ["w1", "z"]]
            message = re.escape(f"""{key!r} subset ["w1", "z"]: unknown point label 'z'""")
            with pytest.raises(UnknownLabelError, match=f"^{message}$"):
                space_from_document(doc)

    @pytest.mark.parametrize(
        "key, entries, twice",
        [
            ("topology", [[], ["w1"], ["w1", "w2"], ["w1"]], "{w1}"),
            ("topology_subbase", [["w2", "w1"], ["w1", "w2"]], "{w1,w2}"),
            ("ideal", [[], ["w1"], []], "{}"),
            ("ideal_generators", [["w1"], ["w1"]], "{w1}"),
        ],
    )
    def test_subset_listed_twice_is_refused(self, key, entries, twice):
        # listed again, in any label order, a subset would be merged unseen
        doc = {"points": ["w1", "w2"], "topology": [[], ["w1", "w2"]], "ideal": [[]]}
        del doc["topology" if key.startswith("topology") else "ideal"]
        doc[key] = entries
        message = re.escape(f"'{key}' lists the subset {twice} twice")
        with pytest.raises(SchemaError, match=f"^{message}$"):
            space_from_document(doc)
        entries.pop()  # listed once, the document is a space
        space_from_document(doc)

    @pytest.mark.parametrize("key", ["topology", "topology_subbase", "ideal", "ideal_generators"])
    def test_label_listed_twice_in_a_subset_is_refused(self, key):
        doc = {"points": ["w1", "w2"], "topology": [[], ["w1", "w2"]], "ideal": [[]]}
        del doc["topology" if key.startswith("topology") else "ideal"]
        doc[key] = [[], ["w2", "w1", "w2"]]
        message = re.escape(
            f"""{key!r} subset ["w2", "w1", "w2"]: point label 'w2' listed twice in one subset"""
        )
        with pytest.raises(SchemaError, match=f"^{message}$"):
            space_from_document(doc)

    def test_topology_error_outranks_unknown_ideal_label(self):
        doc = {
            "points": ["a", "b", "c"],
            "topology": [[], ["a"], ["b"], ["a", "b", "c"]],
            "ideal": [["zz"]],
        }
        message = re.escape("topology not closed under union: {a} ∪ {b} = {a,b} is missing")
        with pytest.raises(TopologyAxiomError, match=f"^{message}$"):
            space_from_document(doc)
        task = search.SearchTask("A <= X", 0, mode="documents", documents=(json.dumps(doc),))
        with pytest.raises(search.DocumentError, match=f"^document 1: {message}$"):
            search.run_search(task)

    def test_invalid_json_reports_schema_error(self):
        with pytest.raises(SchemaError):
            parse_space("{not json")

    @pytest.mark.parametrize("label", ["a\v", "b\u00a0", "c\u2028d"])
    def test_labels_with_any_whitespace_are_refused(self, label):
        # ``parse_subset`` strips whitespace, so such a point could never be bound
        doc = {"points": [label, "e"], "topology": [[], [label, "e"]], "ideal": [[]]}
        with pytest.raises(SchemaError, match=f"^bad point label {re.escape(repr(label))}$"):
            parse_space(json.dumps(doc))

    def test_duplicate_key_is_a_schema_error(self):
        # json would keep the second "points" list without a word
        text = '{"points": ["a"], "points": ["w1", "w2"], "topology": [[]], "ideal": [[]]}'
        with pytest.raises(SchemaError, match="^duplicate key 'points'$"):
            parse_space(text)

    def test_document_key_order_is_stable(self, space_b):
        assert list(space_to_document(space_b, name="x")) == ["name", "points", "topology", "ideal"]

"""Topology tables shared across ideals, checked past three points.

Spaces on one ``Topology`` object share the tables dict that the topology
holds, and a local function is read as ``H[a & ~top]`` off an ideal-free
hit table. The differential draws seeded random spaces on five and six
points, several ideals per topology in a row so the held tables are
reused, and holds every local-function table and its dual to the
definition-literal oracle. The isolation tests hold every table to a
recomputation on a new ``Topology`` object, which holds nothing yet.
"""

import random

import pytest

import oracle
from idealtop import operators as ops
from idealtop.search import default_labels, enumerate_ideals, enumerate_topologies
from idealtop.space import (
    Family,
    GroundSet,
    Ideal,
    IdealAxiomError,
    Space,
    Topology,
    TopologyAxiomError,
    generate_ideal,
    generate_topology,
    space_from_document,
)

SEED = 20240605
TOPOLOGIES_PER_N = {5: 10, 6: 6}
IDEALS_PER_TOPOLOGY = 3

G2 = GroundSet(("w1", "w2"))
G3 = GroundSet(("w1", "w2", "w3"))
G4 = GroundSet(("w1", "w2", "w3", "w4"))


def random_spaces():
    rng = random.Random(SEED)
    for n, count in TOPOLOGIES_PER_N.items():
        ground = GroundSet(tuple(f"p{i + 1}" for i in range(n)))
        full = ground.universe
        for _ in range(count):
            subbase = rng.sample(range(1, full), rng.randint(1, 4))
            topology = generate_topology(subbase, ground)
            for _ in range(IDEALS_PER_TOPOLOGY):
                ideal = generate_ideal([rng.randrange(full + 1)], ground)
                yield Space(ground, topology, ideal)


def oracle_tables(space, nbhd, cl):
    """Oracle local-function table and its dual, as ``bytes`` of bitmasks."""
    topo, ideal, points = oracle.space_to_oracle(space)
    table = oracle.local_function_table(topo, ideal, points, nbhd, cl)
    ground, full = space.ground, space.ground.universe
    lf = bytes(
        oracle.set_to_bits(ground, table[oracle.bits_to_set(ground, a)])
        for a in range(space.n_subsets)
    )
    return lf, bytes(full ^ lf[full ^ a] for a in range(space.n_subsets))


def test_random_spaces_match_oracle():
    spaces = list(random_spaces())
    assert len(spaces) == IDEALS_PER_TOPOLOGY * sum(TOPOLOGIES_PER_N.values())
    # the spaces on one topology share its tables
    assert spaces[0].tables is spaces[1].tables is spaces[2].tables
    for space in spaces:
        for alias, (nbhd, cl) in oracle.NAMED_LOCAL_FNS.items():
            lf, dual = oracle_tables(space, nbhd, cl)
            assert ops.unary_table(space, alias) == lf, alias
            assert ops.unary_table(space, ops.PSI_ALIAS[alias]) == dual, alias


# ---------------------------------------------------------------------------
# memo isolation


def every_table(space):
    """Every table the operator layer derives from a space."""
    out = {
        "int": space.tables["int"],
        "cl": space.tables["cl"],
    }
    for kind in ops.KINDS:
        out["kopen", kind] = ops.kopen_family(space, kind)
        out["kclosure", kind] = ops.kclosure_table(space, kind)
    for nbhd, cl in ops.LOCAL_FN_ALIASES.values():
        out["hits", nbhd, cl] = ops.hit_table(space, nbhd, cl)
    for name in ops.operator_names()[:-1]:
        out["alias", name] = ops.unary_table(space, name)
        out["alias", "clstar:" + name] = ops.unary_table(space, "clstar:" + name)
    return out


def fresh(space):
    """The same space on a new ``Topology`` object, which holds no tables."""
    topology = Topology(Family(space.topology.family.members))
    assert topology._tables is None
    return Space(space.ground, topology, space.ideal)


def test_tables_equal_fresh_recomputation_across_topology_switches():
    t1 = generate_topology([3, 5], G3)
    t2 = generate_topology([1, 6], G3)
    s1 = Space(G3, t1, generate_ideal([2], G3))
    s1_again = Space(G3, t1, generate_ideal([4], G3))
    s2 = Space(G3, t2, generate_ideal([1], G3))
    s3 = Space(G3, t1, generate_ideal([0], G3))
    # a topology keeps its tables while spaces on others are built
    assert s1.tables is s1_again.tables is s3.tables is t1._tables[1]
    assert s2.tables is t2._tables[1] is not s1.tables
    assert t1._tables[0] == t2._tables[0] == 3
    # tables filled in after the switches, in interleaved order
    got = {id(s): every_table(s) for s in (s3, s1, s2, s1_again)}
    for s in (s1, s1_again, s2, s3):
        again = fresh(s)
        assert again == s and hash(again) == hash(s)
        assert got[id(s)] == every_table(again)


def test_one_topology_object_on_three_and_four_points():
    # (0, 1, 3, 7) is a topology on three points but not on four: the held
    # three-point tables must not let the four-point space through, and
    # the failure must not replace them
    for grounds in ((G3, G4, G3), (G4, G3, G4)):
        chain = Topology(Family((0, 1, 3, 7)))
        for ground in grounds:
            if ground is G4:
                with pytest.raises(TopologyAxiomError) as exc:
                    Space(ground, chain, Ideal(1))
                assert exc.value.kind == "missing-universe"
            else:
                space = Space(ground, chain, Ideal(1))
                assert every_table(space) == every_table(fresh(space))
            assert chain._tables is None or chain._tables[0] == 3
    # a four-point topology, then three points, then four again
    four = Topology(Family((0, 1, 3, 15)))
    on_four = Space(G4, four, Ideal(2))
    with pytest.raises(ValueError, match="^subset mask 15 out of range for 3 points$"):
        Space(G3, four, Ideal(0))
    assert Space(G4, four, Ideal(4)).tables is on_four.tables
    assert every_table(on_four) == every_table(fresh(on_four))
    # labels do not matter, only the point count
    relabeled = GroundSet(("a", "b", "c", "d"))
    assert Space(relabeled, four, Ideal(0)).tables is on_four.tables


def test_held_alias_tables_equal_fresh_recomputation_up_to_four_points():
    # every (topology, ideal) on n <= 4 points, the topologies shared by
    # their ideals as a search shares them: every alias table and its
    # clstar: form equals the table of a space that holds nothing yet
    aliases = [p + name for name in ops.operator_names()[:-1] for p in ("", "clstar:")]
    spaces = 0
    for n in range(1, 5):
        ground = GroundSet(default_labels(n))
        for topology in enumerate_topologies(n):
            for ideal in enumerate_ideals(n):
                space = Space(ground, topology, ideal)
                held = [ops.unary_table(space, alias) for alias in aliases]
                again = fresh(space)
                assert held == [ops.unary_table(again, alias) for alias in aliases], space
                spaces += 1
    assert spaces == 2 + 4 * 4 + 29 * 8 + 355 * 16


def test_ideal_tables_stay_per_space():
    topology = generate_topology([1, 3], G3)
    small = Space(G3, topology, generate_ideal([], G3))
    large = Space(G3, topology, generate_ideal([7], G3))
    assert small.tables is large.tables
    assert ops.unary_table(small, "star") == ops.hit_table(small, "open")
    assert ops.unary_table(large, "star") == bytes(8)
    assert ops.unary_table(small, "star") != ops.unary_table(large, "star")


def test_invalid_topology_after_memoized_valid_one_still_raises():
    valid = Topology(Family((0, 1, 3, 7)))
    Space(G3, valid, Ideal(0))
    with pytest.raises(TopologyAxiomError) as exc:
        Space(G3, Topology(Family((0, 1, 2, 7))), Ideal(0))
    assert exc.value.kind == "union"
    # the same open sets are a topology on two points but not on three
    indiscrete = Topology(Family((0, 3)))
    Space(G2, indiscrete, Ideal(0))
    with pytest.raises(TopologyAxiomError) as exc:
        Space(G3, indiscrete, Ideal(0))
    assert exc.value.kind == "missing-universe"


def test_ideal_is_validated_on_a_memo_hit():
    # an ``Ideal`` is one by construction: a space checks its top's range,
    # and a document's listed ideal is checked member by member
    topology = Topology(Family((0, 1, 7)))
    Space(G3, topology, Ideal(2))
    with pytest.raises(ValueError, match="^subset mask 8 out of range for 3 points$"):
        Space(G3, topology, Ideal(8))
    doc = {"points": list(G3.labels), "topology": [[], ["w1"], ["w1", "w2", "w3"]]}
    with pytest.raises(IdealAxiomError) as exc:
        space_from_document({**doc, "ideal": [[], ["w1", "w2"]]})
    assert (exc.value.kind, exc.value.missing) == ("heredity", 1)

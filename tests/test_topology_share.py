"""Topology tables shared across ideals, checked past three points.

Spaces on one topology share a ``TopologyTables`` bundle from a one-entry
memo, and a local function is read as ``H[a & ~top]`` off an ideal-free
hit table. The differential draws seeded random spaces on five and six
points, several ideals per topology in a row so the memo is hit, and holds
every local-function table and its dual to the definition-literal oracle.
The isolation tests hold every table to a recomputation with the memo
emptied.
"""

import random

import pytest

import oracle
from idealtop import operators as ops
from idealtop import space as space_mod
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
)

SEED = 20240605
TOPOLOGIES_PER_N = {5: 10, 6: 6}
IDEALS_PER_TOPOLOGY = 3

G2 = GroundSet(("w1", "w2"))
G3 = GroundSet(("w1", "w2", "w3"))


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
    """Oracle local-function table and its dual, as bitmask tuples."""
    topo, ideal, points = oracle.space_to_oracle(space)
    table = oracle.local_function_table(topo, ideal, points, nbhd, cl)
    ground, full = space.ground, space.ground.universe
    lf = tuple(
        oracle.set_to_bits(ground, table[oracle.bits_to_set(ground, a)])
        for a in range(space.n_subsets)
    )
    return lf, tuple(full ^ lf[full ^ a] for a in range(space.n_subsets))


def test_random_spaces_match_oracle():
    spaces = list(random_spaces())
    assert len(spaces) == IDEALS_PER_TOPOLOGY * sum(TOPOLOGIES_PER_N.values())
    # consecutive spaces on one topology share one bundle
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
        "int": space.int_table,
        "cl": space.cl_table,
    }
    for kind in ops.OpenKind:
        out["kopen", kind] = ops.kopen_family(space, kind)
        out["kopen-at", kind] = ops.kopen_at(space, kind)
        out["kclosure", kind] = ops.kclosure_table(space, kind)
    for spec in ops.LOCAL_FN_ALIASES.values():
        out["hits", spec] = ops.hit_table(space, spec)
    for name in ops.operator_names()[:-1]:
        out["alias", name] = ops.unary_table(space, name)
        out["alias", "clstar:" + name] = ops.unary_table(space, "clstar:" + name)
    return out


def fresh(space):
    space_mod.topology_tables.cache_clear()
    return Space(space.ground, space.topology, space.ideal)


def test_tables_equal_fresh_recomputation_across_topology_switches():
    t1 = generate_topology([3, 5], G3)
    t2 = generate_topology([1, 6], G3)
    s1 = Space(G3, t1, generate_ideal([2], G3))
    s1_again = Space(G3, t1, generate_ideal([4], G3))
    s2 = Space(G3, t2, generate_ideal([1], G3))
    s3 = Space(G3, t1, generate_ideal([0], G3))
    assert s1.tables is s1_again.tables
    assert s3.tables is not s1.tables  # the memo kept only t2 in between
    info = space_mod.topology_tables.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    # tables filled in after the switches, in interleaved order
    got = {id(s): every_table(s) for s in (s3, s1, s2, s1_again)}
    for s in (s1, s1_again, s2, s3):
        again = fresh(s)
        assert again == s and hash(again) == hash(s)
        assert got[id(s)] == every_table(again)


def test_ideal_tables_stay_per_space():
    topology = generate_topology([1, 3], G3)
    spec = ops.LOCAL_FN_ALIASES["star"]
    small = Space(G3, topology, generate_ideal([], G3))
    large = Space(G3, topology, generate_ideal([7], G3))
    assert small.tables is large.tables
    assert ops.unary_table(small, "star") == ops.hit_table(small, spec)
    assert ops.unary_table(large, "star") == (0,) * 8
    assert ops.unary_table(small, "star") != ops.unary_table(large, "star")


def test_invalid_topology_after_memoized_valid_one_still_raises():
    valid = Topology(Family((0, 1, 3, 7)))
    Space(G3, valid, Ideal(Family((0,))))
    with pytest.raises(TopologyAxiomError) as exc:
        Space(G3, Topology(Family((0, 1, 2, 7))), Ideal(Family((0,))))
    assert exc.value.issue.kind == "union"
    # the same open sets are a topology on two points but not on three
    indiscrete = Topology(Family((0, 3)))
    Space(G2, indiscrete, Ideal(Family((0,))))
    with pytest.raises(TopologyAxiomError) as exc:
        Space(G3, indiscrete, Ideal(Family((0,))))
    assert exc.value.issue.kind == "missing-universe"


def test_ideal_is_validated_on_a_memo_hit():
    topology = Topology(Family((0, 1, 7)))
    Space(G3, topology, Ideal(Family((0, 2))))
    with pytest.raises(IdealAxiomError) as exc:
        Space(G3, topology, Ideal(Family((0, 3))))
    assert (exc.value.issue.kind, exc.value.issue.missing) == ("heredity", 1)

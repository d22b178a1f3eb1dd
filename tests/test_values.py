"""The value types: immutable, compared by their fields, printed as
``Type(field=value, ...)`` in declaration order, and picklable by their
fields, as the README promises library users.

Plain records are named tuples; the types that validate, derive or cache
something are slotted classes over ``space.Frozen``.
"""

import pickle

import pytest

from idealtop import corpus, dsl, laws, search
from idealtop.space import (
    Family,
    GroundSet,
    Ideal,
    IdealIssue,
    Space,
    Topology,
    TopologyIssue,
    generate_ideal,
    generate_topology,
)
from idealtop.verdicts import HOLDS, Verdict, Witness

G2 = GroundSet(("w1", "w2"))
WITNESS = Witness((("A", 1),), 1, 0)
LAW = dsl.parse_law("star(A) == A")
TASK = search.SearchTask("star(A) == A", 2)


TOPOLOGY = generate_topology((1,), G2)


def _space(top: int, topology: Topology = TOPOLOGY) -> Space:
    return Space(G2, topology, generate_ideal((top,), G2))


# (type, fields in declaration order, one field name, another value for it)
CASES = [
    (Witness, dict(bindings=(("A", 5),), lhs=1, rhs=2, operation=None), "lhs", 3),
    (Verdict, dict(holds=False, witness=WITNESS), "holds", True),
    (dsl.Expr, dict(name="union", args=(dsl.Expr("A"), dsl.Expr("B"))), "name", "inter"),
    (dsl._Token, dict(kind="NAME", text="star", pos=0), "pos", 4),
    (laws.Law, dict(name="a:b", templates=((None, LAW),)), "name", "a:c"),
    (TopologyIssue, dict(kind="union", pair=(1, 2), missing=3), "missing", 0),
    (IdealIssue, dict(kind="heredity", member=3, pair=None, missing=1), "member", 2),
    (
        search.SpaceWitness,
        dict(ground=G2, topology=TOPOLOGY, ideal=Ideal(0), witness=WITNESS),
        "witness",
        WITNESS._replace(rhs=1),
    ),
    (
        search.SearchResult,
        dict(task=TASK, status="LawCertified", witnesses=(), spaces_scanned=16,
             assignments_evaluated=64, spaces_total=16),
        "spaces_total",
        None,
    ),
    (corpus.EvalCheck, dict(expr="star(A)", bindings=(("A", 1),), expected=1), "expected", 0),
    (
        corpus.LawCheck,
        dict(law="kuratowski:pstar", holds=False, at=(("A", 5), ("B", 9)), tag="additive"),
        "tag",
        "idempotent",
    ),
    (corpus.FamilyCheck, dict(kind="semi", expected=(0, 1)), "kind", "pre"),
    (
        corpus.CorpusEntry,
        dict(id="e", title="t", document=corpus.SPACE_A_DOC, checks=()),
        "title",
        "u",
    ),
    (corpus.EntryReport, dict(entry_id="e", title="t", checks=2, failures=()), "checks", 3),
    (GroundSet, dict(labels=("w1", "w2")), "labels", ("w1", "w3")),
    (Family, dict(members=(0, 1, 3)), "members", (0, 3)),
    (Topology, dict(family=Family((0, 1, 3))), "family", Family((0, 3))),
    (Ideal, dict(top=1), "top", 0),
    (
        Space,
        dict(ground=G2, topology=generate_topology((1,), G2), ideal=generate_ideal((1,), G2)),
        "ideal",
        generate_ideal((2,), G2),
    ),
    (
        dsl.LawAst,
        dict(lhs=dsl.Expr("A"), relation="<=", rhs=dsl.Expr("X"), hypotheses=()),
        "relation",
        "==",
    ),
    (
        search.SearchTask,
        dict(law_text="A == A", n=3, mode="subbase", want="all-minimal", budget_spaces=5,
             budget_assignments=None, var_cap=1, documents=()),
        "budget_spaces",
        6,
    ),
]
UNHASHABLE = {corpus.CorpusEntry}  # its document is a dict


def _ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls, fields, name, other", CASES, ids=_ids(CASES))
def test_equal_fields_make_equal_values(cls, fields, name, other):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)
    changed = cls(**{**fields, name: other})
    assert changed != a and not changed == a


@pytest.mark.parametrize("cls, fields, name, other", CASES, ids=_ids(CASES))
def test_repr_lists_fields_in_order(cls, fields, name, other):
    listed = ", ".join(f"{key}={value!r}" for key, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({listed})"


@pytest.mark.parametrize("cls, fields, name, other", CASES, ids=_ids(CASES))
def test_fields_are_read_only(cls, fields, name, other):
    value = cls(**fields)
    with pytest.raises(AttributeError):
        setattr(value, name, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == fields[name]


def test_derived_slots_are_read_only():
    space = _space(1)
    for value, name in [
        (Family((0, 1)), "mask"),
        (G2, "n"),
        (G2, "universe"),
        (TOPOLOGY, "_tables"),
        (space, "tables"),
        (space, "_cache"),
        (LAW, "free_vars"),
        (LAW._program, "steps"),
        (G2, "not_a_field"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_identity_types_compare_by_identity():
    # Every ideal on one topology object shares the tables it holds; an
    # equal topology object holds its own. The space-free memo keys on a
    # compiled program, which does not compare by value.
    assert _space(1).tables is _space(2).tables is TOPOLOGY._tables[1]
    twin = generate_topology((1,), G2)
    assert twin == TOPOLOGY and hash(twin) == hash(TOPOLOGY)
    on_twin = _space(1, twin)
    assert on_twin.tables is not _space(1).tables
    assert (on_twin.int_table, on_twin.cl_table) == (_space(1).int_table, _space(1).cl_table)
    first, second = dsl.parse_law("A <= X"), dsl.parse_law("A <= X")
    assert first == second
    assert first._program is first._program
    assert first._program != second._program


@pytest.mark.parametrize(
    "value",
    [
        G2,
        Family((3, 0, 1)),
        generate_topology((1,), G2),
        generate_ideal((2,), G2),
        TASK,
        search.SearchTask("A == A", 0, mode="documents", documents=("{}",), budget_spaces=3),
    ],
    ids=["GroundSet", "Family", "Topology", "Ideal", "SearchTask", "SearchTask-documents"],
)
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value)
    assert copy is not value and repr(copy) == repr(value)
    family = getattr(value, "family", value)
    if isinstance(family, Family):
        assert getattr(copy, "family", copy).mask == family.mask != 0


def test_unpickled_space_keys_build_the_same_space():
    key = (G2, generate_topology((1,), G2), generate_ideal((1,), G2))
    space = Space(*pickle.loads(pickle.dumps(key)))
    assert space == Space(*key)
    assert space.int_table == Space(*key).int_table
    # the tables the topology holds are a cache, not pickled with it
    assert key[1]._tables is not None
    assert pickle.loads(pickle.dumps(key[1]))._tables is None


def test_holds_is_one_shared_immutable_verdict(space_a):
    assert dsl.check_law(space_a, dsl.parse_law("star(A) <= cl(A)")) is HOLDS
    assert laws.get_law("additivity:star").check(space_a) is HOLDS
    assert laws.check_family_is_topology(TOPOLOGY.family, G2) is HOLDS
    assert HOLDS == Verdict(True, None)
    with pytest.raises(AttributeError):
        HOLDS.holds = False
    with pytest.raises(AttributeError):
        HOLDS.witness = WITNESS
    assert HOLDS.holds is True and HOLDS.witness is None

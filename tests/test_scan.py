"""Differential test of the byte-lane ``dsl.scan_law`` against a serial scan.

The reference walks the assignments one at a time in lexicographic order
(first variable outermost, masks ascending) with ``itertools.product`` and
evaluates both sides, and the sides of every hypothesis, with the
definition-direct ``dsl.eval_expr``. Every case must agree on (outcome,
bindings, lhs, rhs, count). Spaces and budgets
are drawn from a seeded ``random.Random`` so the test is deterministic.
Point counts run from 1 (a single lane when the law has no variable) to 8
(every bit of a lane in use).

``eval_expr`` reads the same operator tables as the scan, so a wrong table
would pass that comparison. ``oracle_scan`` closes the gap: the same serial
scan over ``tests/oracle.py``'s frozensets, every operator evaluated by its
defining quantifier, on random laws over random 1-4-point spaces.
"""

import functools
import itertools
import random

import pytest

import oracle
from idealtop import dsl, search
from idealtop.search import default_labels, enumerate_topologies
from idealtop.space import (
    Family,
    GroundSet,
    Ideal,
    Space,
    Topology,
    generate_ideal,
    space_from_document,
)

SEED = 20241015

# Hand-written laws covering both relations, compl, diff, the constants, a
# star closure and a psi dual, with 0 to 3 free variables; three repeat a
# subexpression, or apply an operator to a compound or a constant with no
# operator below it (values the compiled scan shares across spaces). The
# conditional ones close the list: a family law, hypotheses of both
# relations, a variable only a hypothesis mentions, and a hypothesis that
# never holds (so the law holds whatever its conclusion).
LAWS = (
    "star(X) <= X",
    "psi(empty) == compl(star(X))",
    "A <= clstar:star(A)",
    "compl(psixis(A)) == xis(compl(A))",
    "psi(A) <= clstar:xib(A)",
    "star(union(A,B)) == union(star(A),star(B))",
    "diff(sstar(A),sstar(B)) == diff(sstar(diff(A,B)),sstar(B))",
    "inter(psi(A),B) <= union(compl(B),cl(A))",
    "diff(X,union(A,inter(B,C))) == inter(compl(A),compl(inter(B,C)))",
    "inter(psixis(A),diff(B,C)) <= union(xis(C),empty)",
    "xis(xis(A)) == xis(A)",
    "star(union(A,compl(B))) <= cl(union(A,compl(B)))",
    "star(X) == star(diff(X,empty))",
    "inter(A,B) <= psixis(inter(A,B)) if A <= psixis(A), B <= psixis(B)",
    "cl(A) == A if int(compl(A)) == compl(A)",
    "xis(A) <= A if cl(A) == A",
    "inter(A,B) <= sstar(A) if C <= A, compl(C) <= B, int(C) == C",
    "star(A) == B if A <= empty, X <= A",
)

_OPERATORS = ("star", "sstar", "xis", "psi", "psixis", "clstar:star", "clstar:xib", "cl", "int")


def reference_scan(space, law, budget=None):
    """Serial scan with definition-direct evaluation, one assignment at a time."""

    def holds(relation, lhs, rhs):
        return lhs == rhs if relation == "==" else lhs & ~rhs == 0

    count = 0
    for combo in itertools.product(range(space.n_subsets), repeat=len(law.free_vars)):
        if budget is not None and count >= budget:
            return "budget", None, count
        count += 1
        env = dict(zip(law.free_vars, combo))
        lhs = dsl.eval_expr(space, env, law.lhs)
        rhs = dsl.eval_expr(space, env, law.rhs)
        hypotheses_hold = all(
            holds(h.relation, dsl.eval_expr(space, env, h.lhs), dsl.eval_expr(space, env, h.rhs))
            for h in law.hypotheses
        )
        if hypotheses_hold and not holds(law.relation, lhs, rhs):
            return "violated", (tuple(zip(law.free_vars, combo)), lhs, rhs), count
    return "holds", None, count


def byte_lane_scan(space, law, budget=None):
    outcome, witness, count = dsl.scan_law(space, law, budget=budget)
    assert (witness is None) == (outcome != "violated")
    if witness is not None:
        witness = (witness.bindings, witness.lhs, witness.rhs)
    return outcome, witness, count


def random_space(rng, n):
    labels = default_labels(n)

    def subset():
        return tuple(lab for lab in labels if rng.random() < 0.5)

    # a document lists each subset once; a repeat adds nothing to the topology
    subbase = dict.fromkeys(subset() for _ in range(rng.randrange(5)))
    return space_from_document(
        {
            "points": list(labels),
            "topology_subbase": [list(s) for s in subbase],
            "ideal_generators": [list(subset())],
        }
    )


def random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names + ("X", "empty") if names else ("X", "empty"))
    kind = rng.randrange(5)
    if kind < 2:
        fn = rng.choice(("union", "inter", "diff"))
        return f"{fn}({random_expr(rng, names, depth - 1)},{random_expr(rng, names, depth - 1)})"
    if kind == 2:
        return f"compl({random_expr(rng, names, depth - 1)})"
    return f"{rng.choice(_OPERATORS)}({random_expr(rng, names, depth - 1)})"


def random_law(rng, k, hypotheses=0):
    names = ("A", "B", "C")[:k]

    def relation(depth):
        rel = rng.choice(("==", "<="))
        return f"{random_expr(rng, names, depth)} {rel} {random_expr(rng, names, depth)}"

    while True:
        text = relation(3)
        if hypotheses:
            text += " if " + ", ".join(relation(2) for _ in range(hypotheses))
        law = dsl.parse_law(text)
        if len(law.free_vars) == k:
            return law


def random_budget(rng, total):
    # Unbounded only where the serial reference stays cheap.
    choices = [0, 1, rng.randrange(1, min(total, 1500) + 1)]
    if total <= 1024:
        choices += [None, total, total + 1]
    return rng.choice(choices)


def cases():
    rng = random.Random(SEED)
    out = []
    for law_text in LAWS:
        law = dsl.parse_law(law_text)
        for _ in range(4):
            n = rng.randint(1, 8)
            total = 1 << (n * len(law.free_vars))
            out.append((random_space(rng, n), law, random_budget(rng, total)))
    for _ in range(150):
        n = rng.randint(1, 8)
        k = rng.randint(0, 3)
        out.append((random_space(rng, n), random_law(rng, k), random_budget(rng, 1 << (n * k))))
    for _ in range(60):
        n = rng.randint(1, 8)
        k = rng.randint(1, 3)
        law = random_law(rng, k, hypotheses=rng.randint(1, 2))
        out.append((random_space(rng, n), law, random_budget(rng, 1 << (n * k))))
    return out


def test_random_scans_match_serial_reference():
    outcomes = []
    for space, law, budget in cases():
        expected = reference_scan(space, law, budget)
        assert byte_lane_scan(space, law, budget) == expected, (dsl.format_law(law), budget)
        outcomes.append((expected[0], bool(law.hypotheses)))
    # The cases exercise every outcome, not just early violations, with and
    # without hypotheses.
    for outcome in ("holds", "violated", "budget"):
        assert min(outcomes.count((outcome, conditional)) for conditional in (False, True)) >= 5


# Six points and three variables: 2**18 assignments, four blocks of 2**16.
# With the only nonempty proper open set {w5} (or {w6}), int(A) stays empty
# until A reaches 16 (or 32), so the first violation lies past the first block.
@pytest.mark.parametrize(
    "open_point, budget, expected_outcome, expected_count",
    [
        ("w5", None, "violated", 65536 + 16 * 64 + 1),
        ("w6", None, "violated", 2 * 65536 + 32 * 64 + 1),
        ("w6", 65536, "budget", 65536),
        ("w6", 70000, "budget", 70000),
        ("w5", 65537, "budget", 65537),
        ("w5", 66560, "budget", 66560),
        ("w5", 66561, "violated", 66561),
    ],
)
def test_multi_block_scans_match_serial_reference(
    open_point, budget, expected_outcome, expected_count
):
    space = space_from_document(
        {
            "points": list(default_labels(6)),
            "topology_subbase": [[open_point]],
            "ideal": [[]],
        }
    )
    law = dsl.parse_law("inter(int(A),B) <= C")
    got = byte_lane_scan(space, law, budget)
    assert got[0::2] == (expected_outcome, expected_count)
    assert got == reference_scan(space, law, budget)


@functools.lru_cache(maxsize=None)
def _conditional_six_point_case():
    # The six-point space above with a conditional law: the hypothesis holds
    # iff A contains w5 (cl({w5}) = X), so no lane of block 0 survives it.
    space = space_from_document(
        {"points": list(default_labels(6)), "topology_subbase": [["w5"]], "ideal": [[]]}
    )
    law = dsl.parse_law("inter(A,B) <= C if X <= cl(int(A))")
    return space, law, reference_scan(space, law)


@pytest.mark.parametrize("budget", [None, 65536, 66560, 66561])
def test_conditional_multi_block_scan_matches_serial_reference(budget):
    space, law, unbounded = _conditional_six_point_case()
    assert unbounded == ("violated", ((("A", 16), ("B", 16), ("C", 0)), 16, 0), 65536 + 16 * 64 + 1)
    expected = unbounded if budget is None or budget >= unbounded[2] else ("budget", None, budget)
    assert byte_lane_scan(space, law, budget) == expected


def test_budget_larger_than_scan_holds():
    space = random_space(random.Random(SEED), 5)
    law = dsl.parse_law("inter(A,B) <= union(A,C)")
    assert byte_lane_scan(space, law, budget=10**6) == ("holds", None, 2 ** 15)
    assert byte_lane_scan(space, law, budget=2 ** 15) == ("holds", None, 2 ** 15)
    assert byte_lane_scan(space, law, budget=2 ** 15 - 1) == ("budget", None, 2 ** 15 - 1)


def test_space_free_memo_keeps_spaces_and_block_sizes_apart():
    # The values shared across spaces are keyed by point count and block;
    # nothing of one space, point count or block may reach another scan.
    rng = random.Random(SEED + 1)
    law = dsl.parse_law("inter(sstar(union(A,compl(B))),cl(A)) <= union(xis(xis(A)),B)")
    first = random_space(rng, 4)
    sequence = [(first, law, None), (random_space(rng, 6), law, None)]
    sequence += [(random_space(rng, 4), law, None) for _ in range(2)]
    # six points, three variables: 2**18 assignments in four blocks; with
    # {w5} the only nonempty proper open set the violation lies in block 2
    multi_block = space_from_document(
        {"points": list(default_labels(6)), "topology_subbase": [["w5"]], "ideal": [[]]}
    )
    sequence.append((multi_block, dsl.parse_law("inter(int(inter(A,B)),C) <= empty"), None))
    sequence.append((first, law, None))
    dsl._space_free_block.cache_clear()
    results = []
    for space, law_, budget in sequence:
        expected = reference_scan(space, law_, budget)
        assert byte_lane_scan(space, law_, budget) == expected, dsl.format_law(law_)
        results.append(expected)
    assert results[-2][0::2] == ("violated", 16 * 4096 + 16 * 64 + 16 + 1)
    assert results[-1] == results[0]


def test_seven_point_three_variable_law_computes_its_blocks_once():
    # 2**21 assignments in 32 blocks, all kept: the second space of a search
    # finds every space-free block the first one computed.
    law = dsl.parse_law("star(union(A,inter(B,C))) == union(star(A),star(inter(B,C)))")
    spaces = [
        space_from_document(
            {"points": list(default_labels(7)), "topology_subbase": [subbase], "ideal": [[]]}
        )
        for subbase in (["w1"], ["w1", "w2"])
    ]
    dsl._space_free_block.cache_clear()
    try:
        for space in spaces:
            assert dsl.scan_law(space, law)[0] == "holds"
        assert dsl._space_free_block.cache_info().misses == 32
    finally:
        dsl._space_free_block.cache_clear()


def test_law_with_more_blocks_than_the_memo_keeps_skips_it():
    # 2**24 assignments in 256 blocks: kept blocks would never be read
    # again, so none is kept; a budget that stops within 32 blocks uses it.
    law = dsl.parse_law("star(union(A,inter(B,C))) == union(star(A),star(inter(B,C)))")
    space = space_from_document(
        {"points": list(default_labels(8)), "topology_subbase": [["w1"]], "ideal": [[]]}
    )
    dsl._space_free_block.cache_clear()
    try:
        assert dsl.scan_law(space, law)[0] == "holds"
        assert dsl._space_free_block.cache_info().currsize == 0
        assert dsl.scan_law(space, law, budget=32 << 16)[0] == "budget"
        assert dsl._space_free_block.cache_info().currsize == 32
    finally:
        dsl._space_free_block.cache_clear()


def test_certify_law_scans_each_distinct_table_once():
    # The 5,680 spaces on 4 points carry 1,136 distinct star tables; a
    # space whose table repeats an earlier space's is a memo hit.
    dsl._scan_lanes.cache_clear()
    try:
        result = search.run_search(
            search.SearchTask("star(union(A,B)) == union(star(A),star(B))", 4)
        )
        info = dsl._scan_lanes.cache_info()
    finally:
        dsl._scan_lanes.cache_clear()
    assert (result.status, result.spaces_scanned) == (search.STATUS_CERTIFIED, 5680)
    assert (info.hits, info.misses) == (4544, 1136)


def test_scan_memo_matches_the_scan_without_it(monkeypatch):
    # Seeded laws (hypotheses included) on random 1-4-point spaces, each
    # law on several spaces and point counts, with and without a budget:
    # a cold memo, a warm one and the unmemoized ``__wrapped__`` give the
    # same (outcome, verdict, count), and a budgeted scan after the
    # unbudgeted one is cached returns its own result.
    rng = random.Random(SEED + 3)
    laws = [random_law(rng, rng.randint(0, 3), hypotheses=rng.randint(0, 2)) for _ in range(40)]
    cases = []
    for _ in range(240):
        space, law = random_space(rng, rng.randint(1, 4)), rng.choice(laws)
        total = 1 << space.ground.n * len(law.free_vars)
        budget = rng.choice([0, 1, rng.randrange(1, total + 1), total - 1, total, total + 1])
        cases.append((space, law, budget))
    # no operator, so no table tells these laws' point counts apart
    for text in ("X <= empty", "union(A,X) <= A"):
        law = dsl.parse_law(text)
        cases += [(random_space(rng, n), law, 1) for n in (1, 2, 3, 4)]
    memo = dsl._scan_lanes
    with monkeypatch.context() as patched:
        patched.setattr(dsl, "_scan_lanes", memo.__wrapped__)
        expected = [(dsl.scan_law(s, law, budget=b), dsl.scan_law(s, law)) for s, law, b in cases]
    cut_short = 0
    memo.cache_clear()
    try:
        for (space, law, budget), (want, want_all) in zip(cases, expected):
            assert dsl.scan_law(space, law) == want_all
            hits = memo.cache_info().hits
            assert dsl.scan_law(space, law) == want_all
            assert memo.cache_info().hits == hits + 1
            assert dsl.scan_law(space, law, budget=budget) == want
            cut_short += want[0] == "budget" and want_all[0] == "holds"
        assert memo.cache_info().hits > len(cases)  # spaces shared entries
        for (space, law, budget), (want, _) in zip(cases, expected):
            memo.cache_clear()
            assert dsl.scan_law(space, law, budget=budget) == want
            assert dsl.scan_law(space, law, budget=budget) == want
            assert memo.cache_info()[:2] == (1, 1)
    finally:
        memo.cache_clear()
    assert cut_short >= 20
    outcomes = {want[0] for want, _ in expected} | {want_all[0] for _, want_all in expected}
    assert outcomes == {"holds", "violated", "budget"}


@pytest.mark.parametrize("law_text", ["star(X) <= X", "psi(empty) == compl(star(X))", "cl(X) == empty"])
@pytest.mark.parametrize("ideal", [[[]], [[], ["w1"]]])
def test_one_point_law_without_variables_is_a_single_lane(law_text, ideal):
    space = space_from_document({"points": ["w1"], "topology": [[], ["w1"]], "ideal": ideal})
    law = dsl.parse_law(law_text)
    for budget in (None, 0, 1, 2):
        assert byte_lane_scan(space, law, budget) == reference_scan(space, law, budget)


# On the indiscrete 8-point space with the trivial ideal, cl and star send
# every nonempty set to X = 255, so bit 7 of every lane past the first is set.
@pytest.mark.parametrize(
    "law_text, expected",
    [
        ("cl(A) <= A", ("violated", ((("A", 1),), 255, 1), 2)),
        ("inter(star(A),compl(B)) <= B", ("violated", ((("A", 1), ("B", 0)), 255, 0), 257)),
        ("diff(cl(A),A) == diff(star(A),A)", ("holds", None, 256)),
        ("compl(A) == diff(cl(A),A)", ("violated", ((("A", 0),), 255, 0), 1)),
        ("union(compl(A),B) <= cl(union(A,B))", ("violated", ((("A", 0), ("B", 0)), 255, 0), 1)),
    ],
)
def test_eight_point_values_use_the_top_bit_of_a_lane(law_text, expected):
    labels = list(default_labels(8))
    space = space_from_document({"points": labels, "topology": [[], labels], "ideal": [[]]})
    law = dsl.parse_law(law_text)
    assert byte_lane_scan(space, law) == expected
    assert reference_scan(space, law) == expected
    # a budget that stops inside the first block, just before the witness
    count = expected[2]
    assert byte_lane_scan(space, law, count - 1) == reference_scan(space, law, count - 1)


def test_hypothesis_mask_keeps_the_top_bit_of_a_lane():
    # {w8} is the only nonempty proper open set, so the hypothesis first
    # holds at A = {w8}, whose mismatch lane is bit 7 alone
    labels = list(default_labels(8))
    space = space_from_document({"points": labels, "topology_subbase": [["w8"]], "ideal": [[]]})
    law = dsl.parse_law("A <= empty if X <= cl(A)")
    expected = ("violated", ((("A", 128),), 128, 0), 129)
    assert byte_lane_scan(space, law) == expected
    assert reference_scan(space, law) == expected


def test_tables_workload_law_on_eight_point_subbase_spaces():
    # The law and space stream of the tables-n8 benchmark: subbase
    # topologies on 8 points (these three from one and from two subbase
    # members), here with a seeded sample of their ideals. The law holds on
    # all of them.
    law = dsl.parse_law("clstar:xib(clstar:xib(A)) == clstar:xib(A)")
    ground = GroundSet(default_labels(8))
    rng = random.Random(SEED + 2)
    stream = enumerate_topologies(8, "subbase")
    topologies = itertools.islice(stream, 1, 700, 233)
    outcomes = []
    for topology in topologies:
        for top in [0, 255, *rng.sample(range(1, 255), 5)]:
            space = Space(ground, topology, generate_ideal((top,), ground))
            expected = reference_scan(space, law)
            assert byte_lane_scan(space, law) == expected, (topology, top)
            outcomes.append(expected[0])
    assert outcomes == ["holds"] * 21


@functools.lru_cache(maxsize=None)
def _seven_point_case():
    # Seven points and three variables: 2**21 assignments, 32 blocks of 2**16.
    # A occupies index bits 14-20, so it straddles the block boundary: bits
    # 14-15 vary inside a block, bits 16-20 come from the block's start. With
    # {w1,w3} the only nonempty proper open set, int(A) is empty until A
    # reaches {w1,w3} = 5, whose bits lie on both sides of the boundary.
    space = space_from_document(
        {"points": list(default_labels(7)), "topology_subbase": [["w1", "w3"]], "ideal": [[]]}
    )
    law = dsl.parse_law("inter(int(A),B) <= C")
    return space, law, reference_scan(space, law)


@pytest.mark.parametrize("budget", [None, 65536, 70000, 5 * 2 ** 14 + 128, 5 * 2 ** 14 + 129, 10 ** 7])
def test_seven_point_multi_block_scan_matches_serial_reference(budget):
    space, law, unbounded = _seven_point_case()
    assert unbounded == ("violated", ((("A", 5), ("B", 1), ("C", 0)), 1, 0), 5 * 2 ** 14 + 128 + 1)
    # A budget cuts the serial scan short exactly when it ends before the witness.
    expected = unbounded if budget is None or budget >= unbounded[2] else ("budget", None, budget)
    assert byte_lane_scan(space, law, budget) == expected


# ---------------------------------------------------------------------------
# random laws against the definition-literal oracle


def oracle_operators(topology, ideal, points):
    """Every operator of ``_OPERATORS`` on frozensets, straight from
    ``tests/oracle.py``: no table of the package is read."""
    lf = lambda alias: oracle.NAMED_LOCAL_FNS[alias]
    return {
        "int": lambda a: oracle.interior(topology, a),
        "cl": lambda a: oracle.closure(topology, points, a),
        "star": lambda a: oracle.local_function(topology, ideal, points, *lf("star"), a),
        "sstar": lambda a: oracle.local_function(topology, ideal, points, *lf("sstar"), a),
        "xis": lambda a: oracle.local_function(topology, ideal, points, *lf("xis"), a),
        "psi": lambda a: oracle.psi_dual(topology, ideal, points, *lf("star"), a),
        "psixis": lambda a: oracle.psi_dual(topology, ideal, points, *lf("xis"), a),
        "clstar:star": lambda a: oracle.cl_star(topology, ideal, points, *lf("star"), a),
        "clstar:xib": lambda a: oracle.cl_star(topology, ideal, points, *lf("xib"), a),
    }


def oracle_scan(space, topology, ideal, law, budget=None):
    """The serial scan of ``reference_scan`` over the oracle's frozensets.

    Each operator value is memoized per argument within this one scan, so
    an operator runs its defining quantifier once per subset.
    """
    ground, points = space.ground, list(space.ground.labels)
    operators = oracle_operators(topology, ideal, points)
    memo = {}

    def value(node, env):
        if not node.args:
            constants = {"X": frozenset(points), "empty": frozenset()}
            return constants[node.name] if node.name in constants else env[node.name]
        args = [value(arg, env) for arg in node.args]
        if node.name == "union":
            return args[0] | args[1]
        if node.name == "inter":
            return args[0] & args[1]
        if node.name == "diff":
            return args[0] - args[1]
        if node.name == "compl":
            return frozenset(points) - args[0]
        key = node.name, args[0]
        if key not in memo:
            memo[key] = operators[node.name](args[0])
        return memo[key]

    def holds(relation, lhs, rhs):
        return lhs == rhs if relation == "==" else lhs <= rhs

    sets = [oracle.bits_to_set(ground, bits) for bits in range(space.n_subsets)]
    count = 0
    for combo in itertools.product(range(space.n_subsets), repeat=len(law.free_vars)):
        if budget is not None and count >= budget:
            return "budget", None, count
        count += 1
        bindings = tuple(zip(law.free_vars, combo))
        env = {name: sets[bits] for name, bits in bindings}
        lhs, rhs = value(law.lhs, env), value(law.rhs, env)
        hypotheses_hold = all(
            holds(h.relation, value(h.lhs, env), value(h.rhs, env)) for h in law.hypotheses
        )
        if hypotheses_hold and not holds(law.relation, lhs, rhs):
            witness = bindings, oracle.set_to_bits(ground, lhs), oracle.set_to_bits(ground, rhs)
            return "violated", witness, count
    return "holds", None, count


def oracle_space(rng, n):
    """A random space on n points, built on the oracle's side: the topology
    generated from a random subbase, the ideal the power set of a random top.
    Returns the package's ``Space`` of the same families and the oracle's."""
    labels = default_labels(n)
    subbase = [
        frozenset(lab for lab in labels if rng.random() < 0.5) for _ in range(rng.randrange(5))
    ]
    topology = oracle.generated_topology(subbase, labels)
    top = frozenset(lab for lab in labels if rng.random() < 0.4)
    ideal = frozenset(oracle.powerset(top))
    ground = GroundSet(labels)
    family = Family(tuple(oracle.set_to_bits(ground, s) for s in topology))
    space = Space(ground, Topology(family), Ideal(oracle.set_to_bits(ground, top)))
    return space, topology, ideal


def test_random_laws_match_the_oracle():
    rng = random.Random(SEED + 3)
    outcomes, used = [], set()
    for i in range(200):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        hypotheses = rng.randint(1, 2) if i % 3 == 0 and k else 0
        law = random_law(rng, k, hypotheses)
        space, topology, ideal = oracle_space(rng, n)
        budget = random_budget(rng, 1 << (n * k))
        expected = oracle_scan(space, topology, ideal, law, budget)
        assert byte_lane_scan(space, law, budget) == expected, (dsl.format_law(law), budget)
        outcomes.append((expected[0], bool(law.hypotheses), n == 4 and expected[2] > 1))
        used |= {node.name for side in law.sides for node in dsl._walk(side) if node.args}
    assert set(_OPERATORS) <= used
    # every outcome, with and without hypotheses, and violations found past
    # the first assignment of a four-point space
    for outcome in ("holds", "violated", "budget"):
        assert min(sum(o[:2] == (outcome, c) for o in outcomes) for c in (False, True)) >= 5
    assert outcomes.count(("violated", False, True)) + outcomes.count(("violated", True, True)) >= 5


def test_random_laws_match_the_oracle_at_five_and_six_points():
    # the test above on five- and six-point spaces, with at most two
    # variables so the serial oracle stays cheap; every other law has
    # hypotheses, so each outcome occurs with and without them
    rng = random.Random(SEED + 5)
    outcomes = []
    for i in range(120):
        n, k = rng.randint(5, 6), rng.randint(0, 2)
        hypotheses = rng.randint(1, 2) if i % 2 == 0 and k else 0
        law = random_law(rng, k, hypotheses)
        space, topology, ideal = oracle_space(rng, n)
        budget = random_budget(rng, 1 << (n * k))
        expected = oracle_scan(space, topology, ideal, law, budget)
        assert byte_lane_scan(space, law, budget) == expected, (dsl.format_law(law), budget)
        outcomes.append((expected[0], bool(law.hypotheses)))
    for outcome in ("holds", "violated", "budget"):
        assert min(outcomes.count((outcome, c)) for c in (False, True)) >= 5


# Three-variable laws that hold on every space: ``star`` is additive, and
# the ψ-fix family of ``star`` is a topology, so it is closed under meets.
HOLDING_THREE_VARIABLE_LAWS = (
    "star(union(A,union(B,C))) == union(star(A),union(star(B),star(C)))",
    "inter(A,inter(B,C)) <= psi(inter(A,inter(B,C))) if A <= psi(A), B <= psi(B), C <= psi(C)",
)


def test_three_variable_laws_match_the_oracle_at_five_and_six_points():
    # 2**15 and 2**18 assignments, where the serial oracle is dearest: most
    # random laws run under ``random_budget``'s small budgets, a few
    # five-point ones to the end, and the laws above that hold everywhere
    # are scanned whole on five points (about 1.2 s in all)
    rng = random.Random(SEED + 8)
    cases = []
    for i in range(40):
        n = rng.randint(5, 6)
        law = random_law(rng, 3, rng.randint(1, 2) if i % 2 == 0 else 0)
        space, topology, ideal = oracle_space(rng, n)
        budget = None if n == 5 and i % 8 == 0 else random_budget(rng, 1 << 3 * n)
        cases.append((law, space, topology, ideal, budget))
    for text in HOLDING_THREE_VARIABLE_LAWS:
        cases.append((dsl.parse_law(text), *oracle_space(rng, 5), None))
    outcomes = []
    for law, space, topology, ideal, budget in cases:
        assert len(law.free_vars) == 3
        expected = oracle_scan(space, topology, ideal, law, budget)
        assert byte_lane_scan(space, law, budget) == expected, (dsl.format_law(law), budget)
        outcomes.append((expected[0], bool(law.hypotheses)))
    for outcome, least in (("holds", 1), ("violated", 3), ("budget", 3)):
        assert min(outcomes.count((outcome, c)) for c in (False, True)) >= least

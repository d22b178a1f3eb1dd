"""Definition-literal reference implementations over frozensets of labels.

This is the independent slow path the engine is checked against. It shares
no code or representation with the package: subsets are frozensets, families
are frozensets of frozensets, and every operator follows its defining
quantifier directly, with no tables, caches or algebraic shortcuts.
"""

from itertools import combinations

OPEN, SEMI, PRE, B, BETA = "open", "semi", "pre", "b", "beta"


def powerset(points):
    pts = sorted(points)
    out = []
    for r in range(len(pts) + 1):
        for combo in combinations(pts, r):
            out.append(frozenset(combo))
    return out


def is_topology(family, points):
    X = frozenset(points)
    if frozenset() not in family or X not in family:
        return False
    for a in family:
        for b in family:
            if (a | b) not in family or (a & b) not in family:
                return False
    return True


def is_ideal(family, points):
    if frozenset() not in family:
        return False
    for member in family:
        for sub in powerset(member):
            if sub not in family:
                return False
    for a in family:
        for b in family:
            if (a | b) not in family:
                return False
    return True


def interior(topology, a):
    return frozenset().union(*(u for u in topology if u <= a))


def closure(topology, points, a):
    X = frozenset(points)
    closed = [X - u for u in topology]
    return X.intersection(*(f for f in closed if a <= f))


def derived_set(topology, points, a):
    out = set()
    for z in points:
        if all((u & (a - {z})) for u in topology if z in u):
            out.add(z)
    return frozenset(out)


def is_kind_open(topology, points, kind, a):
    if kind == OPEN:
        return a in topology
    cl = lambda s: closure(topology, points, s)
    inte = lambda s: interior(topology, s)
    if kind == SEMI:
        return a <= cl(inte(a))
    if kind == PRE:
        return a <= inte(cl(a))
    if kind == B:
        return a <= inte(cl(a)) | cl(inte(a))
    if kind == BETA:
        return a <= cl(inte(cl(a)))
    raise ValueError(kind)


def kind_open_family(topology, points, kind):
    return [a for a in powerset(points) if is_kind_open(topology, points, kind, a)]


def kind_closure(topology, points, kind, a):
    X = frozenset(points)
    supersets = [
        s
        for s in powerset(points)
        if a <= s and is_kind_open(topology, points, kind, X - s)
    ]
    return X.intersection(*supersets)


def kind_closure_table(topology, points, kind):
    """Same quantifier as kind_closure on every subset, with the kind-closed
    sets hoisted."""
    X = frozenset(points)
    subsets = powerset(points)
    opens = set(kind_open_family(topology, points, kind))
    closed = [s for s in subsets if X - s in opens]
    return {a: X.intersection(*(s for s in closed if a <= s)) for a in subsets}


def local_function(topology, ideal, points, nbhd_kind, cl_kind, a):
    """cl_kind None gives the plain form; otherwise the neighborhood is
    expanded by the cl_kind closure before meeting a."""
    opens = kind_open_family(topology, points, nbhd_kind)
    out = set()
    for z in points:
        hoods = [u for u in opens if z in u]
        if cl_kind is None:
            tests = hoods
        else:
            tests = [kind_closure(topology, points, cl_kind, u) for u in hoods]
        if all((t & a) not in ideal for t in tests):
            out.add(z)
    return frozenset(out)


def local_function_table(topology, ideal, points, nbhd_kind, cl_kind):
    """Same quantifier as local_function, with the neighborhood family, the
    closure table and each point's tests hoisted so exhaustive sweeps stay
    affordable."""
    opens = kind_open_family(topology, points, nbhd_kind)
    if cl_kind is None:
        expanded = {u: u for u in opens}
    else:
        closures = kind_closure_table(topology, points, cl_kind)
        expanded = {u: closures[u] for u in opens}
    tests_at = {z: [expanded[u] for u in opens if z in u] for z in points}
    table = {}
    for a in powerset(points):
        out = set()
        for z in points:
            if all((t & a) not in ideal for t in tests_at[z]):
                out.add(z)
        table[a] = frozenset(out)
    return table


def psi_dual(topology, ideal, points, nbhd_kind, cl_kind, a):
    X = frozenset(points)
    return X - local_function(topology, ideal, points, nbhd_kind, cl_kind, X - a)


def cl_star(topology, ideal, points, nbhd_kind, cl_kind, a):
    return a | local_function(topology, ideal, points, nbhd_kind, cl_kind, a)


def psi_fix_family(topology, ideal, points, nbhd_kind, cl_kind):
    return [
        a
        for a in powerset(points)
        if a <= psi_dual(topology, ideal, points, nbhd_kind, cl_kind, a)
    ]


def all_topologies(points):
    """Validator scan over every family of subsets containing {} and X."""
    X = frozenset(points)
    rest = [s for s in powerset(points) if s != frozenset() and s != X]
    found = []
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            family = frozenset(combo) | {frozenset(), X}
            if is_topology(family, points):
                found.append(family)
    return found


def generated_topology(subbase, points):
    """Smallest topology containing ``subbase``: add {} and X, then close
    under pairwise union and intersection until nothing new appears."""
    family = set(subbase) | {frozenset(), frozenset(points)}
    while True:
        new = {c for a in family for b in family for c in (a | b, a & b)} - family
        if not new:
            return frozenset(family)
        family |= new


def all_ideals(points):
    """Validator scan over every family of subsets containing {}."""
    rest = [s for s in powerset(points) if s != frozenset()]
    found = []
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            family = frozenset(combo) | {frozenset()}
            if is_ideal(family, points):
                found.append(family)
    return found


# Bridges between the engine's bitmask world and the oracle's frozensets.


def bits_to_set(ground, bits):
    return frozenset(ground.labels_of(bits))


def set_to_bits(ground, subset):
    return ground.subset(sorted(subset))


def family_to_sets(ground, family):
    return [bits_to_set(ground, s) for s in family]


def space_to_oracle(space):
    """(topology, ideal, points) triple in oracle representation."""
    ground = space.ground
    topology = frozenset(family_to_sets(ground, space.topology.family))
    ideal = frozenset(family_to_sets(ground, space.ideal))
    return topology, ideal, list(ground.labels)


# The eleven named operators as (nbhd_kind, cl_kind) pairs, keyed by the
# engine's alias strings so tests can iterate both sides in lockstep.
NAMED_LOCAL_FNS = {
    "star": (OPEN, None),
    "sstar": (SEMI, None),
    "pstar": (PRE, None),
    "bstar": (B, None),
    "betastar": (BETA, None),
    "G": (OPEN, OPEN),
    "g": (OPEN, SEMI),
    "xis": (SEMI, SEMI),
    "xip": (PRE, PRE),
    "xib": (B, B),
    "xibeta": (BETA, BETA),
}

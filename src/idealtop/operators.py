"""Set-valued operators over a space.

Covers interior, closure and derived set; the semi-/pre-/b-/beta-open
families with their generalized closures; plain local functions (membership
demands every kind-open neighborhood to meet the argument outside the
ideal) and closure-expanded local functions (the neighborhood is first
blown up by a generalized closure); the complement duals of all of these;
the star-closure ``a | f(a)``; and the family of dual-expansive sets.

Tables that depend on the topology alone (generalized-open families and
closures, local-function hit tables) live in ``space.tables.cache`` and are
shared by every ideal on that topology. The ideal is the power set of its
top member, so a trace ``t & a`` lies in it iff ``t & a & ~top`` is empty;
hence ``f(a) = H[a & ~top]`` for the ideal-free hit table ``H``. Tables that
depend on the ideal live in the per-space ``space._cache``.

The string alias table at the bottom is the single naming surface shared
by the law DSL and the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .space import Family, Space


class OpenKind(Enum):
    OPEN = "open"
    SEMI = "semi"
    PRE = "pre"
    B = "b"
    BETA = "beta"


KIND_BY_NAME = {k.value: k for k in OpenKind}


@dataclass(frozen=True)
class LocalFnSpec:
    """Which local function: neighborhood kind, plus an optional closure
    kind that expands each neighborhood before testing it."""

    nbhd: OpenKind
    cl: OpenKind | None = None

    @property
    def is_plain(self) -> bool:
        return self.cl is None


def interior(space: Space, a: int) -> int:
    return space.int_table[a]


def closure(space: Space, a: int) -> int:
    return space.cl_table[a]


def derived_set(space: Space, a: int) -> int:
    """Points whose every open neighborhood meets ``a`` elsewhere."""
    out = 0
    for z in range(space.ground.n):
        rest = a & ~(1 << z)
        if all(u & rest for u in space.opens_at[z]):
            out |= 1 << z
    return out


def kopen_family(space: Space, kind: OpenKind) -> Family:
    """All kind-open subsets, canonically ordered.

    open: members of the topology      semi: a <= cl(int(a))
    pre:  a <= int(cl(a))              b:    a <= int(cl(a)) | cl(int(a))
    beta: a <= cl(int(cl(a)))
    """
    key = ("kopen", kind)
    fam = space.tables.cache.get(key)
    if fam is None:
        if kind is OpenKind.OPEN:
            fam = space.topology.family
        else:
            it, cl = space.int_table, space.cl_table
            pred: Callable[[int], int] = {
                OpenKind.SEMI: lambda a: cl[it[a]],
                OpenKind.PRE: lambda a: it[cl[a]],
                OpenKind.B: lambda a: it[cl[a]] | cl[it[a]],
                OpenKind.BETA: lambda a: cl[it[cl[a]]],
            }[kind]
            fam = Family(
                tuple(a for a in range(space.n_subsets) if a & ~pred(a) == 0)
            )
        space.tables.cache[key] = fam
    return fam


def kopen_at(space: Space, kind: OpenKind) -> tuple[tuple[int, ...], ...]:
    """Per point, the kind-open sets containing it."""
    key = ("kopen-at", kind)
    nbhds = space.tables.cache.get(key)
    if nbhds is None:
        members = kopen_family(space, kind).members
        nbhds = tuple(
            tuple(u for u in members if u >> z & 1) for z in range(space.ground.n)
        )
        space.tables.cache[key] = nbhds
    return nbhds


def kclosure_table(space: Space, kind: OpenKind) -> tuple[int, ...]:
    key = ("kclosure", kind)
    table = space.tables.cache.get(key)
    if table is None:
        full = space.ground.universe
        closed = [full ^ u for u in kopen_family(space, kind).members]
        out = []
        for a in range(space.n_subsets):
            r = full
            for c in closed:
                if c & a == a:
                    r &= c
            out.append(r)
        table = tuple(out)
        space.tables.cache[key] = table
    return table


def kclosure(space: Space, kind: OpenKind, a: int) -> int:
    """Smallest kind-closed superset (kind-closed = complement kind-open)."""
    return kclosure_table(space, kind)[a]


def hit_table(space: Space, spec: LocalFnSpec) -> tuple[int, ...]:
    """Ideal-free local-function table: bit ``z`` of entry ``b`` is set iff
    every test at ``z`` meets ``b``.

    The tests at ``z`` are its kind-open neighborhoods for a plain spec,
    their generalized closures otherwise. Only the inclusion-minimal tests
    are checked: a test meets ``b`` whenever a test inside it does.
    """
    key = ("lf-hits", spec)
    table = space.tables.cache.get(key)
    if table is None:
        tests_at = kopen_at(space, spec.nbhd)
        if not spec.is_plain:
            kcl = kclosure_table(space, spec.cl)
            tests_at = [{kcl[u] for u in us} for us in tests_at]
        minimal_at = []
        for tests in tests_at:
            minimal: list[int] = []
            for t in sorted(tests, key=int.bit_count):
                if all(m & ~t for m in minimal):
                    minimal.append(t)
            minimal_at.append(minimal)
        table = tuple(
            sum(1 << z for z, tests in enumerate(minimal_at) if all(t & b for t in tests))
            for b in range(space.n_subsets)
        )
        space.tables.cache[key] = table
    return table


def local_function(space: Space, spec: LocalFnSpec, a: int) -> int:
    return hit_table(space, spec)[a & ~space.ideal_top]


def local_function_table(space: Space, spec: LocalFnSpec) -> tuple[int, ...]:
    key = ("lf-table", spec)
    table = space._cache.get(key)
    if table is None:
        hits, outside = hit_table(space, spec), ~space.ideal_top
        table = tuple(hits[a & outside] for a in range(space.n_subsets))
        space._cache[key] = table
    return table


def psi_dual(space: Space, spec: LocalFnSpec, a: int) -> int:
    """Complement dual of the local function: X - f(X - a)."""
    full = space.ground.universe
    return full ^ local_function(space, spec, full ^ a)


def cl_star(space: Space, spec: LocalFnSpec, a: int) -> int:
    """Star closure ``a | f(a)``."""
    return a | local_function(space, spec, a)


def psi_fix_family(space: Space, spec: LocalFnSpec) -> Family:
    """All subsets contained in their own dual image."""
    full = space.ground.universe
    table = local_function_table(space, spec)
    members = tuple(
        a
        for a in range(space.n_subsets)
        if a & ~(full ^ table[full ^ a]) == 0
    )
    return Family(members)


# ---------------------------------------------------------------------------
# Alias table: the naming surface shared by the DSL and the CLI.

LOCAL_FN_ALIASES: dict[str, LocalFnSpec] = {
    "star": LocalFnSpec(OpenKind.OPEN),
    "sstar": LocalFnSpec(OpenKind.SEMI),
    "pstar": LocalFnSpec(OpenKind.PRE),
    "bstar": LocalFnSpec(OpenKind.B),
    "betastar": LocalFnSpec(OpenKind.BETA),
    "G": LocalFnSpec(OpenKind.OPEN, OpenKind.OPEN),
    "g": LocalFnSpec(OpenKind.OPEN, OpenKind.SEMI),
    "xis": LocalFnSpec(OpenKind.SEMI, OpenKind.SEMI),
    "xip": LocalFnSpec(OpenKind.PRE, OpenKind.PRE),
    "xib": LocalFnSpec(OpenKind.B, OpenKind.B),
    "xibeta": LocalFnSpec(OpenKind.BETA, OpenKind.BETA),
}

# Dual alias for each local-function alias.
PSI_ALIAS: dict[str, str] = {
    "star": "psi",
    "sstar": "psis",
    "pstar": "psip",
    "bstar": "psib",
    "betastar": "psibetastar",
    "G": "psiG",
    "g": "psig",
    "xis": "psixis",
    "xip": "psixip",
    "xib": "psixib",
    "xibeta": "psixibeta",
}

UnaryOp = Callable[[Space, int], int]


def _build_operator_table() -> dict[str, UnaryOp]:
    ops: dict[str, UnaryOp] = {
        "int": interior,
        "cl": closure,
        "der": derived_set,
    }
    for kind, alias in (
        (OpenKind.SEMI, "scl"),
        (OpenKind.PRE, "pcl"),
        (OpenKind.B, "bcl"),
        (OpenKind.BETA, "betacl"),
    ):
        ops[alias] = (lambda k: lambda sp, a: kclosure(sp, k, a))(kind)
    for alias, spec in LOCAL_FN_ALIASES.items():
        ops[alias] = (lambda s: lambda sp, a: local_function(sp, s, a))(spec)
        ops[PSI_ALIAS[alias]] = (lambda s: lambda sp, a: psi_dual(sp, s, a))(spec)
    return ops


OPERATORS: dict[str, UnaryOp] = _build_operator_table()


def resolve_operator(name: str) -> UnaryOp | None:
    """Look up a unary operator alias; ``clstar:<op>`` composes a | op(a)."""
    fn = OPERATORS.get(name)
    if fn is not None:
        return fn
    if name.startswith("clstar:"):
        base = resolve_operator(name[len("clstar:"):])
        if base is not None:
            return lambda sp, a, _base=base: a | _base(sp, a)
    return None


def operator_names() -> tuple[str, ...]:
    return tuple(sorted(OPERATORS)) + ("clstar:<op>",)


# The local function behind each dual alias.
_PSI_SPEC: dict[str, LocalFnSpec] = {
    PSI_ALIAS[alias]: spec for alias, spec in LOCAL_FN_ALIASES.items()
}


def _tabulate(space: Space, name: str) -> tuple[int, ...]:
    # Duals and star closures are read off the tables they are built from;
    # every other alias is evaluated subset by subset.
    spec = LOCAL_FN_ALIASES.get(name)
    if spec is not None:
        return local_function_table(space, spec)
    subsets = range(space.n_subsets)
    spec = _PSI_SPEC.get(name)
    if spec is not None:
        full = space.ground.universe
        table = local_function_table(space, spec)
        return tuple(full ^ table[full ^ a] for a in subsets)
    if name.startswith("clstar:"):
        table = _tabulate(space, name[len("clstar:"):])
        return tuple(a | table[a] for a in subsets)
    fn = OPERATORS[name]
    return tuple(fn(space, a) for a in subsets)


def unary_table(space: Space, name: str) -> tuple[int, ...]:
    """Tabulate an alias over every subset; memoized per space.

    A local-function alias gets its ``local_function_table`` tuple, so each
    spec has one table per space.
    """
    key = ("alias-table", name)
    table = space._cache.get(key)
    if table is None:
        if resolve_operator(name) is None:
            raise KeyError(f"unknown operator alias {name!r}")
        table = _tabulate(space, name)
        space._cache[key] = table
    return table

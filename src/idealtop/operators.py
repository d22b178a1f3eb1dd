"""Set-valued operators over a space.

Covers interior, closure and derived set; the semi-/pre-/b-/beta-open
families with their generalized closures; plain local functions (membership
demands every kind-open neighborhood to meet the argument outside the
ideal) and closure-expanded local functions (the neighborhood is first
blown up by a generalized closure); the complement duals of all of these;
the star-closure ``a | f(a)``; and the family of dual-expansive sets.

``unary_table(space, name)`` is the one producer of operator values: every
alias, and ``clstar:`` of one, is a table over all subsets, memoized in the
per-space ``space._cache`` under its name. Tables that depend on the
topology alone (generalized-open families and closures, local-function hit
tables) live in ``space.tables.cache`` and are shared by every ideal on
that topology. The ideal is the power set of its top member, so a trace
``t & a`` lies in it iff ``t & a & ~top`` is empty; hence
``f(a) = H[a & ~top]`` for the ideal-free hit table ``H``.

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


def derived_set(space: Space, a: int) -> int:
    """Points whose every open neighborhood meets ``a`` elsewhere."""
    out = 0
    for z, opens in enumerate(kopen_at(space, OpenKind.OPEN)):
        rest = a & ~(1 << z)
        if all(u & rest for u in opens):
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

# The alias of each local function, and the local function behind each dual.
SPEC_ALIAS: dict[LocalFnSpec, str] = {spec: alias for alias, spec in LOCAL_FN_ALIASES.items()}
_DUAL_BASE: dict[str, str] = {psi: alias for alias, psi in PSI_ALIAS.items()}

# Generalized closure alias for each kind but open.
_KCLOSURE_KIND: dict[str, OpenKind] = {
    "scl": OpenKind.SEMI,
    "pcl": OpenKind.PRE,
    "bcl": OpenKind.B,
    "betacl": OpenKind.BETA,
}

_ALIASES = frozenset(("int", "cl", "der", *_KCLOSURE_KIND, *LOCAL_FN_ALIASES, *_DUAL_BASE))

_CLSTAR = "clstar:"


def is_operator(name: str) -> bool:
    """Whether ``name`` is an alias, or ``clstar:`` applied to one."""
    while name.startswith(_CLSTAR):
        name = name[len(_CLSTAR):]
    return name in _ALIASES


def operator_names() -> tuple[str, ...]:
    return tuple(sorted(_ALIASES)) + ("clstar:<op>",)


def _table(space: Space, name: str) -> tuple[int, ...]:
    table = space._cache.get(name)
    if table is None:
        table = _build(space, name)
        space._cache[name] = table
    return table


def _build(space: Space, name: str) -> tuple[int, ...]:
    # Duals and star closures are read off the tables they are built from.
    subsets = range(space.n_subsets)
    if name == "int":
        return space.int_table
    if name == "cl":
        return space.cl_table
    if name == "der":
        return tuple(derived_set(space, a) for a in subsets)
    kind = _KCLOSURE_KIND.get(name)
    if kind is not None:
        return kclosure_table(space, kind)
    spec = LOCAL_FN_ALIASES.get(name)
    if spec is not None:
        hits, outside = hit_table(space, spec), ~space.ideal_top
        return tuple(hits[a & outside] for a in subsets)
    base = _DUAL_BASE.get(name)
    if base is not None:
        full = space.ground.universe
        table = _table(space, base)
        return tuple(full ^ table[full ^ a] for a in subsets)
    table = _table(space, name[len(_CLSTAR):])
    return tuple(a | table[a] for a in subsets)


def unary_table(space: Space, name: str) -> tuple[int, ...]:
    """The values of an operator alias, or ``clstar:`` of one, on every
    subset, memoized per space.

    This is the only producer of operator values: each alias has one table
    per space, kept in ``space._cache`` under its name. Unknown names raise
    ``KeyError``.
    """
    if not is_operator(name):
        raise KeyError(f"unknown operator alias {name!r}")
    return _table(space, name)


def psi_fix_family(space: Space, spec: LocalFnSpec) -> Family:
    """All subsets contained in their own dual image; ``spec`` must be aliased."""
    dual = unary_table(space, PSI_ALIAS[SPEC_ALIAS[spec]])
    return Family(tuple(a for a in range(space.n_subsets) if a & ~dual[a] == 0))

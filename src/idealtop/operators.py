"""Set-valued operators over a space.

Covers interior, closure and derived set; the semi-/pre-/b-/beta-open
families with their generalized closures; plain local functions (membership
demands every kind-open neighborhood to meet the argument outside the
ideal) and closure-expanded local functions (the neighborhood is first
blown up by a generalized closure); the complement duals of all of these;
the star-closure ``a | f(a)``; and the family of dual-expansive sets.

``unary_table(space, name)`` is the one producer of operator values: every
alias, and ``clstar:`` of one, is a table over all subsets, ``2**n`` bytes
with byte ``a`` the value at subset ``a``, memoized in the per-space
``space._cache`` under its name. Tables that depend on the topology alone
(generalized-open families and closures, local-function hit tables) live
in ``space.tables``, the dict the topology holds, and are shared by every
space on that topology.
The ideal is the power set of its top member, so a trace ``t & a`` lies
in it iff ``t & a & ~top`` is empty; hence ``f(a) = H[a & ~top]`` for the
ideal-free hit table ``H``. For a plain local function ``H`` is the kind
closure table: every kind-open neighborhood of ``z`` meets ``b`` iff ``z``
lies in every kind-closed superset of ``b``; for open neighborhoods that
is the closure table itself.

Every table is built in byte lanes (see ``space``): lane ``a`` holds the
value at subset ``a``, and a table is applied to all lanes at once with
``bytes.translate``. Builders loop over points, family members or tests,
never over subsets: a kind closure is the dual of the union of the
kind-open sets inside each subset, a local function is the lanes of
``a & ~top`` translated through ``H`` (the bytes ``translate`` returns are
the table), a dual is the base table's lanes reversed and complemented,
and ``clstar:`` ORs in the identity lanes. The bytes of ``a & ~top`` are
kept once per (n, top), and ``H`` padded to the 256 bytes ``translate``
takes is kept with the topology's tables, so a local-function table costs
each space one ``translate``, which ``unary_table`` does in one step on a
cache miss; ``hit_table`` itself still returns ``2**n`` bytes.

The string alias table at the bottom is the single naming surface shared
by the law DSL and the command line.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import NamedTuple

from .space import Family, Space, dual, lanes, nonzero, union_below


class OpenKind(Enum):
    OPEN = "open"
    SEMI = "semi"
    PRE = "pre"
    B = "b"
    BETA = "beta"


KIND_BY_NAME = {k.value: k for k in OpenKind}


class LocalFnSpec(NamedTuple):
    """Which local function: neighborhood kind, plus an optional closure
    kind that expands each neighborhood before testing it."""

    nbhd: OpenKind
    cl: OpenKind | None = None

    @property
    def is_plain(self) -> bool:
        return self.cl is None


def derived_set(space: Space, a: int) -> int:
    """Points whose every open neighborhood meets ``a`` elsewhere: entry
    ``a`` of the space's ``der`` table."""
    return _table(space, "der")[a]


def _lanes(table: bytes) -> int:
    """A table as byte lanes: lane ``a`` holds ``table[a]``."""
    return int.from_bytes(table, "little")


def _translate(lanes: bytes, table: bytes) -> bytes:
    """``table`` applied to every lane (``bytes.translate`` takes a 256-byte
    table; lanes only index its first ``2**n`` bytes)."""
    return lanes.translate(table.ljust(256, b"\0"))


def _inside(x: int, space: Space) -> Family:
    """The subsets ``a`` contained in lane ``a`` of ``x``."""
    ones, identity = lanes(space.ground.n)
    outside = nonzero(identity ^ identity & x, ones)
    return Family(tuple(itertools.compress(
        range(space.n_subsets), (ones ^ outside).to_bytes(space.n_subsets, "little")
    )))


def kopen_family(space: Space, kind: OpenKind) -> Family:
    """All kind-open subsets, canonically ordered.

    open: members of the topology      semi: a <= cl(int(a))
    pre:  a <= int(cl(a))              b:    a <= int(cl(a)) | cl(int(a))
    beta: a <= cl(int(cl(a)))

    The test runs on every subset at once, in byte lanes: the int/cl
    tables are the lanes of ``int(a)`` and ``cl(a)``, and translating
    lanes through a table applies it to each.
    """
    key = ("kopen", kind)
    fam = space.tables.get(key)
    if fam is None:
        if kind is OpenKind.OPEN:
            fam = space.topology.family
        else:
            it, cl = space.int_table, space.cl_table
            cl_int, int_cl = _translate(it, cl), _translate(cl, it)
            fam = _inside({
                OpenKind.SEMI: _lanes(cl_int),
                OpenKind.PRE: _lanes(int_cl),
                OpenKind.B: _lanes(int_cl) | _lanes(cl_int),
                OpenKind.BETA: _lanes(_translate(int_cl, cl)),
            }[kind], space)
        space.tables[key] = fam
    return fam


def kopen_at(space: Space, kind: OpenKind) -> tuple[tuple[int, ...], ...]:
    """Per point, the kind-open sets containing it."""
    key = ("kopen-at", kind)
    nbhds = space.tables.get(key)
    if nbhds is None:
        members = kopen_family(space, kind).members
        nbhds = tuple(
            tuple(u for u in members if u >> z & 1) for z in range(space.ground.n)
        )
        space.tables[key] = nbhds
    return nbhds


def kclosure_table(space: Space, kind: OpenKind) -> bytes:
    """The kind closure of every subset: the intersection of its
    kind-closed supersets, i.e. the complement of the union of the
    kind-open sets that miss it. That is the dual of the table of unions
    of the kind-open sets inside each subset; for the opens, the closure
    table the topology already holds."""
    if kind is OpenKind.OPEN:
        return space.cl_table
    key = ("kclosure", kind)
    table = space.tables.get(key)
    if table is None:
        n = space.ground.n
        table = dual(union_below(kopen_family(space, kind), n), n).to_bytes(1 << n, "little")
        space.tables[key] = table
    return table


def hit_table(space: Space, spec: LocalFnSpec) -> bytes:
    """Ideal-free local-function table: bit ``z`` of entry ``b`` is set iff
    every test at ``z`` meets ``b``.

    The tests at ``z`` are its kind-open neighborhoods for a plain spec,
    their generalized closures otherwise. Every kind-open neighborhood of
    ``z`` meets ``b`` iff ``z`` lies in every kind-closed superset of
    ``b``, so a plain spec's table is the kind closure table. For an
    expanded spec each point ANDs, over its tests, the lanes that meet
    the test.
    """
    if spec.is_plain:
        return kclosure_table(space, spec.nbhd)
    key = ("lf-hits", spec)
    table = space.tables.get(key)
    if table is None:
        ones, identity = lanes(space.ground.n)
        kcl = kclosure_table(space, spec.cl)
        out = 0
        for z, us in enumerate(kopen_at(space, spec.nbhd)):
            hit = ones
            for t in {kcl[u] for u in us}:
                hit &= nonzero(identity & t * ones, ones)
            out |= hit << z
        table = out.to_bytes(space.n_subsets, "little")
        space.tables[key] = table
    return table


@functools.lru_cache(maxsize=None)  # at most 2**n entries per point count
def _outside(n: int, top: int) -> bytes:
    """The lanes of ``a & ~top``, as bytes: what a local function under the
    ideal of ``top`` translates through its hit table."""
    ones, identity = lanes(n)
    return (identity & ((1 << n) - 1 & ~top) * ones).to_bytes(1 << n, "little")


def _local_fn(space: Space, alias: str) -> bytes:
    """The table of a local-function alias, ``f(a) = H[a & ~top]``: the
    lanes of ``a & ~top`` translated through the hit table ``H``, padded
    to the 256 bytes ``bytes.translate`` takes once per topology."""
    key = ("lf-hits-256", alias)
    hits = space.tables.get(key)
    if hits is None:
        hits = hit_table(space, LOCAL_FN_ALIASES[alias]).ljust(256, b"\0")
        space.tables[key] = hits
    return _outside(space.ground.n, space.ideal.top).translate(hits)


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
    if name in _ALIASES:
        return True
    while name.startswith(_CLSTAR):
        name = name[len(_CLSTAR):]
    return name in _ALIASES


def operator_names() -> tuple[str, ...]:
    return tuple(sorted(_ALIASES)) + ("clstar:<op>",)


def _table(space: Space, name: str) -> bytes:
    table = space._cache.get(name)
    if table is None:
        table = _build(space, name)
        space._cache[name] = table
    return table


def _build(space: Space, name: str) -> bytes:
    # Every table is computed on all subsets at once, in byte lanes.
    if name in LOCAL_FN_ALIASES:
        return _local_fn(space, name)
    n = space.ground.n
    size = space.n_subsets
    ones, identity = lanes(n)
    full = space.ground.universe
    if name in ("int", "cl"):
        return space.tables[name]
    if name == "der":
        # z is in der(a) iff it is in cl(a - {z})
        out = 0
        for z in range(n):
            bit = 1 << z
            without = (identity & (full ^ bit) * ones).to_bytes(size, "little")
            out |= _lanes(_translate(without, space.cl_table)) & bit * ones
        return out.to_bytes(size, "little")
    kind = _KCLOSURE_KIND.get(name)
    if kind is not None:
        return kclosure_table(space, kind)
    base = _DUAL_BASE.get(name)
    if base is not None:
        return dual(_lanes(_table(space, base)), n).to_bytes(size, "little")
    return (_lanes(_table(space, name[len(_CLSTAR):])) | identity).to_bytes(size, "little")


def unary_table(space: Space, name: str) -> bytes:
    """The values of an operator alias, or ``clstar:`` of one, on every
    subset, memoized per space: ``2**n`` bytes, byte ``a`` the value at
    subset ``a``.

    This is the only producer of operator values: each alias has one table
    per space, kept in ``space._cache`` under its name. A local function,
    the hot case, is built here in one step; every other name goes
    through ``_table``. Unknown names raise ``KeyError``.
    """
    table = space._cache.get(name)  # only operator names are ever cached
    if table is None:
        if name in LOCAL_FN_ALIASES:
            table = space._cache[name] = _local_fn(space, name)
        elif is_operator(name):
            table = _table(space, name)
        else:
            raise KeyError(f"unknown operator alias {name!r}")
    return table


def psi_fix_family(space: Space, spec: LocalFnSpec) -> Family:
    """All subsets contained in their own dual image; ``spec`` must be aliased."""
    return _inside(_lanes(unary_table(space, PSI_ALIAS[SPEC_ALIAS[spec]])), space)

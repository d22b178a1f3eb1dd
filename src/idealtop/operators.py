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
ideal-free hit table ``H``. Every ``H`` is the dual of a ``union_below``
table that files each kind-open neighborhood under its test (see
``hit_table``); for a plain local function that is the kind closure
table, and for open neighborhoods the closure table itself.

Every table is built in byte lanes (see ``space``): lane ``a`` holds the
value at subset ``a``, and a table is applied to all lanes at once with
``bytes.translate``. Builders loop over points or family members, never
over subsets: a kind closure and a hit table are the dual of a
``union_below`` table, a local function is the lanes of
``a & ~top`` translated through ``H`` (the bytes ``translate`` returns are
the table), a dual is the base table's lanes reversed and complemented,
and ``clstar:`` ORs in the identity lanes. The bytes of ``a & ~top`` are
kept once per (n, top), and each alias's ``H``, padded to the 256 bytes
``translate`` takes, is the one hit table stored with the topology's
tables, so a local-function table costs each space one ``translate``,
the first case of ``_build``. ``hit_table``
computes the ``2**n`` bytes of any kind pair, aliased or not, and stores
nothing of its own.

Open-set kinds and local functions are named by strings, as in the law
DSL, the command line and the corpus: a kind is one of ``KINDS``, the keys
of ``KIND_TESTS`` (its test, which the law registry reads too), and
``LOCAL_FN_ALIASES`` maps each alias to its ``(nbhd, cl)`` kind names.
"""

from __future__ import annotations

import functools
import itertools

from .space import Family, Space, dual, lanes, nonzero, union_below

# A set is kind-open iff it lies inside the union of its kind's chains, each
# a tuple of "int"/"cl" written outermost first, as the law DSL nests them.
KIND_TESTS: dict[str, tuple[tuple[str, ...], ...]] = {
    "open": (("int",),),
    "semi": (("cl", "int"),),
    "pre": (("int", "cl"),),
    "b": (("int", "cl"), ("cl", "int")),
    "beta": (("cl", "int", "cl"),),
}

KINDS = tuple(KIND_TESTS)


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


def kopen_family(space: Space, kind: str) -> Family:
    """All kind-open subsets, canonically ordered: the subsets inside their
    kind's test in ``KIND_TESTS``; for open, the topology itself.

    The test runs on every subset at once, in byte lanes: the int/cl
    tables are the lanes of ``int(a)`` and ``cl(a)``, and translating
    lanes through a chain's tables, innermost first, applies the chain to
    each. A kind not in ``KINDS`` raises ``KeyError``.
    """
    key = ("kopen", kind)
    fam = space.tables.get(key)
    if fam is None:
        if kind == "open":
            fam = space.topology.family
        elif kind in KIND_TESTS:
            test = 0
            for chain in KIND_TESTS[kind]:
                tables = [space.tables[op] for op in reversed(chain)]
                test |= _lanes(functools.reduce(_translate, tables))
            fam = _inside(test, space)
        else:
            raise KeyError(f"unknown open-set kind {kind!r}")
        space.tables[key] = fam
    return fam


def kclosure_table(space: Space, kind: str) -> bytes:
    """The kind closure of every subset: the intersection of its
    kind-closed supersets, i.e. the complement of the union of the
    kind-open sets that miss it. That is the dual of the table of unions
    of the kind-open sets inside each subset; for the opens, the closure
    table the topology already holds."""
    if kind == "open":
        return space.cl_table
    key = ("kclosure", kind)
    table = space.tables.get(key)
    if table is None:
        n = space.ground.n
        opens = kopen_family(space, kind).members
        table = dual(union_below(zip(opens, opens), n), n).to_bytes(1 << n, "little")
        space.tables[key] = table
    return table


def hit_table(space: Space, nbhd: str, cl: str | None = None) -> bytes:
    """Ideal-free local-function table: bit ``z`` of entry ``b`` is set iff
    every test at ``z`` meets ``b``.

    The tests at ``z`` are its ``nbhd``-open neighborhoods ``U``, each
    expanded to ``T(U)``, its ``cl`` kind closure, when ``cl`` is given.
    A test misses ``b`` iff it lies inside ``X - b``, so ``X - H[b]`` is
    the union of the ``U`` with ``T(U)`` inside ``X - b``: ``H`` is the
    dual of the ``union_below`` table with each ``U`` filed under
    ``T(U)``. For open tests that is ψ(A) = ∪{U open : U - A ∈ I}
    (Hamlett and Janković, 1990); unexpanded, ``T(U) = U`` and it is the
    kind closure table.
    """
    if cl is None:
        return kclosure_table(space, nbhd)
    n = space.ground.n
    kcl = kclosure_table(space, cl)
    filed = [(kcl[u], u) for u in kopen_family(space, nbhd).members]
    return dual(union_below(filed, n), n).to_bytes(1 << n, "little")


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
        hits = hit_table(space, *LOCAL_FN_ALIASES[alias]).ljust(256, b"\0")
        space.tables[key] = hits
    return _outside(space.ground.n, space.ideal.top).translate(hits)


# ---------------------------------------------------------------------------
# Alias table: the naming surface shared by the DSL and the CLI.

# Each local-function alias as its neighborhood kind and the optional
# closure kind that expands each neighborhood before it is tested.
LOCAL_FN_ALIASES: dict[str, tuple[str, str | None]] = {
    "star": ("open", None),
    "sstar": ("semi", None),
    "pstar": ("pre", None),
    "bstar": ("b", None),
    "betastar": ("beta", None),
    "G": ("open", "open"),
    "g": ("open", "semi"),
    "xis": ("semi", "semi"),
    "xip": ("pre", "pre"),
    "xib": ("b", "b"),
    "xibeta": ("beta", "beta"),
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

# The local function behind each dual.
_DUAL_BASE: dict[str, str] = {psi: alias for alias, psi in PSI_ALIAS.items()}

# Generalized closure alias for each kind but open.
_KCLOSURE_KIND: dict[str, str] = {
    "scl": "semi",
    "pcl": "pre",
    "bcl": "b",
    "betacl": "beta",
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
    # The memo of ``unary_table`` for the bases ``_build`` reads (a dual's
    # local function, a ``clstar:`` argument), untraced and unchecked.
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
    per space, kept in ``space._cache`` under its name. A missing table is
    built by ``_build``, whose first case is a local function, the hot
    one. Unknown names raise ``KeyError``.
    """
    table = space._cache.get(name)  # only operator names are ever cached
    if table is None:
        if not is_operator(name):
            raise KeyError(f"unknown operator alias {name!r}")
        table = space._cache[name] = _build(space, name)
    return table


def psi_fix_family(space: Space, alias: str) -> Family:
    """All subsets contained in their own dual image under a local-function
    alias."""
    return _inside(_lanes(unary_table(space, PSI_ALIAS[alias])), space)

"""The named-law registry.

Every registry law is a list of tagged DSL templates, checked in order by
the byte-lane scan of :mod:`idealtop.dsl`; violations carry the
lexicographically first witness (first variable outermost, masks
ascending). Registry names follow ``<law>:<operator alias>``, or
``family-cap-closed:<open-set kind>``; both are the strings the operator
layer uses, a key of ``operators.LOCAL_FN_ALIASES`` and one of
``operators.KINDS``. ``check_kuratowski`` and ``star_topology`` take the
alias as well.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from . import dsl
from . import operators as ops
from .space import Family, GroundSet, Space, Topology, validate_topology
from .verdicts import KURATOWSKI_AXIOMS, KuratowskiReport, Verdict, Witness

__all__ = [
    "Law",
    "Verdict",
    "Witness",
    "KuratowskiReport",
    "LAW_TEMPLATES",
    "StarTopologyRefused",
    "check_kuratowski",
    "check_family_is_topology",
    "get_law",
    "law_name_templates",
    "star_topology",
]

# Registry heads, as witness tag -> template text. ``{op}`` is a
# local-function alias, ``{psi}`` its dual and ``{T:x}`` a kind test
# (``operators.KIND_TESTS``) at ``x``. A family law states membership as a
# hypothesis: ``A`` lies in the psi-fix family iff ``A <= psi(A)``, and in
# the kind-open one iff ``A <= T(A)``. The Kuratowski axioms are laws of the
# star closure ``clstar:{op}``, in KURATOWSKI_AXIOMS order.
LAW_TEMPLATES: dict[str, dict[str | None, str]] = {
    "additivity": {None: "{op}(union(A,B)) == union({op}(A),{op}(B))"},
    "diff-law": {None: "diff({op}(A),{op}(B)) == diff({op}(diff(A,B)),{op}(B))"},
    "psi-cap": {"inter": "{psi}(inter(A,B)) == inter({psi}(A),{psi}(B))"},
    "psi-cup": {"union": "{psi}(union(A,B)) == union({psi}(A),{psi}(B))"},
    "kuratowski": dict(zip(KURATOWSKI_AXIOMS, (
        "clstar:{op}(empty) == empty",
        "A <= clstar:{op}(A)",
        "clstar:{op}(clstar:{op}(A)) == clstar:{op}(A)",
        "clstar:{op}(union(A,B)) == union(clstar:{op}(A),clstar:{op}(B))",
    ))),
    "eta-topology": {
        "missing-empty": "empty <= {psi}(empty)",
        "missing-universe": "X <= {psi}(X)",
        "union": "union(A,B) <= {psi}(union(A,B)) if A <= {psi}(A), B <= {psi}(B)",
        "inter": "inter(A,B) <= {psi}(inter(A,B)) if A <= {psi}(A), B <= {psi}(B)",
    },
    "family-cap-closed": {
        "inter": "inter(A,B) <= {T:inter(A,B)} if A <= {T:A}, B <= {T:B}",
    },
}

_TEST_FIELD = re.compile(r"\{T:([^}]*)\}")


def _kind_test(kind: str, arg: str) -> str:
    """``kind``'s test at ``arg`` as DSL text: the union of its chains in
    ``operators.KIND_TESTS``, each wrapped around ``arg``."""
    wrap = lambda chain: functools.reduce(lambda x, op: f"{op}({x})", reversed(chain), arg)
    return functools.reduce(lambda x, y: f"union({x},{y})", map(wrap, ops.KIND_TESTS[kind]))


def _scan(space: Space, tag: str | None, law: dsl.LawAst) -> Verdict:
    verdict = dsl.check_law(space, law)
    if verdict.holds:
        return verdict
    return Verdict(False, verdict.witness._replace(operation=tag))


def check_kuratowski(space: Space, alias: str) -> KuratowskiReport:
    """Per-axiom verdicts for the star closure ``a | f(a)`` of a
    local-function alias (a key of ``operators.LOCAL_FN_ALIASES``): the
    four axioms are scanned as the registry law ``kuratowski:<alias>``,
    which raises ValueError for any other name.
    """
    law = get_law("kuratowski:" + alias)
    return KuratowskiReport(*(_scan(space, axiom, ast) for axiom, ast in law.templates))


class StarTopologyRefused(Exception):
    """The star closure failed a Kuratowski axiom, so no topology is built."""

    def __init__(self, axiom: str, verdict: Verdict):
        super().__init__(f"star closure violates the {axiom} axiom")
        self.axiom = axiom
        self.verdict = verdict


def star_topology(space: Space, alias: str) -> Topology:
    """Topology whose closed sets are the fixed points of the star closure
    of a local-function alias.

    Refuses with :class:`StarTopologyRefused` unless all four Kuratowski
    axioms hold for the star closure ``clstar:<alias>`` on this space; the
    refusal names the first axiom that fails and carries its witness.
    """
    verdict = get_law("kuratowski:" + alias).check(space)
    if not verdict.holds:
        raise StarTopologyRefused(verdict.witness.operation, verdict)
    full = space.ground.universe
    star = ops.unary_table(space, "clstar:" + alias)
    opens = tuple(a for a in range(space.n_subsets) if star[full ^ a] == full ^ a)
    topo = Topology(Family(opens))
    issue = validate_topology(topo.family, space.ground)
    if issue is not None:  # guarded by the axioms; defensive only
        raise StarTopologyRefused(
            "axioms", Verdict.violated((), 0, operation=issue.kind)
        )
    return topo


def check_family_is_topology(family: Family, ground: GroundSet) -> Verdict:
    """Wrap the topology validator in a verdict with a pair witness."""
    issue = validate_topology(family, ground)
    if issue is None:
        return Verdict.ok()
    if issue.kind in ("missing-empty", "missing-universe"):
        missing = 0 if issue.kind == "missing-empty" else ground.universe
        return Verdict.violated((), missing, operation=issue.kind)
    a, b = issue.pair
    return Verdict.violated((("A", a), ("B", b)), issue.missing, operation=issue.kind)


class Law(NamedTuple):
    """A named law: its tagged templates, checked in order."""

    name: str
    templates: tuple[tuple[str | None, dsl.LawAst], ...]

    @property
    def arity(self) -> int:
        return max(len(ast.free_vars) for _, ast in self.templates)

    def check(self, space: Space) -> Verdict:
        """The first failing template's first witness, tagged."""
        for tag, ast in self.templates:
            verdict = _scan(space, tag, ast)
            if not verdict.holds:
                return verdict
        return Verdict.ok()

    def witness_violates(self, space: Space, witness: Witness) -> bool:
        """Re-evaluate a witness at its own bindings, without the law scan:
        on the template its tag names or, untagged, on every template whose
        variables it binds (violated if any of them is). Untagged bindings
        that cover no template raise ValueError."""
        bindings = dict(witness.bindings)
        if witness.operation is None:
            asts = [ast for _, ast in self.templates if set(ast.free_vars) <= bindings.keys()]
            if not asts:
                raise ValueError(
                    f"{self.name}: bindings of {', '.join(bindings) or 'no variable'} "
                    "cover the variables of no template"
                )
        else:
            asts = [ast for tag, ast in self.templates if tag == witness.operation]
            if not asts:
                raise ValueError(f"unknown witness tag {witness.operation!r} for {self.name}")
        return any(dsl.eval_law(space, ast, bindings)[2] for ast in asts)


def law_name_templates() -> tuple[str, ...]:
    return tuple(f"{h}:{'<kind>' if h == 'family-cap-closed' else '<op>'}" for h in LAW_TEMPLATES)


@functools.lru_cache(maxsize=None)  # one entry per registry name
def get_law(name: str) -> Law:
    """Resolve a registry name like ``additivity:sstar``.

    ``<op>`` ranges over the local-function aliases, ``<kind>`` over
    ``operators.KINDS``. Raises ValueError for anything else.
    """
    head, sep, arg = name.partition(":")
    if not sep:
        raise ValueError(f"law name needs an argument: {name!r}")
    if head == "family-cap-closed":
        if arg not in ops.KIND_TESTS:
            raise ValueError(f"unknown open-set kind {arg!r} in {name!r}")
        fill = lambda text: _TEST_FIELD.sub(lambda field: _kind_test(arg, field[1]), text)
    elif arg in ops.LOCAL_FN_ALIASES:
        fill = lambda text: text.format(op=arg, psi=ops.PSI_ALIAS[arg])
    else:
        raise ValueError(f"unknown operator alias {arg!r} in {name!r}")
    if head not in LAW_TEMPLATES:
        raise ValueError(f"unknown law {name!r}")
    templates = LAW_TEMPLATES[head].items()
    return Law(name, tuple((tag, dsl.parse_law(fill(text))) for tag, text in templates))

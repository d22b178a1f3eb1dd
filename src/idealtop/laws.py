"""The named-law registry.

Equation laws are DSL templates checked by the byte-lane scan of
:mod:`idealtop.dsl`; violations carry the lexicographically first witness
(first variable outermost, masks ascending). Only the two laws that
quantify over family members are hand-coded. Registry names follow
``<law>:<operator alias>``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

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
    "check_family_intersection_closed",
    "get_law",
    "law_name_templates",
    "star_topology",
]

# Registry heads built from DSL templates, as witness tag -> template text.
# ``{op}`` is a local-function alias and ``{psi}`` its dual. The Kuratowski
# axioms are laws of the star closure ``clstar:{op}``, in KURATOWSKI_AXIOMS
# order; a law holds iff all of its templates do.
LAW_TEMPLATES: dict[str, dict[str | None, str]] = {
    "additivity": {None: "{op}(union(A,B)) == union({op}(A),{op}(B))"},
    "diff-law": {None: "diff({op}(A),{op}(B)) == diff({op}(diff(A,B)),{op}(B))"},
    "psi-cap": {"inter": "{psi}(inter(A,B)) == inter({psi}(A),{psi}(B))"},
    "psi-cup": {"union": "{psi}(union(A,B)) == union({psi}(A),{psi}(B))"},
    "kuratowski": {
        "fixes-empty": "clstar:{op}(empty) == empty",
        "extensive": "A <= clstar:{op}(A)",
        "idempotent": "clstar:{op}(clstar:{op}(A)) == clstar:{op}(A)",
        "additive": "clstar:{op}(union(A,B)) == union(clstar:{op}(A),clstar:{op}(B))",
    },
}

@functools.lru_cache(maxsize=None)  # one entry per template and alias at most
def _parse(text: str, alias: str) -> dsl.LawAst:
    return dsl.parse_law(text.format(op=alias, psi=ops.PSI_ALIAS[alias]))


def _scan(space: Space, tag: str | None, law: dsl.LawAst) -> Verdict:
    verdict = dsl.check_law(space, law)
    if verdict.holds:
        return verdict
    return Verdict(False, replace(verdict.witness, operation=tag))


def check_kuratowski(space: Space, spec: ops.LocalFnSpec) -> KuratowskiReport:
    """Per-axiom verdicts for the star closure ``a | f(a)``.

    ``spec`` must be one of ``operators.LOCAL_FN_ALIASES``, since the
    axioms are scanned as laws of its alias.
    """
    alias = ops.SPEC_ALIAS[spec]
    axioms = LAW_TEMPLATES["kuratowski"]
    return KuratowskiReport(
        *(_scan(space, axiom, _parse(axioms[axiom], alias)) for axiom in KURATOWSKI_AXIOMS)
    )


class StarTopologyRefused(Exception):
    """The star closure failed a Kuratowski axiom, so no topology is built."""

    def __init__(self, axiom: str, verdict: Verdict):
        super().__init__(f"star closure violates the {axiom} axiom")
        self.axiom = axiom
        self.verdict = verdict


def star_topology(space: Space, spec: ops.LocalFnSpec) -> Topology:
    """Topology whose closed sets are the star-closure fixed points.

    Refuses with :class:`StarTopologyRefused` unless all four Kuratowski
    axioms hold for the star closure ``clstar:<alias>`` on this space.
    """
    failure = check_kuratowski(space, spec).first_violation
    if failure is not None:
        raise StarTopologyRefused(*failure)
    full = space.ground.universe
    star = ops.unary_table(space, "clstar:" + ops.SPEC_ALIAS[spec])
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


def check_family_intersection_closed(family: Family) -> Verdict:
    """Pairwise intersection closure, first failing pair as witness."""
    members, mask = family.members, family.mask
    for i, a in enumerate(members):
        for b in members[i:]:
            if not mask >> (a & b) & 1:
                return Verdict.violated((("A", a), ("B", b)), a & b, operation="inter")
    return Verdict.ok()


@dataclass(frozen=True)
class Law:
    """A named, space-quantified law with witness re-validation support."""

    name: str
    arity: int
    _check: Callable[[Space], Verdict]
    _recheck: Callable[[Space, Witness], bool]

    def check(self, space: Space) -> Verdict:
        return self._check(space)

    def witness_violates(self, space: Space, witness: Witness) -> bool:
        """Re-validate a witness at its own bindings, without the law scan."""
        return self._recheck(space, witness)

    def pair_violates(self, space: Space, a: int, b: int) -> bool:
        """Convenience for two-variable laws."""
        return self.witness_violates(space, Witness((("A", a), ("B", b)), 0))


def _template_law(name: str, alias: str, templates: dict[str | None, str]) -> Law:
    """A law from tagged templates: the first that fails gives the witness,
    and a witness is re-evaluated on the template its tag names (on the
    only template when there is one)."""
    asts = {tag: _parse(text, alias) for tag, text in templates.items()}

    def check(space: Space) -> Verdict:
        for tag, ast in asts.items():
            verdict = _scan(space, tag, ast)
            if not verdict.holds:
                return verdict
        return Verdict.ok()

    def recheck(space: Space, witness: Witness) -> bool:
        if len(asts) == 1:
            (ast,) = asts.values()
        else:
            ast = asts.get(witness.operation)
            if ast is None:
                raise ValueError(f"unknown closure axiom {witness.operation!r}")
        return dsl.eval_law(space, ast, dict(witness.bindings))[2]

    return Law(name, max(len(ast.free_vars) for ast in asts.values()), check, recheck)


def _family_pair_recheck(producer):
    def recheck(space: Space, witness: Witness) -> bool:
        fam = producer(space)
        if witness.operation in ("missing-empty", "missing-universe"):
            missing = 0 if witness.operation == "missing-empty" else space.ground.universe
            return missing not in fam
        a, b = (bits for _, bits in witness.bindings)
        combo = a | b if witness.operation == "union" else a & b
        return a in fam and b in fam and combo not in fam

    return recheck


def law_name_templates() -> tuple[str, ...]:
    return (
        "additivity:<op>",
        "diff-law:<op>",
        "psi-cap:<op>",
        "psi-cup:<op>",
        "kuratowski:<op>",
        "eta-topology:<op>",
        "family-cap-closed:<kind>",
    )


def get_law(name: str) -> Law:
    """Resolve a registry name like ``additivity:sstar``.

    ``<op>`` ranges over the local-function aliases, ``<kind>`` over
    open/semi/pre/b/beta. Raises ValueError for anything else.
    """
    head, sep, arg = name.partition(":")
    if not sep:
        raise ValueError(f"law name needs an argument: {name!r}")

    if head == "family-cap-closed":
        kind = ops.KIND_BY_NAME.get(arg)
        if kind is None:
            raise ValueError(f"unknown open-set kind {arg!r} in {name!r}")

        def check_kind(space: Space, _kind=kind) -> Verdict:
            return check_family_intersection_closed(ops.kopen_family(space, _kind))

        return Law(
            name,
            2,
            check_kind,
            _family_pair_recheck(lambda sp, _kind=kind: ops.kopen_family(sp, _kind)),
        )

    spec = ops.LOCAL_FN_ALIASES.get(arg)
    if spec is None:
        raise ValueError(f"unknown operator alias {arg!r} in {name!r}")

    if head in LAW_TEMPLATES:
        return _template_law(name, arg, LAW_TEMPLATES[head])

    if head == "eta-topology":
        def check_topology(space: Space, _s=spec) -> Verdict:
            fam = ops.psi_fix_family(space, _s)
            return check_family_is_topology(fam, space.ground)

        return Law(
            name, 2, check_topology,
            _family_pair_recheck(lambda sp, _s=spec: ops.psi_fix_family(sp, _s)),
        )

    raise ValueError(f"unknown law {name!r}")

"""The named-law registry.

Every registry law is a list of tagged DSL templates, checked in order by
the byte-lane scan of :mod:`idealtop.dsl`; violations carry the
lexicographically first witness (first variable outermost, masks
ascending). Registry names follow ``<law>:<operator alias>``, or
``family-cap-closed:<open-set kind>``; both are the strings the operator
layer uses, a key of ``operators.LOCAL_FN_ALIASES`` and one of
``operators.KINDS``. ``star_topology`` takes the alias as well.
``resolve_law`` is the one place that tells a registry name from DSL law
text, for ``check --law`` and the corpus alike.

``Law.check`` gives the first failing template's tagged witness, or None,
and ``Law.verdicts`` every template's, keyed by tag: the per-axiom answers
of a star closure are ``get_law("kuratowski:" + alias).verdicts(space)``.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from . import dsl
from . import operators as ops
from .space import Family, Space, Topology, Witness, validate_topology

__all__ = [
    "Law",
    "LAW_TEMPLATES",
    "KURATOWSKI_AXIOMS",
    "StarTopologyRefused",
    "get_law",
    "law_name_templates",
    "resolve_law",
    "star_topology",
    "text_law",
]

# Registry heads, as witness tag -> template text. ``{op}`` is a
# local-function alias, ``{psi}`` its dual and ``{T:x}`` a kind test
# (``operators.KIND_TESTS``) at ``x``. A family law states membership as a
# hypothesis: ``A`` lies in the psi-fix family iff ``A <= psi(A)``, and in
# the kind-open one iff ``A <= T(A)``. The Kuratowski axioms are laws of the
# star closure ``clstar:{op}``, tagged with their names and checked in this
# order, so a witness names the first axiom that fails.
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

# The closure axioms, in the order ``kuratowski:<op>`` checks them.
KURATOWSKI_AXIOMS = tuple(LAW_TEMPLATES["kuratowski"])

_TEST_FIELD = re.compile(r"\{T:([^}]*)\}")


def _kind_test(kind: str, arg: str) -> str:
    """``kind``'s test at ``arg`` as DSL text: the union of its chains in
    ``operators.KIND_TESTS``, each wrapped around ``arg``."""
    wrap = lambda chain: functools.reduce(lambda x, op: f"{op}({x})", reversed(chain), arg)
    return functools.reduce(lambda x, y: f"union({x},{y})", map(wrap, ops.KIND_TESTS[kind]))


def _scan(space: Space, tag: str | None, law: dsl.LawAst) -> Witness | None:
    witness = dsl.scan_law(space, law)[1]
    return None if witness is None else witness._replace(operation=tag)


class StarTopologyRefused(Exception):
    """A star closure failed the Kuratowski axiom its ``witness`` is tagged with."""

    def __init__(self, witness: Witness):
        super().__init__(f"star closure violates the {witness.operation} axiom")
        self.witness = witness

    def __reduce__(self):
        return self.__class__, (self.witness,)


def star_topology(space: Space, alias: str) -> Topology:
    """Topology whose closed sets are the fixed points of the star closure
    of a local-function alias.

    Refuses with :class:`StarTopologyRefused` unless all four Kuratowski
    axioms hold for the star closure ``clstar:<alias>`` on this space; the
    refusal names the first axiom that fails and carries its witness.
    """
    witness = get_law("kuratowski:" + alias).check(space)
    if witness is not None:
        raise StarTopologyRefused(witness)
    full = space.ground.universe
    star = ops.unary_table(space, "clstar:" + alias)
    opens = tuple(a for a in range(space.n_subsets) if star[full ^ a] == full ^ a)
    topo = Topology(Family(opens))
    error = validate_topology(topo.family, space.ground)
    if error is not None:  # guarded by the axioms; defensive only
        raise AssertionError(f"star closure of {alias} passed the axioms but {error.kind} fails")
    return topo


class Law(NamedTuple):
    """A named law: its tagged templates, checked in order."""

    name: str
    templates: tuple[tuple[str | None, dsl.LawAst], ...]

    def check(self, space: Space) -> Witness | None:
        """The first failing template's first witness, tagged, or None if
        the law holds; later templates are not scanned."""
        for tag, ast in self.templates:
            witness = _scan(space, tag, ast)
            if witness is not None:
                return witness
        return None

    def verdicts(self, space: Space) -> dict[str | None, Witness | None]:
        """Every template's tagged first witness, or None, keyed by tag in order."""
        return {tag: _scan(space, tag, ast) for tag, ast in self.templates}

    def violated_at(
        self, space: Space, bindings: tuple[tuple[str, int], ...], tag: str | None = None
    ) -> Witness | None:
        """Evaluate the law at these bindings only, without the law scan: on
        the template ``tag`` names or, untagged, on every template whose
        variables they bind. Returns the first violated template's witness,
        tagged, or None. Untagged bindings that cover no template raise
        ValueError."""
        env = dict(bindings)
        if tag is None:
            templates = [(t, ast) for t, ast in self.templates if set(ast.free_vars) <= env.keys()]
            if not templates:
                raise ValueError(
                    f"{self.name}: bindings of {', '.join(env) or 'no variable'} "
                    "cover the variables of no template"
                )
        else:
            templates = [(t, ast) for t, ast in self.templates if t == tag]
            if not templates:
                raise ValueError(f"unknown witness tag {tag!r} for {self.name}")
        for t, ast in templates:
            lhs, rhs, violated = dsl.eval_law(space, ast, env)
            if violated:
                return Witness(tuple((v, env[v]) for v in ast.free_vars), lhs, rhs, t)
        return None


def text_law(text: str, ast: dsl.LawAst | None = None) -> Law:
    """DSL law text as an untagged one-template law named by the text;
    ``ast`` is the text already parsed."""
    return Law(text, ((None, dsl.parse_law(text) if ast is None else ast),))


def resolve_law(text: str, var_cap: int | None = dsl.DEFAULT_VAR_CAP) -> Law:
    """A registry name or DSL law text as a ``Law``: text whose part before
    its first ``:`` is a registry head is a name (``get_law``), and any
    other text is a law, parsed, checked against ``var_cap`` (None: no
    cap) and wrapped by ``text_law``. The cap guards law text only."""
    if text.partition(":")[0] in LAW_TEMPLATES:
        return get_law(text)
    law = dsl.parse_law(text)
    if var_cap is not None:
        dsl._check_var_cap(law, var_cap)
    return text_law(text, law)


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

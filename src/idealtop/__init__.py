"""Workbench for finite ideal topological spaces.

Build spaces from JSON documents, evaluate local-function-style operators
on bitmask subsets, check algebraic laws with self-validating witnesses,
and search enumerated spaces for counterexamples.
"""

from .space import (
    Family,
    GroundSet,
    Ideal,
    IdealAxiomError,
    SchemaError,
    Space,
    SpaceDocumentError,
    Topology,
    TopologyAxiomError,
    UnknownLabelError,
    generate_ideal,
    generate_topology,
    parse_space,
    serialize_space,
    space_from_document,
    space_to_document,
    validate_ideal,
    validate_topology,
)
from .operators import (
    kopen_family,
    operator_names,
    psi_fix_family,
    unary_table,
)
from .dsl import LawAst, check_law, eval_expr, format_law, parse_expr, parse_law
from .search import SearchResult, SearchTask, enumerate_ideals, enumerate_topologies, run_search
from .verdicts import Verdict, Witness

__version__ = "0.1.0"

# The law registry is loaded on first use, so ``idealtop search`` starts
# without it (PEP 562).
_LAWS_NAMES = (
    "Law",
    "StarTopologyRefused",
    "check_family_is_topology",
    "get_law",
    "law_name_templates",
    "star_topology",
)

__all__ = [
    "Family",
    "GroundSet",
    "Ideal",
    "IdealAxiomError",
    "SchemaError",
    "Space",
    "SpaceDocumentError",
    "Topology",
    "TopologyAxiomError",
    "UnknownLabelError",
    "generate_ideal",
    "generate_topology",
    "parse_space",
    "serialize_space",
    "space_from_document",
    "space_to_document",
    "validate_ideal",
    "validate_topology",
    "kopen_family",
    "operator_names",
    "psi_fix_family",
    "unary_table",
    *_LAWS_NAMES,
    "LawAst",
    "check_law",
    "eval_expr",
    "format_law",
    "parse_expr",
    "parse_law",
    "SearchResult",
    "SearchTask",
    "enumerate_ideals",
    "enumerate_topologies",
    "run_search",
    "Verdict",
    "Witness",
]


def __getattr__(name: str):
    if name in _LAWS_NAMES:
        from . import laws

        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
    LocalFnSpec,
    OpenKind,
    cl_star,
    closure,
    derived_set,
    interior,
    kclosure,
    kopen_family,
    local_function,
    operator_names,
    psi_dual,
    psi_fix_family,
)
from .laws import (
    Law,
    StarTopologyRefused,
    check_family_intersection_closed,
    check_family_is_topology,
    check_kuratowski,
    get_law,
    law_name_templates,
    star_topology,
)
from .dsl import LawAst, check_law, eval_expr, format_law, parse_expr, parse_law
from .search import SearchResult, SearchTask, enumerate_ideals, enumerate_topologies, run_search
from .verdicts import KuratowskiReport, Verdict, Witness

__version__ = "0.1.0"

"""Exact domination polynomials of graphs.

Computes D(G, x) = sum_i d(G, i) x^i, the generating polynomial counting
dominating sets by size, three ways: exact counting on the graph itself (a
frontier dynamic program; the oracle), closed forms for named families, and
composition rules for joins, coronas and disjoint unions.  On top of that it
certifies, in exact integer arithmetic, which polynomials have no nonzero
real roots, and locates the complex roots numerically for plotting and
limit-curve analysis.

The root solver's names are served on first access (PEP 562), since only
the solver needs numpy: importing the package, or the CLI, leaves it
unloaded until a root is located or the modular squarefree test runs.
"""

from .enumeration import (
    domination_number,
    domination_polynomial,
    is_dominating,
)
from .errors import (
    CapacityError,
    EdgeListParseError,
    NonConvergenceError,
    OracleMismatchError,
)
from .formulas import (
    build_family,
    cg_family_factor,
    closed_form,
    poly_H,
    poly_book,
    poly_cocktail,
    poly_complement_friendship,
    poly_complete,
    poly_corona,
    poly_friendship,
    poly_join,
    poly_union,
)
from .graphs import (
    MAX_VERTICES,
    FamilySpec,
    Graph,
    complement,
    corona,
    disjoint_union,
    join,
    parse_edge_list,
    to_edge_list,
)
from .polynomials import Poly, binomial_power
from .realroots import (
    CgCertificate,
    certify_cg,
    check_oddness,
    squarefree_factors,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CgCertificate",
    "CircleDeviation",
    "EdgeListParseError",
    "FamilySpec",
    "Graph",
    "MAX_VERTICES",
    "NonConvergenceError",
    "OracleMismatchError",
    "Poly",
    "RootSet",
    "binomial_power",
    "build_family",
    "certify_cg",
    "cg_family_factor",
    "check_oddness",
    "circle_deviation",
    "closed_form",
    "complement",
    "corona",
    "disjoint_union",
    "distinct_real_roots",
    "domination_number",
    "domination_polynomial",
    "find_roots",
    "is_dominating",
    "join",
    "parse_edge_list",
    "poly_H",
    "poly_book",
    "poly_cocktail",
    "poly_complement_friendship",
    "poly_complete",
    "poly_corona",
    "poly_friendship",
    "poly_join",
    "poly_union",
    "squarefree_factors",
    "to_edge_list",
]

#: Names served from dompoly.complexroots, which imports numpy.
_SOLVER_NAMES = frozenset(
    {"CircleDeviation", "RootSet", "circle_deviation", "distinct_real_roots", "find_roots"}
)


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        from . import complexroots

        return getattr(complexroots, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOLVER_NAMES)

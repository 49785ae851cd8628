"""Exact domination polynomials of graphs.

Computes D(G, x) = sum_i d(G, i) x^i, the generating polynomial counting
dominating sets by size, three ways: exact counting on the graph itself (a
frontier dynamic program; the oracle), closed forms for named families, and
composition rules for joins, coronas and disjoint unions.  On top of that it
certifies, in exact integer arithmetic, which polynomials have no nonzero
real roots, and locates the complex roots numerically for plotting and
limit-curve analysis.

These names are served on first access (PEP 562), each from the module
that ``_SERVED`` gives it, so that importing the package, or the CLI, loads
none of these modules until one of its names is used:

    complexroots  CircleDeviation, RootSet, circle_deviation, find_roots
                  (the root solver, the only module that imports numpy)
    realroots     CgCertificate, certify_cg, squarefree_factors
    enumeration   domination_polynomial
"""

import importlib

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
    "circle_deviation",
    "closed_form",
    "complement",
    "corona",
    "disjoint_union",
    "domination_polynomial",
    "find_roots",
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

#: The names served on first access, each with the module that holds it.
_SERVED = {
    "CircleDeviation": "complexroots",
    "RootSet": "complexroots",
    "circle_deviation": "complexroots",
    "find_roots": "complexroots",
    "CgCertificate": "realroots",
    "certify_cg": "realroots",
    "squarefree_factors": "realroots",
    "domination_polynomial": "enumeration",
}


def __getattr__(name: str):
    if name in _SERVED:
        return getattr(importlib.import_module(f".{_SERVED[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SERVED))

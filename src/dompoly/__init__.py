"""Exact domination polynomials of graphs.

Computes D(G, x) = sum_i d(G, i) x^i, the generating polynomial counting
dominating sets by size, three ways: exact counting on the graph itself (a
frontier dynamic program; the oracle), closed forms for named families, and
composition rules for joins, coronas and disjoint unions.  On top of that it
certifies, in exact integer arithmetic, which polynomials have no nonzero
real roots, and locates the complex roots numerically for plotting and
limit-curve analysis.

``_SERVED`` is the package's one list of public names: it maps each name to
the module that defines it, and ``__all__`` is its sorted keys.  A name is
served on first access (PEP 562), by importing its module then, so
``import dompoly`` loads none of the package's modules; only the root solver
(``complexroots``) imports numpy.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, with the module that defines it.
_SERVED = {
    "CapacityError": "errors",
    "EdgeListParseError": "errors",
    "NonConvergenceError": "errors",
    "OracleMismatchError": "errors",
    "build_family": "formulas",
    "cg_family_factor": "formulas",
    "closed_form": "formulas",
    "poly_H": "formulas",
    "poly_book": "formulas",
    "poly_cocktail": "formulas",
    "poly_complement_friendship": "formulas",
    "poly_complete": "formulas",
    "poly_corona": "formulas",
    "poly_friendship": "formulas",
    "poly_join": "formulas",
    "poly_union": "formulas",
    "MAX_VERTICES": "graphs",
    "FamilySpec": "graphs",
    "Graph": "graphs",
    "complement": "graphs",
    "corona": "graphs",
    "disjoint_union": "graphs",
    "join": "graphs",
    "parse_edge_list": "graphs",
    "to_edge_list": "graphs",
    "Poly": "polynomials",
    "binomial_power": "polynomials",
    "CgCertificate": "realroots",
    "certify_cg": "realroots",
    "squarefree_factors": "realroots",
    "CircleDeviation": "complexroots",
    "RootSet": "complexroots",
    "circle_deviation": "complexroots",
    "find_roots": "complexroots",
    "domination_polynomial": "enumeration",
}

__all__ = sorted(_SERVED)


def __getattr__(name: str):
    if name in _SERVED:
        return getattr(importlib.import_module(f".{_SERVED[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SERVED))

"""Exact domination polynomials of graphs.

Computes D(G, x) = sum_i d(G, i) x^i, the generating polynomial counting
dominating sets by size, three ways: brute-force enumeration (the oracle),
closed forms for named families, and composition rules for joins, coronas and
disjoint unions.  On top of that it certifies, in exact integer arithmetic,
which polynomials have no nonzero real roots, and locates the complex roots
numerically for plotting and limit-curve analysis.
"""

from .complexroots import (
    CircleDeviation,
    RootSet,
    boundary_real_part_roots,
    circle_deviation,
    distinct_real_roots,
    find_roots,
    has_positive_real_part,
    roots_csv,
)
from .enumeration import (
    SUBSET_CAP,
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
    count_real_roots,
    sturm_sequence,
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
    "SUBSET_CAP",
    "binomial_power",
    "boundary_real_part_roots",
    "build_family",
    "certify_cg",
    "cg_family_factor",
    "check_oddness",
    "circle_deviation",
    "closed_form",
    "complement",
    "corona",
    "count_real_roots",
    "disjoint_union",
    "distinct_real_roots",
    "domination_number",
    "domination_polynomial",
    "find_roots",
    "has_positive_real_part",
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
    "roots_csv",
    "sturm_sequence",
    "to_edge_list",
]

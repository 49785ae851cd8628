"""Closed forms, composition rules and the table of named graph families.

Everything here is computed by direct expansion in exact integer arithmetic;
floating point never enters.  The composition rules read each operand's order
off its polynomial: the degree of a domination polynomial always equals the
order of the graph, since the full vertex set dominates.

``FAMILIES`` holds one row per named family: its parameter bounds, graph
builder, closed form and short ``--join`` alias.  ``build_family`` and
``closed_form`` read it, and so does the CLI.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from . import graphs
from .graphs import FamilySpec, Graph
from .polynomials import Poly, binomial_power

X = Poly.X


def _index_from_1(name: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{name} index must be at least 1")


def poly_complete(n: int) -> Poly:
    """Domination polynomial of the complete graph: (1+x)**n - 1."""
    if n < 1:
        raise ValueError("complete graph closed form needs n >= 1")
    return binomial_power(n) - 1


def poly_join(dg: Poly, dh: Poly) -> Poly:
    """Domination polynomial of the join from the operands' polynomials.

    ((1+x)**n - 1) * ((1+x)**m - 1) + dg + dh, where the operand orders n and
    m are the degrees of dg and dh.  The product is expanded as
    (1+x)**(n+m) - (1+x)**n - (1+x)**m + 1, so no two polynomials are
    multiplied.
    """
    n, m = dg.degree, dh.degree
    if n < 1 or m < 1:
        raise ValueError("join closed form needs nonempty operands")
    return binomial_power(n + m) - binomial_power(n) - binomial_power(m) + 1 + dg + dh


def poly_corona(n: int, dh: Poly) -> Poly:
    """Domination polynomial of g∘h: (x*(1+x)**m + dh)**n, m the degree of dh.

    Depends on g only through its order n; the edge set of g is irrelevant.
    """
    n, m = operator.index(n), dh.degree
    if n < 1 or m < 1:
        raise ValueError("corona closed form needs nonempty operands")
    return (X * binomial_power(m) + dh) ** n


def poly_union(dg: Poly, dh: Poly) -> Poly:
    """Domination polynomial of a disjoint union: the product of the parts."""
    return dg * dh


def poly_friendship(n: int) -> Poly:
    """Friendship graph (n triangles on a common vertex): (2x+x^2)^n + x(1+x)^(2n)."""
    _index_from_1("friendship", n)
    return (2 * X + X**2) ** n + X * binomial_power(2 * n)


def poly_cocktail(n: int) -> Poly:
    """Cocktail party graph K_{2n} minus a perfect matching: (1+x)^(2n) - (1+2nx)."""
    _index_from_1("cocktail_party", n)
    return binomial_power(2 * n) - Poly((1, 2 * n))


def poly_complement_friendship(n: int) -> Poly:
    """Complement of the friendship graph: x * ((1+x)^(2n) - (1+2nx))."""
    _index_from_1("complement_friendship", n)
    return X * poly_cocktail(n)


def poly_book(n: int) -> Poly:
    """Book graph (n 4-cycles on a common edge): (x^2+2x)^n (2x+1) + x^2 (x+1)^(2n) - 2x^n."""
    _index_from_1("book", n)
    return (
        (X**2 + 2 * X) ** n * Poly((1, 2))
        + X**2 * binomial_power(2 * n)
        - 2 * X**n
    )


_H_EVEN_FACTOR = Poly((0, 2, 6, 4, 1))  # x^4 + 4x^3 + 6x^2 + 2x
_H_ODD_FACTOR = Poly((0, 1, 3, 1))  # x^3 + 3x^2 + x


def poly_H(n: int) -> Poly:
    """Domination polynomial of the n-th H-family graph.

    (x^4+4x^3+6x^2+2x)^k for n = 2k, and (x^3+3x^2+x) times that for n = 2k+1.
    """
    _index_from_1("h_witness", n)
    k, odd = divmod(n, 2)
    p = _H_EVEN_FACTOR**k
    return _H_ODD_FACTOR * p if odd else p


def cg_family_factor(kind: str, *params: int) -> Poly:
    """Base factor x*(1+x)**m + D(H) for the iterated-corona families G∘H.

    The factor is D(K_1∘H); raising it to the order of G gives the corona
    polynomial, so the whole iterated family is generated by powers of this
    one polynomial.  D(H) comes from closed forms, never from the graph.

    kind "K": H = K_order, order must be even.
    kind "S": H = S_{k,n-k}, a k-clique joined to n-k isolated vertices;
              n must be odd.
    kind "B2": H = the two-page book graph.
    """
    if kind == "K":
        (order,) = params
        if order < 2 or order % 2:
            raise ValueError(f"kind K needs an even clique order >= 2, got {order}")
        dh = poly_complete(order)
    elif kind == "S":
        k, n = params
        if n % 2 == 0:
            raise ValueError(f"kind S needs odd order n, got {n}")
        _k_star_bounds("k_star", k, n)
        dh = poly_join(poly_complete(k), X ** (n - k))
    elif kind == "B2":
        if params:
            raise ValueError("kind B2 takes no parameters")
        dh = poly_book(2)
    else:
        raise ValueError(f"unknown factor kind {kind!r} (expected K, S, or B2)")
    return poly_corona(1, dh)


# -- the family table ------------------------------------------------------------


def _cycle_bounds(name: str, n: int) -> None:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")


def _k_star_bounds(name: str, k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k_star clique size must be at least 1")
    if n < k + 1:
        raise ValueError("k_star order must be at least clique size + 1")


@dataclass(frozen=True)
class Family:
    """One named parametric family.

    Parameters are nonnegative integers; ``bounds(name, *params)``, when
    given, raises ValueError for those the family does not accept.
    ``closed_form`` takes the single index of a one-parameter family, and
    families that have one are valid ``--join`` operands under their name and
    ``alias``.
    """

    name: str
    arity: int
    build: Callable[..., Graph]
    bounds: Callable[..., None] | None = None
    closed_form: Callable[[int], Poly] | None = None
    alias: str | None = None


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        # name, arity, builder, bounds, closed form, join alias
        Family("complete", 1, graphs.complete, None, poly_complete, "K"),
        Family("complete_bipartite", 2, graphs.complete_bipartite),
        Family("path", 1, graphs.path),
        Family("cycle", 1, graphs.cycle, _cycle_bounds),
        Family("friendship", 1, graphs.friendship, _index_from_1, poly_friendship, "F"),
        Family("complement_friendship", 1, graphs.complement_friendship,
               _index_from_1, poly_complement_friendship, "CF"),
        Family("cocktail_party", 1, graphs.cocktail_party, _index_from_1, poly_cocktail, "CP"),
        Family("book", 1, graphs.book, _index_from_1, poly_book, "B"),
        Family("k_star", 2, graphs.k_star, _k_star_bounds),
        Family("h_witness", 1, graphs.h_witness, _index_from_1, poly_H, "H"),
    )
}


def _family(spec: FamilySpec) -> Family:
    """The table row for spec; ValueError when spec is not a valid instance."""
    row = FAMILIES.get(spec.name)
    if row is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {spec.name!r} (known: {known})")
    if len(spec.params) != row.arity:
        raise ValueError(f"{spec.name} takes {row.arity} parameter(s), got {len(spec.params)}")
    if any(p < 0 for p in spec.params):
        raise ValueError(f"{spec.name} parameters must be nonnegative")
    if row.bounds is not None:
        row.bounds(spec.name, *spec.params)
    return row


def build_family(spec: FamilySpec) -> Graph:
    """Construct a named family instance."""
    return _family(spec).build(*spec.params)


def closed_form(spec: FamilySpec) -> Poly | None:
    """Closed-form polynomial for the family instance, or None if it has none.

    Degenerate indices (complete:0, the empty graph) also return None so the
    caller can fall back to enumeration.
    """
    fn = _family(spec).closed_form
    if fn is None or spec.params[0] < 1:
        return None
    return fn(*spec.params)

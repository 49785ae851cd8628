"""Property tests on random graphs of at most 12 vertices.

Hypothesis draws the graphs with ``derandomize=True``, so the suite stays
deterministic.  The composition rules are checked against enumeration of the
composed graph, and enumeration against the inclusion–exclusion oracle of
``conftest`` and the brute-force domination number.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dompoly.enumeration import domination_number, domination_polynomial, is_dominating
from dompoly.formulas import FAMILIES, build_family, closed_form, poly_corona, poly_join, poly_union
from dompoly.graphs import FamilySpec, Graph, corona, disjoint_union, join

from conftest import inclusion_exclusion_coeffs

D = domination_polynomial

MAX_ORDER = 12

examples = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def graphs(draw, min_n=0, max_n=MAX_ORDER):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, itertools.compress(pairs, keep))


@st.composite
def join_operands(draw, min_n=1):
    """(g, h) whose join or union has at most MAX_ORDER vertices."""
    g = draw(graphs(min_n, MAX_ORDER - min_n))
    return g, draw(graphs(min_n, MAX_ORDER - g.n))


@st.composite
def corona_operands(draw):
    """(g, h), both nonempty, whose corona has at most MAX_ORDER vertices."""
    g = draw(graphs(1, MAX_ORDER // 2))
    return g, draw(graphs(1, MAX_ORDER // g.n - 1))


@examples
@given(join_operands())
def test_join_rule(operands):
    g, h = operands
    assert poly_join(D(g), D(h)) == D(join(g, h))


@examples
@given(corona_operands())
def test_corona_rule(operands):
    g, h = operands
    assert poly_corona(g.n, D(h)) == D(corona(g, h))


@examples
@given(join_operands(min_n=0))
def test_union_rule(operands):
    g, h = operands
    assert poly_union(D(g), D(h)) == D(disjoint_union(g, h))


@examples
@given(graphs())
def test_dominating_set_count_is_odd(g):
    assert D(g).eval_exact(1) % 2 == 1


@examples
@given(graphs())
def test_domination_number_is_smallest_dominating_size(g):
    gamma = next(
        k
        for k in range(g.n + 1)
        if any(
            is_dominating(g, sum(1 << v for v in subset))
            for subset in itertools.combinations(range(g.n), k)
        )
    )
    assert domination_number(g) == gamma


@examples
@given(graphs())
def test_enumeration_matches_inclusion_exclusion(g):
    assert list(D(g).coeffs) == inclusion_exclusion_coeffs(g)


@pytest.mark.parametrize("name", [f.name for f in FAMILIES.values() if f.closed_form])
def test_closed_forms_match_inclusion_exclusion(name):
    checked = 0
    for n in itertools.count(1):
        spec = FamilySpec(name, (n,))
        g = build_family(spec)
        if g.n > MAX_ORDER:
            break
        assert list(closed_form(spec).coeffs) == inclusion_exclusion_coeffs(g), spec
        checked += 1
    assert checked >= 5

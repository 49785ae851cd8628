"""Property tests on random graphs of at most 12 vertices, and beyond.

Hypothesis draws the graphs with ``derandomize=True``, so the suite stays
deterministic.  The composition rules are checked against enumeration of the
composed graph.  Three counting methods that share no code are checked
against each other: the library's frontier DP, and the subset sweep and the
inclusion–exclusion oracle of ``conftest``; the DP also against the sweep on
fixed graphs of 20-28 vertices, and against every closed form at sizes the
sweep cannot reach.  On drawn graphs of 20-28 vertices, the widest kind for
the DP, neither vertex order may exceed its budgets, since past them a graph
is refused whatever its size.  Poly JSON and edge-list text must round-trip.
"""

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dompoly import cli
from dompoly.enumeration import domination_polynomial
from dompoly.formulas import FAMILIES, build_family, closed_form, poly_corona, poly_join, poly_union
from dompoly.graphs import (
    FamilySpec,
    Graph,
    complete_bipartite,
    corona,
    disjoint_union,
    join,
    parse_edge_list,
    to_edge_list,
)
from dompoly.polynomials import Poly

from conftest import domination_number, inclusion_exclusion_coeffs, random_graph, subset_sweep

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
    assert D(g).zero_root_multiplicity() == domination_number(g)


@examples
@given(graphs())
def test_enumeration_matches_inclusion_exclusion(g):
    expected = inclusion_exclusion_coeffs(g)
    assert list(D(g).coeffs) == expected
    assert list(subset_sweep(g).coeffs) == expected


#: (vertices, edge probability, seed): sparse and dense graphs of 20-28
#: vertices, where the sweep takes 5 ms to 0.6 s.
LARGE_GRAPHS = [(20, 0.15, 1), (22, 0.5, 2), (24, 0.85, 3), (26, 0.25, 5), (27, 0.5, 6), (28, 0.12, 8)]

#: The widest 28-vertex graph an edge-flipping hill climb found for the DP:
#: 26,440 states at its peak under the better order, 2.5x under STATE_BUDGET.
HILL_CLIMB_28 = parse_edge_list((Path(__file__).parent / "fixtures" / "hill_climb_28.txt").read_text())


@pytest.mark.parametrize(
    "g",
    [random_graph(n, random.Random(seed), p) for n, p, seed in LARGE_GRAPHS]
    + [complete_bipartite(13, 14), HILL_CLIMB_28],
    ids=[f"G({n},{p})" for n, p, _ in LARGE_GRAPHS] + ["K13,14", "hill-climb-28"],
)
def test_frontier_matches_sweep_on_large_graphs(g):
    assert D(g) == subset_sweep(g)


@st.composite
def wide_graphs(draw):
    """Graphs of 20-28 vertices whose frontiers run widest: nearly regular
    edge sets of maximum degree 3-8, or G(n, p) with p at most 0.5."""
    n = draw(st.sampled_from(range(20, 29)))
    rng = draw(st.randoms(use_true_random=False))
    cap = draw(st.sampled_from([3, 4, 5, 6, 7, 8, None]))
    if cap is None:
        return random_graph(n, rng, draw(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5])))
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if degree[u] < cap and degree[v] < cap:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, edges)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_graphs())
def test_frontier_budget_holds_up_to_28_vertices(g):
    p = D(g)  # raises CapacityError if both vertex orders exceed the budgets
    assert p.degree == g.n and p.eval_exact(1) % 2 == 1


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


@pytest.mark.parametrize("n", [50, 100])
@pytest.mark.parametrize("name", [f.name for f in FAMILIES.values() if f.closed_form])
def test_oracle_checks_closed_forms_beyond_the_sweep(name, n):
    """compute --oracle counts the family graph itself (50-202 vertices, all
    past the sweep's cap) and would exit 4 on a mismatch."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compute", "--family", f"{name}:{n}", "--oracle"])
    assert code == 0
    spec = FamilySpec(name, (n,))
    assert Poly(int(c) for c in json.loads(out.getvalue())["coeffs"]) == closed_form(spec)


@examples
@given(st.lists(st.integers(-(10**40), 10**40), max_size=30))
def test_poly_json_round_trip(coeffs):
    p = Poly(coeffs)
    assert Poly.from_json(p.to_json()) == p


@examples
@given(graphs(max_n=24))
def test_edge_list_round_trip(g):
    assert parse_edge_list(to_edge_list(g)) == g

import random
from pathlib import Path

import pytest

from dompoly import enumeration
from dompoly.enumeration import domination_polynomial
from dompoly.errors import CapacityError
from dompoly.formulas import build_family, closed_form
from dompoly.graphs import FamilySpec, Graph, disjoint_union, parse_edge_list
from dompoly.polynomials import Poly, binomial_power

from conftest import domination_number, is_dominating, random_graph, subset_sweep


def fam(name, *params):
    return build_family(FamilySpec(name, params))


class TestIsDominating:
    def test_c4_singleton_misses_opposite_vertex(self):
        c4 = fam("cycle", 4)
        assert not is_dominating(c4, 0b0001)
        assert is_dominating(c4, 0b0011)

    def test_p3_center(self):
        p3 = fam("path", 3)
        assert is_dominating(p3, 0b010)
        assert not is_dominating(p3, 0b001)

    def test_full_vertex_set_always_dominates(self, rng):
        for _ in range(10):
            g = random_graph(rng.randint(1, 7), rng)
            assert is_dominating(g, (1 << g.n) - 1)


class TestDominationPolynomial:
    def test_hand_enumerated_small_graphs(self):
        assert domination_polynomial(fam("complete", 3)) == Poly([0, 3, 3, 1])
        # C_4: all 6 pairs dominate, no singleton does
        assert domination_polynomial(fam("cycle", 4)) == Poly([0, 0, 6, 4, 1])
        # P_3: only the center dominates alone
        assert domination_polynomial(fam("path", 3)) == Poly([0, 1, 3, 1])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graphs(self, n):
        assert domination_polynomial(fam("complete", n)) == binomial_power(n) - 1

    def test_empty_graph(self):
        g = Graph(0)
        assert domination_polynomial(g) == Poly.ONE
        assert domination_polynomial(g).zero_root_multiplicity() == domination_number(g) == 0

    def test_coefficient_structure(self, rng):
        # d(G, n) = 1 and d(G, i) > 0 for gamma <= i <= n
        for _ in range(15):
            g = random_graph(rng.randint(1, 8), rng)
            p = domination_polynomial(g)
            assert p.degree == g.n
            assert p.coefficient(g.n) == 1
            gamma = p.zero_root_multiplicity()
            assert all(p.coefficient(i) > 0 for i in range(gamma, g.n + 1))

    def test_total_count_is_odd(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(1, 8), rng)
            assert domination_polynomial(g).eval_exact(1) % 2 == 1

    def test_minus_one_never_a_root(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(1, 8), rng)
            assert domination_polynomial(g).eval_exact(-1) != 0

    def test_disjoint_union_multiplies(self, rng):
        for _ in range(12):
            g = random_graph(rng.randint(1, 6), rng)
            h = random_graph(rng.randint(1, 6), rng)
            lhs = domination_polynomial(disjoint_union(g, h))
            assert lhs == domination_polynomial(g) * domination_polynomial(h)

    def test_crosses_low_block_boundary(self):
        # path on 20 vertices exercises the reference sweep's high-bit outer loop
        p = domination_polynomial(fam("path", 20))
        assert p.degree == 20
        assert p.zero_root_multiplicity() == 7  # gamma(P_n) = ceil(n/3)
        assert subset_sweep(fam("path", 20)) == p

    def test_empty_graph_beyond_sweep_cap(self):
        # the frontier DP has no vertex cap: N[u] = {u}, one state per step
        assert domination_polynomial(Graph(29)) == Poly.X**29


class TestBudget:
    def test_capacity_error_beyond_budget(self, monkeypatch):
        monkeypatch.setattr(enumeration, "STATE_BUDGET", 4)
        g = random_graph(30, random.Random(3), 0.3)
        with pytest.raises(CapacityError, match="state budget"):
            domination_polynomial(g)

    @pytest.mark.parametrize("name, value", [("STATE_BUDGET", 4), ("FRONTIER_BITS", 2048)])
    def test_sweep_fallback_within_cap(self, monkeypatch, name, value):
        # past the budgets even a small graph is refused
        g = random_graph(14, random.Random(4), 0.3)
        assert domination_polynomial(g) == subset_sweep(g)
        monkeypatch.setattr(enumeration, name, value)
        with pytest.raises(CapacityError, match="state budget"):
            domination_polynomial(g)

    def test_degree_order_after_greedy(self, monkeypatch):
        # greedy leaves the hub open, so every triangle stays open with it;
        # hub first needs 3 states
        monkeypatch.setattr(enumeration, "STATE_BUDGET", 1 << 10)
        g = fam("friendship", 40)
        assert enumeration._frontier_counts(g, enumeration._greedy_order(g)) is None
        assert domination_polynomial(g) == closed_form(FamilySpec("friendship", (40,)))


class TestGreedyOrder:
    """The greedy order decides the frontier sizes, so it is pinned."""

    HILL_CLIMB_28 = Path(__file__).parent / "fixtures" / "hill_climb_28.txt"

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "hill_climb_28",
                [7, 3, 12, 14, 18, 20, 9, 10, 15, 11, 17, 27, 19, 25]
                + [1, 24, 16, 4, 8, 21, 26, 0, 22, 23, 5, 13, 2, 6],
            ),
            ("h_witness:7", [12, 13, 14, 3, 4, 0, 5, 6, 1, 7, 8, 2, 9, 10, 11]),
            ("friendship:3", [1, 2, 0, 3, 4, 5, 6]),
            # dense and full of ties: a drifted tie-break moves it
            ("complete_bipartite:4,5", [4, 5, 6, 7, 0, 8, 1, 2, 3]),
        ],
    )
    def test_pinned_orders(self, name, expected):
        if name == "hill_climb_28":
            g = parse_edge_list(self.HILL_CLIMB_28.read_text())
        else:
            family, _, params = name.partition(":")
            g = fam(family, *map(int, params.split(",")))
        assert enumeration._greedy_order(g) == expected


class TestDominationNumber:
    """The zero-root multiplicity of the DP's polynomial against the brute force."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete(self, n):
        g = fam("complete", n)
        assert domination_polynomial(g).zero_root_multiplicity() == domination_number(g) == 1

    def test_c4(self):
        g = fam("cycle", 4)
        assert domination_polynomial(g).zero_root_multiplicity() == domination_number(g) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complement_friendship_needs_three(self, n):
        g = fam("complement_friendship", n)
        assert domination_polynomial(g).zero_root_multiplicity() == domination_number(g) == 3

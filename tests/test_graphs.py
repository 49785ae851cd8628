import itertools

import pytest

from dompoly.enumeration import domination_polynomial
from dompoly.errors import CapacityError, EdgeListParseError
from dompoly.formulas import FAMILIES, build_family, closed_form
from dompoly.graphs import (
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

from conftest import degree_sequence, random_graph


def fam(name, *params):
    return build_family(FamilySpec(name, params))


def fingerprint(g):
    # isomorphism stand-in: sorted degrees plus the domination polynomial
    return (degree_sequence(g), domination_polynomial(g))


class TestGraphBasics:
    def test_construction_and_closed_neighborhoods(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert tuple(m ^ 1 << v for v, m in enumerate(g.closed)) == (0b010, 0b101, 0b010)
        assert g.closed == (0b011, 0b111, 0b110)
        assert g.neighbors(1) == (0, 2)
        assert degree_sequence(g) == (2, 1, 1)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])
        with pytest.raises(ValueError):
            Graph(-1)

    def test_equality_hash_and_repr(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g == Graph(3, [(2, 1), (1, 0)]) and g != Graph(3, [(0, 1)])
        assert g != (3, g.closed) and g.__eq__("graph") is NotImplemented
        assert hash(g) == hash(Graph(3, [(1, 2), (0, 1)]))
        assert repr(g) == "Graph(n=3, m=2)"

    def test_vertex_cap(self):
        with pytest.raises(CapacityError):
            Graph(MAX_VERTICES + 1)

    def test_edges_iteration(self):
        g = fam("cycle", 4)
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert g.edge_count() == 4


class TestFamilies:
    def test_friendship_1_is_triangle(self):
        g = fam("friendship", 1)
        assert (g.n, g.edge_count()) == (3, 3)
        assert fingerprint(g) == fingerprint(fam("complete", 3))

    def test_cocktail_party_2_is_c4(self):
        assert fingerprint(fam("cocktail_party", 2)) == fingerprint(fam("cycle", 4))

    def test_complement_friendship_2(self):
        g = fam("complement_friendship", 2)
        assert (g.n, g.edge_count()) == (5, 4)
        expected = disjoint_union(fam("cycle", 4), fam("complete", 1))
        assert fingerprint(g) == fingerprint(expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complement_friendship_is_cocktail_plus_isolated(self, n):
        g = fam("complement_friendship", n)
        expected = disjoint_union(fam("cocktail_party", n), fam("complete", 1))
        assert fingerprint(g) == fingerprint(expected)

    def test_book_1_is_c4(self):
        assert fingerprint(fam("book", 1)) == fingerprint(fam("cycle", 4))

    @pytest.mark.parametrize("name", [f.name for f in FAMILIES.values() if f.closed_form])
    def test_orders_match_family_order(self, name):
        # every index below 7 with a closed form: its degree is the order
        checked = 0
        for n in range(7):
            spec = FamilySpec(name, (n,))
            try:
                p = closed_form(spec)
            except ValueError:
                with pytest.raises(ValueError):
                    build_family(spec)
                continue
            if p is not None:
                assert build_family(spec).n == p.degree
                checked += 1
        assert checked >= 4

    def test_h_witness_orders(self):
        assert build_family(FamilySpec("h_witness", (1,))).n == 3
        assert build_family(FamilySpec("h_witness", (2,))).n == 4
        assert build_family(FamilySpec("h_witness", (6,))).n == 12
        assert build_family(FamilySpec("h_witness", (7,))).n == 15

    def test_h_witness_1_is_p3(self):
        assert fingerprint(fam("h_witness", 1)) == fingerprint(fam("path", 3))

    def test_k_star_2_1_is_triangle(self):
        assert fingerprint(fam("k_star", 2, 3)) == fingerprint(fam("complete", 3))

    def test_arity_and_bounds_validation(self):
        for bad in (
            FamilySpec("cycle", (2,)),
            FamilySpec("friendship", (0,)),
            FamilySpec("k_star", (0, 3)),
            FamilySpec("k_star", (3, 3)),
            FamilySpec("complete", (1, 2)),
            FamilySpec("nonsense", (1,)),
        ):
            with pytest.raises(ValueError):
                build_family(bad)

    def test_spec_string_round_trip(self):
        assert str(FamilySpec("k_star", (2, 5))) == "k_star:2,5"


class TestCombinators:
    def test_join_of_single_vertices_is_k2(self):
        assert join(fam("complete", 1), fam("complete", 1)) == fam("complete", 2)

    def test_join_of_empty_graphs_is_complete_bipartite(self):
        two_iso = Graph(2)
        assert fingerprint(join(two_iso, two_iso)) == fingerprint(fam("cycle", 4))

    def test_join_with_empty_graph_is_identity(self):
        g = fam("path", 4)
        assert join(g, Graph(0)) == g

    def test_join_edge_count(self, rng):
        for _ in range(25):
            g = random_graph(rng.randint(0, 6), rng)
            h = random_graph(rng.randint(0, 6), rng)
            j = join(g, h)
            assert j.n == g.n + h.n
            assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n
        assert join(fam("path", 3), fam("path", 3)).edge_count() == 13

    def test_corona_small_cases(self):
        k1 = fam("complete", 1)
        assert corona(k1, k1) == fam("complete", 2)
        p4 = corona(fam("complete", 2), k1)
        assert fingerprint(p4) == fingerprint(fam("path", 4))
        apex = corona(k1, fam("path", 3))
        assert apex == fam("h_witness", 2)

    def test_corona_counts_and_degrees(self, rng):
        for _ in range(15):
            g = random_graph(rng.randint(1, 4), rng)
            h = random_graph(rng.randint(1, 4), rng)
            c = corona(g, h)
            assert c.n == g.n * (1 + h.n)
            for v in range(g.n):
                assert c.degree(v) == g.degree(v) + h.n

    def test_corona_requires_nonempty_second_operand(self):
        with pytest.raises(ValueError):
            corona(fam("complete", 2), Graph(0))

    def test_corona_of_empty_base(self):
        assert corona(Graph(0), fam("path", 3)).n == 0

    def test_disjoint_union(self):
        g = disjoint_union(fam("complete", 3), fam("complete", 3))
        assert (g.n, g.edge_count()) == (6, 6)
        assert disjoint_union(Graph(1), Graph(1)) == Graph(2)

    def test_complement_involution(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(0, 8), rng)
            assert complement(complement(g)) == g

    def test_complement_known_cases(self):
        assert complement(fam("complete", 4)) == Graph(4)
        assert complement(fam("cycle", 4)).edge_count() == 2
        g = complement(fam("friendship", 3))
        assert fingerprint(g) == fingerprint(fam("complement_friendship", 3))

    def test_exact_adjacency_against_definitions(self, rng):
        """Each combinator's closed-neighborhood masks, and every query on
        the result, agree with its definition, built here from plain edge
        lists; h's vertex i becomes g.n + i.  Graph(m) adds m isolated
        vertices."""

        def random_edges(n):
            p = rng.random()
            return [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]

        sizes = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(40)]
        for n, m in [(0, 0), (0, 3), (4, 0)] + sizes + [(70, 65)]:
            g_edges, h_edges = random_edges(n), random_edges(m)
            g, h = Graph(n, g_edges), Graph(m, h_edges)
            shifted = [(n + u, n + v) for u, v in h_edges]
            across = [(u, n + w) for u in range(n) for w in range(m)]
            non_edges = set(itertools.combinations(range(n), 2)) - set(g_edges)
            cases = [
                (join(g, h), n + m, g_edges + shifted + across),
                (disjoint_union(g, h), n + m, g_edges + shifted),
                (disjoint_union(g, Graph(m)), n + m, g_edges),
                (complement(g), n, non_edges),
            ]
            for result, order, edges in cases:
                edges = sorted(edges)
                nbrs = [[] for _ in range(order)]
                for u, v in edges:
                    nbrs[u].append(v)
                    nbrs[v].append(u)
                assert result.n == order
                closed = tuple(sum(1 << w for w in {v, *a}) for v, a in enumerate(nbrs))
                assert result.closed == closed
                for v, a in enumerate(nbrs):
                    assert result.neighbors(v) == tuple(sorted(a)) and result.degree(v) == len(a)
                assert degree_sequence(result) == tuple(sorted(map(len, nbrs), reverse=True))
                assert result.edge_count() == len(edges)
                assert list(result.edges()) == edges

    @pytest.mark.parametrize(
        "combine, operand",
        [
            (join, Graph(MAX_VERTICES // 2 + 1)),
            (disjoint_union, Graph(MAX_VERTICES // 2 + 1)),
            (corona, fam("complete", 200)),
        ],
        ids=["join", "disjoint_union", "corona"],
    )
    def test_combinator_capacity(self, combine, operand):
        """The vertex cap is checked before any edge is read; corona(K_200,
        K_200) would have 40,200 vertices and about 4 million edges."""

        class Unread(Graph):
            __slots__ = ()

            def edges(self):
                raise AssertionError("edges read before the vertex cap was checked")
                yield

        big = Unread(operand.n, operand.edges())
        with pytest.raises(CapacityError):
            combine(big, big)


class TestEdgeListFormat:
    def test_parse_triangle(self):
        assert parse_edge_list("3 3\n0 1\n1 2\n0 2") == fam("complete", 3)

    def test_parse_single_vertex(self):
        assert parse_edge_list("1 0") == Graph(1)

    def test_round_trip(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(0, 9), rng)
            assert parse_edge_list(to_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text,line",
        [
            ("2 1\n0 0", 2),
            ("2 2\n0 1\n1 0", 3),
            ("2 1\n0 5", 2),
            ("2 1\nzero one", 2),
            ("2 1", 2),
            ("x y", 1),
            ("", 1),
            ("2 1\n0 1\n1 0", 3),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text", ["-1 0", "2 -1\n0 1", "-3 -2"])
    def test_negative_header_counts_rejected(self, text):
        with pytest.raises(EdgeListParseError, match="header counts must be nonnegative") as exc:
            parse_edge_list(text)
        assert exc.value.line == 1

    @pytest.mark.parametrize("field", ["1_0", "+1", "\u0663"])  # U+0663 is Arabic-Indic 3
    def test_only_ascii_decimals_in_the_header(self, field):
        with pytest.raises(EdgeListParseError, match="header must be two integers") as exc:
            parse_edge_list(f"{field} 0\n")
        assert exc.value.line == 1
        with pytest.raises(EdgeListParseError, match="header must be two integers"):
            parse_edge_list(f"12 {field}\n")

    @pytest.mark.parametrize("field", ["1_0", "+1", "\u0663"])
    def test_only_ascii_decimals_in_edge_lines(self, field):
        for line in (f"{field} 2", f"2 {field}"):
            with pytest.raises(EdgeListParseError, match="expected integer endpoints") as exc:
                parse_edge_list(f"12 2\n0 1\n{line}\n")
            assert exc.value.line == 3

    def test_trailing_blank_lines_ok(self):
        assert parse_edge_list("1 0\n\n") == Graph(1)

import pytest

from dompoly.enumeration import domination_polynomial
from dompoly.formulas import (
    FAMILIES,
    build_family,
    cg_family_factor,
    closed_form,
    order_of_H,
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
from dompoly.graphs import FamilySpec, corona, join
from dompoly.polynomials import Poly, binomial_power

from conftest import random_graph

X = Poly.X


def fam(name, *params):
    return build_family(FamilySpec(name, params))


def D(g):
    return domination_polynomial(g)


class TestJoinFormula:
    def test_two_vertices(self):
        assert poly_join(X, 1, X, 1) == Poly([0, 2, 1])

    def test_p3_plus_p3_matches_enumeration(self):
        dp3 = D(fam("path", 3))
        expected = D(join(fam("path", 3), fam("path", 3)))
        assert poly_join(dp3, 3, dp3, 3) == expected

    def test_h4_plus_h4_square_identity(self):
        # D(H_4 + H_4) = ((1+x)^8 - 1)^2 + 2 D(H_4)
        h4 = poly_H(4)
        joined = poly_join(h4, 8, h4, 8)
        assert joined == (binomial_power(8) - 1) ** 2 + 2 * h4

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly_join(X, 2, X, 1)
        with pytest.raises(ValueError):
            poly_join(X, 1, X, 0)


class TestCoronaFormula:
    def test_single_pendant(self):
        assert poly_corona(1, X, 1) == Poly([0, 2, 1])

    def test_apex_over_p3_gives_h2(self):
        assert poly_corona(1, D(fam("path", 3)), 3) == poly_H(2)

    def test_matches_enumeration_and_ignores_base_edges(self):
        dk2 = D(fam("complete", 2))
        formula = poly_corona(3, dk2, 2)
        assert formula == D(corona(fam("path", 3), fam("complete", 2)))
        assert formula == D(corona(fam("complete", 3), fam("complete", 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_corona(0, X, 1)
        with pytest.raises(ValueError):
            poly_corona(2, X, 3)


class TestNamedFamilies:
    def test_friendship_values(self):
        assert poly_friendship(1) == Poly([0, 3, 3, 1])  # F_1 = K_3
        assert poly_friendship(2) == Poly([0, 1, 8, 10, 5, 1])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_friendship_against_enumeration(self, n):
        assert poly_friendship(n) == D(fam("friendship", n))

    def test_cocktail_values(self):
        assert poly_cocktail(1) == Poly([0, 0, 1])  # 2K_1: both vertices needed
        assert poly_cocktail(2) == Poly([0, 0, 6, 4, 1])  # = D(C_4)

    def test_complement_friendship_is_x_times_cocktail(self):
        for n in range(1, 12):
            assert poly_complement_friendship(n) == X * poly_cocktail(n)
            assert poly_complement_friendship(n).zero_root_multiplicity() == 3

    def test_complement_friendship_value(self):
        assert poly_complement_friendship(2) == Poly([0, 0, 0, 6, 4, 1])

    def test_book_1_is_c4(self):
        assert poly_book(1) == poly_cocktail(2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_book_against_enumeration(self, n):
        assert poly_book(n) == D(fam("book", n))

    def test_h_values(self):
        assert poly_H(1) == Poly([0, 1, 3, 1])  # = D(P_3)
        assert poly_H(2) == Poly([0, 2, 6, 4, 1])
        assert poly_H(4) == poly_H(2) ** 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_h_against_enumeration_of_witness(self, n):
        assert poly_H(n) == D(fam("h_witness", n))

    def test_order_of_h(self):
        assert [order_of_H(n) for n in range(1, 8)] == [3, 4, 7, 8, 11, 12, 15]
        for n in range(1, 8):
            assert poly_H(n).degree == order_of_H(n)

    def test_degree_bookkeeping(self):
        for n in range(1, 10):
            assert poly_friendship(n).degree == 2 * n + 1
            assert poly_book(n).degree == 2 * n + 2
            assert poly_cocktail(n).degree == 2 * n

    @pytest.mark.parametrize(
        "fn", [poly_friendship, poly_cocktail, poly_complement_friendship, poly_book, poly_H, poly_complete]
    )
    def test_zero_index_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0)


#: The closed forms written out in plain int arithmetic, sharing no code with Poly.
_UNEXPANDED = {
    poly_H: lambda t, n: (t**3 + 3 * t**2 + t) ** (n % 2)
    * (t**4 + 4 * t**3 + 6 * t**2 + 2 * t) ** (n // 2),
    poly_friendship: lambda t, n: (t * t + 2 * t) ** n + t * (1 + t) ** (2 * n),
    poly_book: lambda t, n: (t * t + 2 * t) ** n * (2 * t + 1)
    + t * t * (t + 1) ** (2 * n)
    - 2 * t**n,
    poly_complement_friendship: lambda t, n: t * ((1 + t) ** (2 * n) - (1 + 2 * n * t)),
    poly_cocktail: lambda t, n: (1 + t) ** (2 * n) - (1 + 2 * n * t),
}


class TestLargeClosedForms:
    @pytest.mark.parametrize("fn", list(_UNEXPANDED), ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("n", [100, 129, 256, 386])
    def test_matches_unexpanded_formula(self, fn, n):
        p = fn(n)
        for t in (1, 2, -3, 7):
            assert p.eval_exact(t) == _UNEXPANDED[fn](t, n)


class TestNoProductsInPowers:
    """Powers and joins make a fixed handful of Poly products, whatever n:
    a return to repeated squaring (about 2·log2(n) products) fails here."""

    @pytest.fixture
    def mul_calls(self, monkeypatch):
        calls = []
        mul = Poly.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        monkeypatch.setattr(Poly, "__rmul__", counted)
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            lambda: poly_H(300),
            lambda: poly_friendship(300),
            lambda: poly_book(300),
            lambda: poly_join(poly_H(33), order_of_H(33), poly_book(32), 2 * 32 + 2),
        ],
        ids=["H300", "friendship300", "book300", "join_H33_B32"],
    )
    def test_product_count_is_small(self, mul_calls, build):
        build()
        assert len(mul_calls) <= 6


class TestUnion:
    def test_cocktail_plus_isolated(self):
        c4 = D(fam("cycle", 4))
        assert poly_union(c4, X) == poly_complement_friendship(2)

    def test_one_is_identity(self):
        p = poly_book(3)
        assert poly_union(p, Poly.ONE) == p

    def test_two_triangles(self):
        k3 = D(fam("complete", 3))
        two = fam("complete", 3)
        from dompoly.graphs import disjoint_union

        assert poly_union(k3, k3) == D(disjoint_union(two, two))


class TestCgFamilyFactor:
    def test_k2_factor(self):
        assert cg_family_factor("K", 2) == Poly([0, 3, 3, 1])

    def test_k_factor_telescopes(self):
        # x(1+x)^m + D(K_m) = (1+x)^(m+1) - 1
        for m in (2, 4, 6):
            assert cg_family_factor("K", m) == binomial_power(m + 1) - 1

    def test_b2_factor_uses_enumerator(self):
        db2 = D(fam("book", 2))
        assert cg_family_factor("B2") == X * binomial_power(6) + db2

    def test_s_factor(self):
        dk3 = D(fam("complete", 3))  # S_{2,1} = K_3
        assert cg_family_factor("S", 2, 3) == X * binomial_power(3) + dk3

    def test_factor_power_equals_corona(self):
        f = cg_family_factor("B2")
        dh = D(fam("book", 2))
        assert f**3 == poly_corona(3, dh, 6)

    def test_parity_validation(self):
        with pytest.raises(ValueError, match="even"):
            cg_family_factor("K", 3)
        with pytest.raises(ValueError, match="odd"):
            cg_family_factor("S", 2, 4)
        with pytest.raises(ValueError):
            cg_family_factor("B2", 1)
        with pytest.raises(ValueError):
            cg_family_factor("Q")


class TestClosedFormDispatch:
    @pytest.mark.parametrize("name", [f.name for f in FAMILIES.values() if f.closed_form])
    def test_where_defined_matches_enumerator(self, name):
        for n in range(1, 5):
            spec = FamilySpec(name, (n,))
            assert closed_form(spec) == D(build_family(spec))

    def test_undefined_families_return_none(self):
        assert closed_form(FamilySpec("path", (4,))) is None
        assert closed_form(FamilySpec("k_star", (2, 4))) is None
        assert closed_form(FamilySpec("complete", (0,))) is None


class TestRandomizedSoundness:
    def test_join_formula_random_pairs(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(1, 5), rng)
            h = random_graph(rng.randint(1, 5), rng)
            assert poly_join(D(g), g.n, D(h), h.n) == D(join(g, h))

    def test_corona_formula_random_pairs(self, rng):
        for _ in range(10):
            g = random_graph(rng.randint(1, 3), rng)
            h = random_graph(rng.randint(1, 3), rng)
            assert poly_corona(g.n, D(h), h.n) == D(corona(g, h))

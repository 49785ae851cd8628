import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dompoly import realroots
from dompoly.enumeration import domination_polynomial
from dompoly.formulas import (
    FAMILIES,
    build_family,
    closed_form,
    poly_book,
    poly_cocktail,
    poly_complement_friendship,
    poly_friendship,
    poly_H,
    poly_join,
    poly_union,
)
from dompoly.graphs import FamilySpec
from dompoly.polynomials import Poly
from dompoly.realroots import (
    _PRIME,
    _PROOF_DEPTH,
    _exact_div,
    _scaled_below_one,
    _shift_lanes,
    _squarefree_mod_prime,
    certify_cg,
    squarefree_factors,
)

from conftest import (
    BENCHMARK_JOINS,
    check_oddness,
    count_real_roots,
    random_graph,
    sturm_sequence,
)

X = Poly.X
INF = float("inf")


class TestSturmSequence:
    def test_chain_shape(self):
        chain = sturm_sequence(Poly([6, 4, 1]))
        assert chain[0] == Poly([6, 4, 1])
        assert chain[-1].degree == 0

    def test_no_real_roots_negative_discriminant(self):
        assert count_real_roots(Poly([6, 4, 1])) == 0

    def test_two_real_roots(self):
        assert count_real_roots(Poly([1, 3, 1])) == 2

    def test_linear(self):
        assert count_real_roots(Poly([-1, 1])) == 1

    def test_constant_and_zero(self):
        assert count_real_roots(Poly([5])) == 0
        with pytest.raises(ValueError):
            sturm_sequence(Poly())


class TestCountRealRoots:
    def test_interval_counts_for_quadratics(self):
        p = Poly([1, 3, 1])  # roots (-3 +- sqrt5)/2, both negative
        assert count_real_roots(p, -INF, 0) == 2
        assert count_real_roots(p, 0, INF) == 0
        q = Poly([-1, 0, 1])  # roots +-1
        assert count_real_roots(q, 0, INF) == 1

    def test_open_interval_excludes_endpoint_roots(self):
        q = Poly([-1, 0, 1])
        assert count_real_roots(q, -1, 1) == 0
        assert count_real_roots(q, -1, 2) == 1
        assert count_real_roots(q, -2, 1) == 1
        assert count_real_roots(q, -2, 2) == 2

    def test_float_endpoints(self):
        p = Poly([1, 3, 1])  # roots near -2.618 and -0.382
        assert count_real_roots(p, -3.0, -0.5) == 1
        assert count_real_roots(p, -INF, INF) == 2
        assert count_real_roots(p, -0.25, INF) == 0

    def test_invalid_endpoints(self):
        p = Poly([1, 3, 1])
        with pytest.raises(ValueError, match="NaN"):
            count_real_roots(p, float("nan"), 0)
        with pytest.raises(ValueError, match="NaN"):
            count_real_roots(p, -1, float("nan"))
        with pytest.raises(TypeError, match="endpoint"):
            count_real_roots(p, "-1", 0)

    def test_rational_endpoints(self):
        p = Poly([1, 3, 1])
        assert count_real_roots(p, Fraction(-1, 2), 0) == 1

    def test_repeated_roots_counted_once(self):
        # (x-1)^2 (x+2)
        p = Poly([-1, 1]) ** 2 * Poly([2, 1])
        assert count_real_roots(p) == 2
        assert count_real_roots(p, 0, INF) == 1
        # chain bottoms out at the gcd before the squarefree pass
        assert sturm_sequence(p)[-1].degree == 1

    def test_oracle_skips_the_modular_squarefree_test(self, monkeypatch):
        def refuse(p):
            raise AssertionError("count_real_roots ran the certifier's modular test")

        for name in ("_squarefree_mod_prime", "squarefree_factors"):
            monkeypatch.setattr(realroots, name, refuse)
        assert count_real_roots(Poly([-2, 0, 1])) == 2  # squarefree
        assert count_real_roots(Poly([-1, 1]) ** 2 * Poly([2, 1])) == 2  # (x-1)^2 (x+2)

    def test_invalid_intervals(self):
        p = Poly([1, 3, 1])
        with pytest.raises(ValueError):
            count_real_roots(p, 1, 1)
        with pytest.raises(ValueError):
            count_real_roots(p, 2, -2)
        with pytest.raises(ValueError):
            count_real_roots(Poly(), 0, 1)

    def test_against_numpy_roots_sampler(self):
        # independent numerical oracle on random squarefree-by-chance polys
        rng = random.Random(5)
        checked = 0
        while checked < 40:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
            p = Poly(coeffs)
            if p.degree < 1:
                continue
            roots = np.roots(list(reversed(p.coeffs)))
            reals = sorted(r.real for r in roots if abs(r.imag) < 1e-9)
            distinct = []
            for r in reals:
                if not distinct or r - distinct[-1] > 1e-6:
                    distinct.append(r)
            if any(abs(np.imag(r)) > 1e-12 and abs(np.imag(r)) < 1e-5 for r in roots):
                continue  # borderline conjugate pair, sampler unreliable
            assert count_real_roots(p) == len(distinct), coeffs
            checked += 1


def _sqf_list(p: Poly) -> list[tuple[Poly, int]]:
    """sympy's squarefree decomposition of p, constant left out."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(p.coeffs[::-1], x, domain="ZZ").sqf_list()
    return [(Poly(int(c) for c in f.all_coeffs()[::-1]), k) for f, k in factors]


def _normalized(p: Poly) -> Poly:
    """p divided by its content, with a positive leading coefficient."""
    c = math.gcd(*p.coeffs) * (1 if p.coeffs[-1] > 0 else -1)
    return Poly(k // c for k in p.coeffs)


def _seeded_products(seed: int, count: int) -> list[Poly]:
    """c times a product of f_i**k_i: 1-4 factors f_i of degree 1..4 with
    coefficients up to 30, k_i in 1..4, c in 1..6 with either sign."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        p = Poly([rng.choice((-1, 1)) * rng.randint(1, 6)])
        for _ in range(rng.randint(1, 4)):
            f = [rng.randint(-30, 30) for _ in range(rng.randint(2, 5))]
            if f[-1]:
                p = p * Poly(f) ** rng.randint(1, 4)
        if p.degree >= 1:
            out.append(p)
    return out


class TestSquarefreeFactors:
    @pytest.mark.parametrize(
        "p",
        _seeded_products(2030, 60)
        + [
            -(Poly([1, 1]) ** 3) * Poly([2, 0, 3]),  # negative leading coefficient
            6 * Poly([-1, 2]) ** 2 * Poly([5, 1, 1]),  # content 6
            Poly([1, _PRIME]) ** 2 * Poly([3, 1]),  # lc divisible by the prime
            _PRIME * Poly([1, 1]) * Poly([-7, 0, 1]) ** 3,
            Poly([1, 3, 1]) * Poly([2, 1]) * Poly([-5, 4]),  # squarefree
            # squarefree, which only the exact gcd can tell: the prime divides lc
            6 * Poly([1, 2 * _PRIME]) * Poly([1, 0, 1]),
            -Poly([5, 3 * _PRIME]),
            Poly([-3, 1]) ** 5,
        ],
    )
    def test_matches_sympy_sqf_list(self, p):
        factors = squarefree_factors(p)
        want = _sqf_list(p)
        assert [(_normalized(f), k) for f, k in factors] == want
        assert [k for _, k in factors] == sorted(k for _, k in factors)
        product = math.prod((f**k for f, k in factors), start=Poly.ONE)
        assert p.coeffs[-1] * product == product.coeffs[-1] * p  # p up to a constant
        if want == [(_normalized(p), 1)]:
            assert factors == [(p, 1)] and factors[0][0] is p
        else:
            assert all(f == _normalized(f) for f, _ in factors)

    @pytest.mark.parametrize("p", [Poly(), Poly([5])])
    def test_rejects_degree_below_one(self, p):
        with pytest.raises(ValueError, match="degree at least 1"):
            squarefree_factors(p)


def _gf_squarefree(p: Poly) -> bool:
    """Whether p mod _PRIME keeps its degree and gcd(s, s') is constant
    there, by sympy's arithmetic over GF(_PRIME)."""
    x = sympy.Symbol("x")
    s = sympy.Poly(p.coeffs[::-1], x, modulus=_PRIME)
    return s.degree() == p.degree and sympy.gcd(s, s.diff(x)).degree() == 0


def _near_prime_multiples(seed: int, count: int) -> list[Poly]:
    """Degree 1..30, each coefficient a small multiple of _PRIME plus -2..2,
    so that reductions mod the prime vanish or collide."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        degree = rng.randint(1, 30)
        p = Poly([rng.randint(-3, 3) * _PRIME + rng.randint(-2, 2) for _ in range(degree + 1)])
        if p.degree >= 1:
            out.append(p)
    return out


class TestModularSquarefreeTest:
    @pytest.mark.parametrize(
        "p",
        _seeded_products(2040, 80)
        + _near_prime_multiples(2041, 80)
        + [
            Poly([1, _PRIME]) ** 2,
            Poly([2, 1]) * Poly([1, 1]) ** 2 * Poly([0, 1]),
            # the prime divides lc: 3 x**2 + 1 mod the prime is squarefree,
            # but the test cannot tell once the degree drops
            Poly([1, 0, 3, _PRIME]),
            Poly([1, 0, 3, -2 * _PRIME]),
        ],
    )
    def test_agrees_with_a_gcd_over_gf_p(self, p):
        assert _squarefree_mod_prime(p) is _gf_squarefree(p)

    def test_prime_divides_only_the_discriminant(self):
        # (x + 1)(x + 1 + p) is squarefree over the integers, (x + 1)**2 mod p
        p = Poly([1, 1]) * Poly([1 + _PRIME, 1])
        assert _squarefree_mod_prime(p) is False and _gf_squarefree(p) is False
        assert squarefree_factors(p) == [(p, 1)]
        cert = certify_cg(p)
        assert cert.stats["modular_test"] is cert.stats["squarefree_fallback"] is True
        assert cert.nonzero_real_root_count == count_real_roots(p) == 2


class TestExactDiv:
    def test_exact_quotient(self):
        assert _exact_div(Poly([1, 2, 1]), Poly([1, 1])) == Poly([1, 1])

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            _exact_div(Poly([1, 1]), Poly())

    @pytest.mark.parametrize(
        "p, g",
        [
            (Poly([1, 1]), Poly([1, 0, 1])),  # divisor of higher degree
            (Poly([1, 3]), Poly([1, 2])),  # 3 is not a multiple of 2
            (Poly([1, 0, 1]), Poly([1, 1])),  # remainder 2
        ],
        ids=["higher-degree", "indivisible-coefficient", "remainder"],
    )
    def test_inexact_division(self, p, g):
        with pytest.raises(ArithmeticError, match="non-exact"):
            _exact_div(p, g)


class TestCertifyCg:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_cocktail_party_in_cg(self, n):
        cert = certify_cg(poly_cocktail(n))
        assert cert.in_cg
        assert cert.nonzero_real_root_count == 0
        assert cert.gamma == 2

    def test_triangle_in_cg(self):
        cert = certify_cg(Poly([0, 3, 3, 1]))
        assert cert.in_cg and cert.gamma == 1

    def test_p3_not_in_cg(self):
        cert = certify_cg(Poly([0, 1, 3, 1]))
        assert not cert.in_cg
        assert cert.nonzero_real_root_count == 2
        assert cert.gamma == 1

    def test_pure_power_of_x(self):
        cert = certify_cg(Poly([0, 0, 0, 1]))  # x^3
        assert cert.in_cg and cert.gamma == 3

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            certify_cg(Poly([0, -1, 1]))
        with pytest.raises(ValueError):
            certify_cg(Poly())

    def test_evidence_fields_and_json(self):
        cert = certify_cg(poly_cocktail(3))
        assert cert.evidence == {"witnesses": []}
        obj = json.loads(cert.to_json())
        assert obj == {
            "gamma": 2,
            "nonzero_real_root_count": 0,
            "in_cg": True,
            "evidence": {"witnesses": []},
        }

    def test_witnesses_isolate_the_negative_roots(self):
        # P_3: x(x^2 + 3x + 1), roots (-3 +- sqrt5)/2
        cert = certify_cg(Poly([0, 1, 3, 1]))
        witnesses = json.loads(cert.to_json())["evidence"]["witnesses"]
        assert witnesses == cert.evidence["witnesses"]
        assert len(witnesses) == 2
        q = Poly([1, 3, 1])
        for a, b in witnesses:
            a, b = Fraction(a), Fraction(b)
            assert a < b <= 0 and q.eval_exact(a) * q.eval_exact(b) < 0

    def test_exact_root_witness_and_neighbours(self):
        # F_2 + F_3 has the root -2 exactly, and another root just above it
        p = poly_join(poly_friendship(2), poly_friendship(3))
        cert = certify_cg(p)
        q = p.deflate_zero()
        assert cert.evidence["witnesses"][0] == ["-2", "-2"]
        assert q.eval_exact(-2) == 0
        for a, b in cert.evidence["witnesses"][1:]:
            a, b = Fraction(a), Fraction(b)
            assert q.eval_exact(a) * q.eval_exact(b) < 0  # neither endpoint is a root

    def test_stats(self):
        cert = certify_cg(poly_friendship(4))
        assert cert.stats["nodes"] >= 1 and cert.stats["max_depth"] >= 0
        assert cert.stats["squarefree_fallback"] is False
        # one bound try, whose high lane is the root's Descartes polynomial,
        # then three nodes and one split: two kernel runs
        assert (cert.stats["bound_tries"], cert.stats["shifts"]) == (1, 2)
        assert "stats" not in json.loads(cert.to_json())
        assert set(cert.record()) == {"gamma", "nonzero_real_root_count", "in_cg", "evidence"}
        # a square takes the exact squarefree path and keeps the verdict
        squared = certify_cg(poly_friendship(4) ** 2)
        assert squared.stats["squarefree_fallback"] is True
        assert squared.nonzero_real_root_count == cert.nonzero_real_root_count
        assert certify_cg(Poly([0, 0, 1])).stats["nodes"] == 0

    @pytest.mark.parametrize("lead", [_PRIME, 3 * _PRIME])
    def test_leading_coefficient_divisible_by_the_prime(self, lead):
        # the modular test cannot tell, so where the isolation needs the
        # proof the exact gcd decides: (x + 1)(lead x + 1), one without real
        # roots, and (lead x + 1)(lead x + 2), whose close roots take the
        # bisection past _PROOF_DEPTH
        deep = Poly([1, lead]) * Poly([2, lead])
        for p in (Poly([1, lead + 1, lead]), Poly([lead, 1, lead]), deep):
            assert _squarefree_mod_prime(p) is False
            cert = certify_cg(p)
            assert cert.stats["squarefree_fallback"] is cert.stats["modular_test"]
            assert cert.nonzero_real_root_count == count_real_roots(p)
            assert cert.in_cg == (count_real_roots(p) == 0)
        stats = certify_cg(deep).stats
        assert stats["max_depth"] > _PROOF_DEPTH and stats["squarefree_fallback"] is True
        # a square of it restarts on the squarefree part, with the same roots
        squared = certify_cg(deep**2)
        assert squared.stats["squarefree_fallback"] is True
        assert squared.record() == certify_cg(deep).record()

    def test_repeated_root_on_a_split_point(self):
        # (x + 1)^2 (x + 3): the bisection lands on the double root -1 at
        # depth 1, before any node deep enough to need the proof, and the
        # certifier restarts on (x + 1)(x + 3)
        cert = certify_cg((X + 1) ** 2 * (X + 3))
        assert cert.evidence == {"witnesses": [["-4", "-2"], ["-2", "0"]]}
        assert cert.stats["modular_test"] is cert.stats["squarefree_fallback"] is True
        assert cert.stats["max_depth"] < _PROOF_DEPTH

    @pytest.mark.parametrize("seed", range(40))
    def test_restart_on_a_polynomial_with_content(self, seed):
        # c f, f = prod (x + a_i)**k_i with a repeated factor, restarts on
        # c f / gcd(c f, c f'), of content c: the same certificate as f's,
        # and the witnesses of f's squarefree part
        rng = random.Random(seed)
        roots = [rng.randint(1, 40) for _ in range(rng.randint(1, 5))]
        powers = [rng.randint(1, 4) for _ in roots]
        powers[rng.randrange(len(powers))] = rng.randint(2, 4)
        f = math.prod(((X + a) ** k for a, k in zip(roots, powers)), start=Poly.ONE)
        c = rng.randint(2, 10**6)
        cert, monic = certify_cg(c * f), certify_cg(f)
        assert cert.record() == monic.record()
        assert cert.stats == monic.stats
        assert cert.stats["modular_test"] is cert.stats["squarefree_fallback"] is True
        assert len(cert.evidence["witnesses"]) == len(set(roots))
        squarefree = math.prod((X + a for a in set(roots)), start=Poly.ONE)
        assert cert.record() == certify_cg(squarefree).record()

    def test_modular_test_only_where_the_bisection_needs_it(self):
        # none of the benchmark's certificates bisects deep enough, or onto
        # a root, to need the squarefree proof
        polys = [build(n) for build in BENCHMARK_JOINS.values() for n in range(3, 33)]
        polys += [poly_cocktail(n) for n in range(1, 51)]
        polys += [poly_friendship(n) for n in range(1, 16)]
        for p in polys:
            assert certify_cg(p).stats["modular_test"] is False, p
        # a repeated real root of H(10) takes its bisection to _PROOF_DEPTH
        assert certify_cg(poly_H(10)).stats["modular_test"] is True

    def test_bound_search_skips_the_exponents_below_the_centroid(self):
        # a search from e = 0 would take bound_exponent + 1 tries
        polys = [poly_cocktail(n) for n in range(1, 51)]
        polys += [poly_friendship(n) for n in range(1, 16)]
        for p in polys:
            stats = certify_cg(p).stats
            assert stats["bound_tries"] <= stats["bound_exponent"], p

    def test_product_rule(self, rng):
        for _ in range(10):
            g = random_graph(rng.randint(1, 6), rng)
            h = random_graph(rng.randint(1, 6), rng)
            pg, ph = domination_polynomial(g), domination_polynomial(h)
            both = certify_cg(poly_union(pg, ph))
            assert both.in_cg == (certify_cg(pg).in_cg and certify_cg(ph).in_cg)

    def test_no_positive_roots_for_domination_polys(self, rng):
        for _ in range(15):
            g = random_graph(rng.randint(1, 7), rng)
            p = domination_polynomial(g)
            assert count_real_roots(p.deflate_zero(), 0, INF) == 0

    def test_certified_families_pass_structural_checks(self):
        for n in range(1, 8):
            p = poly_cocktail(n)
            assert check_oddness(p)
            assert p.eval_exact(-1) != 0


class TestCheckOddness:
    def test_known_counts(self):
        assert check_oddness(Poly([0, 3, 3, 1]))  # 7
        assert check_oddness(poly_friendship(2))  # 25
        assert check_oddness(poly_cocktail(2))  # 11
        assert not check_oddness(Poly([0, 2]))


class TestSturmScale:
    def test_large_cocktail_instances(self):
        # degree 200 polynomial with ~60-digit coefficients, exact chain
        cert = certify_cg(poly_cocktail(100))
        assert cert.in_cg

    def test_domination_polys_of_families(self):
        for spec in (
            FamilySpec("book", (3,)),
            FamilySpec("friendship", (3,)),
            FamilySpec("k_star", (2, 5)),
        ):
            p = domination_polynomial(build_family(spec))
            cert = certify_cg(p)
            assert cert.gamma == p.zero_root_multiplicity()


def _negative_root_count(p: Poly) -> int:
    """The Sturm count the certifier must reproduce."""
    return count_real_roots(p.deflate_zero(), -INF, 0)


#: Nonnegative factors of degree 1..5; nonnegative products stay nonnegative.
_factors = st.lists(st.integers(0, 12), min_size=2, max_size=6).filter(
    lambda cs: cs[-1] > 0 and any(cs[:-1])
)


class TestDescartesAgainstSturm:
    """The Descartes certifier counts what the Sturm chain counts."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        factors=st.lists(_factors, min_size=1, max_size=5),
        squared=st.lists(_factors, max_size=1),
        exact=st.tuples(st.booleans(), st.booleans()),
        gamma=st.integers(0, 3),
    )
    # repeated roots on split points at depth 1 and 0: (x + 1)^2 (x + 3)
    # and (2x + 1)^2 (x^2 + x + 1)
    @example(factors=[[3, 1]], squared=[[1, 1]], exact=(False, False), gamma=0)
    @example(factors=[[1, 1, 1]], squared=[[1, 2]], exact=(False, False), gamma=0)
    def test_random_nonnegative_polynomials(self, factors, squared, exact, gamma):
        # (x + 2) and (2x + 1) put exact roots on bisection points; squared
        # factors may take the exact squarefree fallback
        p = X**gamma * Poly([2, 1]) ** exact[0] * Poly([1, 2]) ** exact[1]
        for cs in factors:
            p = p * Poly(cs)
        for cs in squared:
            p = p * Poly(cs) ** 2
        if p.degree > 40:
            return
        cert = certify_cg(p)
        q = p.deflate_zero()
        assert cert.gamma == p.zero_root_multiplicity()
        assert cert.nonzero_real_root_count == _negative_root_count(p)
        witnesses = [(Fraction(a), Fraction(b)) for a, b in cert.evidence["witnesses"]]
        assert witnesses == sorted(witnesses)
        for a, b in witnesses:
            if a == b:
                assert q.eval_exact(a) == 0
            else:
                assert a < b <= 0 and count_real_roots(q, a, b) == 1

    @pytest.mark.parametrize("operand", ["F", "K"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_root_at_minus_two(self, operand, n):
        family = {"F": "friendship", "K": "complete"}[operand]
        a, b = (FamilySpec(family, (m,)) for m in ((n, n + 1) if operand == "F" else (n, n)))
        p = poly_join(closed_form(a), closed_form(b))
        assert p.eval_exact(-2) == 0
        assert certify_cg(p).nonzero_real_root_count == _negative_root_count(p)

    @pytest.mark.parametrize("name", [f.name for f in FAMILIES.values() if f.closed_form])
    def test_closed_form_families(self, name):
        for n in range(1, 21):
            p = closed_form(FamilySpec(name, (n,)))
            assert certify_cg(p).nonzero_real_root_count == _negative_root_count(p), n

    @pytest.mark.parametrize("pattern", list(BENCHMARK_JOINS))
    def test_benchmark_join_patterns(self, pattern):
        for n in range(3, 33):
            p = BENCHMARK_JOINS[pattern](n)
            assert certify_cg(p).nonzero_real_root_count == _negative_root_count(p), n


def _variations(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


#: Integer coefficients of both signs, with zeros drawn often enough to
#: leave interior gaps.
_coefficients = st.integers(-(10**6), 10**6) | st.just(0)


class TestEarlyExitDescartesTest:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(_coefficients, min_size=1, max_size=61),
            # one sign change in f leaves at most one variation after the shift
            st.builds(
                lambda mags, k: [m if i < k else -m for i, m in enumerate(mags)],
                st.lists(st.integers(0, 10**6), min_size=1, max_size=61),
                st.integers(0, 61),
            ),
        ).filter(any)
    )
    @example([1, 2, 3])  # no variation
    @example([-1, 3])  # one: the root 1/3
    @example([1, -7, 14, -8])  # two: the roots 1/2 and 1/4; 1 is an endpoint
    @example([1, -10, 35, -50, 24])  # three: the roots 1/2, 1/3 and 1/4, and 1
    def test_reads_variations_up_to_two(self, f):
        stats = {"shifts": 0}
        full = _variations(Poly(reversed(f)).taylor_shift(1).coeffs)
        t = [hi for _, hi in _shift_lanes(f, stats)]
        assert realroots._variations(t, 2) == min(full, 2)
        assert stats["shifts"] == 1


def _lanes(a: list[int]) -> tuple[list[int], list[int]]:
    stats = {"shifts": 0}
    lanes = list(_shift_lanes(a, stats))
    assert stats["shifts"] == 1 and len(lanes) == len(a)
    return [lo for lo, _ in lanes], [hi for _, hi in lanes]


def _shifted(a) -> list[int]:
    """The coefficients of a(x+1), of degree len(a) - 1, by Poly.taylor_shift."""
    coeffs = list(Poly(a).taylor_shift(1).coeffs)
    return coeffs + [0] * (len(a) - len(coeffs))


class TestShiftLanes:
    """_shift_lanes: a(x+1) and T(a) = (x+1)**d a(1/(x+1)) from one kernel run."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_coefficients | st.integers(-(2**200), 2**200), min_size=1, max_size=40))
    @example([0])
    @example([5])
    @example([-3])
    @example([0, 0])
    @example([-1, 1])
    @example([0, -7])
    @example([4, 0, 0, -1])
    def test_both_lanes_are_taylor_shifts(self, a):
        low, high = _lanes(a)
        assert low == _shifted(a)
        assert high == _shifted(a[::-1])

    @pytest.mark.parametrize("d", [0, 1, 2, 7, 64, 257, 600])
    @pytest.mark.parametrize("b", [1, 2, 31, 130])
    def test_widest_coefficients_decode(self, d, b):
        # coefficients +-(2**b - 1): of one sign, a(x+1) has the coefficients
        # (2**b - 1) C(d+1, k+1), at the width's bound; alternating, both
        # lanes mix signs
        m = (1 << b) - 1
        top = [m * math.comb(d + 1, k + 1) for k in range(d + 1)]
        assert _lanes([m] * (d + 1)) == (top, top)
        assert _lanes([-m] * (d + 1)) == ([-c for c in top], [-c for c in top])
        for a in ([(-1) ** i * m for i in range(d + 1)], [m if i % 3 else -m for i in range(d + 1)]):
            assert _lanes(a) == (_shifted(a), _shifted(a[::-1]))


def _plain_bound(r: list[int]) -> tuple[int, list[int]]:
    """The root-bound search from e = 0: the reference for the centroid start."""
    for e in itertools.count():
        scaled = [a << (e * i) for i, a in enumerate(r)]
        content = math.gcd(*scaled)
        unit = [a // content for a in scaled]
        beyond = Poly(unit).taylor_shift(1).coeffs
        if beyond[0] and _variations(beyond) == 0:
            return e, unit


class TestCentroidStart:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(10**4), 10**4), min_size=2, max_size=31).filter(lambda r: r[-1]))
    @example([6, -4, 1])  # roots 2 +- i sqrt 2: the centroid 2 passes at e = 1
    @example([20, -8, 1])  # roots 4 +- 2i: the centroid 4 passes at e = 2
    def test_matches_a_search_from_zero(self, r):
        stats = {"shifts": 0, "bound_tries": 0}
        e, unit, t = _scaled_below_one(r, stats)
        assert (e, list(unit)) == _plain_bound(r)
        assert t == _shifted(unit[::-1])  # T(unit), the root node's test
        assert 1 <= stats["bound_tries"] == stats["shifts"] <= e + 1

    @pytest.mark.parametrize(
        "p",
        [poly_book(1), poly_cocktail(2), poly_complement_friendship(2)],
        ids=["B(1)", "CP(2)", "CF(2)"],
    )
    def test_centroid_on_a_power_of_two(self, p):
        # all three give r = x^2 - 4x + 6, whose roots have the centroid 2,
        # and r(2(x+1)) = 4x^2 + 2 passes: the start must be e = 1, not 2
        [(s, k)] = squarefree_factors(p.deflate_zero())
        assert k == 1
        r = [-a if i % 2 else a for i, a in enumerate(s.coeffs)]
        assert r == [6, -4, 1]
        stats = {"shifts": 0, "bound_tries": 0}
        e, unit, t = _scaled_below_one(r, stats)
        assert (e, list(unit)) == _plain_bound(r) == (1, [3, -4, 2])
        assert t == [1, 2, 3]  # (x+1)**2 unit(1/(x+1))
        assert stats["bound_tries"] == 1
        assert certify_cg(p).stats["bound_exponent"] == 1


def _mirror(p: Poly) -> list[int]:
    """The coefficients of p(-x)."""
    return [-a if i % 2 else a for i, a in enumerate(p.coeffs)]


def _sign_by_fractions(p: Poly, x: Fraction) -> int:
    """Sign of p(x) by plain Fraction arithmetic, apart from the module's."""
    v = sum(c * x**i for i, c in enumerate(p.coeffs))
    return (v > 0) - (v < 0)


class TestRealRootWitnesses:
    """_real_root_brackets: the certifier's isolation on both sides of 0."""

    def test_roots_on_both_sides(self):
        # (x - 3)(x + 2)(x^2 + 1)
        s = Poly([-6, -1, 1]) * Poly([1, 0, 1])
        brackets = realroots._real_root_brackets(s, Counter())
        assert len(brackets) == count_real_roots(s) == 2
        for b, root in zip(brackets, (-2, 3)):
            assert b.lo <= root <= b.hi
            if b.lo < b.hi:
                assert realroots._sign_at(s, b.lo) * realroots._sign_at(s, b.hi) < 0
            else:
                assert realroots._sign_at(s, b.lo) == 0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=12).filter(lambda c: c[0] and c[-1]))
    def test_as_many_as_the_sturm_count(self, coeffs):
        s = math.prod(f for f, _ in squarefree_factors(Poly(coeffs)))
        pairs = [(b.lo, b.hi) for b in realroots._real_root_brackets(s, Counter())]
        assert len(pairs) == count_real_roots(s)
        assert pairs == sorted(pairs) and all(a <= b for a, b in pairs)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, 40)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, 40)), min_size=1, max_size=4),
        st.integers(-12, 12),
        st.integers(-12, 12).filter(bool),
        st.sampled_from([1, -1]),
    )
    def test_sign_sides_hold_at_both_ends(self, negative, positive, b1, b0, lead):
        # roots -b/a and b/a on both sides of 0, and those of x^2 + b1 x + b0,
        # irrational or complex unless b1^2 - 4 b0 is a square
        p = Poly([lead]) * Poly([b0, b1, 1])
        for a, b in negative:
            p = p * Poly([b, a])
        for a, b in positive:
            p = p * Poly([-b, a])
        s = math.prod(f for f, _ in squarefree_factors(p))
        brackets = realroots._real_root_brackets(s, Counter())
        assert len(brackets) == count_real_roots(s)
        assert brackets[0].lo < 0 < brackets[-1].hi
        for b in brackets:
            if b.lo == b.hi:
                assert _sign_by_fractions(s, b.lo) == 0
            else:
                assert b.lo < b.hi
                assert _sign_by_fractions(s, b.lo) == -b.right
                assert _sign_by_fractions(s, b.hi) == b.right

    def test_certifier_rejects_a_flipped_sign_side(self, monkeypatch):
        p = poly_book(6)
        brackets = realroots._real_root_brackets(p.deflate_zero(), Counter())
        assert any(b.lo < b.hi for b in brackets) and certify_cg(p).nonzero_real_root_count

        def flipped(s, stats, prove=None):
            out = isolate(s, stats, prove)
            for b in out:
                b.right = -b.right
            return out

        isolate = realroots._real_root_brackets
        monkeypatch.setattr(realroots, "_real_root_brackets", flipped)
        with pytest.raises(AssertionError, match="fails its exact check"):
            certify_cg(p)

    def test_the_sides_mirror_each_other(self):
        """The ends for s(-x) are those for s, negated and reversed, on s
        with real roots of both signs, so neither side's signs can slip."""
        rng = random.Random(30)
        for _ in range(60):
            p = Poly([rng.randint(-12, 12) or 1, rng.randint(-12, 12), 1])
            for sign in [1, -1] + rng.choices([1, -1], k=rng.randint(0, 4)):
                p = p * Poly([-sign * rng.randint(1, 40), rng.randint(1, 9)])
            s = math.prod(f for f, _ in squarefree_factors(p))
            mirror = Poly(_mirror(s))
            ends = [(b.lo, b.hi) for b in realroots._real_root_brackets(s, Counter())]
            mirrored = [(b.lo, b.hi) for b in realroots._real_root_brackets(mirror, Counter())]
            assert ends[0][0] < 0 < ends[-1][1] and len(ends) == count_real_roots(s)
            assert mirrored == [(-hi, -lo) for lo, hi in reversed(ends)]

    def test_a_side_without_sign_variation_is_not_searched(self, monkeypatch):
        searched, scale = [], realroots._scaled_below_one
        monkeypatch.setattr(
            realroots,
            "_scaled_below_one",
            lambda r, stats: searched.append(list(r)) or scale(r, stats),
        )
        # no negative coefficient: only the negative side, the positive
        # roots of q(-x), is searched
        q = poly_book(6).deflate_zero()
        assert len(realroots._real_root_brackets(q, Counter())) == count_real_roots(q) > 0
        assert searched == [_mirror(q)]
        searched.clear()
        # x^2 + 1: neither side has a sign variation
        assert realroots._real_root_brackets(Poly([1, 0, 1]), Counter()) == []
        assert searched == []

    def test_the_solver_and_the_certifier_share_it(self, monkeypatch):
        from dompoly.complexroots import find_roots

        searched, scale = [], realroots._scaled_below_one
        monkeypatch.setattr(
            realroots,
            "_scaled_below_one",
            lambda r, stats: searched.append(list(r)) or scale(r, stats),
        )
        p = poly_book(6)
        find_roots(p)
        certify_cg(p)
        assert searched == [_mirror(p.deflate_zero())] * 2

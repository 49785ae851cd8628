import json
import random
from fractions import Fraction

import numpy as np
import pytest

from dompoly.enumeration import domination_polynomial
from dompoly.formulas import build_family, poly_cocktail, poly_friendship, poly_union
from dompoly.graphs import FamilySpec
from dompoly.polynomials import Poly
from dompoly.realroots import (
    certify_cg,
    check_oddness,
    count_real_roots,
    sturm_sequence,
)

from conftest import random_graph

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
        assert set(cert.evidence) == {"minus_inf", "minus_one", "zero", "plus_inf"}
        obj = json.loads(cert.to_json())
        assert obj["gamma"] == 2
        assert obj["in_cg"] is True
        assert obj["nonzero_real_root_count"] == 0
        assert set(obj["evidence"]) == {"minus_inf", "minus_one", "zero", "plus_inf"}

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

import functools
import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dompoly import complexroots
from dompoly.complexroots import (
    CLUSTER_RADIUS,
    CSV_HEADER,
    NEAR_REAL_IM,
    _final_residuals,
    _fixed_point,
    _newton_step,
    _pair_conjugates,
    _power_sums,
    _shifted_value,
    _split_coefficients,
    boundary_real_part_roots,
    circle_deviation,
    distinct_real_roots,
    find_roots,
    has_positive_real_part,
    roots_csv,
)
from dompoly.errors import CapacityError, NonConvergenceError
from dompoly.formulas import (
    poly_H,
    poly_book,
    poly_cocktail,
    poly_complement_friendship,
    poly_complete,
    poly_friendship,
)
from dompoly.polynomials import Poly, binomial_power
from dompoly.realroots import certify_cg

from conftest import count_real_roots, record_digests


class TestFindRoots:
    def test_complement_friendship_2(self):
        rs = find_roots(poly_complement_friendship(2))
        assert rs.zero_multiplicity == 3
        assert len(rs.roots) == 2
        for re, im, residual in rs.roots:
            assert abs(re - (-2.0)) < 1e-12
            assert abs(abs(im) - math.sqrt(2)) < 1e-12
            assert residual <= rs.tolerance

    def test_quadratic_with_real_roots(self):
        rs = find_roots(Poly([1, 3, 1]))
        vals = sorted(z.real for z in rs.complex_roots())
        assert abs(vals[0] - (-3 - math.sqrt(5)) / 2) < 1e-12
        assert abs(vals[1] - (-3 + math.sqrt(5)) / 2) < 1e-12
        assert all(abs(z.imag) == 0 for z in rs.complex_roots())

    def test_quadruple_root_reported_four_times(self):
        # (x + 1)^4 is solved as its squarefree factor x + 1, once
        rs = find_roots(binomial_power(4))
        assert [root[:2] for root in rs.roots] == [(-1.0, 0.0)] * 4
        assert all(residual <= rs.tolerance for _, _, residual in rs.roots)
        assert (rs.stats["factors"], rs.stats["gate_evaluations"]) == (1, 1)

    def test_no_nonzero_roots(self):
        rs = find_roots(Poly([0, 0, 0, 1]))  # x^3
        assert rs.zero_multiplicity == 3
        assert rs.roots == ()

    def test_linear(self):
        rs = find_roots(Poly([3, 2]))
        assert rs.roots[0][0] == pytest.approx(-1.5, abs=1e-15)

    def test_conjugate_closure(self):
        for p in (poly_complement_friendship(8), poly_book(6), poly_friendship(5)):
            rs = find_roots(p)
            roots = rs.complex_roots()
            for z in roots:
                if abs(z.imag) > 1e-9:
                    assert any(abs(z.conjugate() - w) < 1e-9 for w in roots)

    def test_root_count_matches_deflated_degree(self):
        p = poly_complement_friendship(9)
        rs = find_roots(p)
        assert len(rs.roots) == p.degree - rs.zero_multiplicity

    def test_validation(self):
        with pytest.raises(ValueError):
            find_roots(Poly([1, 1]), tol=1e-15)
        with pytest.raises(ValueError):
            find_roots(Poly([5]))
        with pytest.raises(ValueError):
            find_roots(Poly())
        with pytest.raises(ValueError):
            find_roots(Poly([1, 1]), max_iter=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        # every comparison with NaN is false, so it would pass the bounds
        # and the residual gate alike
        with pytest.raises(ValueError, match="finite"):
            find_roots(poly_friendship(3), tol=tol)

    def test_non_convergence_carries_best_iterate(self):
        with pytest.raises(NonConvergenceError) as exc:
            find_roots(poly_complement_friendship(12), max_iter=2)
        assert len(exc.value.roots) == poly_complement_friendship(12).degree - 3
        assert exc.value.max_correction > 0

    def test_small_root_far_from_the_centroid(self):
        # the centroid shift is -558: an iterate kept as y = z + 558 holds
        # the root near -0.014 only to about 6e-14, too coarse for the gate
        rs = find_roots(Poly([23, 1653, 831, 2233, 1]))
        assert len(rs.roots) == 4
        assert all(residual <= rs.tolerance for _, _, residual in rs.roots)
        assert min(abs(complex(re, im) + 0.014009) for re, im, _ in rs.roots) < 1e-6

    @pytest.mark.parametrize("r", [10**7, 10**12, 2**100])
    def test_far_root(self, r):
        # (x + 1)(x + r): the iterate that goes out to -r must take true
        # Newton steps there, exact ones once the double value is unreliable
        rs = find_roots(Poly([r, r + 1, 1]))
        assert [(re, im) for re, im, _ in rs.roots] == [(-float(r), 0.0), (-1.0, 0.0)]
        assert all(residual <= rs.tolerance for _, _, residual in rs.roots)

    def test_far_root_settles_relative_to_its_modulus(self):
        # an absolute correction cannot drop below tol = 1e-12 at |z| ~ 1.2e5,
        # where the spacing of doubles is 1.5e-11
        rs = find_roots(Poly([7, -123456, 1]))
        assert len(rs.roots) == 2
        assert all(residual <= rs.tolerance for _, _, residual in rs.roots)
        assert sum(re for re, _, _ in rs.roots) == pytest.approx(123456.0, rel=1e-15)

    @pytest.mark.parametrize(
        "p",
        [Poly([23, 1653, 831, 2233, 1]), Poly([7, -123456, 1]), Poly([2**100, 2**100 + 1, 1])],
        ids=["shift-558", "x2-123456x+7", "x+2^100"],
    )
    def test_one_pass_and_one_gate_in_the_shifted_basis(self, p):
        rs = find_roots(p)
        assert rs.stats["shift"] != 0
        assert rs.stats["gate_evaluations"] == p.degree == len(rs.roots)

    def test_linear_root_is_correctly_rounded(self):
        # rounding the scaled coefficients first gave -0.007421816414603854
        b, a = 49740166138514513350, 6701885813375975741671
        rs = find_roots(Poly([b, a]))
        assert rs.roots[0][:2] == (-b / a, 0.0) == (-0.007421816414603853, 0.0)
        assert rs.stats["aberth_iterations"] == 0 and rs.stats["gate_evaluations"] == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_products_of_spread_linear_factors(self, seed):
        # 2-8 factors a*x + b, b log-uniform over 1..9e6: centroid shifts up
        # to millions, with small non-integer roots that lose their digits
        # when rounded in shifted coordinates; each solves in one pass
        rng, solved = random.Random(seed), 0
        while solved < 60:
            factors = {
                (rng.randint(1, 729), int(10 ** rng.uniform(0, math.log10(9e6))))
                for _ in range(rng.randint(2, 8))
            }
            roots = sorted({Fraction(-b, a) for a, b in factors})
            if len(roots) < len(factors):
                continue  # a repeated root
            solved += 1
            p = Poly([1])
            for a, b in factors:
                p = p * Poly([b, a])
            rs = find_roots(p)
            assert rs.stats["gate_evaluations"] == p.degree, factors
            got = [re for re, _, _ in rs.roots]
            assert got == pytest.approx([float(r) for r in roots], rel=1e-9), factors

    def test_stats_count_the_work(self):
        keys = {
            "aberth_iterations",
            "double_steps",
            "exact_steps",
            "exact_derivatives",
            "gate_evaluations",
            "gate_reused",
            "gate_shared",
            "shift",
            "factors",
        }
        # no nonzero root: every counter is there, and zero
        for p in (Poly([0, 0, 0, 1]), poly_complement_friendship(1)):
            assert find_roots(p).stats == dict.fromkeys(keys, 0), p
        rs = find_roots(poly_complement_friendship(40))
        assert (rs.stats["shift"], rs.stats["factors"]) == (-1, 1)
        assert rs.stats.keys() == keys
        assert rs.stats["gate_evaluations"] == len(rs.roots) == 78
        assert rs.stats["aberth_iterations"] > 0
        assert rs.stats["exact_steps"] > 0
        # some roots sit bitwise on the point of their last exact step
        assert 0 < rs.stats["gate_reused"] <= rs.stats["exact_steps"]
        # each pass steps every active iterate at most once, in doubles or exactly
        steps = rs.stats["double_steps"] + rs.stats["exact_steps"]
        assert 0 < rs.stats["double_steps"] and steps <= rs.stats["aberth_iterations"] * 78
        # every exact step takes the pass's double b', and the conjugate of a
        # root evaluated before shares its value
        assert rs.stats["exact_derivatives"] == 0
        assert 0 < rs.stats["gate_shared"] <= 78 - rs.stats["gate_reused"]
        # friendship:70 has exact steps where b' cancels (see
        # test_step_where_the_derivative_cancels), which evaluate b' exactly
        rs = find_roots(poly_friendship(70))
        assert 0 < rs.stats["exact_derivatives"] <= rs.stats["exact_steps"]

    @pytest.mark.parametrize("e", [120, 180])
    def test_gate_takes_roots_whose_power_sums_overflow_a_double(self, e):
        # (x^2 - 2^e)(x^20 + 1): at z = 2^(e/2), |z|^22 and q(z) lie beyond
        # the double range, while the ratio the gate forms does not
        p = Poly([-(2**e), 0, 1]) * Poly([1] + [0] * 19 + [1])
        rs = find_roots(p)
        assert len(rs.roots) == 22
        for root in (2.0 ** (e // 2), -(2.0 ** (e // 2))):
            assert min(abs(z - root) for z in rs.complex_roots()) <= 1e-12 * abs(root)
        for re, im, residual in rs.roots:
            floor = _componentwise_backward_error(p, complex(re, im))
            assert rs.tolerance >= residual >= floor * (1 - 1e-9), (re, im)

    def test_stats_take_no_part_in_equality(self):
        from dompoly.complexroots import RootSet

        assert RootSet(0, (), 1e-12, {"exact_steps": 3}) == RootSet(0, (), 1e-12)

    def test_dynamic_range_capacity_guard(self):
        # x^2 - 2^1201 is squarefree, and its coefficients span 1,201 bits
        with pytest.raises(CapacityError):
            find_roots(Poly([-(2**1201), 0, 1]))

    def test_one_factor_of_multiplicity_1100(self):
        # (x + 1)^1100 spans 1,100 bits, but its squarefree factor x + 1 none
        rs = find_roots(binomial_power(1100))
        assert [root[:2] for root in rs.roots] == [(-1.0, 0.0)] * 1100
        assert all(residual <= rs.tolerance for _, _, residual in rs.roots)
        assert rs.stats["factors"] == 1

    def test_monomial_range_beyond_doubles(self):
        # K_1010: q = ((1 + x)^1010 - 1) / x, whose coefficients span 1,004
        # bits, while q(y - 1) = 1 + y + ... + y^1009 spans none
        rs = find_roots(poly_complete(1010))
        assert len(rs.roots) == 1009
        assert max(r for _, _, r in rs.roots) <= rs.tolerance

    @pytest.mark.parametrize(
        "p",
        [Poly([-(2**1100 + 1), 2]), Poly([-(2**1100), 1]) * Poly([-(2**1100) - 3, 1])],
        ids=["linear", "quadratic"],
    )
    def test_centroid_beyond_doubles(self, p):
        # the shifted coefficients are small, but no double holds the roots
        with pytest.raises(CapacityError):
            find_roots(p)

    def test_deterministic(self):
        p = poly_book(7)
        assert find_roots(p) == find_roots(p)


def _seeded_sweep(seed: int, count: int) -> list[Poly]:
    """Alternately a product of 2-15 distinct linear factors a*x + b, |b| up
    to 9e6, and a dense polynomial of degree 2..30 with coefficients up to
    10**12 and nonzero ends."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        if len(out) % 2:
            c = [rng.randint(-(10**12), 10**12) for _ in range(rng.randint(3, 31))]
            if c[0] and c[-1]:
                out.append(Poly(c))
            continue
        factors = {
            (rng.randint(1, 729), rng.choice((-1, 1)) * int(10 ** rng.uniform(0, math.log10(9e6))))
            for _ in range(rng.randint(2, 15))
        }
        if len({Fraction(-b, a) for a, b in factors}) == len(factors):
            p = Poly([1])
            for a, b in factors:
                p = p * Poly([b, a])
            out.append(p)
    return out


@pytest.mark.parametrize("p", _seeded_sweep(2026, 100), ids=[f"sweep{i}" for i in range(100)])
def test_seeded_sweep_solves(p):
    rs = find_roots(p)
    assert rs.stats["gate_evaluations"] == len(rs.roots) == p.degree
    assert all(residual <= rs.tolerance for _, _, residual in rs.roots)


conversions = settings(derandomize=True, max_examples=300, deadline=None)

#: Any finite double up to 1e300 in magnitude, with subnormals drawn on their own.
_doubles = st.floats(-1e300, 1e300) | st.floats(-2.0**-1022, 2.0**-1022)

#: Integers of up to about 1300 bits, so that ratios span the double range.
_big_ints = st.builds(lambda m, e: m << e, st.integers(-(2**80), 2**80), st.integers(0, 1200))


class TestExactConversions:
    @conversions
    @given(_doubles, _doubles, st.integers(-(2**70), 2**70), st.integers(0, 3))
    @example(5e-324, -5e-324, 0, 0)
    @example(-1e300, 2.0**-1074, 2**70, 1)
    @example(-0.014009042513699709, 0.0, -558, 0)
    def test_fixed_point_forms_the_point_exactly(self, re, im, shift, rounds):
        xr, xi, fbits = _fixed_point(40, shift, complex(re, im), 64 * rounds)
        assert fbits >= 96 + 64 * rounds
        x = (Fraction(xr, 2**fbits), Fraction(xi, 2**fbits))
        assert x == (Fraction(re) - shift, Fraction(im))

    @conversions
    @given(_big_ints, _big_ints.filter(bool))
    @example(1 << 1100, 3)
    @example(-(1 << 1100), 3)
    @example(1, 1 << 1100)
    @example(-1, 1 << 1100)
    def test_newton_step_ratio_is_correctly_rounded(self, a, b):
        # at z = 0 the Newton step of a + b*x is exactly a / b
        step = _newton_step((a, b), (b,), 0, 0j)
        exact = Fraction(a, b)
        assert step.imag == 0.0
        if abs(exact) >= 2**1024 - 2**970:  # rounds beyond the largest double
            assert step.real == (math.inf if exact > 0 else -math.inf)
        elif abs(exact) <= Fraction(1, 2**1075):  # rounds below the smallest subnormal
            assert step.real == 0.0
        else:
            assert abs(Fraction(step.real) - exact) <= Fraction(math.ulp(step.real)) / 2


def _exact_newton_step(coeffs, w):
    """(Re, Im) of p(w)/p'(w) in Fraction at w = (re, im); None where p'(w) = 0."""
    pr, pi, dr, di = Fraction(coeffs[-1]), Fraction(0), Fraction(0), Fraction(0)
    for c in reversed(coeffs[:-1]):
        dr, di = dr * w[0] - di * w[1] + pr, dr * w[1] + di * w[0] + pi
        pr, pi = pr * w[0] - pi * w[1] + c, pr * w[1] + pi * w[0]
    den = dr * dr + di * di
    return None if den == 0 else ((pr * dr + pi * di) / den, (pi * dr - pr * di) / den)


#: Dyadic components with at most 10 fraction bits: the fixed-point point is exact.
_dyadic = st.builds(lambda m, e: m / 2**e, st.integers(-(2**12), 2**12), st.integers(0, 10))

#: Imaginary parts at most 2**-40 in magnitude, where the quotient's terms grow.
_near_real = st.builds(
    lambda m, e: m * 2.0**-e, st.integers(-(2**10), 2**10), st.integers(50, 70)
)


class TestExactNewtonStep:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=25).filter(lambda c: c[-1] != 0),
        _dyadic,
        _dyadic | _near_real,
    )
    @example([45, 22, 24, 24], -17.875, 2.0**-48)
    @example([-30, 21], -135.5, 2.0**-51)
    @example([-40, -40, -40], 0.0, -256.0)
    def test_step_agrees_with_exact_ratio(self, coeffs, re, im):
        exact = _exact_newton_step(coeffs, (Fraction(re), Fraction(im)))
        assume(exact is not None)
        step = _newton_step(coeffs, Poly(coeffs).derivative().coeffs, 0, complex(re, im))
        ulp = Fraction(math.ulp(float(max(map(abs, exact)))))
        assert abs(Fraction(step.real) - exact[0]) <= ulp
        assert abs(Fraction(step.imag) - exact[1]) <= ulp

    def test_step_where_the_derivative_cancels(self):
        # a stalled friendship:70 iterate: |b'(y)| ~ 2**-62, so 96 fraction
        # bits leave it 34 bits and the step read -4.591e-11 + 1.351e-12i
        b = poly_friendship(70).deflate_zero().taylor_shift(-1).coeffs
        db = Poly(b).derivative().coeffs
        y = complex(-0.7059324841892143, -0.015880687302828364)
        exact = _exact_newton_step(b, (Fraction(y.real), Fraction(y.imag)))
        ulp = Fraction(math.ulp(float(max(map(abs, exact)))))
        for shift in (0, -1):  # the same point as y, or as z = y - 1
            kept = {}
            step = _newton_step(b, db, shift, y + shift, kept)
            assert abs(Fraction(step.real) - exact[0]) <= ulp
            assert abs(Fraction(step.imag) - exact[1]) <= ulp
            # the value kept for the gate is the first evaluation's, not the
            # one with the fraction bits added for b'
            assert kept == {y + shift: _shifted_value(b, shift, y + shift)}
        # the pass's double b' is not certified there, so the step is this one
        m, x = _split_coefficients(b)
        _, D, _, B, _ = (v[0] for v in _power_sums(m, x, np.array([y])))
        assert abs(D) <= complexroots._DERIVATIVE_MARGIN * 4 * (len(b) - 1) * 2.0**-53 * B

    def test_step_beyond_the_double_range_is_infinite(self):
        # b = 2**1100 + x at z = 1 with b'(y) taken as 2**-100: the step
        # 2**1200 exceeds the double range in either sign
        for sign in (1, -1):
            step = _newton_step((sign * 2**1100, 1), (1,), 0, 1 + 0j, None, (2.0**-100, 0))
            assert step == complex(sign * math.inf, 0.0)

    @pytest.mark.parametrize("case", range(24))
    def test_step_with_the_certified_double_derivative(self, case):
        # where the pass's D is certified, taking b' from it moves the step by
        # at most 2**-26 relative, plus the roundings of the two steps
        b, shift, points = _certified_step_cases()[case]
        d, (m, x), met = len(b) - 1, _split_coefficients(b), 0
        db = Poly(b).derivative().coeffs
        for z in points:
            y = z - shift  # rounded, as the pass rounds it
            _, D, _, B, E = (v[0] for v in _power_sums(m, x, np.array([y])))
            if not abs(D) > complexroots._DERIVATIVE_MARGIN * 4 * d * 2.0**-53 * B:
                continue
            met += 1
            full = _newton_step(b, db, shift, z)
            kept = {}
            step = _newton_step(b, db, shift, z, kept, (complex(D), int(E)))
            assert kept == {z: _shifted_value(b, shift, z)}
            slack = 2.0**-26 * abs(full) + 4 * math.ulp(abs(full))
            assert abs(step - full) <= slack, (d, z)
        assert met > 0

    def test_step_at_a_critical_point_is_fixed(self):
        # b = 1 + x**2 at x = 0: b'(x) is exactly 0 in every round, so the
        # step is the deterministic 2**-20 (1 + |z|), at z = 0 and at z = -1
        for shift, z, want in ((0, 0j, 2.0**-20), (-1, -1 + 0j, 2.0**-19)):
            kept = {}
            assert _newton_step((1, 0, 1), (0, 2), shift, z, kept) == complex(want, 0.0)
            assert kept == {z: _shifted_value((1, 0, 1), shift, z)}


@functools.cache
def _certified_step_cases():
    """(b, shift, points z) of degree <= 200: the roots find_roots gives for
    complement_friendship:40 and :100, friendship:30 and book:30, where the
    double value of b is noise, as at an exact step; and seeded integer
    polynomials with points beside and away from their roots."""
    out = []
    for p in (
        poly_complement_friendship(40),
        poly_complement_friendship(100),
        poly_friendship(30),
        poly_book(30),
    ):
        rs = find_roots(p)
        shift = rs.stats["shift"]
        out.append((p.deflate_zero().taylor_shift(shift).coeffs, shift, rs.complex_roots()))
    rng = np.random.default_rng(2031)
    while len(out) < 24:
        d = int(rng.choice((2, 7, 30, 90, 200)))
        b = [int(c) for c in rng.integers(-(2**40), 2**40, size=d + 1)]
        b[0], b[-1] = b[0] or 1, b[-1] or 1
        roots = np.roots(b[::-1])
        near = roots[rng.permutation(d)[:5]] * (1 + 1e-12)
        shift = len(out) % 2 - 1
        points = np.concatenate([near, roots[:3] * 1.5]) + shift
        out.append((b, shift, [complex(z) for z in points]))
    return out


#: Components that need more fraction bits than the evaluation scale alone gives.
_tiny = st.floats(-1e-20, 1e-20)


@st.composite
def _gate_points(draw):
    """(coefficients of degree <= 40 and |c| <= 2**64, shift s, z with |z - s| <= 4)."""
    coeffs = draw(st.lists(st.integers(-(2**64), 2**64), min_size=2, max_size=41))
    shift = draw(st.integers(-3, 3))
    z = complex(draw(st.floats(shift - 2.8, shift + 2.8) | _tiny), draw(st.floats(-2.8, 2.8) | _tiny))
    assume(abs(z - shift) <= 4)
    return coeffs, shift, z


class TestGateArithmetic:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_gate_points())
    @example(([1, -3, 1], 0, complex(1e-20, -3e-21)))
    @example(([2**64] * 41, -3, complex(0.5, 2.8)))
    @example(([2**64] * 41, 3, complex(5.5, 2.0**-45)))
    @example(([-(2**64), 2**64] * 20 + [1], -1, complex(-2.5, -(2.0**-60))))
    @example(([5, -7, 3, 1], 0, complex(0.75, 5e-324)))
    def test_shifted_value_within_truncation_bound(self, case):
        coeffs, shift, z = case
        w = (Fraction(z.real) - shift, Fraction(z.imag))
        # the identity polynomial returns the fixed-point point itself
        xr, xi, fbits, _ = _shifted_value((0, 1), shift, z)
        assert (Fraction(xr, 2**fbits), Fraction(xi, 2**fbits)) == w
        pr, pi, fbits, _ = _shifted_value(coeffs, shift, z)
        er, ei = Fraction(coeffs[-1]), Fraction(0)
        for c in reversed(coeffs[:-1]):
            er, ei = er * w[0] - ei * w[1] + c, er * w[1] + ei * w[0]
        # each of the d + 2 error terms is under 2**-90 at the scale 2**fbits
        bound = (len(coeffs) + 1) * Fraction(2) ** (fbits - 90)
        assert (pr - er * 2**fbits) ** 2 + (pi - ei * 2**fbits) ** 2 <= bound**2

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_gate_points())
    @example(([1, -3, 1], 0, complex(1e-20, -3e-21)))
    @example(([2**64] * 41, 3, complex(5.5, 2.0**-45)))
    def test_conjugate_shares_the_remainder(self, case):
        # conj z has the same r, s and remainder, so its value is the one
        # the value at z carries
        coeffs, shift, z = case
        pr, pi, fbits, pi_conj = _shifted_value(coeffs, shift, z)
        assert _shifted_value(coeffs, shift, z.conjugate()) == (pr, pi_conj, fbits, pi)
        # and the gate, which takes it, computes the residuals it would from
        # the two fresh values
        assume(coeffs[-1] != 0)
        q, points = Poly(coeffs), np.array([z, z.conjugate()])
        fresh = {w: _shifted_value(coeffs, shift, w) for w in points.tolist()}
        shared, reused = Counter(), Counter()
        gate = _final_residuals(q, shift, points, q, shared, {})
        assert gate.tobytes() == _final_residuals(q, shift, points, q, reused, fresh).tobytes()
        assert (shared["gate_shared"], reused["gate_reused"]) == (1, 2)

    def test_conjugate_value_where_the_floor_is_uneven(self):
        # at most points xi*b_1 is no multiple of 2**fbits, so the conjugate's
        # imaginary part is not the negated one
        uneven = 0
        for coeffs, shift, z in _conjugate_value_cases(2029, 200):
            pr, pi, fbits, pi_conj = _shifted_value(coeffs, shift, z)
            assert _shifted_value(coeffs, shift, z.conjugate()) == (pr, pi_conj, fbits, pi)
            uneven += pi_conj != -pi
        assert uneven > 150


def _conjugate_value_cases(seed: int, count: int):
    """(integer coefficients of degree 2..60, shift, z off the real axis)."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        coeffs = [rng.randint(-(2**64), 2**64) for _ in range(rng.randint(3, 61))]
        shift = rng.randint(-3, 3)
        z = complex(shift + rng.uniform(-1.5, 1.5), rng.choice((-1, 1)) * rng.uniform(1e-9, 1.5))
        out.append((coeffs, shift, z))
    return out


def _power_sum_cases(seed: int, count: int):
    """(integer coefficients of degree 1..200, some zero, up to 2**64; a point
    y with |y| = 2**t, t up to +-300, or y = 0)."""
    rng, out = random.Random(seed), []
    for i in range(count):
        d = rng.choice((1, 2, 7, 30, 60, 120, 200))
        c = [rng.choice((0, rng.randint(-(2**64), 2**64))) for _ in range(d)]
        c.append(rng.randint(1, 2**64))
        t = rng.choice((-300, -40, -1, 0, 0.3, 1, 5, 40, 300)) + rng.uniform(-0.5, 0.5)
        angle = rng.choice((0.0, math.pi, rng.uniform(0, 2 * math.pi)))
        y = 0j if i % 25 == 0 else complex(2**t * math.cos(angle), 2**t * math.sin(angle))
        out.append((c, y))
    out.append(([1] * 61, complex(2.0**300, 0.0)))
    out.append(([rng.randint(1, 2**64) for _ in range(61)], complex(-(2.0**300), 2.0**299)))
    # coefficients 1300 bits apart, beyond the range of one double scale
    out.append(([rng.randint(1, 2**64), 0, -(3**700), 2**1100 + 1, 5], complex(2.0**-400, 0.5)))
    out.append(([7, rng.randint(2**1100, 2**1101), 1], complex(-(2.0**600), 2.0**-30)))
    return out


def _scaled_horner(coeffs, x, f):
    """2**(f d) sum_k coeffs[k] (x / 2**f)**k, exactly, for integer coeffs of
    degree d and a point x = (re, im) of integers; the value as (re, im)."""
    d, (ar, ai) = len(coeffs) - 1, (0, 0)
    for k in range(d, -1, -1):
        ar, ai = ar * x[0] - ai * x[1] + (coeffs[k] << (f * (d - k))), ar * x[1] + ai * x[0]
    return ar, ai


def _dyadic_scale(values):
    """(f, [v * 2**f]) with the least f that makes every double v an integer."""
    fractions = [Fraction(v) for v in values]
    f = max(v.denominator for v in fractions).bit_length() - 1
    return f, [int(v * 2**f) for v in fractions]


class TestPowerSums:
    @pytest.mark.parametrize("case", _power_sum_cases(2027, 60))
    def test_within_the_documented_bound(self, case):
        # |P - p(y) 2**-E| <= 4 d u sum |c_k| |y|**k 2**-E, and for D with k |c_k|
        coeffs, y = case
        m, x = _split_coefficients(coeffs)
        d, u = len(coeffs) - 1, Fraction(1, 2**53)
        P, D, A, B, E = (v[0] for v in _power_sums(m, x, np.array([y])))
        f, point = _dyadic_scale([y.real, y.imag])
        h, (radius,) = _dyadic_scale([math.hypot(y.real, y.imag) * (1 + 2.0**-50)])  # >= |y|
        weighted = [k * ck for k, ck in enumerate(coeffs)]
        scale, den, sum_den = Fraction(2) ** int(E), 2 ** (f * d), 2 ** (h * d)
        for got, weights, modsum in ((P, coeffs, A), (D, weighted, B)):
            want_re, want_im = _scaled_horner(weights, point, f)
            total = Fraction(_scaled_horner(list(map(abs, weights)), (radius, 0), h)[0], sum_den)
            assert math.isfinite(got.real) and math.isfinite(got.imag)
            err_re = Fraction(got.real) * scale - Fraction(want_re, den)
            err_im = Fraction(got.imag) * scale - Fraction(want_im, den)
            assert err_re**2 + err_im**2 <= (4 * d * u * total) ** 2, (d, y)
            # the moduli sum is the sum the noise bound is drawn from
            assert abs(Fraction(modsum) * scale - total) <= total / 10**9

    def test_finite_where_the_value_overflows_a_double(self):
        # degree 60 at |y| = 2**300: y**60 = 2**18000, beyond any double
        # Horner, while the scaled terms stay finite
        m, x = _split_coefficients([1] * 61)
        P, D, A, B, E = _power_sums(m, x, np.array([complex(2.0**300, 0.0)]))
        # 1 = 0.5 * 2**1, so the last term is 0.5 * 2**(1 + 60 * 300) and
        # every other term is below 2**-300 of it
        assert int(E[0]) == 1 + 60 * 300
        assert (P[0], D[0], A[0], B[0]) == (0.5, 30.0, 0.5, 30.0)


def _greedy_pairing(z: np.ndarray) -> np.ndarray:
    """The original greedy search of _pair_conjugates, one candidate at a time."""
    out = z.copy()
    pos = sorted(
        (i for i in range(len(z)) if z[i].imag > NEAR_REAL_IM),
        key=lambda i: (z[i].real, z[i].imag),
    )
    neg = [i for i in range(len(z)) if z[i].imag < -NEAR_REAL_IM]
    for i in set(range(len(z))) - set(pos) - set(neg):
        out[i] = z[i].real
    unused = set(neg)
    for i in pos:
        if not unused:
            break
        target = z[i].conjugate()
        j = min(unused, key=lambda j: (abs(z[j] - target), j))
        if abs(z[j] - target) <= CLUSTER_RADIUS * max(1.0, abs(z[i])):
            re = 0.5 * (z[i].real + z[j].real)
            im = 0.5 * (z[i].imag - z[j].imag)
            out[i] = complex(re, im)
            out[j] = complex(re, -im)
            unused.discard(j)
    return out


def _conjugate_sets(seed: int, count: int) -> list[np.ndarray]:
    """Conjugate pairs perturbed within and beyond CLUSTER_RADIUS, near-real
    points, repeated points and candidates at equal distances, shuffled."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        pts = []
        for _ in range(rng.randint(0, 12)):
            a = complex(rng.uniform(-3, 1), rng.uniform(0.01, 2)) * 10 ** rng.randint(-2, 3)
            kind = rng.randrange(5)
            if kind == 0:  # an exact pair, the upper point repeated
                pts += [a, a, a.conjugate()]
            elif kind == 1:  # two lower candidates at the same distance
                h = 2.0**-30
                pts += [a, a.conjugate() + h, a.conjugate() - h]
            elif kind == 2:  # a pair perturbed by up to 1e-5 of its modulus
                pts += [a, a.conjugate() * (1 + rng.uniform(-1e-5, 1e-5))]
            elif kind == 3:  # an unpaired point
                pts.append(rng.choice((a, a.conjugate())))
            else:  # near the real axis
                pts.append(complex(a.real, rng.choice((0.0, -0.0, 1e-10, -NEAR_REAL_IM, 2e-9))))
        rng.shuffle(pts)
        out.append(np.array(pts, dtype=complex))
    return out


def test_coincident_iterates_move_by_one(monkeypatch):
    # two iterates start on the same point: their repulsion sums are not
    # finite, and each takes the correction 1.0 in place of a NaN; the third
    # takes its Aberth step
    start = np.array([0.5 + 0.5j, 0.5 + 0.5j, -1.5 + 0.25j])
    monkeypatch.setattr(complexroots, "_initial_guesses", lambda b: start)
    b = Poly([2, -1, -2, 1])  # (x - 1)(x + 1)(x - 2)
    z, converged, _ = complexroots._aberth_iterate(b, 0, 1e-12, 1, Counter(), {})
    assert not converged
    assert (start - z)[:2].tolist() == [1.0, 1.0]
    assert math.isfinite(abs(z[2])) and z[2] != start[2]


@pytest.mark.parametrize("z", _conjugate_sets(2028, 200))
def test_pairing_matches_the_greedy_search(z):
    assert _pair_conjugates(z).tobytes() == _greedy_pairing(z).tobytes()


_GATE_REUSE_CASES = [poly_complement_friendship(n) for n in range(1, 43)] + [
    poly_friendship(n) for n in range(2, 30)
]


def test_reused_gate_values_change_no_residual():
    reused = 0
    for p in _GATE_REUSE_CASES:
        rs = find_roots(p)
        if not rs.roots:
            continue
        q = p.deflate_zero()
        shift = rs.stats["shift"]
        fresh = _final_residuals(
            q.taylor_shift(shift), shift, np.array(rs.complex_roots()), q, Counter(), {}
        )
        assert np.array([r for _, _, r in rs.roots]).tobytes() == fresh.tobytes(), p
        reused += rs.stats["gate_reused"]
    assert reused > 0


def test_gate_rejects_where_its_power_sum_overflows():
    # degree 2100 at |z| = 1.414: the powers of _power_sums, up to 1.414**2100,
    # overflow, so the sum the gate divides by is not finite and z cannot pass
    q = Poly([1] * 2101)
    gate = _final_residuals(q, 0, np.array([-1.414 + 0j, -0.5 + 0j]), q, Counter(), {})
    assert gate[0] == math.inf
    assert gate[1] == pytest.approx(1 / 3)  # |q(-1/2)| / q(1/2) = (2/3) / 2


def _componentwise_backward_error(q: Poly, z: complex) -> mpmath.mpf:
    """|q(z)| / sum_i |q_i| |z|^i at 60 significant digits, z taken exactly."""
    with mpmath.workdps(60):
        w = mpmath.mpc(z.real, z.imag)
        value = mpmath.polyval(q.coeffs[::-1], w)
        return abs(value) / mpmath.polyval([abs(c) for c in q.coeffs[::-1]], abs(w))


def _seeded_polynomials(count: int, seed: int) -> list[Poly]:
    """Integer polynomials of degree 2..16, coefficients up to 10**6, nonzero ends."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        c = [rng.randint(-(10**6), 10**6) for _ in range(rng.randint(3, 17))]
        if c[0] and c[-1]:
            out.append(Poly(c))
    return out


class TestReportedResidual:
    """Each reported residual is the componentwise backward-error bound the
    gate proved: at most tol, and at least the exact backward error."""

    @pytest.mark.parametrize(
        "p",
        [poly_complement_friendship(n) for n in range(1, 21)] + _seeded_polynomials(40, 2024),
        ids=[f"cf{n}" for n in range(1, 21)] + [f"random{i}" for i in range(40)],
    )
    def test_residual_bounds_the_componentwise_backward_error(self, p):
        rs = find_roots(p)
        q = p.deflate_zero()
        for re, im, residual in rs.roots:
            floor = _componentwise_backward_error(q, complex(re, im))
            assert rs.tolerance >= residual >= floor * (1 - 1e-9), (re, im)

    @pytest.mark.parametrize(
        "p",
        [poly_book(9), Poly([23, 1653, 831, 2233, 1]), Poly([3, 2])],
        ids=["book9", "shift-558", "linear"],
    )
    def test_residual_is_the_value_the_gate_compared(self, p, monkeypatch):
        gate, compared = complexroots._final_residuals, []
        monkeypatch.setattr(
            complexroots, "_final_residuals", lambda *a: compared.append(gate(*a)) or compared[-1]
        )
        rs = find_roots(p)
        # the gate runs once, over every root
        assert len(compared) == 1
        assert sorted(r for _, _, r in rs.roots) == sorted(compared[0].tolist())


ROOT_COLUMNS_FILE = Path(__file__).parent / "fixtures" / "root_columns.json"

#: sha256 of the (re, im) columns of each instance's roots, one "re,im" line per
#: root in repr; residuals are left out, since their last digits may move
#: within the proven truncation bound when the evaluation changes.  To
#: re-record the pinned instances after an intended change, run from the
#: repo root:  PYTHONPATH=src python tests/test_complexroots.py --record
_ROOT_COLUMNS = json.loads(ROOT_COLUMNS_FILE.read_text(encoding="utf-8"))

_PINNED_FAMILIES = {
    "complement_friendship": poly_complement_friendship,
    "friendship": poly_friendship,
    "book": poly_book,
    "cocktail_party": poly_cocktail,
}


def _root_columns_digest(key: str) -> str:
    family, n = key.split(":")
    rs = find_roots(_PINNED_FAMILIES[family](int(n)))
    text = "".join(f"{re!r},{im!r}\n" for re, im, _ in rs.roots)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(_PINNED_FAMILIES))
def test_root_columns_are_pinned(family):
    pinned = {k: v for k, v in _ROOT_COLUMNS.items() if k.startswith(family + ":")}
    assert {key: _root_columns_digest(key) for key in pinned} == pinned


class TestReconstruction:
    @pytest.mark.parametrize(
        "p",
        [
            poly_complement_friendship(20),  # degree 41
            poly_book(12),  # degree 26
            poly_friendship(10),  # degree 21
            Poly([4, 0, -7, 1, 2, 9, 1]),
        ],
        ids=["cf20", "book12", "friendship10", "dense"],
    )
    def test_coefficients_recovered_from_roots(self, p):
        from conftest import expand_from_roots

        rs = find_roots(p)
        rebuilt = expand_from_roots(rs, p.coeffs[-1])
        assert len(rebuilt) == len(p.coeffs)
        for got, want in zip(rebuilt, p.coeffs):
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


class TestSolverAgainstSturm:
    @pytest.mark.parametrize("m", [10**6, 10**7, 10**8])
    def test_close_simple_roots_stay_apart(self, m):
        # (m x + m)(m x + m + 1): the simple roots -1 and -1 - 1/m
        p = Poly([m, m]) * Poly([m + 1, m])
        rs = find_roots(p)
        assert distinct_real_roots(rs) == pytest.approx([-(m + 1) / m, -1.0], rel=1e-12)
        assert count_real_roots(p) == 2

    def test_real_root_counts_agree(self):
        rng = random.Random(42)
        done = 0
        while done < 30:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 9))]
            p = Poly(coeffs)
            if p.degree < 2 or p.coeffs[0] == 0:
                continue
            rs = find_roots(p)
            solver_count = len(distinct_real_roots(rs))
            assert solver_count == count_real_roots(p), coeffs
            done += 1

    @pytest.mark.parametrize("n", range(10, 15))
    def test_multiple_roots_agree_with_the_certifier(self, n):
        # h_witness(10..14) has roots of multiplicity 5 and more, which the
        # solver finds once each, on their squarefree factor
        p = poly_H(n)
        solver_count = len(distinct_real_roots(find_roots(p)))
        assert solver_count == count_real_roots(p.deflate_zero())
        assert solver_count == certify_cg(p).nonzero_real_root_count


class TestRepeatedRoots:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_h_witness_multiplicities_match_sqf_list(self, n):
        # D(h_witness(n)) = x^gamma times powers of two factors
        p = poly_H(n)
        q = p.deflate_zero()
        x = sympy.Symbol("x")
        _, factors = sympy.Poly(q.coeffs[::-1], x, domain="ZZ").sqf_list()
        rs = find_roots(p)
        counts = Counter(Counter(root[:2] for root in rs.roots).values())
        want = Counter()
        for f, k in factors:
            want[k] += f.degree()
        assert counts == want
        assert rs.stats["gate_evaluations"] == sum(want.values())


class TestCircleDeviation:
    def test_exact_circle_is_zero(self):
        from dompoly.complexroots import RootSet

        pts = [(-1 + math.cos(t), math.sin(t)) for t in (0.3, 1.1, 2.2)]
        rs = RootSet(0, tuple((x, y, 0.0) for x, y in pts), 1e-12)
        dev = circle_deviation(rs, -1 + 0j, 1.0)
        assert dev.max_dev == pytest.approx(0.0, abs=1e-15)

    def test_deflated_cocktail_2(self):
        rs = find_roots(poly_complement_friendship(2))
        dev = circle_deviation(rs, -1 + 0j, 1.0)
        assert dev.max_dev == pytest.approx(math.sqrt(3) - 1, abs=1e-12)

    def test_trend_toward_circle(self):
        d10 = circle_deviation(find_roots(poly_complement_friendship(10)), -1 + 0j, 1.0)
        d40 = circle_deviation(find_roots(poly_complement_friendship(40)), -1 + 0j, 1.0)
        assert d40.max_dev < d10.max_dev

    def test_validation(self):
        from dompoly.complexroots import RootSet

        with pytest.raises(ValueError):
            circle_deviation(RootSet(2, (), 1e-12), -1 + 0j, 1.0)
        with pytest.raises(ValueError):
            circle_deviation(RootSet(0, ((1.0, 0.0, 0.0),), 1e-12), 0j, -1.0)
        for center, radius in (
            (0j, math.nan),
            (0j, math.inf),
            (complex(math.nan, 0.0), 1.0),
            (complex(0.0, -math.inf), 1.0),
        ):
            with pytest.raises(ValueError):
                circle_deviation(RootSet(0, ((1.0, 0.0, 0.0),), 1e-12), center, radius)


class TestRealPartQueries:
    def test_complement_friendship_2_all_left(self):
        rs = find_roots(poly_complement_friendship(2))
        assert not has_positive_real_part(rs)

    def test_no_nonzero_roots_is_false(self):
        rs = find_roots(Poly([0, 0, 0, 1]))
        assert not has_positive_real_part(rs)

    def test_boundary_band(self):
        from dompoly.complexroots import RootSet

        rs = RootSet(
            0,
            ((5e-10, 1.0, 0.0), (-5e-10, -1.0, 0.0), (0.5, 0.2, 0.0)),
            1e-12,
        )
        assert has_positive_real_part(rs)
        assert len(boundary_real_part_roots(rs)) == 2
        just_boundary = RootSet(0, ((5e-10, 1.0, 0.0),), 1e-12)
        assert not has_positive_real_part(just_boundary)


class TestRootsCsv:
    def test_schema_and_round_trip(self):
        rs = find_roots(poly_complement_friendship(2))
        text = roots_csv([("complement_friendship", 2, rs)])
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        for line in lines[1:]:
            family, n, re, im, residual = line.split(",")
            assert family == "complement_friendship"
            assert int(n) == 2
            assert abs(float(re) + 2.0) < 1e-12
            assert abs(abs(float(im)) - math.sqrt(2)) < 1e-12
            assert float(residual) <= 1e-12


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_complexroots.py --record")
    record_digests(ROOT_COLUMNS_FILE, {key: _root_columns_digest(key) for key in _ROOT_COLUMNS})

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dompoly.complexroots import (
    CSV_HEADER,
    _ExactEvaluator,
    _float_to_fixed,
    boundary_real_part_roots,
    circle_deviation,
    distinct_real_roots,
    find_roots,
    has_positive_real_part,
    roots_csv,
)
from dompoly.errors import NonConvergenceError
from dompoly.formulas import poly_book, poly_complement_friendship, poly_friendship
from dompoly.polynomials import Poly, binomial_power
from dompoly.realroots import count_real_roots


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

    def test_quadruple_root_cluster(self):
        rs = find_roots(binomial_power(4))
        assert len(rs.roots) == 4
        # accuracy degrades to a cluster, but residuals must meet tolerance
        for re, im, residual in rs.roots:
            assert abs(complex(re, im) + 1) < 1e-3
            assert residual <= rs.tolerance

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

    def test_shift_failure_falls_back_to_original_basis(self):
        # the centroid shift is -558; in that basis the root near -0.014 keeps
        # an error that misses the exact residual gate, so the original basis
        # must solve it
        p = Poly([23, 1653, 831, 2233, 1])
        rs = find_roots(p)
        assert len(rs.roots) == 4
        assert all(residual <= rs.tolerance for _, _, residual in rs.roots)
        assert min(abs(complex(re, im) + 0.014009) for re, im, _ in rs.roots) < 1e-6

    def test_dynamic_range_capacity_guard(self):
        from dompoly.errors import CapacityError

        with pytest.raises(CapacityError):
            find_roots(binomial_power(1100))

    def test_deterministic(self):
        p = poly_book(7)
        assert find_roots(p) == find_roots(p)


conversions = settings(derandomize=True, max_examples=300, deadline=None)

#: Any finite double up to 1e300 in magnitude, with subnormals drawn on their own.
_doubles = st.floats(-1e300, 1e300) | st.floats(-2.0**-1022, 2.0**-1022)

#: Integers of up to about 1300 bits, so that ratios span the double range.
_big_ints = st.builds(lambda m, e: m << e, st.integers(-(2**80), 2**80), st.integers(0, 1200))


class TestExactConversions:
    @conversions
    @given(_doubles, st.integers(0, 2048))
    @example(5e-324, 96)
    @example(-5e-324, 96)
    @example(-1e300, 0)
    def test_float_to_fixed_is_exact_floor(self, x, fbits):
        assert _float_to_fixed(x, fbits) == math.floor(Fraction(x) * 2**fbits)

    @conversions
    @given(_big_ints, _big_ints.filter(bool))
    @example(1 << 1100, 3)
    @example(-(1 << 1100), 3)
    @example(1, 1 << 1100)
    @example(-1, 1 << 1100)
    def test_newton_step_ratio_is_correctly_rounded(self, a, b):
        # at z = 0 the Newton step of a + b*x is exactly a / b
        step = _ExactEvaluator((a, b)).newton_step(0j)
        exact = Fraction(a, b)
        assert step.imag == 0.0
        if abs(exact) >= 2**1024 - 2**970:  # rounds beyond the largest double
            assert step.real == (math.inf if exact > 0 else -math.inf)
        elif abs(exact) <= Fraction(1, 2**1075):  # rounds below the smallest subnormal
            assert step.real == 0.0
        else:
            assert abs(Fraction(step.real) - exact) <= Fraction(math.ulp(step.real)) / 2


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

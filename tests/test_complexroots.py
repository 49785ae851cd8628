import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dompoly import complexroots
from dompoly.complexroots import (
    CSV_HEADER,
    _float_to_fixed,
    _newton_step,
    _shifted_value,
    _truncation_bound,
    boundary_real_part_roots,
    circle_deviation,
    distinct_real_roots,
    find_roots,
    has_positive_real_part,
    roots_csv,
)
from dompoly.errors import NonConvergenceError
from dompoly.formulas import (
    poly_book,
    poly_cocktail,
    poly_complement_friendship,
    poly_friendship,
)
from dompoly.polynomials import Poly, binomial_power
from dompoly.realroots import count_real_roots

from conftest import record_digests


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

    @pytest.mark.parametrize("r", [10**7, 10**12])
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

    def test_stats_count_the_work(self):
        rs = find_roots(poly_complement_friendship(40))
        assert rs.stats["shift"] == -1
        assert rs.stats["retried"] is False
        assert rs.stats["gate_evaluations"] == len(rs.roots)
        assert rs.stats["aberth_iterations"] > 0
        assert rs.stats["exact_steps"] > 0
        # the centroid basis of this input misses the gate; the retry adds its work
        retried = find_roots(Poly([23, 1653, 831, 2233, 1])).stats
        assert retried["shift"] == -558 and retried["retried"] is True
        assert retried["gate_evaluations"] == 8

    def test_stats_take_no_part_in_equality(self):
        from dompoly.complexroots import RootSet

        assert RootSet(0, (), 1e-12, {"exact_steps": 3}) == RootSet(0, (), 1e-12)

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
        step = _newton_step((a, b), 0j)
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


class TestFusedNewtonStep:
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
        step = _newton_step(coeffs, complex(re, im))
        ulp = Fraction(math.ulp(float(max(map(abs, exact)))))
        assert abs(Fraction(step.real) - exact[0]) <= ulp
        assert abs(Fraction(step.imag) - exact[1]) <= ulp


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
        xr, xi, fbits = _shifted_value((0, 1), shift, z)
        assert (Fraction(xr, 2**fbits), Fraction(xi, 2**fbits)) == w
        pr, pi, fbits = _shifted_value(coeffs, shift, z)
        er, ei = Fraction(coeffs[-1]), Fraction(0)
        for c in reversed(coeffs[:-1]):
            er, ei = er * w[0] - ei * w[1] + c, er * w[1] + ei * w[0]
        bound = Fraction(float(_truncation_bound(len(coeffs) - 1, np.array([abs(z - shift)]))[0]))
        assert (pr - er * 2**fbits) ** 2 + (pi - ei * 2**fbits) ** 2 <= bound**2


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
        "p", [poly_book(9), Poly([23, 1653, 831, 2233, 1])], ids=["book9", "retried"]
    )
    def test_residual_is_the_value_the_gate_compared(self, p, monkeypatch):
        gate, compared = complexroots._final_residuals, []
        monkeypatch.setattr(
            complexroots, "_final_residuals", lambda *a: compared.append(gate(*a)) or compared[-1]
        )
        rs = find_roots(p)
        # the retried input misses the gate in the shifted basis, then passes
        assert len(compared) == 1 + rs.stats["retried"]
        assert sorted(r for _, _, r in rs.roots) == sorted(compared[-1].tolist())


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_complexroots.py --record")
    record_digests(ROOT_COLUMNS_FILE, {key: _root_columns_digest(key) for key in _ROOT_COLUMNS})

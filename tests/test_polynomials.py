import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dompoly.polynomials import Poly, binomial_power

X = Poly.X


def rand_poly(rng, max_deg=6, bound=9):
    return Poly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def test_trailing_zeros_trimmed():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0, 0]).coeffs == ()
    assert Poly().is_zero
    assert Poly([0]).is_zero
    assert Poly([5]).degree == 0
    assert Poly().degree == -1


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        Poly([1.5])


def test_basic_arithmetic():
    assert X * (X + 2) == Poly([0, 2, 1])
    assert (1 + X) ** 4 == Poly([1, 4, 6, 4, 1])
    assert Poly([0, 2, 1]) + X == Poly([0, 3, 1])
    assert (X - X).is_zero
    assert 2 * X + X**2 == Poly([0, 2, 1])


def test_pow_validation():
    with pytest.raises(ValueError):
        X**-1
    assert (X**0) == Poly.ONE
    assert Poly.ZERO**0 == Poly.ONE


def pascal_row(n):
    # independent of math.comb: build Pascal's triangle row by row
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, 100, 101, 401])
def test_binomial_power_against_pascal_recurrence(n):
    assert list(binomial_power(n).coeffs) == pascal_row(n)


def test_binomial_power_large_middle_coefficient():
    c50 = binomial_power(100).coefficient(50)
    assert c50 == pascal_row(100)[50]
    assert c50 > 10**29  # far beyond 64-bit range, must stay exact


def test_binomial_symmetry():
    for n in (3, 10, 25):
        cs = binomial_power(n).coeffs
        assert cs == tuple(reversed(cs))


def test_eval_exact():
    k3 = Poly([0, 3, 3, 1])
    assert k3.eval_exact(1) == 7  # dominating sets of a triangle, odd
    assert Poly([42, 1, 5]).eval_exact(0) == 42
    assert Poly([1, -2, 1]).eval_exact(7) == 36


def test_eval_exact_over_rationals():
    from fractions import Fraction

    p = Poly([1, 3, 1])
    v = p.eval_exact(Fraction(-1, 2))
    assert v == Fraction(-1, 4)
    assert isinstance(v, Fraction)


def test_zero_root_multiplicity_and_deflate():
    p = Poly([0, 0, 0, 6, 4, 1])  # x^5 + 4x^4 + 6x^3
    assert p.zero_root_multiplicity() == 3
    assert p.deflate_zero() == Poly([6, 4, 1])
    assert Poly([1, 1]).zero_root_multiplicity() == 0
    assert Poly([0, 1]).zero_root_multiplicity() == 1
    assert Poly([0, 1]).deflate_zero() == Poly.ONE
    with pytest.raises(ValueError):
        Poly().zero_root_multiplicity()


def test_deflate_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(rng)
        if p.is_zero:
            continue
        m = p.zero_root_multiplicity()
        assert X**m * p.deflate_zero() == p


def test_ring_axioms_on_random_polys():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pow_matches_repeated_multiplication():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_poly(rng, max_deg=4)
        acc = Poly.ONE
        for k in range(7):
            assert p**k == acc
            acc = acc * p


@st.composite
def power_bases(draw):
    """x^s·(r_0 + r_1 x + ...): zero roots, either sign of r_0, zero and
    negative interior coefficients, monomials, and the zero polynomial."""
    if draw(st.integers(0, 9)) == 0:
        return Poly.ZERO
    s = draw(st.integers(0, 3))
    r0 = draw(st.integers(-9, 9).filter(bool))
    rest = draw(st.lists(st.integers(-5, 5), max_size=5))
    return Poly([0] * s + [r0] + rest)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=power_bases(), k=st.integers(0, 40))
def test_pow_property_against_repeated_multiplication(p, k):
    acc = Poly.ONE
    for _ in range(k):
        acc = acc * p
    assert p**k == acc


def test_derivative():
    assert Poly([5, 3, 0, 2]).derivative() == Poly([3, 0, 6])
    assert Poly([7]).derivative().is_zero


def test_taylor_shift_matches_composition():
    rng = random.Random(31)
    for _ in range(30):
        p = rand_poly(rng)
        s = rng.randint(-5, 5)
        composed = sum((c * Poly([s, 1]) ** i for i, c in enumerate(p.coeffs)), Poly())
        assert p.taylor_shift(s) == composed


def test_taylor_shift_of_complement_friendship_is_small():
    # (1+x)^(2n) - 1 - 2nx over x^2, at x = y - 1: y^k has coefficient 2n-1-k
    n = 40
    q = (binomial_power(2 * n) - Poly([1, 2 * n])).deflate_zero()
    assert q.taylor_shift(-1).coeffs == tuple(range(2 * n - 1, 0, -1))


def test_json_round_trip():
    p = Poly([0, 1, 8, 10, 5, 1])
    obj = json.loads(p.to_json())
    assert obj == {"coeffs": ["0", "1", "8", "10", "5", "1"]}
    assert Poly.from_json(p.to_json()) == p
    # big coefficients survive as decimal strings
    big = binomial_power(100)
    assert Poly.from_json(big.to_json()) == big
    assert json.loads(Poly().to_json()) == {"coeffs": []}
    with pytest.raises(ValueError):
        Poly.from_json('{"nope": []}')


def test_str_rendering():
    assert str(Poly([0, 3, 3, 1])) == "x^3 + 3x^2 + 3x"
    assert str(Poly()) == "0"
    assert str(Poly([-1, 1])) == "x - 1"

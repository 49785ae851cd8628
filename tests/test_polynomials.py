import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dompoly.polynomials import Poly, binomial_power, taylor_shift_by_one

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
    with pytest.raises(TypeError):
        Poly(["1"])


_operands = st.lists(st.integers(-(2**70), 2**70) | st.just(0), max_size=12).map(Poly)


def _normalised(p):
    return all(type(c) is int for c in p.coeffs) and (not p.coeffs or p.coeffs[-1] != 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_operands, _operands, st.integers(0, 4), st.integers(-3, 3), st.integers(0, 60))
def test_results_stay_normalised(p, q, k, s, n):
    """The operations that build their results without re-validating them
    still return exact ints with no trailing zero."""
    results = [p + q, p - q, -p, p * q, p**k, p.derivative(), p.taylor_shift(s), binomial_power(n)]
    if p:
        results.append(p.deflate_zero())
    for r in results:
        assert type(r.coeffs) is tuple and _normalised(r)
    assert p + (-p) == Poly() and (p + (-p)).coeffs == ()


def test_basic_arithmetic():
    assert X * (X + 2) == Poly([0, 2, 1])
    assert (1 + X) ** 4 == Poly([1, 4, 6, 4, 1])
    assert Poly([0, 2, 1]) + X == Poly([0, 3, 1])
    assert (X - X).is_zero
    assert 2 * X + X**2 == Poly([0, 2, 1])


def test_mixed_int_operands():
    p = Poly([2, 3])
    assert 1 - p == Poly([-1, -3])
    assert Poly([3]) == 3 and not (p == 3) and Poly() == 0
    assert hash(p) == hash(Poly([2, 3, 0]))
    with pytest.raises(TypeError):
        p + 1.5


@pytest.mark.parametrize("c", [0, 5, -7, 2**70])
def test_a_constant_hashes_as_the_int_it_equals(c):
    assert Poly([c]) == c and hash(Poly([c])) == hash(c)
    assert Poly([c]) in {c} and c in {Poly([c])}
    assert {Poly([c]): "poly"}[c] == "poly"


def test_negative_exponents_rejected():
    with pytest.raises(IndexError, match="negative exponent"):
        Poly([1, 2]).coefficient(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        binomial_power(-1)


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**70), 2**70) | st.just(0), min_size=1, max_size=61))
def test_draining_the_shift_kernel_shifts_by_one(coeffs):
    """The kernel takes f from the highest degree down and yields f(x + 1)
    from the lowest up, zero leading terms included."""
    drained = list(taylor_shift_by_one(reversed(coeffs)))
    composed = sum((c * binomial_power(i) for i, c in enumerate(coeffs)), Poly())
    assert len(drained) == len(coeffs)
    assert Poly(drained) == composed == Poly(coeffs).taylor_shift(1)


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


def test_from_json_accepts_json_integers():
    assert Poly.from_json('{"coeffs": [1, "-2", 0, "007", "-0"]}').coeffs == (1, -2, 0, 7)


@pytest.mark.parametrize(
    "coeffs",
    [
        "[1.5]",
        '[1.5, "2"]',
        "[2.0]",
        "[true]",
        "[false]",
        "[null]",
        '[" 7 "]',
        '["1_0"]',
        '["+7"]',
        '["7\\n"]',
        '["\\u0661"]',  # ARABIC-INDIC DIGIT ONE, which int() accepts
        '["0x10"]',
        '["1e3"]',
        '["1.0"]',
        '[""]',
        '["-"]',
        "[[1]]",
        '"12"',
        "null",
    ],
)
def test_from_json_rejects_what_to_json_never_writes(coeffs):
    with pytest.raises(ValueError):
        Poly.from_json('{"coeffs": %s}' % coeffs)


def test_str_rendering():
    assert str(Poly([0, 3, 3, 1])) == "x^3 + 3x^2 + 3x"
    assert str(Poly()) == "0"
    assert str(Poly([-1, 1])) == "x - 1"

"""Exact real-root certification and the squarefree decomposition.

`certify_cg` counts the distinct negative roots of a domination polynomial
by Descartes-rule bisection (Vincent-Collins-Akritas; Collins and Akritas
1976, Rouillier and Zimmermann 2004).  The deflated polynomial q is first
reduced to s = q_1 q_2 ... from its squarefree decomposition q = c q_1 q_2**2
... (`squarefree_factors`) -- q itself, when a gcd modulo a word-size prime
proves it squarefree -- and the roots of r(x) = s(-x) are scaled into
(0, 1) by a power of two.  Each interval is tested by the sign variations of
(x+1)**d p(1/(x+1)) and split with 2**d p(x/2) and its Taylor shift by 1, so
every number stays an integer.  Each root found comes with an isolating
interval, or the exact root itself, which the certificate reports as a
witness that one exact evaluation checks.

Every Taylor shift runs on one kernel, `polynomials.taylor_shift_by_one`,
on plain coefficient lists; it yields the coefficients from the lowest
degree up, so a Descartes test stops at its second sign variation (the
interval is split either way).  The root bound 2**e is the first to leave
r(2**e (x+1)) without sign variation, and its search starts at the least e
with 2**e at or above the centroid of the roots of r: without variations
the roots of r(2**e (x+1)), those of r over 2**e less 1, sum to at most 0.
When s is D(G)/x**gamma for an n-vertex graph G without isolated vertices,
that centroid is n/(n - gamma) > 1, so the try at e = 0 never runs.

`squarefree_factors` is Yun's decomposition (Yun, SYMSAC 1976); the solver
of `complexroots` takes it too, and finds each repeated root once, on its
squarefree factor.  Its gcds run on the primitive remainder sequence:
pseudo-remainders reduced to their primitive part at each step, so every
number stays an integer.  Signs at rationals num/den come from den**d
p(num/den), exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .polynomials import Poly, taylor_shift_by_one


def _primitive(coeffs: Sequence[int]) -> Sequence[int]:
    """Divide out the (positive) integer content; sign pattern is unchanged."""
    c = math.gcd(*coeffs)
    if c <= 1:
        return coeffs
    return [k // c for k in coeffs]


def _sign_at(p: Poly, x: Fraction) -> int:
    """Sign of p at the rational x = num/den, exactly: den**deg(p) * p(num/den)
    by Horner over the integers (den > 0)."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


# -- squarefree decomposition ---------------------------------------------------

#: A word-size prime for the squarefree test; products of two residues fit int64.
_PRIME = (1 << 31) - 1


def _trim(r: np.ndarray) -> np.ndarray:
    """r without trailing zeros (np.trim_zeros costs more at these sizes)."""
    n = r.size
    while n and not r[n - 1]:
        n -= 1
    return r[:n]


def _rem_mod_prime(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Remainder of a modulo b over GF(_PRIME); b[-1] is nonzero."""
    r = a.copy()
    db = b.size - 1
    inv = pow(int(b[-1]), -1, _PRIME)
    for top in range(r.size - 1, db - 1, -1):
        c = int(r[top]) * inv % _PRIME
        if c:
            r[top - db : top + 1] = (r[top - db : top + 1] - c * b) % _PRIME
    return _trim(r[:db])


def _squarefree_mod_prime(p: Poly) -> bool:
    """True when p mod _PRIME has no repeated factor, so that p has none.

    A repeated factor f**2 of p over the integers has lc(f) | lc(p) (Gauss's
    lemma).  When the prime does not divide lc(p), f keeps its degree mod the
    prime and divides both p and p' there, so gcd(p, p') mod the prime is
    not constant.  False means only that this test cannot tell.
    """
    if p.coeffs[-1] % _PRIME == 0:
        return False
    a = np.array([c % _PRIME for c in p.coeffs], dtype=np.int64)
    b = _trim(np.array([i * c % _PRIME for i, c in enumerate(p.coeffs)][1:], dtype=np.int64))
    while b.size:
        a, b = b, _rem_mod_prime(a, b)
    return a.size == 1


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A remainder of m * a modulo b, for some nonzero integer m, exactly.

    Each step cancels the leading term with the least integer multiples of
    the two leading coefficients that do so.
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    while len(r) > db:
        g = math.gcd(r[-1], lb)
        fr, fb, off = lb // g, r[-1] // g, len(r) - 1 - db
        r = [fr * c for c in r]
        for i, c in enumerate(b):
            r[off + i] -= fb * c
        r.pop()  # the leading term, now zero
        while r and r[-1] == 0:
            r.pop()
    return r


def _gcd(a: Poly, b: Poly) -> Poly:
    """gcd(a, b) for a nonzero a, primitive and with a positive leading
    coefficient, by the primitive remainder sequence."""
    a, b = _primitive(a.coeffs), _primitive(b.coeffs)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return Poly(a) if a[-1] > 0 else -Poly(a)


def _exact_div(p: Poly, g: Poly) -> Poly:
    """Quotient p / g when the division is exact over the integers."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(p.coeffs)
    gd, gl = g.degree, g.coeffs[-1]
    if len(r) - 1 < gd:
        raise ArithmeticError("non-exact polynomial division")
    q = [0] * (len(r) - gd)
    for i in range(len(r) - 1, gd - 1, -1):
        c = r[i]
        if c == 0:
            continue
        if c % gl:
            raise ArithmeticError("non-exact polynomial division")
        f = c // gl
        q[i - gd] = f
        for j, gc in enumerate(g.coeffs):
            r[i - gd + j] -= f * gc
    if any(r):
        raise ArithmeticError("non-exact polynomial division")
    return Poly(q)


def _yun_factors(p: Poly) -> list[tuple[Poly, int]]:
    """squarefree_factors by exact gcds alone, without the modular test.

    With g = gcd(p, p'), b = p / g and c = p' / g are, up to one common
    constant factor, b = q_1 q_2 ... and c = sum_k k q_k' b / q_k.  Then
    d = c - b' = sum_k (k - 1) q_k' b / q_k, which q_1 divides and no other
    q_k does, as they are squarefree and coprime; so gcd(b, d) = q_1, and
    b / q_1, d / q_1 have the same form in q_2, q_3, ..., each k one less
    (Yun, SYMSAC 1976).  Every gcd is primitive, so every quotient is exact
    over the integers (Gauss's lemma).  d is zero once b is one factor.
    """
    dp = p.derivative()
    g = _gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    b, c, k, factors = _exact_div(p, g), _exact_div(dp, g), 1, []
    while True:
        d = c - b.derivative()
        a = _gcd(b, d)
        if a.degree:
            factors.append((a, k))
        if d.is_zero:
            return factors
        b, c, k = _exact_div(b, a), _exact_div(d, a), k + 1


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's squarefree decomposition [(q_k, k), ...] of p, of degree >= 1.

    p is a constant times the product of the q_k**k, the q_k squarefree,
    pairwise coprime and of degree >= 1, in increasing k.  When p is
    squarefree the list is [(p, 1)], p itself; otherwise each q_k is
    primitive, with a positive leading coefficient.  The modular test
    decides most squarefree p without an exact gcd.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    return [(p, 1)] if _squarefree_mod_prime(p) else _yun_factors(p)


# -- certification by Descartes-rule bisection ---------------------------------


def _descartes_test(f: list[int], stats: dict) -> int:
    """min(2, sign variations of (x+1)**d f(1/(x+1))), for f ascending.

    The count bounds the number of roots of f in the open interval (0, 1),
    with the same parity, and is exact when it reads 0 or 1; from 2 on the
    interval is split whatever it reads, so the shift stops there.  f
    ascending is the reversed polynomial from the highest degree down.
    """
    stats["shifts"] += 1
    # one run per sign: the start of a third run is the second variation
    runs = itertools.groupby(c > 0 for c in taylor_shift_by_one(f) if c)
    return len(list(itertools.islice(runs, 3))) - 1


def _unit_interval_roots(p: list[int], stats: dict) -> tuple[list, list]:
    """Isolate the roots of squarefree p in (0, 1) by Descartes bisection.

    A node (c, k) is the interval (c/2**k, (c+1)/2**k) with its polynomial
    mapped onto (0, 1).  Returns the isolating nodes and the exact roots as
    (c, k) for c/2**k, and counts the nodes and the depth in stats.  A root
    on a split point shows as a zero constant term of the right half; it is
    divided out and marks the adjacent halves, which are split on until
    their interval is free of it, so no isolating interval ends at a root.
    """
    isolated, exact = [], []
    stack = [(0, 0, p, False, False)]
    while stack:
        c, k, f, left_root, right_root = stack.pop()
        stats["nodes"] += 1
        stats["max_depth"] = max(stats["max_depth"], k)
        v = _descartes_test(f, stats)
        if v == 0:
            continue
        if v == 1 and not (left_root or right_root):
            isolated.append((c, k))
            continue
        d = len(f) - 1
        left = _primitive([a << (d - i) for i, a in enumerate(f)])
        stats["shifts"] += 1
        right = list(taylor_shift_by_one(reversed(left)))
        mid_root = right[0] == 0
        if mid_root:
            exact.append((2 * c + 1, k + 1))
            del right[0]
        stack.append((2 * c + 1, k + 1, right, mid_root, right_root))
        stack.append((2 * c, k + 1, left, left_root, mid_root))
    return isolated, exact


def _scaled_below_one(r: list[int], stats: dict) -> tuple[int, list[int]]:
    """(e, r(2**e x) made primitive) for the least e >= 0 that puts every
    positive root of r below 1.

    r has no root at or beyond 2**e when r(2**e (x + 1)) has a nonzero
    constant term and no sign variation.  That holds as soon as 2**e exceeds
    the real part of every root of r, so the loop ends; for domination
    polynomials, whose roots crowd around -1, it ends after a few tries
    with a far tighter bound than Fujiwara's.  The search starts at the
    least e with 2**e at or above the centroid -r_(d-1) / (d r_d) of the
    roots, since no smaller e can pass (see the module docstring).
    """
    d = len(r) - 1
    num, den = -r[d - 1], d * r[d]
    if den < 0:
        num, den = -num, -den
    e = (max(-(-num // den), 1) - 1).bit_length()  # least 2**e >= ceil(num / den)
    while True:
        unit = _primitive([a << (e * i) for i, a in enumerate(r)])
        stats["shifts"] += 1
        stats["bound_tries"] += 1
        beyond = taylor_shift_by_one(reversed(unit))
        low = next(beyond)
        if low and all((c > 0) == (low > 0) for c in beyond if c):
            return e, unit
        e += 1


def _negative_root_witnesses(s: Poly, stats: dict) -> list[tuple[Fraction, Fraction]]:
    """One pair (a, b), a <= b <= 0, per distinct negative root of squarefree s.

    a < b isolates one root with s(a) * s(b) < 0; a == b is a root.  The
    roots of s(-x) are scaled into (0, 1) by a power of two, so the
    endpoints are dyadic rationals.
    """
    e, unit = _scaled_below_one([-a if i % 2 else a for i, a in enumerate(s.coeffs)], stats)
    stats["bound_exponent"] = e
    isolated, exact = _unit_interval_roots(unit, stats)
    scale = Fraction(1 << e)
    pairs = [(-scale * Fraction(c + 1, 1 << k), -scale * Fraction(c, 1 << k)) for c, k in isolated]
    pairs += [(-scale * Fraction(c, 1 << k),) * 2 for c, k in exact]
    return sorted(pairs)


@dataclass(frozen=True)
class CgCertificate:
    """Exact verdict on whether a domination polynomial has nonzero real roots.

    gamma is the multiplicity of the zero root (the domination number);
    in_cg is True when every nonzero root is complex, i.e. the graph lies in
    the class of graphs with no nonzero real domination roots.  evidence is
    {"witnesses": [[a, b], ...]}, rational endpoints as decimal strings, one
    pair per distinct nonzero real root (see certify_cg); it is empty when
    in_cg is True.  stats counts the work and is left out of record() and
    to_json(): "nodes" (intervals tested), "max_depth" (bisection levels),
    "bound_exponent" (e of the root bound 2**e), "squarefree_fallback"
    (whether the exact gcd ran), "shifts" (Taylor shifts started, the ones
    a test stopped early included) and "bound_tries" (exponents tried for
    the root bound).
    """

    gamma: int
    nonzero_real_root_count: int
    in_cg: bool
    evidence: Mapping[str, list]
    stats: Mapping[str, int | bool]

    def record(self) -> dict:
        """The verdict as a JSON-ready dict: every field but stats."""
        return {
            "gamma": self.gamma,
            "nonzero_real_root_count": self.nonzero_real_root_count,
            "in_cg": self.in_cg,
            "evidence": dict(self.evidence),
        }

    def to_json(self) -> str:
        return json.dumps(self.record())


def certify_cg(p: Poly) -> CgCertificate:
    """Certify (exactly) whether p has any nonzero real root.

    p must look like a domination polynomial: integer coefficients, none
    negative, so it has no positive root.  The zero root is deflated first;
    the count is of distinct negative roots, found by Descartes-rule
    bisection on the product s of the squarefree factors of the deflated
    polynomial (see squarefree_factors), the exact gcd running only where
    the modular test cannot tell.  Each
    root comes with a witness [a, b], a < b <= 0 with s(a) * s(b) < 0, or
    a == b with s(a) == 0, checked here by exact evaluation before return.
    s is the deflated polynomial itself unless that has a repeated factor.
    """
    if p.is_zero:
        raise ValueError("zero polynomial is not a domination polynomial")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("negative coefficient: not a domination polynomial")
    gamma = p.zero_root_multiplicity()
    q = p.deflate_zero()
    stats = dict(nodes=0, max_depth=0, bound_exponent=0, squarefree_fallback=False,
                 shifts=0, bound_tries=0)
    if q.degree <= 0:
        return CgCertificate(gamma, 0, True, {"witnesses": []}, stats)
    stats["squarefree_fallback"] = fallback = not _squarefree_mod_prime(q)
    s = math.prod(f for f, _ in _yun_factors(q)) if fallback else q
    pairs = _negative_root_witnesses(s, stats)
    for a, b in pairs:
        sa, sb = _sign_at(s, a), _sign_at(s, b)
        if not (b <= 0 and (sa * sb < 0 if a < b else a == b and sa == 0)):
            raise AssertionError(f"certifier witness [{a}, {b}] fails its exact check")
    evidence = {"witnesses": [[str(a), str(b)] for a, b in pairs]}
    return CgCertificate(gamma, len(pairs), not pairs, evidence, stats)


def check_oddness(p: Poly) -> bool:
    """True iff p(1) is odd (the dominating-set count of any graph is odd)."""
    return p.eval_exact(1) % 2 == 1

"""Exact real-root certification and the squarefree decomposition.

`certify_cg` counts the distinct negative roots of a domination polynomial
by Descartes-rule bisection (Vincent-Collins-Akritas; Collins and Akritas
1976, Rouillier and Zimmermann 2004).  The roots of r(x) = q(-x), q the
deflated polynomial, are scaled into (0, 1) by a power of two.  Each
interval is tested by the sign variations of (x+1)**d p(1/(x+1)) and split
with 2**d p(x/2) and its Taylor shift by 1, so every number stays an
integer.  Descartes' rule counts roots with multiplicity, so a count of 0
or 1 is exact on any q; only a bisection that goes on needs q squarefree,
to end.  So q is proven squarefree -- by a gcd modulo a word-size prime, or
where that cannot tell by Yun's exact gcds -- only when the bisection is
about to split a node at depth `_PROOF_DEPTH` or finds a root on a split
point, which might be a repeated one; if q is not, the isolation restarts
on s = q_1 q_2 ... from q's squarefree decomposition q = c q_1 q_2**2 ...
(`squarefree_factors`).  Each root found comes with an isolating interval,
or the exact root itself, which the certificate reports as a witness that
exact evaluation checks.  Every exact operation on the real line lives
here: the solver of `complexroots` takes its real roots from the same
isolation, run on both sides of 0 (`_real_root_brackets`) on squarefree
factors, as the certifier's `_Bracket`s, narrows them by exact signs
(`_Bracket.cross`) and proves each root the double nearest it
(`_nearest_double`).

Every Taylor shift runs on one kernel, `polynomials.taylor_shift_by_one`,
on plain coefficient lists; it yields the coefficients from the lowest
degree up, so a Descartes test stops at its second sign variation (the
interval is split either way).  The root bound 2**e is the first to leave
r(2**e (x+1)) without sign variation, and its search starts at the least e
with 2**e at or above the centroid of the roots of r: without variations
the roots of r(2**e (x+1)), those of r over 2**e less 1, sum to at most 0.
When q is D(G)/x**gamma for an n-vertex graph G without isolated vertices,
that centroid is n/(n - gamma) > 1, so the try at e = 0 never runs.

`squarefree_factors` is Yun's decomposition (Yun, SYMSAC 1976); the solver
of `complexroots` takes it too, and finds each repeated root once, on its
squarefree factor.  Its gcds run on the primitive remainder sequence:
pseudo-remainders reduced to their primitive part at each step, so every
number stays an integer.  Signs at rationals num/den come from den**d
p(num/den), exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .polynomials import Poly, taylor_shift_by_one

if TYPE_CHECKING:
    import numpy as np


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
    not constant.  False means only that this test cannot tell.  numpy is
    imported here, its only use in this module, so that a process that never
    needs this proof never loads it.
    """
    if p.coeffs[-1] % _PRIME == 0:
        return False
    import numpy as np

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


class _RepeatedFactor(Exception):
    """The polynomial under isolation is not squarefree; the one argument is
    the product of its squarefree factors."""


def _require_squarefree(q: Poly, stats: dict) -> None:
    """Return when q is squarefree, else raise _RepeatedFactor.

    The modular test runs first, and Yun's exact gcds only where it cannot
    tell; stats record which ran, and a later call returns at once.
    """
    if stats["modular_test"]:
        return
    stats["modular_test"] = True
    if _squarefree_mod_prime(q):
        return
    stats["squarefree_fallback"] = True
    factors = _yun_factors(q)
    if factors != [(q, 1)]:
        raise _RepeatedFactor(math.prod(f for f, _ in factors))


# -- certification by Descartes-rule bisection ---------------------------------

#: Depth from which a node is split only on a polynomial proven squarefree.
#: The modular test costs about two levels of bisection (1.7-6.5 Taylor
#: shifts at degrees 18-123), so a repeated factor wastes at most about what
#: the skipped test saves on a squarefree polynomial.
_PROOF_DEPTH = 2

#: Proves the polynomial under isolation squarefree, or raises _RepeatedFactor.
_Prover = Callable[[], None]


def _descartes_test(f: list[int], stats: dict) -> int:
    """min(2, sign variations of (x+1)**d f(1/(x+1))), for f ascending.

    The count bounds the number of roots of f in the open interval (0, 1),
    with the same parity, and is exact when it reads 0 or 1; from 2 on the
    interval is split whatever it reads, so the shift stops there.  f
    ascending is the reversed polynomial from the highest degree down.
    """
    stats["shifts"] += 1
    return _variations(taylor_shift_by_one(f), 2)


def _variations(coeffs: Iterable[int], cap: int) -> int:
    """min(cap, sign variations of coeffs), not all zero, read only up to
    the cap-th variation."""
    # one run per sign: the start of run cap + 1 is the cap-th variation
    runs = itertools.groupby(c > 0 for c in coeffs if c)
    return len(list(itertools.islice(runs, cap + 1))) - 1


def _unit_interval_roots(
    p: list[int], stats: dict, prove: _Prover | None = None
) -> tuple[list, list]:
    """Isolate the roots of p in (0, 1) by Descartes bisection.

    A node (c, k) is the interval (c/2**k, (c+1)/2**k) with its polynomial
    mapped onto (0, 1).  Returns the isolating nodes and the exact roots as
    (c, k) for c/2**k, and counts the nodes and the depth in stats.  A root
    on a split point shows as a zero constant term of the right half; it is
    divided out and marks the adjacent halves, which are split on until
    their interval is free of it, so no isolating interval ends at a root.

    p must be squarefree, or prove given: it is called before a node at
    depth _PROOF_DEPTH or deeper is split, and when a root on a split point
    is found, whose multiplicity only squarefreeness tells.
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
        if prove and k >= _PROOF_DEPTH:
            prove()
        d = len(f) - 1
        left = _primitive([a << (d - i) for i, a in enumerate(f)])
        stats["shifts"] += 1
        right = list(taylor_shift_by_one(reversed(left)))
        mid_root = right[0] == 0
        if mid_root:
            if prove:
                prove()
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
        if low and not _variations(itertools.chain((low,), beyond), 1):
            return e, unit
        e += 1


def _positive_roots(
    r: Sequence[int], stats: dict, prove: _Prover | None = None
) -> list[tuple[Fraction, Fraction]]:
    """One pair (a, b), 0 <= a <= b, per distinct positive root of r,
    coefficients ascending, squarefree unless prove is given (see
    _unit_interval_roots).

    a < b isolates one root; a == b is a root.  The roots are scaled into
    (0, 1) by a power of two, so the ends are dyadic rationals.
    """
    e, unit = _scaled_below_one(r, stats)
    stats["bound_exponent"] = e
    isolated, exact = _unit_interval_roots(unit, stats, prove)
    scale = Fraction(1 << e)
    pairs = [(scale * Fraction(c, 1 << k), scale * Fraction(c + 1, 1 << k)) for c, k in isolated]
    pairs += [(scale * Fraction(c, 1 << k),) * 2 for c, k in exact]
    return pairs


def _real_root_brackets(s: Poly, stats: dict, prove: _Prover | None = None) -> list[_Bracket]:
    """One _Bracket per distinct real root of s with s(0) != 0, ascending:
    the positive roots from s, the negative ones from s(-x), reflected,
    searched in that order, so stats keep the negative side's
    bound_exponent.  A side on which the coefficients show no sign
    variation has no root (Descartes' rule of signs) and is skipped: the
    positive side of every polynomial without negative coefficients.  s is
    squarefree unless prove is given (see _unit_interval_roots).

    s changes sign at each of its simple real roots, so just right of the
    j-th of r its sign is its leading coefficient's times (-1)**(r - 1 - j).
    An isolation that never calls prove ends with every real root of s in
    an interval of Descartes count 1, so simple, whether s is squarefree or
    not.
    """
    mirror = [-a if i % 2 else a for i, a in enumerate(s.coeffs)]
    pairs = []
    if _variations(s.coeffs, 1):
        pairs += _positive_roots(s.coeffs, stats, prove)
    if _variations(mirror, 1):
        pairs += [(-b, -a) for a, b in _positive_roots(mirror, stats, prove)]
    pairs.sort()
    r, lead = len(pairs), 1 if s.coeffs[-1] > 0 else -1
    return [_Bracket(s, lo, hi, lead * (-1) ** (r - 1 - j)) for j, (lo, hi) in enumerate(pairs)]


@dataclass
class _Bracket:
    """An exact bracket [lo, hi] of one real root of q: lo < hi with q of
    sign -right at lo and right at hi, or lo == hi, the root; ends holds
    them rounded to doubles."""

    q: Poly
    lo: Fraction
    hi: Fraction
    right: int
    ends: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        self.ends = (float(self.lo), float(self.hi))

    def middle(self) -> float:
        return float((self.lo + self.hi) / 2)

    def narrow(self, t: Fraction, stats: Counter) -> int:
        """Move the end of the sign of q(t), t in [lo, hi], to t, and return
        that sign; both ends when it is 0."""
        stats["sign_evaluations"] += 1
        sign = _sign_at(self.q, t)
        if sign != -self.right:
            self.hi = t
        if sign != self.right:
            self.lo = t
        self.ends = (float(self.lo), float(self.hi))
        return sign

    def settled(self) -> bool:
        """True when no double lies strictly between the ends rounded."""
        lo, hi = self.ends
        return math.nextafter(lo, math.inf) >= hi

    def cross(self, below: bool, stats: Counter) -> float:
        """Where an iterate goes whose step leaves the bracket below lo (or
        above hi).  The root may lie in the rounding cell of the end's
        double, which no step from inside can reach: one exact sign at the
        cell's inner edge tells, and if it is there the bracket shrinks into
        the cell and the iterate goes to the end.  Otherwise the bracket is
        bisected, one exact sign each, until it is no wider than the modulus
        of its middle (an end at 0 halves away), and the iterate goes there."""
        lo, hi = self.ends
        end, other = (lo, hi) if below else (hi, lo)
        edge = _midpoint(end, math.nextafter(end, other))
        if end and self.lo < edge < self.hi:  # q has no root in the cell of 0
            self.narrow(edge, stats)
        if self.settled():
            return end
        while self.narrow((self.lo + self.hi) / 2, stats):
            if self.hi - self.lo <= abs(self.lo + self.hi) / 2:
                break
        return self.middle()


def _nearest_double(bracket: _Bracket, x: float, stats: Counter) -> float:
    """The double nearest the root of q in the bracket, from the estimate x.

    The root lies in the rounding cell of x when q changes sign neither
    between x and the midpoint with its upper neighbour nor between x and
    the midpoint with its lower one: two exact signs at those midpoints, of
    which one is spared when it lies outside the bracket, and both where
    the bracket is the root itself.  Each sign narrows the bracket; a root
    beyond a midpoint moves x one double that way, twice at most, and then
    to the middle of the bracket.  A root at a midpoint is exactly half way,
    and float rounds it to even."""
    for moves in itertools.count():
        up = _midpoint(x, math.nextafter(x, math.inf))
        down = _midpoint(math.nextafter(x, -math.inf), x)
        for mid in (up, down):
            if bracket.lo < mid < bracket.hi and not bracket.narrow(mid, stats):
                return float(mid)
        if down <= bracket.lo and bracket.hi <= up:
            return x
        if moves < 2:
            x = math.nextafter(x, math.inf if bracket.lo >= up else -math.inf)
        else:
            x = bracket.middle()


def _midpoint(a: float, b: float) -> Fraction:
    """(a + b) / 2 exactly."""
    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    scale = max(da, db)  # a power of two, as da and db are
    return Fraction(na * (scale // da) + nb * (scale // db), 2 * scale)


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
    "bound_exponent" (e of the root bound 2**e), "modular_test" (whether
    the modular squarefree test ran), "squarefree_fallback" (whether the
    exact gcd ran), "shifts" (Taylor shifts started, the ones a test
    stopped early included) and "bound_tries" (exponents tried for the root
    bound).  After a restart on the squarefree part, the counts are the
    restarted isolation's.
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
    bisection on the deflated polynomial q.  Only a bisection that reaches
    depth _PROOF_DEPTH or finds a root on a split point proves q squarefree
    (the modular test, then the exact gcd where it cannot tell); if q is
    not, the isolation restarts on the product s of its squarefree factors
    (see squarefree_factors).  Each root comes with a witness [a, b], the
    ends of its _Bracket: a < b <= 0 with s of sign -right at a and right
    at b, the side the bracket was given by the parity of the roots above
    it, or a == b with s(a) == 0, checked here by exact evaluation before
    return.  s is q itself unless the isolation restarted.
    """
    if p.is_zero:
        raise ValueError("zero polynomial is not a domination polynomial")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("negative coefficient: not a domination polynomial")
    gamma = p.zero_root_multiplicity()
    q = p.deflate_zero()
    counts = dict(nodes=0, max_depth=0, bound_exponent=0, shifts=0, bound_tries=0)
    stats = dict(counts, modular_test=False, squarefree_fallback=False)
    if q.degree <= 0:
        return CgCertificate(gamma, 0, True, {"witnesses": []}, stats)
    try:
        brackets = _real_root_brackets(q, stats, functools.partial(_require_squarefree, q, stats))
    except _RepeatedFactor as repeated:
        stats.update(counts)
        brackets = _real_root_brackets(repeated.args[0], stats)
    for b in brackets:
        signs = _sign_at(b.q, b.lo), _sign_at(b.q, b.hi)
        if not (b.lo <= b.hi <= 0 and signs == ((-b.right, b.right) if b.lo < b.hi else (0, 0))):
            raise AssertionError(f"certifier witness [{b.lo}, {b.hi}] fails its exact check")
    evidence = {"witnesses": [[str(b.lo), str(b.hi)] for b in brackets]}
    return CgCertificate(gamma, len(brackets), not brackets, evidence, stats)


def check_oddness(p: Poly) -> bool:
    """True iff p(1) is odd (the dominating-set count of any graph is odd)."""
    return p.eval_exact(1) % 2 == 1

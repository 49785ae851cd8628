"""Exact real-root certification and the squarefree decomposition.

`certify_cg` counts the distinct negative roots of a domination polynomial
by Descartes-rule bisection (Vincent-Collins-Akritas; Collins and Akritas
1976, Rouillier and Zimmermann 2004).  The roots of r(x) = q(-x), q the
deflated polynomial, are scaled into (0, 1) by a power of two.  A node
maps its interval onto (0, 1) by a polynomial f, and its Descartes test
is the sign variations of T(f) = (x+1)**d f(1/(x+1)), which the node
carries instead of f; a split maps the halves by 2**d f(x/2) and
2**d f((x+1)/2), whose T are T(2x+1) and (x+2)**d T(x/(x+2)), so every
number stays an integer.  Descartes' rule counts roots with multiplicity,
so a count of 0 or 1 is exact on any q; only a bisection that goes on
needs q squarefree, to end.  So q is proven squarefree -- by a gcd modulo
a word-size prime, or where that cannot tell by the exact gcd(q, q') --
only when the bisection is about to split a node at depth `_PROOF_DEPTH`
or finds a root on a split point, which might be a repeated one; if q is
not, the isolation restarts on s = q / gcd(q, q'), which is
c q_1 q_2 ... for q = c q_1 q_2**2 ...: q's roots, each simple.  Each
root found comes with an isolating interval, or the exact root itself,
which the certificate reports as a witness that exact evaluation checks.
Every exact operation on the real line lives here: the solver of
`complexroots` takes its real roots from the same isolation, run on both
sides of 0 (`_real_root_brackets`) on squarefree factors, as the
certifier's `_Bracket`s, narrows them by exact signs (`_Bracket.cross`)
and proves each root the double nearest it (`_nearest_double`).

Every Taylor shift runs on one kernel, `polynomials.taylor_shift_by_one`,
in two lanes (`_shift_lanes`): a polynomial a and its reverse side by side
in one integer per coefficient, so one run yields a(x+1) and T(a) at about
1.3 times the cost of one, as the kernel's cost lies in the number of its
additions more than in their size.  The root bound 2**e is the first to
leave r(2**e (x+1)) without sign variation, the low lane of a run on the
scaled r read up to its first variation; where it passes, the high lane
is the root node's T.  Its search starts at the least e with 2**e at or
above the centroid of the roots of r: without variations the roots of
r(2**e (x+1)), those of r over 2**e less 1, sum to at most 0.  When q is
D(G)/x**gamma for an n-vertex graph G without isolated vertices, that
centroid is n/(n - gamma) > 1, so the try at e = 0 never runs.  A split
is one run on the node's T, so a node's test costs no shift of its own.

`squarefree_factors` is Yun's decomposition (Yun, SYMSAC 1976), which the
solver of `complexroots` takes to find each repeated root once, on its
squarefree factor.  Its gcds run on the primitive remainder sequence:
pseudo-remainders reduced to their primitive part at each step, so every
number stays an integer.  Every exact point on the real line is a dyadic
m/2**k, an integer over a power of two, and a sign there comes from
2**(k d) p(m/2**k), exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .polynomials import Poly, taylor_shift_by_one


def _primitive(coeffs: Sequence[int]) -> Sequence[int]:
    """Divide out the (positive) integer content; sign pattern is unchanged."""
    c = math.gcd(*coeffs)
    if c <= 1:
        return coeffs
    return [k // c for k in coeffs]


def _sign_at(p: Poly, m: int, k: int) -> int:
    """Sign of p at the dyadic m / 2**k, k >= 0, exactly: 2**(k deg(p))
    p(m / 2**k) by Horner over the integers, the powers of two as shifts."""
    acc = 0
    for i, c in enumerate(reversed(p.coeffs)):
        acc = acc * m + (c << (i * k))
    return (acc > 0) - (acc < 0)


def _dyadic_str(m: int, k: int) -> str:
    """m / 2**k in lowest terms, "m" or "m/2**k" with 2**k in decimal."""
    z = min(k, (m & -m).bit_length() - 1) if m else k  # the common factors of two
    return f"{m >> z}/{1 << (k - z)}" if k > z else str(m >> z)


# -- squarefree decomposition ---------------------------------------------------

#: A word-size prime for the squarefree test.
_PRIME = (1 << 31) - 1


def _squarefree_mod_prime(p: Poly) -> bool:
    """True when p mod _PRIME has no repeated factor, so that p has none.

    A repeated factor f**2 of p over the integers has lc(f) | lc(p) (Gauss's
    lemma).  When the prime does not divide lc(p), f keeps its degree mod the
    prime and divides both p and p' there, so gcd(p, p') mod the prime is
    not constant.  False means only that this test cannot tell.
    """
    if p.coeffs[-1] % _PRIME == 0:
        return False
    a = [c % _PRIME for c in p.coeffs]
    # deg(p) < _PRIME, so p' mod the prime keeps a nonzero leading coefficient
    b = [i * c % _PRIME for i, c in enumerate(a)][1:]
    while b:  # a, b = b, a mod b
        inv, db = pow(b[-1], -1, _PRIME), len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):
            c = a[top] * inv % _PRIME
            if c:  # a -= c x**lo b; zip stops short of b[-1], whose term cancels a[top]
                lo = top - db
                a[lo:top] = [x - c * y for x, y in zip(a[lo:top], b)]
        # reduced once, as c needs a[top] only mod the prime
        a, b = b, [x % _PRIME for x in a[:db]]
        while b and not b[-1]:
            b.pop()
    return len(a) == 1


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


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's squarefree decomposition [(q_k, k), ...] of p, of degree >= 1.

    p is a constant times the product of the q_k**k, the q_k squarefree,
    pairwise coprime and of degree >= 1, in increasing k.  When p is
    squarefree the list is [(p, 1)], p itself, and the modular test decides
    most such p without an exact gcd.  Otherwise each q_k is primitive, with
    a positive leading coefficient: with g = gcd(p, p'), b = p / g and
    c = p' / g are, up to one common constant factor, b = q_1 q_2 ... and
    c = sum_k k q_k' b / q_k.  Then d = c - b' = sum_k (k - 1) q_k' b / q_k,
    which q_1 divides and no other q_k does, as they are squarefree and
    coprime; so gcd(b, d) = q_1, and b / q_1, d / q_1 have the same form in
    q_2, q_3, ..., each k one less (Yun, SYMSAC 1976).  Every gcd is
    primitive, so every quotient is exact over the integers (Gauss's lemma).
    d is zero once b is one factor.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    if _squarefree_mod_prime(p):
        return [(p, 1)]
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


class _RepeatedFactor(Exception):
    """The polynomial q under isolation is not squarefree; the one argument
    is q / gcd(q, q'), a constant times the product of its squarefree
    factors: q's roots, each simple."""


def _require_squarefree(q: Poly, stats: dict) -> None:
    """Return when q is squarefree, else raise _RepeatedFactor.

    The modular test runs first, and the exact gcd(q, q') only where it
    cannot tell; stats record which ran, and a later call returns at once.
    """
    if stats["modular_test"]:
        return
    stats["modular_test"] = True
    if _squarefree_mod_prime(q):
        return
    stats["squarefree_fallback"] = True
    g = _gcd(q, q.derivative())
    if g.degree:
        raise _RepeatedFactor(_exact_div(q, g))


# -- certification by Descartes-rule bisection ---------------------------------

#: Depth from which a node is split only on a polynomial proven squarefree.
#: The modular test costs about the splits of the first level or two of
#: bisection (a median of 1.7 two-lane runs on the root node's polynomial,
#: 0.7-9.6, over the 87 pinned certificates that run it, degrees 3-126), so
#: a repeated factor wastes at most about what the skipped test saves on a
#: squarefree polynomial.
_PROOF_DEPTH = 2

#: Proves the polynomial under isolation squarefree, or raises _RepeatedFactor.
_Prover = Callable[[], None]


def _shift_lanes(a: Sequence[int], stats: dict) -> Iterator[tuple[int, int]]:
    """The coefficients of a(x+1) and of T(a) = (x+1)**d a(1/(x+1)) in
    pairs, from the lowest degree up, for a ascending of degree d: one run
    of the shift kernel, counted in stats["shifts"].

    The kernel takes a descending for a(x+1) and a ascending, its reverse
    descending, for T(a); it runs on a_(d-k) + a_k 2**w, k = 0..d, with
    w = (bit length of max |a_i|) + d + 2.  Its additions are exact, so each
    yielded p is lo + hi 2**w with lo of a(x+1) and hi of T(a), and lo is
    the residue of p modulo 2**w nearest 0, since
    |lo| <= max |a_i| C(d+1, k+1) < 2**(w-1).
    """
    d = len(a) - 1
    w = max(map(int.bit_length, a)) + d + 2
    half, mask = 1 << (w - 1), (1 << w) - 1
    stats["shifts"] += 1
    for p in taylor_shift_by_one([lo + (hi << w) for lo, hi in zip(reversed(a), a)]):
        p += half  # lo + half + hi 2**w, with 0 <= lo + half < 2**w
        yield (p & mask) - half, p >> w


def _variations(coeffs: Iterable[int], cap: int) -> int:
    """min(cap, sign variations of coeffs), not all zero, read only up to
    the cap-th variation."""
    # one run per sign: the start of run cap + 1 is the cap-th variation
    runs = itertools.groupby(c > 0 for c in coeffs if c)
    return len(list(itertools.islice(runs, cap + 1))) - 1


def _unit_interval_roots(
    t: list[int], stats: dict, prove: _Prover | None = None
) -> list[tuple[int, int, int]]:
    """Isolate the roots in (0, 1) of f, given t = T(f), by Descartes
    bisection.

    A node (c, k) is the interval (c/2**k, (c+1)/2**k), and carries T of the
    polynomial that maps it onto (0, 1).  Its test is min(2, sign variations
    of T): a bound on the number of roots in the interval, with the same
    parity, exact when it reads 0 or 1; from 2 on the interval is split
    whatever it reads.  Returns one (a, b, k) per root, for the ends
    a/2**k <= b/2**k: b = a + 1 for an isolating node, b = a for a root on
    a split point; and counts the nodes and the depth in stats.  A root
    on a split point shows as a zero top coefficient of the right half's T;
    it is dropped, which leaves T of the right half divided by x, and marks
    the adjacent halves, which are split on until their interval is free of
    it, so no isolating interval ends at a root.

    f must be squarefree, or prove given: it is called before a node at
    depth _PROOF_DEPTH or deeper is split, and when a root on a split point
    is found, whose multiplicity only squarefreeness tells.
    """
    roots = []
    stack = [(0, 0, t, False, False)]
    while stack:
        c, k, t, left_root, right_root = stack.pop()
        stats["nodes"] += 1
        stats["max_depth"] = max(stats["max_depth"], k)
        v = _variations(t, 2)
        if v == 0:
            continue
        if v == 1 and not (left_root or right_root):
            roots.append((c, c + 1, k))
            continue
        if prove and k >= _PROOF_DEPTH:
            prove()
        lanes = list(_shift_lanes(t, stats))
        # T(2x+1), and (x+2)**d T(x/(x+2)): the reverse of H(2x), H the high lane
        left = _primitive([lo << i for i, (lo, _) in enumerate(lanes)])
        right = _primitive([hi << j for j, (_, hi) in enumerate(lanes)][::-1])
        mid_root = right[-1] == 0
        if mid_root:
            if prove:
                prove()
            roots.append((2 * c + 1, 2 * c + 1, k + 1))
            del right[-1]
        stack.append((2 * c + 1, k + 1, right, mid_root, right_root))
        stack.append((2 * c, k + 1, left, left_root, mid_root))
    return roots


def _scaled_below_one(r: list[int], stats: dict) -> tuple[int, list[int], list[int]]:
    """(e, unit, T(unit)), unit = r(2**e x) made primitive, for the least
    e >= 0 that puts every positive root of r below 1.

    r has no root at or beyond 2**e when r(2**e (x + 1)) has a nonzero
    constant term and no sign variation.  That holds as soon as 2**e exceeds
    the real part of every root of r, so the loop ends; for domination
    polynomials, whose roots crowd around -1, it ends after a few tries
    with a far tighter bound than Fujiwara's.  The search starts at the
    least e with 2**e at or above the centroid -r_(d-1) / (d r_d) of the
    roots, since no smaller e can pass (see the module docstring).  Each try
    is one run of the lanes, whose high lane is T(unit) where it passes.
    """
    d = len(r) - 1
    num, den = -r[d - 1], d * r[d]  # den of either sign: // floors
    e = (max(-(-num // den), 1) - 1).bit_length()  # least 2**e >= ceil(num / den)
    while True:
        unit = _primitive([a << (e * i) for i, a in enumerate(r)])
        stats["bound_tries"] += 1
        lanes = _shift_lanes(unit, stats)
        low, hi = next(lanes)
        high = [hi]  # T(unit), as far as the test reads the low lane
        if low:
            for lo, hi in lanes:
                if lo and (lo > 0) != (low > 0):
                    break
                high.append(hi)
            else:
                return e, unit, high
        e += 1


def _real_root_brackets(s: Poly, stats: dict, prove: _Prover | None = None) -> list[_Bracket]:
    """One _Bracket per distinct real root of s with s(0) != 0, ascending.
    The positive roots of s are searched, then those of s(-x), with their
    ends negated, so stats keep the negative side's bound_exponent.  A side
    whose coefficients show no sign variation has no root (Descartes' rule
    of signs) and is skipped: the positive side of every polynomial without
    negative coefficients.  s is squarefree unless prove is given (see
    _unit_interval_roots).  A side's roots are scaled into (0, 1) by a power
    of two, 2**e, so each (a, b, k) of its bisection has the dyadic ends
    a 2**e / 2**k and b 2**e / 2**k: a < b isolates one root, a == b is the root.
    Every end is put over one exponent, the least that takes them all, so
    the ends sort as integers and every bracket starts on that exponent.

    s changes sign at each of its simple real roots, so just right of the
    j-th of r its sign is its leading coefficient's times (-1)**(r - 1 - j).
    An isolation that never calls prove ends with every real root of s in
    an interval of Descartes count 1, so simple, whether s is squarefree or
    not.
    """
    mirror = [-a if i % 2 else a for i, a in enumerate(s.coeffs)]
    found = []  # (side a, side b, j): the ends side a / 2**j and side b / 2**j
    for side, coeffs in ((1, s.coeffs), (-1, mirror)):
        if not _variations(coeffs, 1):
            continue
        e, _, t = _scaled_below_one(coeffs, stats)
        stats["bound_exponent"] = e
        found += [(side * a, side * b, k - e) for a, b, k in _unit_interval_roots(t, stats, prove)]
    k = max([0, *(j for _, _, j in found)])
    pairs = sorted(sorted((a << (k - j), b << (k - j))) for a, b, j in found)
    r, lead = len(pairs), 1 if s.coeffs[-1] > 0 else -1
    return [_Bracket(s, lo, hi, k, lead * (-1) ** (r - 1 - j)) for j, (lo, hi) in enumerate(pairs)]


#: Smallest tolerance the solver of `complexroots` accepts: below it the
#: double iterates cannot settle.  It lives here, apart from numpy, so the
#: command line checks --tol without importing the solver.
MIN_TOL = 1e-14


@dataclass
class _Bracket:
    """An exact bracket [lo, hi] / 2**k, k >= 0, of one real root of q: lo < hi
    with q of sign -right at lo / 2**k and right at hi / 2**k, or lo == hi, the
    root.  k rises only to take a finer point: a middle or a rounding cell's edge."""

    q: Poly
    lo: int
    hi: int
    k: int
    right: int

    @property
    def ends(self) -> tuple[float, float]:
        return self.lo / (1 << self.k), self.hi / (1 << self.k)  # rounded correctly

    def middle(self) -> float:
        return (self.lo + self.hi) / (2 << self.k)

    def cell(self, x: float) -> tuple[int, int]:
        """The ends of the rounding cell of the finite double x, its midpoints
        with its two neighbours, over the bracket's exponent, raised as far
        as they need."""
        near = math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)
        ratios = [v.as_integer_ratio() for v in near]
        k = max(self.k, max(d for _, d in ratios).bit_length())  # 2**k >= twice each d
        self.lo, self.hi, self.k = self.lo << (k - self.k), self.hi << (k - self.k), k
        low, mid, high = ((n << (self.k - 1)) // d for n, d in ratios)
        return low + mid, mid + high

    def narrow(self, t: int, stats: Counter) -> int:
        """Move the end of the sign of q(t / 2**k), t in [lo, hi], to t, and
        return that sign; both ends when it is 0."""
        stats["sign_evaluations"] += 1
        sign = _sign_at(self.q, t, self.k)
        if sign != -self.right:
            self.hi = t
        if sign != self.right:
            self.lo = t
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
        end = lo if below else hi
        if end:  # q has no root in the cell of 0, whose edge 2**-1075 would raise k for good
            down, up = self.cell(end)
            edge = up if below else down
            if self.lo < edge < self.hi:
                self.narrow(edge, stats)
        if self.settled():
            return end
        while True:
            if (self.lo + self.hi) & 1:  # the middle needs a finer exponent
                self.lo, self.hi, self.k = 2 * self.lo, 2 * self.hi, self.k + 1
            if not self.narrow((self.lo + self.hi) >> 1, stats):
                break
            if 2 * (self.hi - self.lo) <= abs(self.lo + self.hi):
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
        down, up = bracket.cell(x)
        for mid in (up, down):
            if bracket.lo < mid < bracket.hi and not bracket.narrow(mid, stats):
                return bracket.ends[0]
        if down <= bracket.lo and bracket.hi <= up:
            return x
        if moves < 2:
            x = math.nextafter(x, math.inf if bracket.lo >= up else -math.inf)
        else:
            x = bracket.middle()


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
    exact gcd ran), "shifts" (runs of the shift kernel, two lanes each,
    the ones a bound try stopped early included) and "bound_tries"
    (exponents tried for the root bound).  After a restart on the squarefree part, the counts are the
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
    not, the isolation restarts on s = q / gcd(q, q'), with q's roots, each
    simple (see _RepeatedFactor).  Each root comes with a witness [a, b], the
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
    try:
        brackets = _real_root_brackets(q, stats, functools.partial(_require_squarefree, q, stats))
    except _RepeatedFactor as repeated:
        stats.update(counts)
        brackets = _real_root_brackets(repeated.args[0], stats)
    for b in brackets:
        signs = _sign_at(b.q, b.lo, b.k), _sign_at(b.q, b.hi, b.k)
        if not (b.lo <= b.hi <= 0 and signs == ((-b.right, b.right) if b.lo < b.hi else (0, 0))):
            raise AssertionError(f"witness [{b.lo}, {b.hi}] / 2**{b.k} fails its exact check")
    evidence = {"witnesses": [[_dyadic_str(b.lo, b.k), _dyadic_str(b.hi, b.k)] for b in brackets]}
    return CgCertificate(gamma, len(brackets), not brackets, evidence, stats)

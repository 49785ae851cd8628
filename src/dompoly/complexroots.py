"""Numerical location of complex roots and limit-circle analytics.

Roots are found by simultaneous Aberth-Ehrlich iteration (Newton steps
corrected by the repulsion of the sibling approximations) on the roots z of
each squarefree factor q of the polynomial, with q evaluated through the
shifted basis b(y) = q(y + s), rewritten exactly, s the integer nearest the
root centroid.  For a domination polynomial s is almost always -1, and
D(G, y - 1) = sum_U (-1)^|U| y^(n - |N[U]|) has small signed counts as
coefficients, where the monomial basis has binomial coefficients beyond
10^100 that cancel near the roots.

q has real coefficients, so its real roots are counted and isolated
exactly first, by the Descartes bisection that realroots.certify_cg runs
(realroots._real_root_brackets), and its non-real roots come in conjugate
pairs.  Only the r real roots and the m = (d - r) / 2 non-real roots in the
upper half plane are iterated: the repulsion of an iterate runs over the
others, the conjugates of the upper ones and the real ones, so each pair
costs one set of steps, and a real iterate, whose repulsion is real, stays
on the axis and inside its exact bracket.  Each real root is then proven to
be the double nearest the root by exact signs at the midpoints between
doubles.  Every exact operation on the real line, the brackets, their signs
and that proof, lives in realroots; this module only iterates, in doubles
and in fixed point.

The iterates are the roots z themselves, in complex doubles, so a small
root keeps its relative precision however large s is; b is evaluated at y =
z - s.  Each pass evaluates b once, over the active iterates at the rounded
y, as a sum of powers scaled exactly by powers of two, so that no term
overflows; a Newton step uses that value while its error bound shows it is
trustworthy.  Once cancellation eats the double significand, the iterate
takes an exact fixed-point step at y, formed exactly: the last step or two
of most roots, where the double value is rounding noise (about 1.12 exact
steps per iterate, 0.56 per root found, over complement_friendship:1..42).
Such a step evaluates only b exactly where the pass's double b'(y) is
certified to 2**-26 (every exact step of complement_friendship:1..42), and
b' exactly too where it is not.  The fixed-point evaluation at x is
Goertzel's (Knuth, TAOCP Vol. 2, 4.6.4): the remainder of b modulo the real
quadratic (t - x)(t - conj x), whose coefficients 2 Re x and |x|^2 are held
exactly, costs two real products per coefficient, and four with b', the
same recurrence over its coefficients, where complex Horner takes four and
eight.  Each real and upper root z must then pass a residual gate: q(z) =
b(z - s), by the same evaluation, plus E = (d + 2) 2**-90, the proven bound
on its truncation error at the fraction bits it carries, gives the
componentwise backward-error bound (|q(z)| + E) / sum_i |q_i| |z|^i, which
must be at most tol and is reported as the root's residual, and its
conjugate's, since |q(conj z)| = |q(z)|; where a root sits bitwise on the
point of its last exact step, the gate takes that step's first value, the
same evaluation.  The denominator is the same power sum as the pass's, of q
at |z|, and the quotient is formed with the exponents kept apart, so the
gate does not overflow where the ratio fits a double.  Conversions between
exact integers and doubles are Python's own correctly rounded ones.

Repeated roots are never iterated on: the polynomial is split into its
squarefree factors first (realroots.squarefree_factors, Yun's
decomposition), each factor is solved once, and a root of multiplicity k is
reported k times, with the residual of its factor.  The nonzero roots of
h_witness(40), all 20-fold, take three roots of one cubic.  All iterations
are deterministic: fixed initial guesses, no randomness.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, NonConvergenceError
from .polynomials import Poly
from .realroots import MIN_TOL, _Bracket, _nearest_double, _real_root_brackets, squarefree_factors

#: Margin factor on the error bound of the double-precision evaluation.
_NOISE_MARGIN = 64.0

#: Margin factor on the error bound of the double derivative that an exact
#: Newton step takes for b'(x): 2**26, half the double significand.  A step
#: whose b' is off by 2**-26 relative leaves 2**-26 of the iterate's error,
#: below an ulp of z once the iterate carries half its bits, as it does where
#: its double value has become noise.
_DERIVATIVE_MARGIN = 2.0 ** (53 // 2)

#: Evaluations an exact Newton step may take, each with 64 more fraction bits.
_STEP_ROUNDS = 8


@dataclass(frozen=True)
class RootSet:
    """Nonzero roots of a polynomial, with the exactly-deflated zero root.

    Each root is (re, im, residual), and a root of multiplicity k is k equal
    entries.  residual = (|q(z)| + E) / sum_i |q_i| |z|^i, q the squarefree
    factor of p without its zero root that z is a root of, is the proven
    componentwise backward error bound that the residual gate held to at
    most `tolerance` (E = (d + 2) 2**-90, d the degree of q, bounds the
    truncation of q(z) in fixed point).  The list is conjugate-symmetric,
    a root and its conjugate with one residual, and the rows with im == 0
    are exactly the real roots, each the double nearest a root.

    `stats` counts the work of find_roots, summed over the `factors`
    (squarefree factors solved): `aberth_iterations` (passes),
    `double_steps` (trusted double-precision Newton steps), `exact_steps`
    (fixed-point Newton steps), of which `exact_derivatives` also evaluated
    b' exactly, `gate_evaluations` (one per distinct real root and per
    conjugate pair), of which `gate_reused` took the value of an exact step
    at that very point, `real_roots` (distinct real roots, found by exact
    isolation), `sign_evaluations` (exact signs spent bracketing them),
    `nodes` and `shifts` (the isolation's intervals tested and runs of the
    shift kernel, two lanes each, over both sides of 0, as in
    realroots.CgCertificate.stats), and
    the centroid `shift` of the first factor; all twelve are 0 when p has
    no nonzero root.  It takes no part in comparisons.
    """

    zero_multiplicity: int
    roots: tuple[tuple[float, float, float], ...]
    tolerance: float
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)

    def complex_roots(self) -> list[complex]:
        return [complex(re, im) for re, im, _ in self.roots]


@dataclass(frozen=True)
class CircleDeviation:
    max_dev: float
    mean_dev: float


# -- big-integer <-> float plumbing ------------------------------------------------


def _fixed_value(coeffs: Sequence[int], xr: int, xi: int, fbits: int) -> tuple[int, int]:
    """coeffs at x = (xr + i*xi) / 2**fbits in fixed point, (re, im) * 2**fbits.

    Goertzel's evaluation (Knuth, TAOCP Vol. 2, 4.6.4): the real recurrence
    b_k = c_k + r*b_{k+1} - s*b_{k+2} leaves the remainder b_1*t + b_0 - r*b_1
    of coeffs modulo (t - x)(t - conj x) = t^2 - r*t + s, so p(x) = b_0 -
    conj(x)*b_1, at two real products per coefficient.  r = 2*Re x and s =
    |x|^2 are exact, so the floors made at coefficient k, together less than a
    unit, reach the value as exactly that error times x^k; the two floors of
    the last step add less than sqrt(2) units.  At the fbits of _fixed_point
    each of those d + 2 error terms is under 2**(fbits - 90) units, so the
    value is off by less than (d + 2) 2**(fbits - 90) units."""
    r, s, f2 = 2 * xr, xr * xr + xi * xi, 2 * fbits
    b0 = b1 = 0
    for c in reversed(coeffs):
        b0, b1 = (c << fbits) + ((r * b0) >> fbits) - ((s * b1) >> f2), b0
    return b0 - ((xr * b1) >> fbits), (xi * b1) >> fbits


def _fixed_point(deg: int, shift: int, z: complex, extra: int = 0) -> tuple[int, int, int]:
    """x = z - shift in fixed point, (re, im, fbits), formed without rounding
    for an evaluation of degree deg: fbits is extra plus the larger of the
    exponent at which both components of z are exact and 96 + deg*log2|x|
    (for |x| > 1; 96 else), rounded up to a multiple of 64 above 96, so the
    truncation of each step of _fixed_value (one unit in the last place)
    stays below 2**-90 after amplification by the remaining multiplications."""
    (nr, dr), (ni, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    er, ei = dr.bit_length() - 1, di.bit_length() - 1  # dr = 2**er, di = 2**ei
    ax = abs(z - shift)
    grow = 0 if ax <= 1.0 else int(deg * math.log2(ax)) + 1
    fbits = extra + max(96 + 64 * ((grow + 63) // 64), er, ei)
    return (nr << (fbits - er)) - (shift << fbits), ni << (fbits - ei), fbits


def _newton_step(
    coeffs: Sequence[int],
    dcoeffs: Sequence[int],
    shift: int,
    z: complex,
    derivative: tuple[complex, int] | None = None,
) -> tuple[complex, tuple[int, int, int]]:
    """(step, value): the step b(x)/b'(x) of the integer polynomial b =
    coeffs, of derivative b' = dcoeffs, at x = z - shift, rounded to a
    complex double, and value = b(x) as (re, im, fbits), its first
    evaluation, by _fixed_value at the point _fixed_point(d, shift, z).

    derivative, when given, is (D, E) of _power_sums at the double y = z -
    shift, certified: y b'(y) = D 2**E within 2**-26 relative.  Then the
    step is b(x) y / (D 2**E), formed with the exponents of b(x) and E kept
    apart, so that nothing overflows short of the double range.  Otherwise
    b'(x) is _fixed_value of dcoeffs at the same point and fbits, off by
    less than (d + 1) 2**(fbits - 90) units for b of degree d, at two real
    products per coefficient more.  Where the terms of b' cancel, its value
    can sit a few units above that bound, so b and b' are evaluated again
    with 64 more fraction bits each time, for at most _STEP_ROUNDS
    evaluations, until |b'(x)| has at least 64 bits."""
    d = len(coeffs) - 1
    xr, xi, fbits = _fixed_point(d, shift, z)
    pr, pi = _fixed_value(coeffs, xr, xi, fbits)
    value = pr, pi, fbits
    if derivative is not None:
        dv, top = derivative
        j = max(pr.bit_length(), pi.bit_length())
        ratio = complex(pr / (1 << j), pi / (1 << j)) * (z - shift) / dv
        step = []
        for part in (ratio.real, ratio.imag):
            try:
                step.append(math.ldexp(part, j - fbits - top))
            except OverflowError:  # beyond the double range
                step.append(math.copysign(math.inf, part))
        return complex(*step), value
    for round_ in range(_STEP_ROUNDS):
        if round_:
            xr, xi, fbits = _fixed_point(d, shift, z, 64 * round_)
            pr, pi = _fixed_value(coeffs, xr, xi, fbits)
        dr, di = _fixed_value(dcoeffs, xr, xi, fbits)
        den = dr * dr + di * di
        if den.bit_length() > 128:
            break
    if den == 0:
        # exactly at a critical point: take a deterministic small step
        return complex(2.0**-20 * (1.0 + abs(z)), 0.0), value
    step = []
    for num in (pr * dr + pi * di, pi * dr - pr * di):
        try:
            step.append(num / den)
        except OverflowError:  # beyond the double range
            step.append(math.inf if num > 0 else -math.inf)
    return complex(*step), value


# -- double-precision helpers ---------------------------------------------------


def _initial_guesses(p: Poly, m: int) -> np.ndarray:
    """m deterministic starts in the upper half plane: of the d points on the
    circle of the geometric-mean root modulus |c0/cd|^(1/d) at angles 0.4 +
    2 pi k / d (the start for all d roots), the m in the upper half plane
    farthest from the real axis, by angle; all of them when p has no real
    root, as an upper half plane holds d / 2 of the d points.

    The geometric mean always lies between the smallest and largest root
    modulus, so the start circle threads the root cloud even when classical
    upper root bounds are astronomically loose (binomial-heavy coefficients).
    The real roots are iterated from their own starts, so the points nearest
    the axis, which would otherwise head for them, are the ones left out.
    """
    d = p.degree
    radius = 2.0 ** ((math.log2(abs(p.coeffs[0])) - math.log2(abs(p.coeffs[-1]))) / d)
    angles = (2.0 * np.pi * np.arange(d) / d + 0.4) % (2.0 * np.pi)
    upper = angles[np.sin(angles) > 0]
    angles = np.sort(upper[np.argsort(-np.sin(upper), kind="stable")[:m]])
    return radius * np.exp(1j * angles)


def _split_coefficients(coeffs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Integers c_k = m_k * 2**x_k, x_k the bit length of c_k and m_k the
    correctly rounded c_k / 2**x_k, so 1/2 <= |m_k| <= 1 whatever the size of
    c_k; a zero c_k gets m_k = 0 and an exponent so low that its term never
    sets the scale of _power_sums."""
    m = np.array([c / (1 << c.bit_length()) for c in coeffs])
    x = np.array([c.bit_length() if c else -(1 << 29) for c in coeffs], dtype=np.int32)
    return m, x


def _power_sums(
    m: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """p = sum_k m_k 2**x_k t**k (see _split_coefficients) at the points y, as
    (P, D, A, B, E): with the terms T_k = c_k y**k 2**-E, P = sum T_k =
    p(y) 2**-E, D = sum k T_k = y p'(y) 2**-E, A = sum |T_k| and B = sum
    k |T_k|, E the largest exponent x_k + k e over the nonzero c_k.

    y = 2**e u with e the integer nearest log2|y| (0 at y = 0), so |u| <=
    sqrt(2); the powers u**k come from one cumprod, and each is applied to
    ldexp(m_k, x_k + k e - E), at most 1 in modulus, an exact power-of-two
    scaling, so no term overflows below degree 2046 and P, D stay finite
    where p(y) does not fit a double.  Each point's terms are one contiguous
    row, and every sum runs along it, so a point's four sums are the same
    bits whichever other points share the call.  Each power is k - 1 complex products
    from u, each off by at most sqrt(5) units u = 2**-53, the rounding of
    m_k adds one, and the product by the real factor and the sum of the
    d + 1 terms add d + 1 more:
    |P - p(y) 2**-E| stays below about 4 d u A, and |D - y p'(y) 2**-E|
    below about 4 d u B, twice Horner's 2 d u bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1).  Every operation is elementwise
    or a sum along the powers, so the bits do not depend on a BLAS."""
    ay = np.abs(y)
    e = np.rint(np.log2(np.where(ay > 0, ay, 1.0))).astype(np.int32)
    k = np.arange(len(m), dtype=np.int32)
    u = np.empty((len(y), len(m)), dtype=complex)
    u[:, 0] = 1.0
    u[:, 1:] = (np.ldexp(y.real, -e) + 1j * np.ldexp(y.imag, -e))[:, None]
    np.cumprod(u, axis=1, out=u)
    scale = x + k * e[:, None]
    top = scale.max(axis=1)
    terms = np.ldexp(m, scale - top[:, None]) * u
    moduli = np.abs(terms)
    return (
        terms.sum(axis=1),
        (k * terms).sum(axis=1),
        moduli.sum(axis=1),
        (k * moduli).sum(axis=1),
        top,
    )


def _aberth_iterate(
    b: Poly, shift: int, brackets: list[_Bracket], tol: float, max_iter: int,
    stats: Counter, kept: dict,
) -> tuple[np.ndarray, np.ndarray, bool, float]:
    """Aberth iteration on the roots of b(z - shift): its m = (d - r) / 2
    non-real roots in the upper half plane, from shift plus the initial
    guesses of b, and its r real roots, one in each exact bracket, from the
    bracket's midpoint.  Returns (upper iterates, real iterates, converged,
    largest relative correction of the upper iterates in the last pass),
    and narrows the brackets (see _real_steps).

    Each pass evaluates b once, by _power_sums, at y = z - shift rounded, for
    the active iterates, real and upper.  The double Newton step w =
    b(y)/b'(y) = y P / D is trusted where |P| > noise A and |D| > noise B,
    noise = _NOISE_MARGIN times 4 d u, the bound _power_sums gives (the scale
    2**-E cancels on both sides); otherwise the iterate takes an exact step,
    and kept[z] receives the value of b that the step returns (see
    _newton_step).  The exact step takes b' from D where |D| >
    _DERIVATIVE_MARGIN 4 d u B, which puts D within 2**-26 of y b'(y) 2**-E.
    Aberth's correction is then w / (1 - w sum 1 / (z - v)), v over the
    other upper iterates, the conjugate of every upper iterate, its own
    included (1 / (2i Im z)), and the real iterates: the 2m + r points stand
    for all the roots of b, kept conjugate-symmetric, so no conjugate is ever
    stepped.  A real iterate's sum is real, so it stays on the axis.  The
    upper iterates converge when every correction relative to max(1, |z|)
    is below tol; an iterate whose relative correction drops below tol / 4
    is frozen and only repels the others, and so is a real iterate that
    _real_steps settles.  stats counts passes, trusted double steps, exact
    steps and those of them that evaluated b' exactly."""
    (mk, xk), dcoeffs = _split_coefficients(b.coeffs), b.derivative().coeffs
    d, r = b.degree, len(brackets)
    m = (d - r) // 2
    noise_factor = _NOISE_MARGIN * 4.0 * d * 2.0**-53
    certified_factor = _DERIVATIVE_MARGIN * 4.0 * d * 2.0**-53
    z, own = shift + _initial_guesses(b, m), np.arange(m)
    todo = [j for j, bracket in enumerate(brackets) if not bracket.settled()]
    max_corr, converged = (math.inf, False) if m else (0.0, True)
    # Points whose correction has dropped well below tol are frozen: they sit
    # on their root and only contribute repulsion, saving evaluations.
    active = np.ones(m, dtype=bool)
    # every point, upper, lower and real, in the order of the repulsion sums
    points = np.concatenate([z, z.conj(), [bracket.middle() for bracket in brackets]])
    x = points[2 * m :].real  # a view: the real iterates step in place
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            if converged and not todo:
                break
            stats["aberth_iterations"] += 1
            # a non-finite iterate has neither a double value nor a fixed point
            live = own[active & np.isfinite(z)] if not converged else own[:0]
            # a frozen upper iterate keeps its row: its correction is 0 unless
            # it coincides with another point, and then 1.0, as for any other
            upper = own[: 0 if converged else m]
            rows = np.concatenate([upper, np.array(todo, dtype=int) + 2 * m])
            stepped = np.concatenate([live, np.arange(len(upper), len(rows))])
            moving = points[rows[stepped]]
            y = moving - shift
            pv, dv, abs_p, abs_d, top = _power_sums(mk, xk, y)
            # a non-finite sum fails these comparisons
            abs_dv = np.abs(dv)
            reliable = (np.abs(pv) > noise_factor * abs_p) & (abs_dv > noise_factor * abs_d)
            w = np.zeros(len(rows), dtype=complex)
            w[stepped] = y * (pv / dv)
            exact = np.flatnonzero(~reliable).tolist()
            stats["double_steps"] += len(y) - len(exact)
            stats["exact_steps"] += len(exact)
            for k in exact:
                certified = abs_dv[k] > certified_factor * abs_d[k]
                stats["exact_derivatives"] += not certified
                derivative = (complex(dv[k]), int(top[k])) if certified else None
                zk = complex(moving[k])
                w[stepped[k]], kept[zk] = _newton_step(b.coeffs, dcoeffs, shift, zk, derivative)
            diff = points[rows][:, None] - points
            diff[np.arange(len(rows)), rows] = np.inf  # a point does not repel itself
            denom = 1.0 - w * (1.0 / diff).sum(axis=1)
            corr = w / np.where(denom == 0, 1.0, denom)
            corr = np.where(np.isfinite(corr), corr, 1.0)
            todo = _real_steps(x, todo, corr[len(upper) :].real, tol, brackets, stats)
            if converged:
                continue
            corr = corr[:m]
            # Near-collisions make the denominator tiny and would fling the
            # iterate far out; damp each step to the scale of its iterate.
            mag = np.abs(corr)
            cap = np.maximum(1.0, np.abs(z))
            corr = np.where(mag > cap, corr * (cap / mag), corr)
            z = z - corr
            points[:m], points[m : 2 * m] = z, z.conj()
            # relative to the iterate's scale, so a far root can settle too
            mag = np.abs(corr) / cap
            active &= mag >= 0.25 * tol
            max_corr = float(mag.max())
            converged = max_corr < tol or not active.any()
    return z, x, converged, max_corr


def _real_steps(
    x: np.ndarray, todo: list[int], corr: np.ndarray, tol: float,
    brackets: list[_Bracket], stats: Counter,
) -> list[int]:
    """Step the real iterates x[todo] by their corrections, in place;
    returns those still iterating.

    An iterate settles once its correction is below tol / 4 relative to
    max(1, |x|), moving only if its step stays inside its bracket, or once
    no double lies strictly inside the bracket: _nearest_double takes it
    from there.  Any other step that would leave the bracket goes where
    the bracket's exact signs send it (see _Bracket.cross)."""
    rest = []
    for j, step in zip(todo, corr.tolist()):
        bracket = brackets[j]
        lo, hi = bracket.ends
        new = x[j] - step
        inside = lo < new < hi  # NaN excluded
        if inside:
            x[j] = new
        if abs(step) < 0.25 * tol * max(1.0, abs(x[j])):
            continue
        if not inside:
            x[j] = bracket.cross(new <= lo, stats)
        if not bracket.settled():
            rest.append(j)
    return rest


def _final_residuals(
    basis: Poly, shift: int, z: np.ndarray, q: Poly, stats: Counter, kept: Mapping
) -> np.ndarray:
    """The gate's backward errors of q at z, q(z) = basis(z - shift): the
    fixed-point value p, of scale 2**fbits, is off by less than E = (d + 2)
    2**-90 (see _fixed_value), so (|p| + E) / sum_i |q_i| |z|^i bounds the
    componentwise backward error (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1) from above.  p is kept[z] where an exact step
    already computed it at that very point (equal points have equal
    fixed-point forms), else _fixed_value at _fixed_point.  For real q the
    bound holds at conj z too, since |q(conj z)| = |q(z)| and the
    denominator is the same, so a conjugate is never gated on its own.  |p|
    = a 2**j and the denominator A 2**S, by _power_sums of q at |z|, keep their
    exponents apart, so the quotient is a / A and (d + 2) / A, each scaled by
    an exact power of two: it overflows to an infinite residual only where it
    exceeds the double range, or where A does (at degree 2046 and above)."""
    stats["gate_evaluations"] += len(z)
    mantissa, exponent = np.empty(len(z)), np.empty(len(z), dtype=np.int64)
    for i, zi in enumerate(z.tolist()):
        if zi in kept:
            stats["gate_reused"] += 1
            pr, pi, fbits = kept[zi]
        else:
            xr, xi, fbits = _fixed_point(basis.degree, shift, zi)
            pr, pi = _fixed_value(basis.coeffs, xr, xi, fbits)
        j = max(pr.bit_length(), pi.bit_length())
        mantissa[i], exponent[i] = math.hypot(pr / (1 << j), pi / (1 << j)), j - fbits
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, _, total, _, scale = _power_sums(*_split_coefficients(q.coeffs), np.abs(z))
        ratio = np.ldexp(mantissa / total, exponent - scale)
        ratio += np.ldexp((basis.degree + 2) / total, -90 - scale)
    return np.where(np.isfinite(total), ratio, np.inf)


def _centroid_shift(q: Poly) -> int:
    """The integer nearest the root centroid -a_{d-1} / (d * a_d) of q, ties to even.

    0 when q vanishes there: the shifted polynomial would have a zero root.
    """
    num, den = -q.coefficient(q.degree - 1), q.degree * q.coeffs[-1]
    s, rem = divmod(2 * num + den, 2 * den)  # floor(num / den + 1/2), for either sign of den
    s -= not rem and s % 2  # a tie, which leaves no remainder, goes to the even one
    return 0 if s == 0 or q.eval_exact(s) == 0 else s


def _solve_squarefree(
    q: Poly, tol: float, max_iter: int, stats: Counter
) -> tuple[np.ndarray, np.ndarray]:
    """The roots of q, of degree >= 1 and without repeated roots, and their
    gate residuals (see find_roots); the work is added to stats, which
    keep the shift of the first factor solved."""
    shift, kept = _centroid_shift(q), {}
    basis = q.taylor_shift(shift)
    bits = [c.bit_length() for c in basis.coeffs if c]
    if max(bits) - min(bits) > 1000 or abs(shift).bit_length() > 1000:
        raise CapacityError(
            "coefficient dynamic range or root centroid exceeds double"
            " precision; scale the family index down"
        )
    isolation = Counter()
    brackets = _real_root_brackets(q, isolation)
    stats.update(nodes=isolation["nodes"], shifts=isolation["shifts"], real_roots=len(brackets))
    upper, approx, converged, max_corr = _aberth_iterate(
        basis, shift, brackets, tol, max_iter, stats, kept
    )
    # an iterate that crossed the axis stands for the same conjugate pair
    upper = np.where(upper.imag < 0, upper.conj(), upper)
    if not converged or (upper.imag == 0).any():
        raise NonConvergenceError(
            f"no convergence within {max_iter} iterations"
            f" (max correction {max_corr:.3e})",
            roots=[*approx.tolist(), *upper.tolist(), *upper.conj().tolist()],
            max_correction=max_corr,
        )
    real = np.array([_nearest_double(b, x, stats) for b, x in zip(brackets, approx.tolist())])
    gated = np.concatenate([real, upper])
    gate = _final_residuals(basis, shift, gated, q, stats, kept)
    z = np.concatenate([gated, upper.conj()])
    residuals = np.concatenate([gate, gate[len(real):]])
    worst = float(gate.max())
    if worst > tol:
        raise NonConvergenceError(
            f"residual {worst:.3e} exceeds tolerance {tol:.3e}",
            roots=z.tolist(),
            max_correction=worst,
        )
    if not stats["factors"]:
        stats["shift"] = shift
    stats["factors"] += 1
    return z, residuals


def find_roots(p: Poly, tol: float = 1e-12, max_iter: int = 500) -> RootSet:
    """Locate all complex roots of p, a nonzero polynomial; a constant, such
    as D = 1 of the empty graph, has none.

    The zero root is removed exactly (its multiplicity is the lowest nonzero
    coefficient index), and the rest, q, is split into its squarefree
    factors q_k (see realroots.squarefree_factors): each is solved once, and
    its roots are reported k times each.  The real roots of q_k are isolated
    exactly, and they and its non-real roots in the upper half plane are
    iterated simultaneously in their own coordinates (see _aberth_iterate),
    with q_k evaluated as b(z - s), b = q_k(y + s) rewritten exactly and s
    the integer nearest their centroid, until the largest correction of an
    upper iterate, measured relative to max(1, |z|), drops below tol; an
    iterate whose relative correction drops below tol / 4 is frozen and
    only repels the others.  Each real root is then proven the double
    nearest it (see realroots._nearest_double).  Every real and upper root
    z must then pass the residual gate of q_k, evaluated on b at the exactly
    formed point z - s with a proven truncation bound, which holds at conj
    z as well.  Non-convergence and a missed gate raise, carrying the
    iterates of that factor; they are never returned silently as converged.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {tol}")
    if tol < MIN_TOL:
        raise ValueError(f"tolerance below {MIN_TOL} is not achievable in doubles")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if p.is_zero:
        raise ValueError("the zero polynomial has no finite root set")
    zero_mult = p.zero_root_multiplicity()
    q = p.deflate_zero()
    keys = (
        "aberth_iterations",
        "double_steps",
        "exact_steps",
        "exact_derivatives",
        "gate_evaluations",
        "gate_reused",
        "real_roots",
        "sign_evaluations",
        "nodes",
        "shifts",
    )
    stats = Counter(dict.fromkeys(keys, 0), shift=0, factors=0)
    if q.degree == 0:
        return RootSet(zero_mult, (), tol, dict(stats))
    solved = [(*_solve_squarefree(f, tol, max_iter, stats), k) for f, k in squarefree_factors(q)]
    z = np.concatenate([np.repeat(roots, k) for roots, _, k in solved])
    residuals = np.concatenate([np.repeat(gate, k) for _, gate, k in solved])
    order = np.lexsort((z.imag, z.real))
    roots = tuple((float(z[i].real), float(z[i].imag), float(residuals[i])) for i in order)
    return RootSet(zero_mult, roots, tol, dict(stats))


def circle_deviation(rs: RootSet, center: complex, radius: float) -> CircleDeviation:
    """Max and mean of | |z - center| - radius | over the nonzero roots."""
    if not rs.roots:
        raise ValueError("root set has no nonzero roots")
    if not (cmath.isfinite(center) and math.isfinite(radius) and radius > 0):
        raise ValueError(f"need a finite center and radius > 0, got {center}, {radius}")
    devs = [abs(abs(z - center) - radius) for z in rs.complex_roots()]
    return CircleDeviation(max(devs), sum(devs) / len(devs))

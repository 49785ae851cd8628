"""Numerical location of complex roots and limit-circle analytics.

Roots are found by simultaneous Aberth-Ehrlich iteration (Newton steps
corrected by the repulsion of the sibling approximations) on the roots z of
each squarefree factor q of the polynomial, with q evaluated through the
shifted basis b(y) = q(y + s), rewritten exactly, s the integer nearest the
root centroid.  For a domination polynomial s is almost always -1, and
D(G, y - 1) = sum_U (-1)^|U| y^(n - |N[U]|) has small signed counts as
coefficients, where the monomial basis has binomial coefficients beyond
10^100 that cancel near the roots.  The iterates are the
roots z themselves, in complex doubles, so a small root keeps its relative
precision however large s is; b is evaluated at y = z - s.  Each pass
evaluates b once, over the active iterates at the rounded y, as a sum of
powers scaled exactly by powers of two, so that no term overflows; a Newton
step uses that value while its error bound shows it is trustworthy.  Once
cancellation eats the double significand, the iterate takes an exact
fixed-point step at y, formed exactly: the last step or two of most roots,
where the double value is rounding noise (about 1.14 exact steps per root
over complement_friendship:1..42).  Such a step evaluates only b exactly
where the pass's double b'(y) is certified to 2**-26 (every exact step of
complement_friendship:1..42), and b' exactly too where it is not.  The
fixed-point evaluation at x is Goertzel's (Knuth, TAOCP Vol. 2, 4.6.4): the
remainder of b modulo the real quadratic (t - x)(t - conj x), whose
coefficients 2 Re x and |x|^2 are held exactly, costs two real products per
coefficient, and four with b', the same recurrence over its coefficients,
where complex Horner takes four and eight.  Each root z must then pass a
residual gate: q(z) = b(z - s), by the same evaluation, plus E = (d + 2)
2**-90, the proven bound on its truncation error at the fraction bits it
carries, gives the componentwise backward-error bound (|q(z)| + E) /
sum_i |q_i| |z|^i, which must be at most tol and is reported as the root's
residual; where a root sits bitwise on the point of its last exact step,
the gate takes that step's first value, the same evaluation, and the
conjugate of a point already evaluated takes that point's remainder, which
is the same.  The denominator is the same power sum as the pass's, of q at
|z|, and the quotient is formed with the exponents kept apart, so the gate
does not overflow where the ratio fits a double.  Conversions between
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
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, NonConvergenceError
from .polynomials import Poly
from .realroots import squarefree_factors

#: Roots with |re| at or below this band are treated as imaginary-axis cases.
REAL_PART_GUARD = 1e-9

#: Nearly-real roots (|im| at or below this) are put on the real axis.
NEAR_REAL_IM = 1e-9

#: Distance, relative to max(1, |z|), within which a root is paired with its
#: conjugate.
CLUSTER_RADIUS = 1e-6

#: Smallest accepted tolerance: below it the double iterates cannot settle.
MIN_TOL = 1e-14

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
    truncation of q(z) in fixed point).  For real input the list is
    conjugate-symmetric.

    `stats` counts the work of find_roots, summed over the `factors`
    (squarefree factors solved): `aberth_iterations`, `double_steps`
    (trusted double-precision Newton steps), `exact_steps` (fixed-point
    Newton steps), of which `exact_derivatives` also evaluated b' exactly,
    `gate_evaluations` (one per distinct root), of which `gate_reused` took
    the value of an exact step at that very point and `gate_shared` the
    value at its conjugate, and the centroid `shift` of the first factor;
    all nine are 0 when p has no nonzero root.  It takes no part in
    comparisons.
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


def _fbits_for(deg: int, z: complex) -> int:
    """Fixed-point scale 2**fbits for evaluation at z: the truncation of each
    step (one unit in the last place) stays below 2**-90 after amplification
    by the remaining multiplications, fbits = 96 + deg*log2|z| for |z| > 1."""
    az = abs(z)
    extra = 0 if az <= 1.0 else int(deg * math.log2(az)) + 1
    return 96 + 64 * ((extra + 63) // 64)


def _fixed_value(coeffs: Sequence[int], xr: int, xi: int, fbits: int) -> tuple[int, int, int]:
    """coeffs at x = (xr + i*xi) / 2**fbits in fixed point, (re, im) * 2**fbits,
    followed by the imaginary part im' * 2**fbits of their value at conj x.

    Goertzel's evaluation (Knuth, TAOCP Vol. 2, 4.6.4): the real recurrence
    b_k = c_k + r*b_{k+1} - s*b_{k+2} leaves the remainder b_1*t + b_0 - r*b_1
    of coeffs modulo (t - x)(t - conj x) = t^2 - r*t + s, so p(x) = b_0 -
    conj(x)*b_1, at two real products per coefficient.  r = 2*Re x and s =
    |x|^2 are exact, so the floors made at coefficient k, together less than a
    unit, reach the value as exactly that error times x^k; the two floors of
    the last step add less than sqrt(2) units.  At the fbits of _fbits_for
    each of those d + 2 error terms is under 2**(fbits - 90) units, so the
    value is off by less than (d + 2) 2**(fbits - 90) units.  conj x has the
    same r, s, b_0 and b_1, so its value is (re, im') with im' the floor of
    -xi*b_1 / 2**fbits, which is -im - 1 where xi*b_1 is no multiple of
    2**fbits."""
    r, s, f2 = 2 * xr, xr * xr + xi * xi, 2 * fbits
    b0 = b1 = 0
    for c in reversed(coeffs):
        b0, b1 = (c << fbits) + ((r * b0) >> fbits) - ((s * b1) >> f2), b0
    m = xi * b1
    return b0 - ((xr * b1) >> fbits), m >> fbits, (-m) >> fbits


def _fixed_point(deg: int, shift: int, z: complex, extra: int = 0) -> tuple[int, int, int]:
    """x = z - shift in fixed point, (re, im, fbits): fbits is extra plus the
    larger of _fbits_for(deg, z - shift) and the exponent at which both
    components of z are exact, so x is formed without rounding."""
    (nr, dr), (ni, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    er, ei = dr.bit_length() - 1, di.bit_length() - 1  # dr = 2**er, di = 2**ei
    fbits = extra + max(_fbits_for(deg, z - shift), er, ei)
    return (nr << (fbits - er)) - (shift << fbits), ni << (fbits - ei), fbits


def _newton_step(
    coeffs: Sequence[int],
    dcoeffs: Sequence[int],
    shift: int,
    z: complex,
    kept: dict | None = None,
    derivative: tuple[complex, int] | None = None,
) -> complex:
    """b(x)/b'(x) of the integer polynomial b = coeffs, of derivative b' =
    dcoeffs, at x = z - shift, rounded to a complex double.

    b(x) is first _shifted_value(coeffs, shift, z); kept, when given,
    receives it as kept[z] = (re, im, fbits, im') for the residual gate.
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
    pr, pi, fbits, _ = value = _shifted_value(coeffs, shift, z)
    if kept is not None:
        kept[z] = value
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
        return complex(*step)
    for round_ in range(_STEP_ROUNDS):
        xr, xi, fbits = _fixed_point(len(coeffs) - 1, shift, z, 64 * round_)
        if round_:
            pr, pi, _ = _fixed_value(coeffs, xr, xi, fbits)
        dr, di, _ = _fixed_value(dcoeffs, xr, xi, fbits)
        den = dr * dr + di * di
        if den.bit_length() > 128:
            break
    if den == 0:
        # exactly at a critical point: take a deterministic small step
        return complex(2.0**-20 * (1.0 + abs(z)), 0.0)
    step = []
    for num in (pr * dr + pi * di, pi * dr - pr * di):
        try:
            step.append(num / den)
        except OverflowError:  # beyond the double range
            step.append(math.inf if num > 0 else -math.inf)
    return complex(*step)


def _shifted_value(
    coeffs: Sequence[int], shift: int, z: complex
) -> tuple[int, int, int, int]:
    """b(z - shift) of the integer polynomial b = coeffs as fixed-point (re, im,
    fbits), at the point _fixed_point forms exactly, followed by im', which
    makes (re, im', fbits, im) the value at conj z (see _fixed_value)."""
    xr, xi, fbits = _fixed_point(len(coeffs) - 1, shift, z)
    pr, pi, pi_conj = _fixed_value(coeffs, xr, xi, fbits)
    return pr, pi, fbits, pi_conj


# -- double-precision helpers ---------------------------------------------------


def _initial_guesses(p: Poly) -> np.ndarray:
    """Deterministic start: points on the circle of the geometric-mean root
    modulus |c0/cd|^(1/d), at a fixed 0.4 rad angular offset.

    The geometric mean always lies between the smallest and largest root
    modulus, so the start circle threads the root cloud even when classical
    upper root bounds are astronomically loose (binomial-heavy coefficients).
    """
    d = p.degree
    radius = 2.0 ** ((math.log2(abs(p.coeffs[0])) - math.log2(abs(p.coeffs[-1]))) / d)
    angles = 2.0 * np.pi * np.arange(d) / d + 0.4
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
    where p(y) does not fit a double.  Each power is k - 1 complex products
    from u, each off by at most sqrt(5) units u = 2**-53, the rounding of
    m_k adds one, and the product by the real factor and the sum of the
    d + 1 terms add d + 1 more:
    |P - p(y) 2**-E| stays below about 4 d u A, and |D - y p'(y) 2**-E|
    below about 4 d u B, twice Horner's 2 d u bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1).  Every operation is elementwise
    or a sum along the powers, so the bits do not depend on a BLAS."""
    ay = np.abs(y)
    e = np.rint(np.log2(np.where(ay > 0, ay, 1.0))).astype(np.int32)
    k = np.arange(len(m), dtype=np.int32)[:, None]
    u = np.empty((len(m), len(y)), dtype=complex)
    u[0] = 1.0
    u[1:] = np.ldexp(y.real, -e) + 1j * np.ldexp(y.imag, -e)
    np.cumprod(u, axis=0, out=u)
    scale = x[:, None] + k * e
    top = scale.max(axis=0)
    terms = np.ldexp(m[:, None], scale - top) * u
    moduli = np.abs(terms)
    return (
        terms.sum(axis=0),
        (k * terms).sum(axis=0),
        moduli.sum(axis=0),
        (k * moduli).sum(axis=0),
        top,
    )


def _aberth_iterate(
    b: Poly, shift: int, tol: float, max_iter: int, stats: Counter, kept: dict
) -> tuple[np.ndarray, bool, float]:
    """Aberth iteration on the roots z of b(z - shift), from shift plus the
    initial guesses of b; (iterates, converged, largest relative correction
    of the last pass).

    Each pass evaluates b once, by _power_sums, at y = z - shift rounded, for
    the active iterates only.  The double Newton step w = b(y)/b'(y) = y P / D
    is trusted where |P| > noise A and |D| > noise B, noise = _NOISE_MARGIN
    times 4 d u, the bound _power_sums gives (the scale 2**-E cancels on both
    sides); otherwise the iterate takes an exact step, and kept receives that
    step's first value (see _newton_step).  The exact step takes b' from D
    where |D| > _DERIVATIVE_MARGIN 4 d u B, which puts D within 2**-26 of y
    b'(y) 2**-E.
    stats counts passes, trusted double steps, exact steps and those of them
    that evaluated b' exactly."""
    (m, x), dcoeffs = _split_coefficients(b.coeffs), b.derivative().coeffs
    z, d = shift + _initial_guesses(b), b.degree
    noise_factor = _NOISE_MARGIN * 4.0 * d * 2.0**-53
    certified_factor = _DERIVATIVE_MARGIN * 4.0 * d * 2.0**-53
    max_corr = math.inf
    # Points whose correction has dropped well below tol are frozen: they sit
    # on their root and only contribute repulsion, saving evaluations.
    active = np.ones(d, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            stats["aberth_iterations"] += 1
            # a non-finite iterate has neither a double value nor a fixed point
            live = np.flatnonzero(active & np.isfinite(z))
            y = z[live] - shift
            pv, dv, abs_p, abs_d, top = _power_sums(m, x, y)
            # a non-finite sum fails these comparisons
            reliable = (np.abs(pv) > noise_factor * abs_p) & (np.abs(dv) > noise_factor * abs_d)
            certified = np.abs(dv) > certified_factor * abs_d
            w = np.zeros(d, dtype=complex)
            w[live[reliable]] = y[reliable] * (pv[reliable] / dv[reliable])
            exact = np.flatnonzero(~reliable)
            stats["double_steps"] += len(live) - len(exact)
            stats["exact_steps"] += len(exact)
            stats["exact_derivatives"] += len(exact) - int(certified[exact].sum())
            if len(kept) > 2 * d:  # forget the values of points that moved on
                for point in kept.keys() - set(z.tolist()):
                    del kept[point]
            for k, zk in zip(exact, z[live[exact]].tolist()):
                derivative = (complex(dv[k]), int(top[k])) if certified[k] else None
                w[live[k]] = _newton_step(b.coeffs, dcoeffs, shift, zk, kept, derivative)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            recip = 1.0 / diff
            np.fill_diagonal(recip, 0.0)
            denom = 1.0 - w * recip.sum(axis=1)
            denom = np.where(denom == 0, 1.0, denom)
            corr = w / denom
            corr = np.where(np.isfinite(corr), corr, 1.0)
            # Near-collisions make the denominator tiny and would fling the
            # iterate far out; damp each step to the scale of its iterate.
            mag = np.abs(corr)
            cap = np.maximum(1.0, np.abs(z))
            corr = np.where(mag > cap, corr * (cap / mag), corr)
            z = z - corr
            # relative to the iterate's scale, so a far root can settle too
            mag = np.abs(corr) / cap
            active &= mag >= 0.25 * tol
            max_corr = float(mag.max())
            if max_corr < tol or not active.any():
                return z, True, max_corr
    return z, False, max_corr


def _pair_conjugates(z: np.ndarray) -> np.ndarray:
    """Symmetrize the root multiset under conjugation.

    Roots within the near-real band snap to the axis; the rest, in the upper
    half plane taken by (re, im), are greedily matched with the nearest
    candidate for their conjugate, the lowest index on a tie, and the pair is
    replaced by its symmetrized mean.  Anything left unmatched is kept as-is.
    The distances of all candidates are taken at once, by the same hypot as
    abs of a complex, and a matched candidate's column is set to infinity:
    it can win a later row only when no candidate is at a finite distance,
    and then nothing matches.
    """
    out = z.copy()
    upper, lower = z.imag > NEAR_REAL_IM, z.imag < -NEAR_REAL_IM
    band = ~(upper | lower)
    out[band] = z.real[band]
    pos, neg = np.flatnonzero(upper), np.flatnonzero(lower)
    if not len(neg):
        return out
    pos = pos[np.lexsort((z.imag[pos], z.real[pos]))]
    gap = z[neg][None, :] - z[pos].conj()[:, None]
    dist = np.hypot(gap.real, gap.imag)
    for row, i in enumerate(pos):
        col = np.argmin(dist[row])
        if dist[row, col] <= CLUSTER_RADIUS * max(1.0, abs(z[i])):
            j = neg[col]
            re = 0.5 * (z[i].real + z[j].real)
            im = 0.5 * (z[i].imag - z[j].imag)
            out[i] = complex(re, im)
            out[j] = complex(re, -im)
            dist[:, col] = np.inf
    return out


def _final_residuals(
    basis: Poly, shift: int, z: np.ndarray, q: Poly, stats: Counter, kept: Mapping
) -> np.ndarray:
    """The gate's backward errors of q at z, q(z) = basis(z - shift): the
    fixed-point value p, of scale 2**fbits, is off by less than E = (d + 2)
    2**-90 (see _fixed_value), so (|p| + E) / sum_i |q_i| |z|^i bounds the
    componentwise backward error (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1) from above.  p is kept[z] where an exact step
    already computed it at that very point (equal points have equal
    fixed-point forms); else, where conj z is in kept or was evaluated here,
    the value at z that conj z's carries (see _shifted_value), the one
    _shifted_value gives at z bit for bit; else _shifted_value.  |p| = a 2**j
    and the denominator A 2**S, by _power_sums of q at |z|, keep their
    exponents apart, so the quotient is a / A and (d + 2) / A, each scaled by
    an exact power of two: it overflows to an infinite residual only where it
    exceeds the double range, or where A does (at degree 2046 and above)."""
    stats["gate_evaluations"] += len(z)
    mantissa, exponent = np.empty(len(z)), np.empty(len(z), dtype=np.int64)
    values = {}
    for i, zi in enumerate(z.tolist()):
        if zi in kept:
            stats["gate_reused"] += 1
            pr, pi, fbits, _ = kept[zi]
        elif mirror := kept.get(zi.conjugate()) or values.get(zi.conjugate()):
            stats["gate_shared"] += 1
            pr, _, fbits, pi = mirror
        else:
            pr, pi, fbits, _ = values[zi] = _shifted_value(basis.coeffs, shift, zi)
        j = max(pr.bit_length(), pi.bit_length())
        mantissa[i], exponent[i] = math.hypot(pr / (1 << j), pi / (1 << j)), j - fbits
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, _, total, _, scale = _power_sums(*_split_coefficients(q.coeffs), np.abs(z))
        ratio = np.ldexp(mantissa / total, exponent - scale)
        ratio += np.ldexp((basis.degree + 2) / total, -90 - scale)
    return np.where(np.isfinite(total), ratio, np.inf)


def _centroid_shift(q: Poly) -> int:
    """The integer nearest the root centroid -a_{d-1} / (d * a_d) of q.

    0 when q vanishes there: the shifted polynomial would have a zero root.
    """
    s = round(Fraction(-q.coefficient(q.degree - 1), q.degree * q.coeffs[-1]))
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
    if q.degree == 1:
        z = np.array([complex(-q.coeffs[0] / q.coeffs[1])])
    else:
        z, converged, max_corr = _aberth_iterate(basis, shift, tol, max_iter, stats, kept)
        if not converged:
            raise NonConvergenceError(
                f"no convergence within {max_iter} iterations"
                f" (max correction {max_corr:.3e})",
                roots=z.tolist(),
                max_correction=max_corr,
            )
        z = _pair_conjugates(z)
    residuals = _final_residuals(basis, shift, z, q, stats, kept)
    worst = float(residuals.max())
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
    """Locate all complex roots of p.

    The zero root is removed exactly (its multiplicity is the lowest nonzero
    coefficient index), and the rest, q, is split into its squarefree
    factors q_k (see realroots.squarefree_factors): each is solved once, and
    its roots are reported k times each.  The roots z of q_k are iterated
    simultaneously in their own coordinates, with q_k evaluated as b(z - s),
    b = q_k(y + s) rewritten exactly and s the integer nearest their
    centroid, until the largest correction, each measured relative to
    max(1, |z|) of its iterate, drops below tol; an iterate whose relative
    correction drops below tol / 4 is frozen and only repels the others.  A
    linear q_k gives its correctly rounded root.  Every root z must then
    pass the residual gate of q_k, evaluated on b at the exactly formed
    point z - s with a proven truncation bound.  Non-convergence and a
    missed gate raise, carrying the iterates of that factor; they are never
    returned silently as converged.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {tol}")
    if tol < MIN_TOL:
        raise ValueError(f"tolerance below {MIN_TOL} is not achievable in doubles")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    zero_mult = p.zero_root_multiplicity()
    q = p.deflate_zero()
    keys = (
        "aberth_iterations",
        "double_steps",
        "exact_steps",
        "exact_derivatives",
        "gate_evaluations",
        "gate_reused",
        "gate_shared",
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


def distinct_real_roots(rs: RootSet) -> list[float]:
    """The distinct real nonzero roots, ascending.

    A k-fold root is k equal rows, and _pair_conjugates puts every root of
    the near-real band on the axis, so these are the real parts of the rows
    with im == 0, each once.
    """
    return sorted({re for re, im, _ in rs.roots if im == 0})


def circle_deviation(rs: RootSet, center: complex, radius: float) -> CircleDeviation:
    """Max and mean of | |z - center| - radius | over the nonzero roots."""
    if not rs.roots:
        raise ValueError("root set has no nonzero roots")
    if not (cmath.isfinite(center) and math.isfinite(radius) and radius > 0):
        raise ValueError(f"need a finite center and radius > 0, got {center}, {radius}")
    devs = [abs(abs(z - center) - radius) for z in rs.complex_roots()]
    return CircleDeviation(max(devs), sum(devs) / len(devs))


def has_positive_real_part(rs: RootSet) -> bool:
    """True iff some nonzero root lies strictly right of the imaginary axis.

    Strictness uses the REAL_PART_GUARD band; roots inside the band are not
    counted here (see boundary_real_part_roots).
    """
    return any(re > REAL_PART_GUARD for re, _, _ in rs.roots)


def boundary_real_part_roots(rs: RootSet) -> tuple[tuple[float, float, float], ...]:
    """Roots whose real part sits within the guard band around zero."""
    return tuple(r for r in rs.roots if abs(r[0]) <= REAL_PART_GUARD)


CSV_HEADER = "family,n,re,im,residual"


def roots_csv(entries: Iterable[tuple[str, int, RootSet]]) -> str:
    """Render (family, n, RootSet) entries as CSV, one row per nonzero root."""
    lines = [CSV_HEADER]
    for family, n, rs in entries:
        for re, im, residual in rs.roots:
            lines.append(f"{family},{n},{re!r},{im!r},{residual!r}")
    return "\n".join(lines) + "\n"

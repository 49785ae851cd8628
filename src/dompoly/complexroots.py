"""Numerical location of complex roots and limit-circle analytics.

Roots are found by simultaneous Aberth-Ehrlich iteration (Newton steps
corrected by the repulsion of the sibling approximations) on the shifted basis
b(y) = q(y + s), rewritten exactly, s the integer nearest the root centroid.
For a domination polynomial s is almost always -1, and D(G, y - 1) =
sum_U (-1)^|U| y^(n - |N[U]|) has small signed counts as coefficients, where
the monomial basis has binomial coefficients beyond 10^100 that cancel near
the roots.  The iteration state lives in complex doubles; a Newton step uses
vectorized double Horner while its running error bound shows the value is
trustworthy, and fixed-point integer Horner on b once cancellation eats the
double significand (rare in the shifted basis).  Every root z must then pass
a residual gate: the same fixed-point Horner evaluates q(z) = b(z - s) at the
exactly formed point z - s, and the gate adds a proven bound on its
truncation error.  If the shifted basis fails to converge or to pass the
gate, the roots are solved again in the original basis.  Conversions between
exact integers and doubles are Python's own correctly rounded ones, and no
evaluation is cached between points.

Multiple roots are not certified; they converge only linearly.  Up to 4-fold
they are reported as tight clusters; from 5-fold on the iteration does not
converge and NonConvergenceError is raised (every nonzero root of the
h_witness(10) polynomial is 5-fold).  All iterations are deterministic:
fixed initial guesses, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, NonConvergenceError
from .polynomials import Poly

#: Roots with |re| at or below this band are treated as imaginary-axis cases.
REAL_PART_GUARD = 1e-9

#: Nearly-real roots (|im| below this) count as real when matching Sturm counts.
NEAR_REAL_IM = 1e-9

#: Radius used to merge root clusters stemming from multiple roots.
CLUSTER_RADIUS = 1e-6

#: Smallest accepted tolerance: below it the double iterates cannot settle.
MIN_TOL = 1e-14

#: Margin factor on the running error bound of the double-precision Horner.
_NOISE_MARGIN = 64.0


@dataclass(frozen=True)
class RootSet:
    """Nonzero roots of a polynomial, with the exactly-deflated zero root.

    Each root is (re, im, residual) where residual = |p(z)| / (||p||_1 *
    max(1, |z|)^deg), a scale-free backward error with p(z) evaluated in fixed
    point on the shifted integer coefficients; every residual, plus a proven
    bound on that truncation, is at most `tolerance`.  For real input the list
    is conjugate-symmetric.
    """

    zero_multiplicity: int
    roots: tuple[tuple[float, float, float], ...]
    tolerance: float

    def complex_roots(self) -> list[complex]:
        return [complex(re, im) for re, im, _ in self.roots]


@dataclass(frozen=True)
class CircleDeviation:
    max_dev: float
    mean_dev: float


# -- big-integer <-> float plumbing ------------------------------------------------


def _float_to_fixed(x: float, fbits: int) -> int:
    """floor(x * 2**fbits), exactly."""
    num, den = x.as_integer_ratio()
    return (num << fbits) // den


def _fbits_for(deg: int, z: complex) -> int:
    """Fixed-point scale 2**fbits for Horner at z: the truncation of each step
    (one unit in the last place) stays below 2**-90 after amplification by the
    remaining multiplications, fbits = 96 + deg*log2|z| for |z| > 1."""
    az = abs(z)
    extra = 0 if az <= 1.0 else int(deg * math.log2(az)) + 1
    return 96 + 64 * ((extra + 63) // 64)


def _fixed_horner(
    coeffs: Sequence[int], xr: int, xi: int, fbits: int, derivative: bool = False
) -> tuple[int, int, int, int]:
    """coeffs and, if asked, its derivative at x = (xr + i*xi) / 2**fbits in
    fixed point, (re, im, d_re, d_im) * 2**fbits.  Each step floors each
    component of a product once, by less than a unit, and later steps multiply
    that error by x: the value is off by less than _truncation_bound units
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 5.1)."""
    pr, pi = coeffs[-1] << fbits, 0
    dr = di = 0
    for c in reversed(coeffs[:-1]):
        if derivative:
            dr, di = ((dr * xr - di * xi) >> fbits) + pr, ((dr * xi + di * xr) >> fbits) + pi
        pr, pi = ((pr * xr - pi * xi) >> fbits) + (c << fbits), (pr * xi + pi * xr) >> fbits
    return pr, pi, dr, di


def _truncation_bound(deg: int, r: np.ndarray) -> np.ndarray:
    """sqrt(2) * sum_{j<deg} r**j: the error of _fixed_horner at |x| = r."""
    return math.sqrt(2.0) * _abs_eval(np.ones(deg), r)


def _newton_step(coeffs: Sequence[int], z: complex) -> complex:
    """p(z)/p'(z) of the integer polynomial coeffs, rounded to a complex double."""
    fbits = _fbits_for(len(coeffs) - 1, z)
    xr, xi = _float_to_fixed(z.real, fbits), _float_to_fixed(z.imag, fbits)
    pr, pi, dr, di = _fixed_horner(coeffs, xr, xi, fbits, derivative=True)
    den = dr * dr + di * di
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


def _shifted_value(coeffs: Sequence[int], shift: int, z: complex) -> tuple[int, int, int]:
    """b(z - shift) of the integer polynomial b = coeffs as fixed-point (re, im,
    fbits); fbits is at least the exponent at which both components of z are
    exact, so the point z - shift is formed without rounding."""
    exact = (x.as_integer_ratio()[1].bit_length() - 1 for x in (z.real, z.imag))
    fbits = max(_fbits_for(len(coeffs) - 1, z - shift), *exact)
    xr = _float_to_fixed(z.real, fbits) - (shift << fbits)
    pr, pi, _, _ = _fixed_horner(coeffs, xr, _float_to_fixed(z.imag, fbits), fbits)
    return pr, pi, fbits


# -- double-precision helpers ---------------------------------------------------


def _scaled_coefficients(p: Poly) -> tuple[int, np.ndarray]:
    """Divide all coefficients by 2**k so the largest lands in [1, 2)."""
    bits = [c.bit_length() for c in p.coeffs]
    k = max(bits) - 1
    smallest = min(b for b, c in zip(bits, p.coeffs) if c != 0)
    if k - (smallest - 1) > 1000:
        raise CapacityError(
            "coefficient dynamic range exceeds double precision; scale the"
            " family index down"
        )
    scale = 1 << k
    return k, np.array([c / scale for c in p.coeffs], dtype=np.float64)


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


def _horner_pair(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.full_like(z, complex(c[-1]))
    dp = np.zeros_like(z)
    for k in range(len(c) - 2, -1, -1):
        dp = dp * z + p
        p = p * z + c[k]
    return p, dp


def _abs_eval(c_abs: np.ndarray, r: np.ndarray) -> np.ndarray:
    acc = np.full_like(r, c_abs[-1])
    for k in range(len(c_abs) - 2, -1, -1):
        acc = acc * r + c_abs[k]
    return acc


def _aberth_iterate(
    coeffs: Sequence[int], c: np.ndarray, z: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, bool, float]:
    d = len(c) - 1
    c_abs = np.abs(c)
    cd_abs = c_abs[1:] * np.arange(1, d + 1)
    noise_factor = _NOISE_MARGIN * 4.0 * d * 2.0**-53
    max_corr = math.inf
    # Points whose correction has dropped well below tol are frozen: they sit
    # on their root and only contribute repulsion, saving exact evaluations.
    active = np.ones(d, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            pv, dv = _horner_pair(c, z)
            az = np.abs(z)
            noise_p = noise_factor * _abs_eval(c_abs, az)
            noise_d = noise_factor * _abs_eval(cd_abs, az)
            finite = np.isfinite(pv) & np.isfinite(dv) & np.isfinite(noise_p)
            reliable = finite & (np.abs(pv) > noise_p) & (np.abs(dv) > noise_d)
            w = np.where(
                active & reliable, pv / np.where(dv == 0, 1.0, dv), 0.0
            )
            # exact steps for any finite iterate: a non-finite one has no fixed point
            for i in np.flatnonzero(active & ~reliable & np.isfinite(z)):
                w[i] = _newton_step(coeffs, complex(z[i]))
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
            cap = np.maximum(1.0, az)
            corr = np.where(mag > cap, corr * (cap / mag), corr)
            z = z - corr
            mag = np.abs(corr)
            active &= mag >= 0.25 * tol
            max_corr = float(mag.max())
            if max_corr < tol or not active.any():
                return z, True, max_corr
    return z, False, max_corr


def _pair_conjugates(z: np.ndarray) -> np.ndarray:
    """Symmetrize the root multiset under conjugation.

    Roots within the near-real band snap to the axis; the rest are greedily
    matched with the nearest candidate for their conjugate and the pair is
    replaced by its symmetrized mean.  Anything left unmatched is kept as-is.
    """
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


def _final_residuals(
    basis: Poly, shift: int, z: np.ndarray, k: int, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sharp, reported) backward errors of q at z, q(z) = basis(z - shift).

    c are q's coefficients over 2**k.  The fixed-point value p is off by less
    than E = _truncation_bound * 2**-fbits, so sharp = (|p| + E) / sum_i |c_i|
    |z|^i majorizes the backward error and is the acceptance test; reported =
    |p| / (||c||_1 * max(1,|z|)^deg), recorded on the RootSet, is at most sharp.
    """
    d = len(c) - 1
    az = np.abs(z)
    # overflow to inf rejects; inf / inf is masked by the isfinite test
    with np.errstate(over="ignore", invalid="ignore"):
        aev = _abs_eval(np.abs(c), az)
        rep_den = float(np.abs(c).sum()) * np.maximum(1.0, az) ** d
        bound = _truncation_bound(d, np.abs(z - shift))
        mags, errs = np.empty(len(z)), np.empty(len(z))
        for i, zi in enumerate(z):
            pr, pi, fbits = _shifted_value(basis.coeffs, shift, complex(zi))
            scale = 1 << (fbits + k)
            mags[i] = math.hypot(pr / scale, pi / scale)
            errs[i] = math.ldexp(bound[i], -(fbits + k))
        sharp = np.where(np.isfinite(aev), (mags + errs) / aev, np.inf)
    reported = np.where(np.isfinite(rep_den), mags / rep_den, np.inf)
    return sharp, reported


def _centroid_shift(q: Poly) -> int:
    """The integer nearest the root centroid -a_{d-1} / (d * a_d) of q.

    0 when q vanishes there: the shifted polynomial would have a zero root.
    """
    s = round(Fraction(-q.coefficient(q.degree - 1), q.degree * q.coeffs[-1]))
    return 0 if s == 0 or q.eval_exact(s) == 0 else s


def _solve(
    q: Poly, scale: int, c: np.ndarray, shift: int, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of q (iterated on q(y + shift)) and their reported residuals;
    NonConvergenceError when the iteration stalls or a root misses the gate."""
    basis = q.taylor_shift(shift)
    _, cb = _scaled_coefficients(basis)
    if basis.degree == 1:
        y = np.array([complex(-cb[0] / cb[1])])
    else:
        y, converged, max_corr = _aberth_iterate(
            basis.coeffs, cb, _initial_guesses(basis), tol, max_iter
        )
        if not converged:
            raise NonConvergenceError(
                f"no convergence within {max_iter} iterations"
                f" (max correction {max_corr:.3e})",
                roots=(y + shift).tolist(),
                max_correction=max_corr,
            )
    z = _pair_conjugates(y + shift)
    sharp, reported = _final_residuals(basis, shift, z, scale, c)
    worst = float(sharp.max())
    if worst > tol:
        raise NonConvergenceError(
            f"residual {worst:.3e} exceeds tolerance {tol:.3e}",
            roots=z.tolist(),
            max_correction=worst,
        )
    return z, reported


def find_roots(p: Poly, tol: float = 1e-12, max_iter: int = 500) -> RootSet:
    """Locate all complex roots of p.

    The zero root is removed exactly (its multiplicity is the lowest nonzero
    coefficient index).  The remaining roots are iterated simultaneously on
    q(y + s), s the integer nearest their centroid, until the largest
    correction drops below tol; every root z must then pass the residual
    gate, evaluated on the shifted coefficients at z - s with a proven
    truncation bound.  Should the shifted basis fail to converge, fail the
    gate or exceed the double range, the roots are solved again in the
    original basis, so the shift never turns a solvable input into a failure.
    Non-convergence raises, carrying the best iterate; it is never returned
    silently as converged.
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
    if q.degree == 0:
        return RootSet(zero_mult, (), tol)
    scale, c = _scaled_coefficients(q)
    shift = _centroid_shift(q)
    try:
        z, reported = _solve(q, scale, c, shift, tol, max_iter)
    except (NonConvergenceError, CapacityError):
        if not shift:
            raise
        z, reported = _solve(q, scale, c, 0, tol, max_iter)
    order = np.lexsort((z.imag, z.real))
    roots = tuple((float(z[i].real), float(z[i].imag), float(reported[i])) for i in order)
    return RootSet(zero_mult, roots, tol)


def distinct_real_roots(rs: RootSet) -> list[float]:
    """Representatives of near-real root clusters (zero root excluded).

    Roots with |im| <= NEAR_REAL_IM are projected to the axis and merged when
    closer than CLUSTER_RADIUS, so a numerically split multiple root counts
    once.
    """
    reals = sorted(re for re, im, _ in rs.roots if abs(im) <= NEAR_REAL_IM)
    out: list[float] = []
    for r in reals:
        if out and r - out[-1] <= CLUSTER_RADIUS:
            continue
        out.append(r)
    return out


def circle_deviation(rs: RootSet, center: complex, radius: float) -> CircleDeviation:
    """Max and mean of | |z - center| - radius | over the nonzero roots."""
    if not rs.roots:
        raise ValueError("root set has no nonzero roots")
    if radius <= 0:
        raise ValueError("radius must be positive")
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

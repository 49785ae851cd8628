import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dompoly.errors import CapacityError
from dompoly.formulas import cg_family_factor, poly_H, poly_book, poly_join
from dompoly.graphs import Graph
from dompoly.polynomials import Poly


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """Erdos-Renyi-style graph on n vertices with edge probability p."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


#: The certify --join patterns of the join_certify benchmark, by index n.
BENCHMARK_JOINS = {
    "H:n+1,B:n": lambda n: poly_join(poly_H(n + 1), poly_book(n)),
    "H:n,H:n": lambda n: poly_join(poly_H(n), poly_H(n)),
    "B:n,B:n": lambda n: poly_join(poly_book(n), poly_book(n)),
}


def criterion_6_joins() -> list[tuple[str, Poly]]:
    """(label, D) for every H/B join pattern that acceptance criterion 6 states."""
    operands = [(("H", n), ("H", n)) for n in range(3, 21)]
    operands += [(("H", n + 1), ("B", n)) for n in range(3, 11)]
    operands += [(("B", n), ("B", n)) for n in range(1, 12, 2)]
    operands += [(("B", n + 1), ("B", n)) for n in range(2, 11, 2)]
    operands += [(("B", n + 1), ("H", n)) for n in range(4, 11)]
    closed = {"H": poly_H, "B": poly_book}
    return [
        (f"{a}_{i}+{b}_{j}", poly_join(closed[a](i), closed[b](j)))
        for (a, i), (b, j) in operands
    ]


def criterion_7_coronas() -> list[tuple[str, Poly, Poly]]:
    """(label, base factor, D) for every iterated corona that criterion 7 states.

    The base factor is D(K_1∘H) for H of order m; G∘H has D = factor**|G|,
    and the second nesting level, with 1 + m times the order, has
    D = factor**(|G|·(1 + m)).
    """
    bases = [
        ("K_2", cg_family_factor("K", 2), 2),
        ("K_4", cg_family_factor("K", 4), 4),
        ("S_{3,2}", cg_family_factor("S", 3, 5), 5),
        ("B_2", cg_family_factor("B2"), 6),
    ]
    cases = []
    for label, factor, m in bases:
        for base_order in (1, 2, 3):
            cases.append((f"{label} level1 |G|={base_order}", factor, factor**base_order))
            level2 = factor ** (base_order * (1 + m))
            cases.append((f"{label} level2 |G|={base_order}", factor, level2))
    return cases


def record_digests(path: Path, digests: dict[str, str]) -> None:
    """Write digests to path as JSON, in their given order; print each entry
    that changed, with its old and new digest (None when absent)."""
    previous = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for key in [*digests, *(k for k in previous if k not in digests)]:
        if previous.get(key) != digests.get(key):
            print(f"{key}: {previous.get(key)} -> {digests.get(key)}")
    path.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {path}")


def run_fresh(args: list[str], cwd: Path, stdin: str = "") -> subprocess.CompletedProcess:
    """Run `python -W error *args` in a fresh interpreter with src/ first on
    its path: a check of what a process imports needs one, since this module
    has already imported numpy here."""
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        input=stdin.encode(),
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def inclusion_exclusion_coeffs(g: Graph) -> list[int]:
    """D(G, x) = Σ_{U⊆V} (-1)^|U| (1+x)^(n-|N[U]|), coefficients ascending.

    S dominates unless it misses N[v] for some v, and the sets S missing
    N[v] for every v in U are the subsets of V - N[U].  An oracle that shares
    no code with the enumerator or the closed forms: neighbourhoods come from
    the edge list, and (1+x)^k is expanded by math.comb.
    """
    n = g.n
    closed = [1 << v for v in range(n)]
    for u, v in g.edges():
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    signed = [0] * (n + 1)  # Σ (-1)^|U| over the U with n - |N[U]| = k
    signed[n] = 1  # U = ∅
    cover = [0] * (1 << n)
    for u in range(1, 1 << n):
        low = u & -u
        cover[u] = cover[u ^ low] | closed[low.bit_length() - 1]
        signed[n - cover[u].bit_count()] += -1 if u.bit_count() % 2 else 1
    return [sum(c * math.comb(k, i) for k, c in enumerate(signed)) for i in range(n + 1)]


#: The subset sweep refuses graphs beyond this many vertices (2**28 subsets).
SUBSET_CAP = 28

#: Vertices handled by the vectorized low block of the sweep (2**18 subsets).
_LOW_BITS = 18


def _cover_table(masks: list[int], bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Union-of-closed-neighborhoods and popcount for every subset of `masks`.

    Doubling construction: subsets containing vertex v as their top bit are
    (subset without v) | {v}, so each block is the previous blocks OR'ed with
    one more neighborhood mask.
    """
    cover = np.zeros(1 << bits, dtype=np.uint32)
    pop = np.zeros(1 << bits, dtype=np.uint8)
    for v in range(bits):
        half = 1 << v
        cover[half : 2 * half] = cover[:half] | np.uint32(masks[v])
        pop[half : 2 * half] = pop[:half] + 1
    return cover, pop


def subset_sweep(g: Graph) -> Poly:
    """D(G, x) by testing all 2^n subsets; raises CapacityError beyond SUBSET_CAP.

    The reference for the frontier DP of ``dompoly.enumeration``, with which
    it shares no code.  The subsets split into a vectorized low block of the
    first vertices and an outer loop over the patterns of the rest.
    """
    n = g.n
    if n > SUBSET_CAP:
        raise CapacityError(f"{n} vertices means 2**{n} subsets; the cap is {SUBSET_CAP}.")
    if n == 0:
        return Poly.ONE
    low_bits = min(n, _LOW_BITS)
    low_cover, low_pop = _cover_table(list(g.closed[:low_bits]), low_bits)
    high_cover, high_pop = _cover_table(list(g.closed[low_bits:]), n - low_bits)
    full = np.uint32((1 << n) - 1)
    counts = [0] * (n + 1)
    for h in range(len(high_cover)):
        dominated = (low_cover | high_cover[h]) == full
        sizes = np.bincount(low_pop[dominated], minlength=low_bits + 1)
        base = int(high_pop[h])
        for i, c in enumerate(sizes):
            if c:
                counts[base + i] += int(c)
    return Poly(counts)


def _primitive_coeffs(coeffs) -> list[int]:
    """coeffs divided by their (positive) content."""
    c = math.gcd(*coeffs) or 1
    return [k // c for k in coeffs]


def _signed_pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of |lc(b)|**(deg a - deg b + 1) * a modulo b, exactly.

    The multiplier is positive, so the remainder's signs agree with those of
    the rational remainder; that is what Sturm's theorem needs.
    """
    da, db = a.degree, b.degree
    bc = b.coeffs
    lb = bc[-1]
    e = da - db + 1
    r = list(a.coeffs)
    while True:
        while r and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < db:
            break
        lr = r[-1]
        r = [lb * c for c in r]
        off = dr - db
        for i, c in enumerate(bc):
            r[off + i] -= lr * c
        e -= 1
    if e > 0:
        f = lb**e
        r = [c * f for c in r]
    if lb < 0 and (da - db + 1) % 2:
        r = [-c for c in r]
    return Poly(r)


def _divide_exactly(p: Poly, g: Poly) -> Poly:
    """p / g, which must be exact over the integers."""
    r, gd, gl = list(p.coeffs), g.degree, g.coeffs[-1]
    q = [0] * (len(r) - gd)
    for i in range(len(r) - 1, gd - 1, -1):
        f, rem = divmod(r[i], gl)
        assert rem == 0, "non-exact polynomial division"
        q[i - gd] = f
        for j, gc in enumerate(g.coeffs):
            r[i - gd + j] -= f * gc
    assert not any(r), "non-exact polynomial division"
    return Poly(q)


def sturm_sequence(p: Poly) -> list[Poly]:
    """Canonical Sturm chain: p, p', then negated primitive pseudo-remainders.

    The first element is the primitive part of p (a positive rescaling, so
    sign variations are those of p itself).  The last element is a nonzero
    constant, or the gcd of p and p' when p has repeated roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [Poly(_primitive_coeffs(p.coeffs))]
    if p.degree >= 1:
        chain.append(Poly(_primitive_coeffs(p.derivative().coeffs)))
        while chain[-1].degree > 0:
            r = _signed_pseudo_rem(chain[-2], chain[-1])
            if r.is_zero:
                break
            chain.append(Poly(-k for k in _primitive_coeffs(r.coeffs)))
    return chain


def _sturm_sign(p: Poly, x) -> int:
    """Sign of p at x: +-inf from the leading coefficient, a rational x =
    num/den as den**deg(p) * p(num/den) by Horner over the integers."""
    if isinstance(x, float):
        s = 1 if p.coeffs[-1] > 0 else -1
        return -s if x < 0 and p.degree % 2 else s
    acc, scale = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * x.numerator + c * scale
        scale *= x.denominator
    return (acc > 0) - (acc < 0)


def _sturm_variations(chain: list[Poly], x) -> int:
    signs = [s for s in (_sturm_sign(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _endpoint(value):
    """An interval endpoint as a Fraction, or +-inf kept as a float."""
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN is not a valid interval endpoint")
        return value if math.isinf(value) else Fraction(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"endpoint must be int, Fraction, float or +-inf, got {type(value)}")


def count_real_roots(p: Poly, left=-math.inf, right=math.inf) -> int:
    """Exact number of distinct real roots of p in the open interval (left, right).

    The tests' exact oracle for the certifier and the solver, by Sturm
    chains (primitive pseudo-remainders with a positive multiplier); it
    shares no code with either.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    lo, hi = _endpoint(left), _endpoint(right)
    if not lo < hi:
        raise ValueError(f"invalid interval: need left < right, got ({left}, {right})")
    if p.degree <= 0:
        return 0
    chain = sturm_sequence(p)
    if chain[-1].degree > 0:  # repeated roots: the chain of p / gcd(p, p')
        chain = sturm_sequence(_divide_exactly(chain[0], chain[-1]))
    # V(a) - V(b) counts roots in (a, b]; V is right-continuous at chain zeros.
    count = _sturm_variations(chain, lo) - _sturm_variations(chain, hi)
    if isinstance(hi, Fraction) and _sturm_sign(chain[0], hi) == 0:
        count -= 1
    return count


def expand_from_roots(root_set, lead: int) -> list[float]:
    """Coefficients of lead * x^m * prod (x - z) over the found roots.

    Conjugate pairs are merged into real quadratic factors and factors are
    multiplied in ascending-modulus order; expanding one linear complex
    factor at a time in arbitrary order is itself numerically unstable at
    degree ~60 and would mask how accurate the roots are.
    """
    roots = sorted(root_set.complex_roots(), key=lambda z: (abs(z), z.real, z.imag))
    used = [False] * len(roots)
    factors = []
    for i, z in enumerate(roots):
        if used[i]:
            continue
        used[i] = True
        if abs(z.imag) > 0:
            for j in range(i + 1, len(roots)):
                partner_gap = abs(roots[j] - z.conjugate())
                if not used[j] and partner_gap <= 1e-8 * max(1.0, abs(z)):
                    used[j] = True
                    factors.append([(z * roots[j]).real, -(z + roots[j]).real, 1.0])
                    break
            else:
                factors.append([-z.real, 1.0])
        else:
            factors.append([-z.real, 1.0])
    acc = [float(lead)]
    for f in factors:
        new = [0.0] * (len(acc) + len(f) - 1)
        for ai, a in enumerate(acc):
            for bi, b in enumerate(f):
                new[ai + bi] += a * b
        acc = new
    return [0.0] * root_set.zero_multiplicity + acc


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD0117)

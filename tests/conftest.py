import json
import math
import random
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

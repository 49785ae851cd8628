import math
import random

import pytest

from dompoly.formulas import poly_H, poly_book, poly_join
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

"""Reference computations for the benchmark's correctness checks.

Nothing here imports dompoly: polynomials are plain lists of Python ints,
ascending by degree, and the family formulas are written out again from
their definitions, so a defect in the program under test cannot hide in its
own reference.  Evaluators accept ints and Fractions alike.
"""

from __future__ import annotations

import math
from fractions import Fraction


def pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def peval(p: list[int], x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def peval_pow2(p: list[int], k: int) -> int:
    """p(2**k) by shifts; for k above the coefficient size it packs p exactly."""
    acc = 0
    for c in reversed(p):
        acc = (acc << k) + c
    return acc


def domination_counts(closed: list[int]) -> list[int]:
    """Dominating sets by size, by walking all subsets of the vertex set.

    closed[v] is the bitmask of v's closed neighbourhood.  The neighbourhood
    union of subset s is that of s without its lowest vertex, plus the
    lowest vertex's neighbourhood.
    """
    n = len(closed)
    full = (1 << n) - 1
    cover = [0] * (1 << n)
    size = [0] * (1 << n)
    counts = [0] * (n + 1)
    if full == 0:
        counts[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        cover[s] = cover[rest] | closed[low.bit_length() - 1]
        size[s] = size[rest] + 1
        if cover[s] == full:
            counts[size[s]] += 1
    return counts


def join_poly(dg: list[int], dh: list[int]) -> list[int]:
    """D(G + H) = ((1+x)^n - 1)((1+x)^m - 1) + D(G) + D(H), n = |G|, m = |H|."""
    n, m = len(dg) - 1, len(dh) - 1
    bn = [math.comb(n, k) for k in range(n + 1)]
    bm = [math.comb(m, k) for k in range(m + 1)]
    bn[0] -= 1
    bm[0] -= 1
    out = pmul(bn, bm)
    for p in (dg, dh):
        for i, c in enumerate(p):
            out[i] += c
    return out


def order(family: str, n: int) -> int:
    """Vertex count, which is also the degree of the domination polynomial."""
    if family == "h_witness":
        k, odd = divmod(n, 2)
        return 4 * k + 3 if odd else 4 * k
    if family == "cocktail_party":
        return 2 * n
    if family in ("friendship", "complement_friendship"):
        return 2 * n + 1
    if family == "book":
        return 2 * n + 2
    raise ValueError(f"unknown family {family}")


def family_value(family: str, n: int, x):
    """The family's domination polynomial at x, evaluated without expanding it."""
    if family == "h_witness":
        k, odd = divmod(n, 2)
        v = (x**4 + 4 * x**3 + 6 * x**2 + 2 * x) ** k
        return v * (x**3 + 3 * x**2 + x) if odd else v
    if family == "friendship":
        return (2 * x + x**2) ** n + x * (1 + x) ** (2 * n)
    if family == "book":
        return (x**2 + 2 * x) ** n * (2 * x + 1) + x**2 * (x + 1) ** (2 * n) - 2 * x**n
    if family == "cocktail_party":
        return (1 + x) ** (2 * n) - 1 - 2 * n * x
    if family == "complement_friendship":
        return x * ((1 + x) ** (2 * n) - 1 - 2 * n * x)
    raise ValueError(f"no closed form for {family}")


def join_value(a: tuple[str, int], b: tuple[str, int], x):
    """The join rule at x for two family instances (family, index)."""
    na, nb = order(*a), order(*b)
    return ((1 + x) ** na - 1) * ((1 + x) ** nb - 1) + family_value(*a, x) + family_value(*b, x)


def negative_sign_change(f, denom: int = 16, limit: int = 4):
    """Rationals (a, b), a < b < 0, with f(a) f(b) < 0, or (a, a) with f(a) = 0.

    Scans x = -k/denom for k = 1 .. limit*denom and returns None when no
    sign change lies on that grid.  The values are exact, so a pair returned
    proves a real root in between.
    """
    prev_sign, prev_x = 0, None
    for k in range(1, limit * denom + 1):
        x = Fraction(-k, denom)
        v = f(x)
        if v == 0:
            return x, x
        sign = 1 if v > 0 else -1
        if prev_sign and sign != prev_sign:
            return x, prev_x
        prev_sign, prev_x = sign, x
    return None

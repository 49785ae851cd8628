"""Brute-force dominating-set enumeration: the exact oracle for every formula.

A set S dominates when the union of closed neighborhoods over S covers all
vertices.  ``domination_polynomial`` walks every subset of the vertex set,
splitting the 2**n subsets into a vectorized low block and an outer loop over
high-bit patterns; the outer loop is chunked so chunks can run on a thread
pool, with per-chunk counters merged in chunk order.  All counters are exact
integers, so the result is identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import CapacityError
from .graphs import Graph
from .polynomials import Poly

#: Enumeration refuses graphs beyond this many vertices (2**28 subsets).
SUBSET_CAP = 28

#: Vertices handled by the vectorized low block (2**18 subsets per pass).
_LOW_BITS = 18


def default_threads() -> int:
    """Worker count: the DOMPOLY_THREADS environment variable, else CPU count."""
    env = os.environ.get("DOMPOLY_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"DOMPOLY_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def is_dominating(g: Graph, subset_mask: int) -> bool:
    """True iff the union of closed neighborhoods over the subset covers V."""
    if subset_mask < 0 or subset_mask >> g.n:
        raise ValueError(f"subset mask references vertices outside 0..{g.n - 1}")
    full = (1 << g.n) - 1
    cover = 0
    m = subset_mask
    while m:
        low = m & -m
        cover |= g.closed[low.bit_length() - 1]
        if cover == full:
            return True
        m ^= low
    return cover == full


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


def _count_chunk(
    low_cover: np.ndarray,
    low_pop: np.ndarray,
    high_cover: np.ndarray,
    high_pop: np.ndarray,
    full: int,
    high_range: range,
    n: int,
    low_bits: int,
) -> list[int]:
    counts = [0] * (n + 1)
    full32 = np.uint32(full)
    for h in high_range:
        dominated = (low_cover | high_cover[h]) == full32
        sizes = np.bincount(low_pop[dominated], minlength=low_bits + 1)
        base = int(high_pop[h])
        for i, c in enumerate(sizes):
            if c:
                counts[base + i] += int(c)
    return counts


def domination_polynomial(g: Graph, threads: int | None = None) -> Poly:
    """Exact counts of dominating sets by cardinality, as a polynomial.

    Coefficient i is the number of dominating sets of size i; evaluating at 1
    gives the total count.  Raises CapacityError beyond SUBSET_CAP vertices;
    use the closed-form routes for larger family instances.
    """
    n = g.n
    if n > SUBSET_CAP:
        raise CapacityError(
            f"{n} vertices means 2**{n} subsets; the cap is {SUBSET_CAP}."
            " Use a closed-form family formula instead."
        )
    if n == 0:
        return Poly.ONE
    low_bits = min(n, _LOW_BITS)
    high_bits = n - low_bits
    low_cover, low_pop = _cover_table(list(g.closed[:low_bits]), low_bits)
    high_cover, high_pop = _cover_table(list(g.closed[low_bits:]), high_bits)
    full = (1 << n) - 1

    workers = threads if threads is not None else default_threads()
    workers = max(1, min(workers, 1 << high_bits))
    chunk_ranges = _split_range(1 << high_bits, workers * 4 if workers > 1 else 1)

    def run(r: range) -> list[int]:
        return _count_chunk(low_cover, low_pop, high_cover, high_pop, full, r, n, low_bits)

    if workers == 1 or len(chunk_ranges) == 1:
        chunk_counts = [run(r) for r in chunk_ranges]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_counts = list(pool.map(run, chunk_ranges))

    counts = [0] * (n + 1)
    for part in chunk_counts:
        for i, c in enumerate(part):
            counts[i] += c
    return Poly(counts)


def _split_range(total: int, parts: int) -> list[range]:
    parts = max(1, min(parts, total))
    step = (total + parts - 1) // parts
    return [range(lo, min(lo + step, total)) for lo in range(0, total, step)]


def domination_number(g: Graph, threads: int | None = None) -> int:
    """Minimum dominating-set size (0 for the empty graph)."""
    if g.n == 0:
        return 0
    return domination_polynomial(g, threads=threads).zero_root_multiplicity()

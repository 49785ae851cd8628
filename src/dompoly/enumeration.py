"""Exact dominating-set counts: a frontier dynamic program, and a subset sweep.

A set S dominates when the union of closed neighborhoods over S covers all
vertices.  ``domination_polynomial`` counts the dominating sets by size with
``frontier_polynomial``, frontier-based search (Kawahara, Inoue, Iwashita,
Minato, IEICE Trans. Fundamentals E100-A, 2017).  The vertices are decided
one at a time; a state is the set of covered vertices among those not yet
*closed*, u closing when the last member of N[u] is decided.  Deciding v
keeps every state (v left out) and adds ``cover | N[v]`` one size up (v
taken); then states that leave a closing vertex undominated are dropped and
the others forget its bit.  A state's counts by size are packed into one
integer in fields of n + 1 bits (Kronecker substitution), so taking v is a
shift and merging states one addition; no count exceeds C(n, i) < 2^(n+1).

The state count is at most 2 to the number of open vertices and depends on
the order (the O*(3^pw)-type bound of domination DPs, van Rooij, Bodlaender,
Rossmanith, ESA 2009), so a short fixed list of orders is tried, each under
``STATE_BUDGET`` states and ``FRONTIER_BITS`` bits of counts.  When all
exceed them, ``subset_sweep`` tests all 2^n subsets with numpy, up to
``SUBSET_CAP`` vertices; larger graphs are refused with ``CapacityError``.
The sweep shares no code with the DP and is the tests' reference for it.
No join, union or corona decomposition is used here, so the CLI's
``--oracle`` stays independent of the composition rules it checks.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .graphs import Graph
from .polynomials import Poly

#: The subset sweep refuses graphs beyond this many vertices (2**28 subsets).
SUBSET_CAP = 28

#: A vertex order is abandoned once the frontier holds more states than this.
STATE_BUDGET = 1 << 16

#: ... or once its packed counts could take more bits than this (32 MiB), which
#: bounds memory on graphs of hundreds of vertices, where a count has n + 1
#: fields of n + 1 bits.
FRONTIER_BITS = 1 << 28

#: Vertices handled by the vectorized low block of the sweep (2**18 subsets).
_LOW_BITS = 18


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


# -- frontier dynamic program ----------------------------------------------------


def _greedy_order(g: Graph) -> list[int]:
    """Each next vertex minimises (vertices it newly touches - vertices it closes).

    A vertex is touched once a member of its closed neighborhood is decided;
    ties go to the lowest index.
    """
    closed = g.closed
    undecided_in = [m.bit_count() for m in closed]  # undecided members of N[u]
    last_open = sum(1 << u for u, k in enumerate(undecided_in) if k == 1)  # one member left
    touched = 0
    undecided = list(range(g.n))
    order = []
    while undecided:
        v = min(
            undecided,
            key=lambda w: (closed[w] & ~touched).bit_count() - (closed[w] & last_open).bit_count(),
        )
        undecided.remove(v)
        order.append(v)
        touched |= closed[v]
        for u in (v, *g.neighbors(v)):
            undecided_in[u] -= 1
        last_open = sum(1 << u for u, k in enumerate(undecided_in) if k == 1)
    return order


def _degree_order(g: Graph) -> list[int]:
    """Largest closed neighborhood first, ties to the lowest index."""
    return sorted(range(g.n), key=lambda v: -g.closed[v].bit_count())


#: Vertex orders tried in turn.  Greedy suits sparse and composed graphs; hubs
#: first suits graphs such as friendship and book, where greedy leaves a hub
#: open and every vertex beside it with it.
_ORDERS = (_greedy_order, _degree_order)


def _frontier_counts(g: Graph, order: list[int]) -> int | None:
    """Packed counts by set size along `order`, or None past the budgets."""
    closed = g.closed
    closes = [0] * g.n  # the vertices that close at step t: N[u] holds no later vertex
    pending = (1 << g.n) - 1
    for t in reversed(range(g.n)):
        closes[t] = closed[order[t]] & pending
        pending ^= closes[t]
    width = g.n + 1
    states = {0: 1}
    for t, v in enumerate(order):
        nv, k = closed[v], closes[t]
        out: dict[int, int] = {}
        get = out.get
        for cover, packed in states.items():
            if cover & k == k:  # v left out: every closing vertex already covered
                key = cover ^ k
                out[key] = get(key, 0) + packed
            key = (cover | nv) ^ k  # v taken: k lies inside N[v]
            out[key] = get(key, 0) + (packed << width)
        # A step at most doubles the states, so the frontier peaks at twice the
        # budget; after step t a count has at most t + 2 fields.
        if len(out) > STATE_BUDGET or len(out) * (t + 2) * width > FRONTIER_BITS:
            return None
        states = out
    return states[0]


def frontier_polynomial(g: Graph) -> Poly | None:
    """D(G, x) by the frontier DP, or None if every order exceeds the budgets."""
    width = g.n + 1
    field = (1 << width) - 1
    for make_order in _ORDERS:
        packed = _frontier_counts(g, make_order(g))
        if packed is not None:
            return Poly([packed >> (i * width) & field for i in range(g.n + 1)])
    return None


# -- subset sweep ------------------------------------------------------------------


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

    The subsets split into a vectorized low block of the first vertices and an
    outer loop over the patterns of the rest.
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


# -- entry points --------------------------------------------------------------------


def domination_polynomial(g: Graph) -> Poly:
    """Exact counts of dominating sets by cardinality, as a polynomial.

    Coefficient i is the number of dominating sets of size i; evaluating at 1
    gives the total count.  Raises CapacityError for a graph of more than
    SUBSET_CAP vertices on which every vertex order exceeds the frontier
    budgets, STATE_BUDGET states and FRONTIER_BITS bits of counts.
    """
    p = frontier_polynomial(g)
    if p is not None:
        return p
    if g.n > SUBSET_CAP:
        raise CapacityError(
            f"{g.n} vertices: every vertex order exceeds the frontier state budget"
            f" of {STATE_BUDGET} states or {FRONTIER_BITS} bits of counts, and the"
            f" subset sweep stops at {SUBSET_CAP} vertices."
            " Use a closed-form family formula instead."
        )
    return subset_sweep(g)


def domination_number(g: Graph) -> int:
    """Minimum dominating-set size (0 for the empty graph)."""
    if g.n == 0:
        return 0
    return domination_polynomial(g).zero_root_multiplicity()

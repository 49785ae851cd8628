"""Exact dominating-set counts by a frontier dynamic program.

A set S dominates when the union of closed neighborhoods over S covers all
vertices.  ``domination_polynomial`` counts the dominating sets by size with
frontier-based search (Kawahara, Inoue, Iwashita, Minato, IEICE Trans.
Fundamentals E100-A, 2017).  The vertices are decided one at a time; a state
is the set of covered vertices among those not yet *closed*, u closing when
the last member of N[u] is decided.  Deciding v keeps every state (v left
out) and adds ``cover | N[v]`` one size up (v taken); then states that leave
a closing vertex undominated are dropped and the others forget its bit.  A
state's counts by size are packed into one integer in fields of n + 1 bits
(Kronecker substitution), so taking v is a shift and merging states one
addition; no count exceeds C(n, i) < 2^(n+1).

The state count is at most 2 to the number of open vertices and depends on
the order (the O*(3^pw)-type bound of domination DPs, van Rooij, Bodlaender,
Rossmanith, ESA 2009), so a short fixed list of orders is tried, each under
``STATE_BUDGET`` states and ``FRONTIER_BITS`` bits of counts; when all
exceed them the graph is refused with ``CapacityError``, whatever its vertex
count.  No join, union or corona decomposition is used here, so the CLI's
``--oracle`` stays independent of the composition rules it checks.
"""

from __future__ import annotations

from .errors import CapacityError
from .graphs import Graph, _bits
from .polynomials import Poly

#: A vertex order is abandoned once the frontier holds more states than this.
STATE_BUDGET = 1 << 16

#: ... or once its packed counts could take more bits than this (32 MiB), which
#: bounds memory on graphs of hundreds of vertices, where a count has n + 1
#: fields of n + 1 bits.
FRONTIER_BITS = 1 << 28


def _greedy_order(g: Graph) -> list[int]:
    """Each next vertex minimises (vertices it newly touches - vertices it closes).

    A vertex is touched once a member of its closed neighborhood is decided;
    ties go to the lowest index.
    """
    closed = g.closed
    undecided = (1 << g.n) - 1
    touched = 0
    order = []
    while undecided:
        last_open = 0  # the vertices with one undecided member of N[u] left
        for u, m in enumerate(closed):
            if (m & undecided).bit_count() == 1:
                last_open |= 1 << u
        untouched = ~touched
        best = v = g.n + 1  # every score is at most n
        for w in _bits(undecided):
            score = (closed[w] & untouched).bit_count() - (closed[w] & last_open).bit_count()
            if score < best:
                best, v = score, w
        undecided ^= 1 << v
        order.append(v)
        touched |= closed[v]
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
        # v left out: the states that cover every closing vertex, a key each
        out = {c ^ k: p for c, p in states.items() if c & k == k} if k else dict(states)
        get = out.get
        for cover, packed in states.items():
            key = (cover | nv) ^ k  # v taken: k lies inside N[v]
            out[key] = get(key, 0) + (packed << width)
        # A step at most doubles the states, so the frontier peaks at twice the
        # budget; after step t a count has at most t + 2 fields.
        if len(out) > STATE_BUDGET or len(out) * (t + 2) * width > FRONTIER_BITS:
            return None
        states = out
    return states[0]


def domination_polynomial(g: Graph) -> Poly:
    """Exact counts of dominating sets by cardinality, as a polynomial.

    Coefficient i is the number of dominating sets of size i; evaluating at 1
    gives the total count.  Raises CapacityError when every vertex order
    exceeds the frontier budgets, STATE_BUDGET states and FRONTIER_BITS bits
    of counts.
    """
    width = g.n + 1
    field = (1 << width) - 1
    for make_order in _ORDERS:
        packed = _frontier_counts(g, make_order(g))
        if packed is not None:
            return Poly([packed >> (i * width) & field for i in range(g.n + 1)])
    raise CapacityError(
        f"{g.n} vertices: every vertex order exceeds the frontier state budget"
        f" of {STATE_BUDGET} states or {FRONTIER_BITS} bits of counts."
        " Use a closed-form family formula instead."
    )

"""Simple graphs with per-vertex closed-neighborhood bitmasks.

Vertices are dense integers ``0..n-1``.  Adjacency is kept as one bitmask per
vertex so that unions of closed neighborhoods and coverage tests are single
integer operations; Python integers widen as needed, so the vertex cap below
is a policy limit rather than a machine word size.

Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, EdgeListParseError

#: Hard cap on vertex count for any constructed graph.
MAX_VERTICES = 4096


class Graph:
    __slots__ = ("n", "adj", "closed")

    n: int
    adj: tuple[int, ...]
    closed: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        n = operator.index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise CapacityError(f"{n} vertices exceeds the cap of {MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.closed = tuple(m | (1 << v) for v, m in enumerate(adj))

    # -- queries -------------------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits(rest):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """Vertex degrees in nonincreasing order."""
        return tuple(sorted((m.bit_count() for m in self.adj), reverse=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- combinators ---------------------------------------------------------------


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between the two sides."""
    n, m = g.n, h.n
    if n + m > MAX_VERTICES:
        raise CapacityError(f"join would have {n + m} vertices (cap {MAX_VERTICES})")
    shifted = ((n + u, n + v) for u, v in h.edges())
    across = ((u, n + w) for u in range(n) for w in range(m))
    return Graph(n + m, itertools.chain(g.edges(), shifted, across))


def corona(g: Graph, h: Graph) -> Graph:
    """Attach to each vertex of g a fresh copy of h, fully joined to it.

    Copy i of h occupies vertices g.n + i*h.n .. g.n + (i+1)*h.n - 1.
    """
    if h.n == 0:
        raise ValueError("corona requires a nonempty second operand")
    total = g.n * (1 + h.n)
    if total > MAX_VERTICES:
        raise CapacityError(f"corona would have {total} vertices (cap {MAX_VERTICES})")
    edges = list(g.edges())
    for i in range(g.n):
        base = g.n + i * h.n
        edges.extend((base + u, base + v) for u, v in h.edges())
        edges.extend((i, base + u) for u in range(h.n))
    return Graph(total, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise CapacityError(
            f"union would have {g.n + h.n} vertices (cap {MAX_VERTICES})"
        )
    shifted = ((g.n + u, g.n + v) for u, v in h.edges())
    return Graph(g.n + h.n, itertools.chain(g.edges(), shifted))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    # each vertex u with the mask of its non-neighbours v > u
    later = ((u, (full ^ c) >> (u + 1) << (u + 1)) for u, c in enumerate(g.closed))
    return Graph(g.n, ((u, v) for u, rest in later for v in _bits(rest)))


# -- named families --------------------------------------------------------------
#
# One plain constructor per family; parameters are checked against the family
# table in ``formulas`` by ``build_family``.


@dataclass(frozen=True)
class FamilySpec:
    """A named parametric family instance, e.g. friendship(3) or k_star(2, 5)."""

    name: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(operator.index(p) for p in self.params))

    def __str__(self) -> str:
        return f"{self.name}:{','.join(str(p) for p in self.params)}"


def complete(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def path(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def friendship(n: int) -> Graph:
    """n triangles sharing vertex 0."""
    edges = []
    for i in range(n):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * n + 1, edges)


def complement_friendship(n: int) -> Graph:
    return complement(friendship(n))


def cocktail_party(n: int) -> Graph:
    """K_{2n} minus the perfect matching {2i, 2i+1}."""
    edges = [(u, v) for u in range(2 * n) for v in range(u + 1, 2 * n) if u // 2 != v // 2]
    return Graph(2 * n, edges)


def book(n: int) -> Graph:
    """n 4-cycles sharing the edge (0, 1)."""
    edges = [(0, 1)]
    for i in range(n):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges += [(0, a), (a, b), (b, 1)]
    return Graph(2 * n + 2, edges)


def k_star(k: int, n: int) -> Graph:
    """A k-clique plus n - k vertices joined to all of it."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for v in range(k, n) for u in range(k)]
    return Graph(n, edges)


def h_witness(n: int) -> Graph:
    """corona(P_k, P_3) for n = 2k, plus a disjoint P_3 for n = 2k + 1."""
    k, odd = divmod(n, 2)
    base = corona(path(k), path(3)) if k else Graph(0)
    return disjoint_union(base, path(3)) if odd else base


# -- edge-list text format --------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the text format: a header line "n m" then m lines "u v".

    Rejects self-loops, duplicate edges, out-of-range indices, and malformed
    lines, reporting the 1-based line number.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EdgeListParseError("missing 'n m' header", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise EdgeListParseError("header must be two integers 'n m'", 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListParseError("header must be two integers 'n m'", 1) from None
    if n < 0 or m < 0:
        raise EdgeListParseError("header counts must be nonnegative", 1)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if len(edges) == m:
            if raw.strip():
                raise EdgeListParseError(f"expected only {m} edge lines", lineno)
            continue
        fields = raw.split()
        if len(fields) != 2:
            raise EdgeListParseError("expected 'u v'", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListParseError("expected integer endpoints", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"vertex out of range 0..{n - 1}", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListParseError(f"duplicate edge {key[0]} {key[1]}", lineno)
        seen.add(key)
        edges.append(key)
    if len(edges) != m:
        raise EdgeListParseError(f"expected {m} edges, found {len(edges)}", lineno + 1)
    return Graph(n, edges)


def to_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list text format (round-trips with parse)."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"

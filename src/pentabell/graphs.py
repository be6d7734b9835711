"""Small-graph combinatorics: constructors, the exact independence number
and the reader of the graph file format.

Vertices are 0..n-1 and edges are unordered pairs.  The independence
number is an exact branch and bound sized for the tiny graphs this package
works with (its capacity limit is enforced, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, InvalidInputError, json_decoder, load_json, strict_int, strict_pair

ALPHA_MAX_VERTICES = 32


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus a set of (i, j) pairs, i < j."""

    n: int
    edges: frozenset

    def degrees(self) -> list:
        d = [0] * self.n
        for i, j in self.edges:
            d[i] += 1
            d[j] += 1
        return d

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


def graph(n: int, edges: Iterable) -> Graph:
    """Build a validated Graph from any iterable of vertex pairs."""
    if n < 1:
        raise InvalidInputError("graph needs at least one vertex")
    seen = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise InvalidInputError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"edge ({i},{j}) outside [0,{n})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InvalidInputError(f"duplicate edge {key}")
        seen.add(key)
    return Graph(n, frozenset(seen))


def cycle(n: int) -> Graph:
    """Cycle graph C_n."""
    if n < 3:
        raise InvalidInputError("a cycle needs at least 3 vertices")
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def circulant(n: int, offsets: Iterable) -> Graph:
    """Circulant graph: edges {i, i+k mod n} for every offset k."""
    if n < 1:
        raise InvalidInputError("graph needs at least one vertex")
    edges = set()
    for k in offsets:
        k = int(k)
        if k <= 0 or k >= n:
            raise InvalidInputError(f"offset {k} outside [1, {n})")
        for i in range(n):
            j = (i + k) % n
            edges.add((min(i, j), max(i, j)))
    return graph(n, edges)


def complement(g: Graph) -> Graph:
    edges = [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if not g.has_edge(i, j)
    ]
    return graph(g.n, edges)


def _clique_cover_bound(cand: int, adj: list) -> int:
    # Greedy partition of the candidate set into cliques; an independent set
    # takes at most one vertex from each clique.
    count = 0
    remaining = cand
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        clique_adj = adj[v]
        remaining &= remaining - 1
        pool = remaining & clique_adj
        while pool:
            u = (pool & -pool).bit_length() - 1
            clique_adj &= adj[u]
            remaining &= ~(1 << u)
            pool = remaining & clique_adj
        count += 1
    return count


def independence_number(g: Graph):
    """Exact maximum independent set size with a witness vertex tuple.

    Branch and bound with a greedy clique-cover upper bound; vertices are
    explored in descending-degree order (ties by lowest index).
    """
    if g.n > ALPHA_MAX_VERTICES:
        raise CapacityError(f"{g.n} vertices exceed the {ALPHA_MAX_VERTICES} envelope")
    deg = g.degrees()
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    pos = {v: k for k, v in enumerate(order)}
    # relabel so vertex k is the k-th in branching order
    adj = [0] * g.n
    for i, j in g.edges:
        a, b = pos[i], pos[j]
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    best_size = 0
    best_set = 0

    def expand(cand: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if not cand:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        if size + bin(cand).count("1") <= best_size:
            return
        if size + _clique_cover_bound(cand, adj) <= best_size:
            return
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        expand(cand & ~bit & ~adj[v], chosen | bit, size + 1)
        expand(cand & ~bit, chosen, size)

    expand((1 << g.n) - 1, 0, 0)
    witness = tuple(sorted(order[k] for k in range(g.n) if best_set >> k & 1))
    return best_size, witness


@json_decoder("graph")
def graph_from_json(data) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InvalidInputError('graph JSON must be {"n": int, "edges": [[i,j],...]}')
    return graph(strict_int(data["n"], "n"), [strict_pair(e, "edge") for e in data["edges"]])


def load_graph(path) -> Graph:
    return graph_from_json(load_json(path))

"""Small-graph combinatorics: constructors, the exact independence number
and the reader of the graph file format.

Vertices are 0..n-1 and edges are unordered pairs.  A Graph checks its
own vertex count and edges when it is built, reading them through
`errors.strict_int` and `errors.strict_pair` (which owns the fast path for
a plain pair of ints), and `graph` is the type itself, so there is one way
to build one.  A Graph owns its adjacency matrix, built once, which the
independence number, the complement and theta all read.  The independence
number is an exact branch and bound sized for the tiny graphs this package
works with (its capacity limit is enforced, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapacityError, InvalidInputError, json_decoder, load_json
from .errors import strict_int, strict_iterable, strict_pair

ALPHA_MAX_VERTICES = 32


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus a set of (i, j) pairs, i < j.

    Built from n and any iterable of vertex pairs, which it checks itself:
    n and every vertex are read as integers and each pair has exactly two,
    so a bool, 2.0 or "2" raises InvalidInputError rather than being
    coerced, as do a self-loop, a vertex outside [0, n) and an edge given
    twice (in either order).  Each edge is stored as (min, max).
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "n", strict_int(self.n, "n"))
        if self.n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        seen = set()
        for pair in strict_iterable(self.edges, "edges"):
            i, j = strict_pair(pair, "edge")
            if i == j:
                raise InvalidInputError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidInputError(f"edge ({i},{j}) outside [0,{self.n})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidInputError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", frozenset(seen))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only (n, n) boolean matrix, True at both entries of every
        edge; symmetric and False on the diagonal.  Built on first use."""
        m = np.zeros((self.n, self.n), dtype=bool)
        i, j = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2).T
        m[i, j] = m[j, i] = True
        m.flags.writeable = False
        return m


graph = Graph  # the name callers build a graph by


def cycle(n: int) -> Graph:
    """Cycle graph C_n, the circulant with offset 1."""
    if strict_int(n, "n") < 3:
        raise InvalidInputError("a cycle needs at least 3 vertices")
    return circulant(n, (1,))


def circulant(n: int, offsets: Iterable) -> Graph:
    """Circulant graph: edges {i, i+k mod n} for every offset k."""
    n = strict_int(n, "n")
    edges = set()
    for k in strict_iterable(offsets, "offsets"):
        k = strict_int(k, "offset")
        if k <= 0 or k >= n:
            raise InvalidInputError(f"offset {k} outside [1, {n})")
        for i in range(n):
            j = (i + k) % n
            edges.add((min(i, j), max(i, j)))
    return graph(n, edges)


def complement(g: Graph) -> Graph:
    return graph(g.n, np.argwhere(np.triu(~g.adjacency, 1)).tolist())


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
    # relabel so vertex k is the k-th in branching order (the stable sort keeps
    # ties in index order); row k of the relabelled adjacency is the bitmask adj[k]
    order = np.argsort(-g.adjacency.sum(axis=1), kind="stable")
    adj = (g.adjacency[order][:, order] @ (1 << np.arange(g.n))).tolist()

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
    witness = tuple(sorted(int(order[k]) for k in range(g.n) if best_set >> k & 1))
    return best_size, witness


@json_decoder("graph")
def graph_from_json(data) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InvalidInputError('graph JSON must be {"n": int, "edges": [[i,j],...]}')
    return graph(data["n"], data["edges"])


def load_graph(path) -> Graph:
    return graph_from_json(load_json(path))

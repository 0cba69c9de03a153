"""Directed-graph core: validation, connectivity, orderings, subgraphs.

Vertices are the integers 0..n-1.  An arc is an ordered pair
``(tail, head)``; the tail dominates the head.  Graphs are simple: no
self-loops and no duplicate arcs.  A 2-cycle ``{(u, v), (v, u)}`` is
allowed, those are two distinct arcs.

All functions here are pure and never mutate their inputs, so they are
safe to call concurrently.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """An immutable simple digraph on vertices 0..n-1.

    ``n == 0`` is permitted (the empty digraph arises naturally as the
    arc-induced subgraph of the empty arc set).
    """

    n: int
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        if self.n < 0:
            raise InputError(f"vertex count must be >= 0, got {self.n}")
        for u, v in self.arcs:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"arc ({u}, {v}) has an endpoint outside [0, {self.n})")

    @cached_property
    def out_lists(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbors of each vertex, ascending."""
        outs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            outs[u].append(v)
        return tuple(tuple(sorted(ws)) for ws in outs)

    @cached_property
    def in_lists(self) -> tuple[tuple[int, ...], ...]:
        """In-neighbors of each vertex, ascending."""
        ins: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            ins[v].append(u)
        return tuple(tuple(sorted(us)) for us in ins)

    @property
    def sorted_arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(self.arcs))


def from_arcs(n: int, arcs: Iterable[Arc]) -> Digraph:
    """Build a validated digraph from a vertex count and an arc list.

    Rejects self-loops, duplicate arcs and out-of-range endpoints.
    """
    arc_list = [(int(u), int(v)) for u, v in arcs]
    if len(set(arc_list)) != len(arc_list):
        seen: set[Arc] = set()
        for a in arc_list:
            if a in seen:
                raise InputError(f"duplicate arc {a}")
            seen.add(a)
    return Digraph(n, frozenset(arc_list))


def check_ordering(d: Digraph, ordering: Sequence[int]) -> tuple[int, ...]:
    """Validate that ``ordering`` is a permutation of 0..n-1; return it as a tuple."""
    perm = tuple(ordering)
    if sorted(perm) != list(range(d.n)):
        raise InputError(f"not a permutation of 0..{d.n - 1}: {perm}")
    return perm


def is_tournament(d: Digraph) -> bool:
    """True iff there is exactly one arc between every unordered vertex pair."""
    if len(d.arcs) != d.n * (d.n - 1) // 2:
        return False
    return all((v, u) not in d.arcs for u, v in d.arcs)


def _reachable(n: int, adj: Sequence[Sequence[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is mutually reachable.

    Vacuously true for n <= 1.
    """
    if d.n <= 1:
        return True
    return (
        len(_reachable(d.n, d.out_lists, 0)) == d.n
        and len(_reachable(d.n, d.in_lists, 0)) == d.n
    )


def strong_components(d: Digraph) -> list[tuple[int, ...]]:
    """Strongly connected components in an acyclic order.

    The components partition 0..n-1, and every arc between two distinct
    components goes from an earlier list entry to a later one.  Computed
    via two DFS passes (reverse finishing order on the transpose), with
    ties broken by smallest vertex index; the output is deterministic.
    """
    n = d.n
    finish: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(d.out_lists[v]):
                stack[-1] = (v, i + 1)
                w = d.out_lists[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                finish.append(v)
                stack.pop()

    components: list[tuple[int, ...]] = []
    assigned = [False] * n
    for root in reversed(finish):
        if assigned[root]:
            continue
        comp = []
        assigned[root] = True
        work = [root]
        while work:
            v = work.pop()
            comp.append(v)
            for w in d.in_lists[v]:
                if not assigned[w]:
                    assigned[w] = True
                    work.append(w)
        components.append(tuple(sorted(comp)))
    return components


def acyclic_ordering(d: Digraph) -> tuple[int, ...] | None:
    """An ordering with every arc pointing forward, or None if cyclic.

    Deterministic: among the available sources, the smallest vertex
    index is emitted first.
    """
    indeg = [0] * d.n
    for _, v in d.arcs:
        indeg[v] += 1
    heap = [v for v in range(d.n) if indeg[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in d.out_lists[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != d.n:
        return None
    return tuple(order)


def arc_induced_subgraph(d: Digraph, arcs: Iterable[Arc]) -> tuple[Digraph, tuple[int, ...]]:
    """Subgraph whose arc set is exactly ``arcs`` and whose vertices are their endpoints.

    Returns ``(subgraph, vertex_map)`` where ``vertex_map[i]`` is the
    original id of subgraph vertex ``i`` (original ids ascending).
    """
    arc_set = frozenset(arcs)
    for a in arc_set:
        if a not in d.arcs:
            raise InputError(f"arc {a} not present in the digraph")
    verts = sorted({w for a in arc_set for w in a})
    index = {w: i for i, w in enumerate(verts)}
    sub = Digraph(len(verts), frozenset((index[u], index[v]) for u, v in arc_set))
    return sub, tuple(verts)


def induced_subgraph(d: Digraph, vertices: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Vertex-induced subgraph: keeps the given vertices and all arcs between them.

    Returns ``(subgraph, vertex_map)`` as in :func:`arc_induced_subgraph`.
    """
    verts = sorted(set(vertices))
    for w in verts:
        if not 0 <= w < d.n:
            raise InputError(f"vertex {w} outside [0, {d.n})")
    index = {w: i for i, w in enumerate(verts)}
    sub = Digraph(
        len(verts),
        frozenset((index[u], index[v]) for u in verts for v in d.out_lists[u] if v in index),
    )
    return sub, tuple(verts)

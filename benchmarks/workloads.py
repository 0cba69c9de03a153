"""The benchmark's workloads: seeded inputs, known answers, and checks.

A workload is one round of operations, each a ``klights`` command line
on a graph file the benchmark writes.  Every input, expected answer and
certificate is made here, from the seed, before any timing starts; the
program under test is never asked for them.  Graphs are ``(n, arcs)``
pairs and are turned into files by the runner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass
class Op:
    label: str
    argv: list[str]  # "{graph}" stands for the path of the op's graph file
    graph: str | None  # key into Workload.graphs
    check: Callable[[int | None, str], str | None]


@dataclass
class Workload:
    graphs: dict[str, tuple[int, frozenset]]
    ops: list[Op]


def spread(ops: list[Op]) -> list[Op]:
    """The round's operations, each group of like ones spread evenly over it.

    A group is the operations on one kind and size of graph (the graph
    key up to its ``.i`` suffix), or one command without a graph.  The
    host's speed drifts over seconds, so a group run back to back would
    see one moment of it per round; spread out, the group's share of
    the latency metrics samples the whole round.
    """
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.graph.split(".")[0] if op.graph else op.label, []).append(op)
    placed = [
        ((j + 0.5) / len(members), g, op)
        for g, members in enumerate(groups.values())
        for j, op in enumerate(members)
    ]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


def random_digraph(n: int, p: float, seed: int) -> frozenset:
    """Each ordered pair (u, v), u != v, is an arc with probability p.

    Draws in the same order as ``klights.oracle.random_digraph``, so
    ``random_digraph(26, 0.3, 4)`` names the same digraph in both.
    """
    rng = random.Random(seed)
    return frozenset(
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    )


def grid(s: int) -> frozenset:
    """The s x s Lights Out board: arcs both ways between orthogonal neighbours."""
    arcs = set()
    for r in range(s):
        for c in range(s):
            if c + 1 < s:
                arcs |= {(r * s + c, r * s + c + 1), (r * s + c + 1, r * s + c)}
            if r + 1 < s:
                arcs |= {(r * s + c, (r + 1) * s + c), ((r + 1) * s + c, r * s + c)}
    return frozenset(arcs)


def random_acyclic(rng: random.Random, n: int, p: float) -> frozenset:
    """Arcs only forward along a hidden random ordering."""
    order = list(range(n))
    rng.shuffle(order)
    return frozenset(
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )


def block_chain(rng: random.Random, blocks: int, size: int, p_in: float, p_fwd: float):
    """A forward chain of strongly connected blocks under shuffled vertex ids.

    Each block gets a directed cycle through its vertices plus random
    inner arcs; arcs between blocks only go to later blocks.  Returns the
    arcs and the blocks, which are exactly the strong components.
    """
    n = blocks * size
    ids = list(range(n))
    rng.shuffle(ids)
    parts = [ids[b * size:(b + 1) * size] for b in range(blocks)]
    arcs = set()
    for b, part in enumerate(parts):
        arcs |= {(part[i], part[(i + 1) % size]) for i in range(size)}
        arcs |= {(u, v) for u in part for v in part if u != v and rng.random() < p_in}
        for later in parts[b + 1:]:
            arcs |= {(u, v) for u in part for v in later if rng.random() < p_fwd}
    return frozenset(arcs), parts


def planted_tournament(rng: random.Random, n: int, m: int) -> frozenset:
    """A tournament whose minimum feedback arc set is certified to have m arcs.

    Reverses m arcs, each spanning at least two places, of a transitive
    tournament on a hidden ordering.  Deleting them leaves it acyclic, so
    the minimum is at most m.  The draw is kept only when m arc-disjoint
    directed triangles, one through each reversed arc, pack into it,
    which shows the minimum is at least m.
    """
    spans = [(i, j) for i in range(n) for j in range(i + 2, n)]
    while True:
        order = list(range(n))
        rng.shuffle(order)
        rev = set(rng.sample(spans, m))
        arcs = frozenset(
            (order[j], order[i]) if (i, j) in rev else (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        key = [(order[j], order[i]) for i, j in sorted(rev)]
        packing = checks.triangle_packing(arcs, key)
        if packing is not None and checks.is_triangle_packing(arcs, packing):
            return arcs


# --- solve -------------------------------------------------------------------

# Grid side -> boards per k.  The random digraphs and the 5 x 5 grid (24
# operations a round) run faster than the 6 x 6 grid, and the 7 x 7 and
# 8 x 8 grids (24) slower, so the median falls in the middle of the 18
# seed-independent 6 x 6 operations and the top tenth inside the 8 x 8 ones.
GRID_BOARDS = {5: 2, 6: 6, 7: 4, 8: 4}
# Random digraphs stop at n = 18: from n = 22 on, smith_normal_form's run
# time has a seed-dependent tail of seconds (see CHANGES.md).
SOLVE_RANDOM_N = (12, 15, 18)
SOLVE_P = 0.3
SOLVE_KS = (2, 6, 12)
RANDOM_BOARDS = 2  # per (random digraph, k)


def solve_workload(seed: int) -> Workload:
    """Boards per (graph, k), half of them unwinnable when N is singular mod a prime of k."""
    rng = random.Random(seed)
    graphs = {f"grid{s}": (s * s, grid(s)) for s in GRID_BOARDS}
    boards = {f"grid{s}": count for s, count in GRID_BOARDS.items()}
    for n in SOLVE_RANDOM_N:
        graphs[f"rand{n}"] = (n, random_digraph(n, SOLVE_P, rng.randrange(2**32)))
        boards[f"rand{n}"] = RANDOM_BOARDS
    ops = []
    for key, (n, arcs) in graphs.items():
        rows = checks.neighborhood_rows(n, arcs)
        outs = checks.out_lists(n, arcs)
        count = boards[key]
        for k in SOLVE_KS:
            y = checks.unwinnable_certificate(rows, k)
            for j in range(count):
                if y is None or j % 2 == 0:
                    toggles = [rng.randrange(k) for _ in range(n)]
                    board = [-x % k for x in checks.press(outs, [0] * n, toggles, k)]
                    winnable = True
                else:
                    board = [rng.randrange(k) for _ in range(n)]
                    if sum(a * b for a, b in zip(y, board)) % k == 0:
                        i = next(i for i, x in enumerate(y) if x)
                        board[i] = (board[i] + 1) % k
                    if not checks.is_certificate(rows, y, board, k):
                        raise AssertionError(f"{key} k={k}: certificate does not hold")
                    winnable = False
                ops.append(
                    Op(
                        f"solve {key} k={k} {'winnable' if winnable else 'unwinnable'}",
                        ["solve", "--k", str(k), "--labels", ",".join(map(str, board)), "{graph}"],
                        key,
                        partial(checks.check_solve, n, arcs, k, board, winnable),
                    )
                )
    return Workload(graphs, spread(ops))


# --- classify ----------------------------------------------------------------

CLASSIFY_K_MAX = 12
# Two graphs per kind at n = 40 and 60 and an odd operation count keep
# the median inside a group of like-sized graphs; the two largest,
# dense n = 100 and sparse n = 120, make the top tenth (latency_tail_ms).
CLASSIFY_SPARSE = (0.05, (40, 40, 60, 60, 80, 120))
CLASSIFY_DENSE = (0.3, (40, 40, 60, 60, 80, 100))
CLASSIFY_ACYCLIC = (0.3, (40, 60))
CLASSIFY_CHAIN = (4, 16, 0.3, 0.1)  # blocks, block size, inner and forward arc probability


def classify_workload(seed: int) -> Workload:
    """Random digraphs at two densities, acyclic digraphs, and a block chain."""
    rng = random.Random(seed)
    graphs: dict[str, tuple[int, frozenset]] = {}
    acyclic: set[str] = set()
    for kind, (p, sizes) in (("sparse", CLASSIFY_SPARSE), ("dense", CLASSIFY_DENSE)):
        for i, n in enumerate(sizes):
            graphs[f"{kind}{n}.{i}"] = (n, random_digraph(n, p, rng.randrange(2**32)))
    p, sizes = CLASSIFY_ACYCLIC
    for i, n in enumerate(sizes):
        graphs[f"acyclic{n}.{i}"] = (n, random_acyclic(rng, n, p))
        acyclic.add(f"acyclic{n}.{i}")
    blocks, size, p_in, p_fwd = CLASSIFY_CHAIN
    graphs[f"chain{blocks}x{size}"] = (blocks * size, block_chain(rng, blocks, size, p_in, p_fwd)[0])
    ops = []
    for key, (n, arcs) in graphs.items():
        if (key in acyclic) != checks.is_acyclic(n, arcs):
            raise AssertionError(f"{key}: acyclicity not as generated")
        rows = checks.neighborhood_rows(n, arcs)
        dets = {p: checks.det_mod_p(rows, p) for p in checks.DET_PRIMES}
        ops.append(
            Op(
                f"classify {key}",
                ["classify", "--k-max", str(CLASSIFY_K_MAX), "{graph}"],
                key,
                partial(checks.check_classify, n, arcs, CLASSIFY_K_MAX, dets, key in acyclic),
            )
        )
    return Workload(graphs, spread(ops))


# --- tournaments -------------------------------------------------------------

CENSUS = ((5, 30), (4, 30), (3, 30))  # (n, k_max)
# Tournament size -> planted tournaments per round.  In time per
# operation, 10 operations a round (--all n <= 7, min-fas n <= 13) lie
# below the 5 min-fas n = 14 ones and 10 above them, so the median falls
# in the middle of the n = 14 group.  The top tenth of the 25 is census
# n = 5 and half of the 3 min-fas n = 17 operations, so p90 falls in the
# middle of that group.  The subset tables cost 2^n whatever the
# tournament, so neither group's time depends on the seed.  The n = 14
# table (16,384 entries) holds the median rather than the n = 15 one:
# the larger tables' times move most with the load on the shared host.
MIN_FAS_N = {12: 3, 13: 3, 14: 5, 15: 1, 16: 1, 17: 3}
ALL_FAS_N = {6: 2, 7: 2, 8: 2}


def census_expectation(n: int, k_max: int) -> dict[tuple[int, int], bool]:
    """k-AW of every (tournament mask, k), by det(N) mod the primes of k."""
    primes = [p for p in range(2, k_max + 1) if checks.prime_factors(p) == [p]]
    expected = {}
    strong = 0
    for mask in range(2 ** (n * (n - 1) // 2)):
        arcs = checks.tournament_from_mask(n, mask)
        rows = checks.neighborhood_rows(n, arcs)
        dets = {p: checks.det_mod_p(rows, p) for p in primes}
        strong += checks.is_strong(n, arcs, range(n))
        for k in range(2, k_max + 1):
            expected[(mask, k)] = checks.aw_from_dets(dets, k)
    if strong != checks.STRONG_TOURNAMENTS[n]:
        raise AssertionError(f"n={n}: {strong} strong tournaments, OEIS A054946 says otherwise")
    return expected


def tournaments_workload(seed: int) -> Workload:
    """Censuses, min-fas on planted tournaments, and min-fas --all."""
    rng = random.Random(seed)
    graphs: dict[str, tuple[int, frozenset]] = {}
    ops = []
    for n, k_max in CENSUS:
        ops.append(
            Op(
                f"census n={n}",
                ["census", "--n", str(n), "--k-max", str(k_max)],
                None,
                partial(checks.check_census, n, k_max, census_expectation(n, k_max)),
            )
        )
    for sizes, listing in ((MIN_FAS_N, False), (ALL_FAS_N, True)):
        for n, count in sizes.items():
            for i in range(count):
                m = rng.randint(1, 3) if listing else rng.randint(n // 3, n // 2)
                key = f"{'all' if listing else 'fas'}{n}.{i}"
                arcs = planted_tournament(rng, n, m)
                graphs[key] = (n, arcs)
                min_sets = None
                if listing:
                    size, min_sets = checks.minimum_fas_sets(n, arcs)
                    if size != m:
                        raise AssertionError(f"{key}: sweep minimum {size}, planted {m}")
                ops.append(
                    Op(
                        f"min-fas{' --all' if listing else ''} {key} m={m}",
                        ["min-fas", "--all", "{graph}"] if listing else ["min-fas", "{graph}"],
                        key,
                        partial(checks.check_min_fas, n, arcs, m, min_sets),
                    )
                )
    return Workload(graphs, spread(ops))


WORKLOADS = {
    "solve": solve_workload,
    "classify": classify_workload,
    "tournaments": tournaments_workload,
}

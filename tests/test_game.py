import random
from itertools import combinations, permutations, product

import pytest

import klights.game
from klights import (
    Digraph,
    InputError,
    Labeling,
    ToggleVector,
    acyclic_ordering,
    apply_toggles,
    det_int,
    feedback_arcs_of_ordering,
    from_arcs,
    greedy_play,
    is_k_aw,
    is_k_aw_componentwise,
    is_winnable,
    neighborhood_det,
    neighborhood_matrix,
    random_digraph,
    solve_labeling,
    system_matrix,
    unwinnable_certificate,
)

from oracles import all_digraphs

C3 = from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def test_neighborhood_matrix_c3():
    assert neighborhood_matrix(C3).rows == ((1, 1, 0), (0, 1, 1), (1, 0, 1))


def test_neighborhood_matrix_edgeless():
    assert neighborhood_matrix(from_arcs(2, [])).rows == ((1, 0), (0, 1))


def test_neighborhood_matrix_single_arc():
    assert neighborhood_matrix(from_arcs(2, [(0, 1)])).rows == ((1, 1), (0, 1))


def test_system_matrix_is_transpose():
    for d in (C3, from_arcs(4, [(0, 1), (2, 1), (3, 0)])):
        for k in (2, 3, 5):
            m = system_matrix(d, k)
            n = neighborhood_matrix(d)
            assert m.rows == tuple(zip(*(tuple(x % k for x in r) for r in n.rows)))


def test_system_matrix_matches_transposed_neighborhood_matrix():
    graphs = [Digraph(0, frozenset()), Digraph(1, frozenset())]
    graphs += [grid(s) for s in range(5, 9)]
    sizes = [(2, 0.5), (7, 0.3), (12, 0.05), (20, 0.3), (30, 0.6)]
    graphs += [random_digraph(n, p, seed) for seed, (n, p) in enumerate(sizes)]
    for d in graphs:
        for k in (2, 6, 12):
            assert system_matrix(d, k) == neighborhood_matrix(d).transpose().reduce(k)


def test_system_matrix_c3_mod3():
    assert system_matrix(C3, 3).rows == ((1, 0, 1), (1, 1, 0), (0, 1, 1))


class TestApplyToggles:
    def test_c3_all_ones(self):
        out = apply_toggles(C3, Labeling((1, 1, 1), 3), ToggleVector((1, 1, 1), 3))
        assert out.values == (0, 0, 0)

    def test_zero_toggles_identity(self):
        lam = Labeling((1, 0, 2), 3)
        assert apply_toggles(C3, lam, ToggleVector((0, 0, 0), 3)) == lam

    def test_single_arc(self):
        d = from_arcs(2, [(0, 1)])
        out = apply_toggles(d, Labeling((0, 0), 2), ToggleVector((1, 0), 2))
        assert out.values == (1, 1)

    def test_group_action(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 5)
            d = random_digraph(n, 0.4, seed=rng.randrange(10**6))
            k = rng.randint(2, 6)
            lam = Labeling(tuple(rng.randrange(k) for _ in range(n)), k)
            x = ToggleVector(tuple(rng.randrange(k) for _ in range(n)), k)
            y = ToggleVector(tuple(rng.randrange(k) for _ in range(n)), k)
            xy = ToggleVector(tuple((a + b) % k for a, b in zip(x.values, y.values)), k)
            assert apply_toggles(d, apply_toggles(d, lam, x), y) == apply_toggles(d, lam, xy)

    def test_order_independence(self):
        """Pressing vertices one at a time, in any order, lands on the same labeling."""
        d = random_digraph(4, 0.5, seed=42)
        k = 3
        lam = Labeling((2, 0, 1, 2), k)
        x = (1, 2, 0, 1)
        expected = apply_toggles(d, lam, ToggleVector(x, k))
        for order in permutations(range(4)):
            cur = lam
            for v in order:
                single = [0] * 4
                single[v] = x[v]
                cur = apply_toggles(d, cur, ToggleVector(tuple(single), k))
            assert cur == expected

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            apply_toggles(C3, Labeling((1, 1), 3), ToggleVector((1, 1, 1), 3))


class TestSolveLabeling:
    def test_c3_mod3(self):
        x = solve_labeling(C3, Labeling((1, 1, 1), 3))
        assert x.values == (1, 1, 1)

    def test_c3_mod2_unwinnable(self):
        assert solve_labeling(C3, Labeling((1, 0, 0), 2)) is None
        assert not is_winnable(C3, Labeling((1, 0, 0), 2))

    def test_soundness_everywhere(self):
        rng = random.Random(7)
        zero_hits = 0
        for _ in range(200):
            n = rng.randint(0, 6)
            d = random_digraph(n, rng.random(), seed=rng.randrange(10**6))
            k = rng.randint(2, 8)
            lam = Labeling(tuple(rng.randrange(k) for _ in range(n)), k)
            x = solve_labeling(d, lam)
            if x is not None:
                zero_hits += 1
                assert apply_toggles(d, lam, x).values == (0,) * n
        assert zero_hits > 0

    def test_acyclic_always_solvable(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(1, 6)
            d = random_digraph(n, 0.3, seed=rng.randrange(10**6))
            order = acyclic_ordering(d)
            if order is None:
                continue
            k = rng.randint(2, 12)
            lam = Labeling(tuple(rng.randrange(k) for _ in range(n)), k)
            assert solve_labeling(d, lam) is not None


def grid(s):
    """The s x s Lights Out board: each cell dominates its 4 neighbours."""
    arcs = []
    for r in range(s):
        for c in range(s):
            if c + 1 < s:
                arcs += [(r * s + c, r * s + c + 1), (r * s + c + 1, r * s + c)]
            if r + 1 < s:
                arcs += [(r * s + c, (r + 1) * s + c), ((r + 1) * s + c, r * s + c)]
    return from_arcs(s * s, arcs)


class TestSolveAtScale:
    """Answers at the sizes where elimination bugs show, each checked on its own terms.

    A toggle vector must clear the board under apply_toggles; an
    unwinnable verdict must come with weights y that sum to 0 over every
    closed out-neighbourhood while y . board != 0.
    """

    @staticmethod
    def check(d, board):
        k = board.modulus
        x = solve_labeling(d, board)
        y = unwinnable_certificate(d, board)
        if x is not None:
            assert y is None
            assert apply_toggles(d, board, x).values == (0,) * d.n
            return True
        for v in range(d.n):
            assert (y.values[v] + sum(y.values[w] for w in d.out_lists[v])) % k == 0
        assert sum(a * b for a, b in zip(y.values, board.values)) % k != 0
        return False

    @staticmethod
    def boards(d, k, seed, count):
        """Half pressed from the zero board (always winnable), half random."""
        rng = random.Random(seed)
        zero = Labeling((0,) * d.n, k)
        for _ in range(count):
            presses = ToggleVector(tuple(rng.randrange(k) for _ in range(d.n)), k)
            yield apply_toggles(d, zero, presses)
            yield Labeling(tuple(rng.randrange(k) for _ in range(d.n)), k)

    def test_grid_10_mod_2(self):
        d = grid(10)
        verdicts = [self.check(d, b) for b in self.boards(d, 2, 10, 3)]
        assert verdicts[::2] == [True] * 3

    @pytest.mark.parametrize("k", [2, 6, 12])
    def test_grid_9_unwinnable_boards(self, k):
        d = grid(9)
        verdicts = [self.check(d, b) for b in self.boards(d, k, 9, 3)]
        assert verdicts[::2] == [True] * 3
        assert False in verdicts[1::2]

    def test_grid_15_mod_6(self):
        d = grid(15)
        verdicts = [self.check(d, b) for b in self.boards(d, 6, 15, 1)]
        assert verdicts[0]

    def test_random_200_mod_12(self):
        d = random_digraph(200, 0.3, 1)
        verdicts = [self.check(d, b) for b in self.boards(d, 12, 200, 1)]
        assert verdicts == [True, False]  # the random board needs a certificate


class TestKAlwaysWinnable:
    def test_c3(self):
        assert not is_k_aw(C3, 2)
        assert is_k_aw(C3, 3)

    def test_dag(self):
        d = from_arcs(3, [(0, 1), (1, 2)])
        for k in range(2, 13):
            assert is_k_aw(d, k)

    def test_k_too_small(self):
        with pytest.raises(InputError):
            is_k_aw(C3, 1)

    def test_exhaustive_vs_all_labelings(self):
        """k-AW exactly when every labeling is winnable."""
        for d in all_digraphs(3):
            for k in (2, 3, 4):
                every = all(
                    solve_labeling(d, Labeling(lab, k)) is not None
                    for lab in product(range(k), repeat=d.n)
                )
                assert is_k_aw(d, k) == every

    def test_componentwise_bridged_cycles(self):
        d = from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        assert not is_k_aw_componentwise(d, 2)
        assert is_k_aw_componentwise(d, 3)

    def test_componentwise_agrees(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(0, 7)
            d = random_digraph(n, rng.random(), seed=rng.randrange(10**6))
            for k in range(2, 7):
                assert is_k_aw(d, k) == is_k_aw_componentwise(d, k)

    def test_empty_digraph_vacuously_aw(self):
        assert is_k_aw(Digraph(0, frozenset()), 5)


def relabel(d, rng):
    """The same digraph with its vertex ids shuffled."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    return Digraph(d.n, frozenset((perm[u], perm[v]) for u, v in d.arcs))


def block_chain(blocks, p, rng):
    """Blocks side by side, forward arcs between them at rate p, ids shuffled."""
    offsets, arcs, n = [], [], 0
    for b in blocks:
        offsets.append(n)
        arcs += [(n + u, n + v) for u, v in b.arcs]
        n += b.n
    for i, j in combinations(range(len(blocks)), 2):
        for u in range(blocks[i].n):
            for v in range(blocks[j].n):
                if rng.random() < p:
                    arcs.append((offsets[i] + u, offsets[j] + v))
    return relabel(Digraph(n, frozenset(arcs)), rng)


def strong_block(n, p, seed):
    """A directed n-cycle plus random inner arcs: strongly connected."""
    cycle = {(v, (v + 1) % n) for v in range(n)}
    return Digraph(n, frozenset(cycle | random_digraph(n, p, seed).arcs))


class TestNeighborhoodDet:
    """The block-by-block det(N) against Bareiss on the whole matrix."""

    @staticmethod
    def full_det(d):
        return det_int(neighborhood_matrix(d))

    def test_random_digraphs(self):
        for seed, n in enumerate((2, 5, 9, 16, 25, 40, 60)):
            for p in (0.05, 0.3):
                d = random_digraph(n, p, seed)
                assert neighborhood_det(d) == self.full_det(d)

    def test_block_chains(self):
        rng = random.Random(77)
        one = Digraph(1, frozenset())
        chains = [
            [C3, one, C3, from_arcs(2, [(0, 1), (1, 0)]), one],
            [strong_block(16, 0.3, s) for s in range(4)],
            # det(N) of the 5 x 5 grid is 0, so this chain is singular.
            [strong_block(9, 0.2, 1), grid(5), one, strong_block(12, 0.4, 2)],
            [one] * 6 + [strong_block(7, 0.5, 3)] + [one] * 6,
        ]
        for blocks in chains:
            for p in (0.0, 0.1, 0.5):
                d = block_chain(blocks, p, rng)
                assert neighborhood_det(d) == self.full_det(d)
        assert neighborhood_det(block_chain(chains[2], 0.1, rng)) == 0

    def test_empty_digraph(self):
        assert neighborhood_det(Digraph(0, frozenset())) == 1

    def test_acyclic_is_one_without_elimination(self, monkeypatch):
        calls = []

        def counting_det(m):
            calls.append(m.nrows)
            return 1

        monkeypatch.setattr(klights.game, "det_int", counting_det)
        rng = random.Random(31)
        for n in (1, 2, 10, 40, 60):
            for p in (0.05, 0.3, 0.9):
                d = block_chain([Digraph(1, frozenset())] * n, p, rng)
                assert acyclic_ordering(d) is not None
                assert neighborhood_det(d) == 1
        assert calls == []


class TestGreedyPlay:
    def test_dag_trace(self):
        d = from_arcs(3, [(0, 1), (1, 2)])
        tr = greedy_play(d, (0, 1, 2), Labeling((1, 2, 0), 3))
        assert tr.counts == (2, 2, 1)
        assert tr.final.values == (0, 0, 0)

    def test_c3_trace(self):
        tr = greedy_play(C3, (0, 1, 2), Labeling((1, 1, 1), 2))
        assert tr.counts == (1, 0, 1)
        assert tr.final.values == (1, 0, 0)

    def test_zero_labeling(self):
        tr = greedy_play(C3, (2, 0, 1), Labeling((0, 0, 0), 4))
        assert tr.counts == (0, 0, 0)
        assert tr.final.values == (0, 0, 0)

    def test_counts_by_vertex(self):
        tr = greedy_play(C3, (2, 0, 1), Labeling((1, 2, 3), 4))
        by_vertex = tr.counts_by_vertex()
        for pos, v in enumerate(tr.ordering):
            assert by_vertex[v] == tr.counts[pos]

    def test_transcript_consistent_with_apply(self):
        rng = random.Random(10)
        for _ in range(150):
            n = rng.randint(1, 7)
            d = random_digraph(n, rng.random(), seed=rng.randrange(10**6))
            k = rng.randint(2, 9)
            lam = Labeling(tuple(rng.randrange(k) for _ in range(n)), k)
            sigma = list(range(n))
            rng.shuffle(sigma)
            tr = greedy_play(d, tuple(sigma), lam)
            replayed = apply_toggles(d, lam, ToggleVector(tr.counts_by_vertex(), k))
            assert replayed == tr.final

    def test_non_head_vertices_end_at_zero(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 7)
            d = random_digraph(n, rng.random(), seed=rng.randrange(10**6))
            k = rng.randint(2, 9)
            lam = Labeling(tuple(rng.randrange(k) for _ in range(n)), k)
            sigma = list(range(n))
            rng.shuffle(sigma)
            fas = feedback_arcs_of_ordering(d, tuple(sigma))
            heads = {v for _, v in fas.arcs}
            tr = greedy_play(d, tuple(sigma), lam)
            for v in range(n):
                if v not in heads:
                    assert tr.final.values[v] == 0

    def test_bad_ordering(self):
        with pytest.raises(InputError):
            greedy_play(C3, (0, 1), Labeling((0, 0, 0), 2))
        with pytest.raises(InputError):
            greedy_play(C3, (0, 1, 1), Labeling((0, 0, 0), 2))

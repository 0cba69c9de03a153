import random

import pytest

from klights import (
    Digraph,
    InputError,
    acyclic_ordering,
    arc_induced_subgraph,
    from_arcs,
    induced_subgraph,
    is_strongly_connected,
    is_tournament,
    random_digraph,
    strong_components,
)

from oracles import all_digraphs

C3 = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = from_arcs(3, [(0, 1), (1, 2)])


class TestConstruction:
    def test_c3(self):
        assert C3.n == 3
        assert C3.arcs == {(0, 1), (1, 2), (2, 0)}

    def test_isolated_vertex(self):
        d = from_arcs(1, [])
        assert d.n == 1 and not d.arcs

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            from_arcs(2, [(0, 0)])

    def test_duplicate_arc_rejected(self):
        with pytest.raises(InputError):
            from_arcs(2, [(0, 1), (0, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(InputError):
            from_arcs(2, [(0, 2)])
        with pytest.raises(InputError):
            from_arcs(2, [(-1, 0)])

    def test_negative_n_rejected(self):
        with pytest.raises(InputError):
            Digraph(-1, frozenset())

    def test_adjacency_lists_sorted(self):
        d = from_arcs(4, [(0, 3), (0, 1), (2, 0), (1, 0)])
        assert d.out_lists[0] == (1, 3)
        assert d.in_lists[0] == (1, 2)


class TestTournament:
    def test_c3_is_tournament(self):
        assert is_tournament(C3)

    def test_no_arcs_not_tournament(self):
        assert not is_tournament(from_arcs(2, []))

    def test_missing_pair(self):
        assert not is_tournament(PATH3)

    def test_two_cycle_not_tournament(self):
        # right arc count, but one pair doubled and one pair empty
        d = from_arcs(3, [(0, 1), (1, 0), (1, 2)])
        assert not is_tournament(d)

    def test_transitive_triangle(self):
        assert is_tournament(from_arcs(3, [(0, 1), (0, 2), (1, 2)]))


class TestStrongConnectivity:
    def test_c3(self):
        assert is_strongly_connected(C3)

    def test_path(self):
        assert not is_strongly_connected(PATH3)

    def test_trivial_sizes(self):
        assert is_strongly_connected(from_arcs(1, []))
        assert is_strongly_connected(Digraph(0, frozenset()))

    def test_matches_component_count(self):
        for d in all_digraphs(3):
            assert is_strongly_connected(d) == (len(strong_components(d)) == 1)


class TestStrongComponents:
    def test_c3_single(self):
        assert strong_components(C3) == [(0, 1, 2)]

    def test_dag_singletons(self):
        assert strong_components(PATH3) == [(0,), (1,), (2,)]

    def test_two_cycles_bridged(self):
        d = from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        assert strong_components(d) == [(0, 1, 2), (3, 4, 5)]

    def test_partition_and_arc_direction(self):
        """Components partition the vertices; cross arcs all point forward."""
        for d in all_digraphs(4):
            comps = strong_components(d)
            flat = sorted(v for c in comps for v in c)
            assert flat == list(range(d.n))
            index = {v: i for i, c in enumerate(comps) for v in c}
            for u, v in d.arcs:
                assert index[u] <= index[v]

    def test_acyclic_iff_all_singletons(self):
        for d in all_digraphs(4):
            singletons = all(len(c) == 1 for c in strong_components(d))
            assert (acyclic_ordering(d) is not None) == singletons


class TestAcyclicOrdering:
    def test_deterministic_smallest_first(self):
        d = from_arcs(3, [(0, 1), (0, 2), (1, 2)])
        assert acyclic_ordering(d) == (0, 1, 2)

    def test_cycle_returns_none(self):
        assert acyclic_ordering(C3) is None

    def test_single_vertex(self):
        assert acyclic_ordering(from_arcs(1, [])) == (0,)

    def test_no_backward_arcs(self):
        for d in all_digraphs(4):
            order = acyclic_ordering(d)
            if order is None:
                continue
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[u] < pos[v] for u, v in d.arcs)


class TestSubgraphs:
    def test_single_arc(self):
        sub, vmap = arc_induced_subgraph(C3, {(2, 0)})
        assert sub.n == 2
        assert vmap == (0, 2)
        # vertex 2 maps to index 1, vertex 0 to index 0
        assert sub.arcs == {(1, 0)}

    def test_empty_arc_set(self):
        sub, vmap = arc_induced_subgraph(C3, set())
        assert sub.n == 0
        assert vmap == ()

    def test_path_shape(self):
        d = from_arcs(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
        sub, vmap = arc_induced_subgraph(d, {(4, 2), (2, 0)})
        assert sub.n == 3
        assert vmap == (0, 2, 4)
        assert sub.arcs == {(2, 1), (1, 0)}

    def test_foreign_arc_rejected(self):
        with pytest.raises(InputError):
            arc_induced_subgraph(C3, {(0, 2)})

    def test_full_arc_set_drops_isolated(self):
        d = from_arcs(4, [(0, 1), (1, 0)])
        sub, vmap = arc_induced_subgraph(d, d.arcs)
        assert vmap == (0, 1)
        assert sub.n == 2

    def test_induced_keeps_internal_arcs(self):
        d = from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sub, vmap = induced_subgraph(d, [1, 2, 3])
        assert vmap == (1, 2, 3)
        assert sub.arcs == {(0, 1), (1, 2)}

    def test_induced_matches_arc_filter(self):
        rng = random.Random(12)
        for seed in range(40):
            d = random_digraph(rng.randint(0, 30), rng.random(), seed)
            keep = {v for v in range(d.n) if rng.random() < 0.5}
            sub, vmap = induced_subgraph(d, keep)
            assert vmap == tuple(sorted(keep))
            kept = {(vmap[u], vmap[v]) for u, v in sub.arcs}
            assert kept == {(u, v) for u, v in d.arcs if u in keep and v in keep}

    def test_induced_bad_vertex(self):
        with pytest.raises(InputError):
            induced_subgraph(C3, [0, 5])

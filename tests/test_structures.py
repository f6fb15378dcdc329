import random

import pytest
from hypothesis import given, strategies as st

from trimatch.structures import (
    BipartiteGraph,
    Graph,
    LatinSquare,
    Matching,
    MatchingFamily,
    PartitionedGraph,
    TriHypergraph,
    bipartite_graph_from_json,
    bipartite_graph_to_json,
    component,
    degree,
    family_from_json,
    family_to_hypergraph,
    family_to_json,
    graph_from_json,
    graph_from_masks,
    graph_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    induced_masks,
    is_p_simple,
    latin_to_hypergraph,
    partitioned_graph_from_json,
    partitioned_graph_to_json,
    square_from_json,
    square_to_json,
    vertices_of,
)
from trimatch.constructions import cyclic_latin, gen_drisko_extremal


def cyclic3_hyper():
    return latin_to_hypergraph(cyclic_latin(3))


class TestInvariants:
    def test_bipartite_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, frozenset({(2, 0)}))

    def test_graph_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_graph_adjacency_masks(self):
        G = Graph(4, frozenset({(1, 0), (1, 2)}))
        assert G.adj == (0b0010, 0b0101, 0b0010, 0b0000)
        assert G == Graph(4, frozenset({(0, 1), (2, 1)}))
        assert Graph(0).adj == ()

    def test_hypergraph_keeps_multiplicity(self):
        H = TriHypergraph((1, 1, 1), ((0, 0, 0), (0, 0, 0)))
        assert H.n_edges == 2
        assert not H.is_simple()

    def test_hypergraph_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            TriHypergraph((1, 1, 1), ((0, 1, 0),))

    def test_matching_rejects_shared_vertex(self):
        for edges in ({(0, 0), (0, 1)}, {(0, 1), (1, 1)}):
            with pytest.raises(ValueError, match="share a vertex"):
                Matching(frozenset(edges))
        # a matching holds pairs only: the matching number's triples are
        # a plain tuple, never a Matching
        with pytest.raises(ValueError, match=r"matching edge \(0, 0, 0\) is not a pair"):
            Matching(frozenset({(0, 0, 0)}))

    def test_family_members_must_live_in_host(self):
        host = BipartiteGraph(2, 2, frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            MatchingFamily(host, (Matching(frozenset({(1, 1)})),))

    def test_family_members_may_repeat(self):
        F = gen_drisko_extremal(3)
        assert len(F.members) == 4
        assert F.members[0] == F.members[1]

    def test_latin_predicates(self):
        L = cyclic_latin(3)
        assert L.is_row_latin() and L.is_column_latin() and L.is_latin()
        rows_only = LatinSquare(2, ((0, 1), (0, 1)))
        assert rows_only.is_row_latin()
        assert not rows_only.is_column_latin()

    @pytest.mark.parametrize("order, cells, message", [
        (-1, (), "order must be non-negative"),
        (2, ((0, 1),), "cells must form an n x n grid"),
        # every grid length is checked before any symbol
        (2, ((0, 9), (1,)), "cells must form an n x n grid"),
        (2, ((0, 1), (3, -1)), "symbol 3 out of range [0, 2)"),
        (2, ((0, 1), (1, -1)), "symbol -1 out of range [0, 2)"),
    ])
    def test_latin_square_checks_in_order(self, order, cells, message):
        with pytest.raises(ValueError) as info:
            LatinSquare(order, cells)
        assert str(info.value) == message

    def test_latin_square_cells_become_int_tuples(self):
        L = LatinSquare(2, [["0", 1.0], [1, 0]])
        assert L.cells == ((0, 1), (1, 0))
        assert LatinSquare(0).cells == ()

    def test_empty_sides_are_legal(self):
        H = TriHypergraph((0, 0, 0), ())
        assert H.is_simple()
        assert is_p_simple(H, ("A", "B"), 1)


class TestDegree:
    def test_direct_count(self):
        H = TriHypergraph((1, 2, 2), ((0, 0, 0), (0, 1, 1)))
        assert degree(H, "A", 0) == 2

    def test_empty_hypergraph(self):
        H = TriHypergraph((3, 3, 3), ())
        assert degree(H, "B", 1) == 0

    def test_cyclic_latin_3_is_3_regular_in_A(self):
        H = cyclic3_hyper()
        assert all(degree(H, "A", a) == 3 for a in range(3))

    def test_out_of_range(self):
        H = TriHypergraph((1, 1, 1), ())
        with pytest.raises(IndexError):
            degree(H, "A", 1)

    def test_multiplicity_counts(self):
        H = TriHypergraph((1, 1, 1), ((0, 0, 0), (0, 0, 0)))
        assert degree(H, "C", 0) == 2


class TestPSimple:
    def test_cyclic_latin_all_pairs_simple(self):
        H = cyclic3_hyper()
        for pair in (("A", "B"), ("A", "C"), ("B", "C")):
            assert is_p_simple(H, pair, 1)

    def test_shared_bc_pair(self):
        H = TriHypergraph((2, 1, 1), ((0, 0, 0), (1, 0, 0)))
        assert not is_p_simple(H, ("B", "C"), 1)
        assert is_p_simple(H, ("B", "C"), 2)

    def test_doubled_square_is_bc_2_simple(self):
        from trimatch.constructions import double_side_A

        H2 = double_side_A(cyclic3_hyper())
        assert is_p_simple(H2, ("B", "C"), 2)
        assert not is_p_simple(H2, ("B", "C"), 1)

    @given(st.integers(min_value=1, max_value=4))
    def test_monotone_in_p(self, p):
        H = TriHypergraph((2, 2, 2), ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))
        for pair in (("A", "B"), ("A", "C"), ("B", "C")):
            if is_p_simple(H, pair, p):
                assert is_p_simple(H, pair, p + 1)


class TestLatinToHypergraph:
    def test_cyclic3(self):
        H = cyclic3_hyper()
        assert H.n_edges == 9
        for pair in (("A", "B"), ("A", "C"), ("B", "C")):
            assert is_p_simple(H, pair, 1)

    def test_order_1(self):
        H = latin_to_hypergraph(LatinSquare(1, ((0,),)))
        assert H.edges == ((0, 0, 0),)

    def test_row_latin_with_column_repeat(self):
        L = LatinSquare(2, ((0, 1), (0, 1)))  # symbol 0 twice in column 0
        H = latin_to_hypergraph(L)
        assert not is_p_simple(H, ("A", "B"), 1)
        assert is_p_simple(H, ("A", "C"), 1)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
    def test_any_grid_has_n_squared_edges_and_bc_simple(self, n, seed):
        import random

        rng = random.Random(seed)
        cells = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        H = latin_to_hypergraph(LatinSquare(n, cells))
        assert H.n_edges == n * n
        assert is_p_simple(H, ("B", "C"), 1)


class TestFamilyToHypergraph:
    def test_single_member(self):
        host = BipartiteGraph(1, 1, frozenset({(0, 0)}))
        F = MatchingFamily(host, (Matching(frozenset({(0, 0)})),))
        H = family_to_hypergraph(F)
        assert H.edges == ((0, 0, 0),)

    def test_drisko_n2_has_4_edges(self):
        H = family_to_hypergraph(gen_drisko_extremal(2))
        assert H.n_edges == 4
        assert H.side_sizes == (2, 2, 2)

    def test_ac_pair_simple_for_any_family(self):
        F = gen_drisko_extremal(3)
        H = family_to_hypergraph(F)
        assert is_p_simple(H, ("A", "C"), 1)
        assert is_p_simple(H, ("B", "C"), 1)

    def test_round_trip_fibers(self):
        F = gen_drisko_extremal(3)
        H = family_to_hypergraph(F)
        fibers = [set() for _ in F.members]
        for a, b, c in H.edges:
            fibers[c].add((a, b))
        assert [frozenset(f) for f in fibers] == [m.edges for m in F.members]


def seeded_graphs(count=200):
    """(graph, vertex sets) pairs: sparse graphs leave isolated vertices, and
    the sets include the empty and the full vertex set."""
    rng = random.Random(2024)
    for _ in range(count):
        n = rng.randrange(0, 13)
        p = rng.choice((0.0, 0.15, 0.4, 0.8))
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        subsets = [set(), set(range(n))]
        subsets += [{v for v in range(n) if rng.random() < 0.5} for _ in range(3)]
        yield Graph(n, frozenset(edges)), subsets


def to_mask(vertices):
    return sum(1 << v for v in vertices)


class TestGraphMasks:
    """The mask operations against plain set-based versions."""

    def test_vertices_of_lists_the_set_bits(self):
        for G, subsets in seeded_graphs():
            for S in subsets:
                assert vertices_of(to_mask(S)) == sorted(S)

    def test_component_is_the_bfs_of_the_lowest_vertex(self):
        for G, subsets in seeded_graphs():
            for S in subsets:
                if not S:
                    assert component(G.adj, 0) == 0
                    continue
                start = min(S)
                seen, queue = {start}, [start]
                while queue:
                    u = queue.pop()
                    for a, b in G.edges:
                        for x, y in ((a, b), (b, a)):
                            if x == u and y in S and y not in seen:
                                seen.add(y)
                                queue.append(y)
                assert component(G.adj, to_mask(S)) == to_mask(seen)

    def test_induced_masks_are_the_restricted_relabelled_edges(self):
        for G, subsets in seeded_graphs():
            for S in subsets:
                index = {v: i for i, v in enumerate(sorted(S))}
                expected = Graph(len(S), frozenset(
                    (index[u], index[v]) for u, v in G.edges if u in S and v in S))
                induced = graph_from_masks(induced_masks(G.adj, to_mask(S)))
                assert induced == expected
                assert induced.adj == tuple(induced_masks(G.adj, to_mask(S)))
            assert graph_from_masks(G.adj) == G

    def test_part_masks_hold_the_parts(self):
        rng = random.Random(7)
        for G, subsets in seeded_graphs():
            parts = subsets + [{v for v in range(G.n) if rng.random() < 0.3}]
            P = PartitionedGraph(G, tuple(frozenset(p) for p in parts))
            assert len(P.part_masks) == len(parts)
            for part, mask in zip(parts, P.part_masks):
                assert {v for v in range(G.n) if mask >> v & 1} == part


class TestJson:
    def test_bipartite_round_trip(self):
        G = BipartiteGraph(3, 2, frozenset({(0, 0), (2, 1)}))
        assert bipartite_graph_from_json(bipartite_graph_to_json(G)) == G

    def test_graph_round_trip(self):
        G = Graph(4, frozenset({(0, 1), (2, 3)}))
        assert graph_from_json(graph_to_json(G)) == G

    def test_hypergraph_round_trip_with_repeats(self):
        H = TriHypergraph((2, 2, 2), ((0, 0, 0), (0, 0, 0), (1, 1, 1)))
        assert hypergraph_from_json(hypergraph_to_json(H)) == H

    def test_family_round_trip(self):
        F = gen_drisko_extremal(2)
        assert family_from_json(family_to_json(F)) == F

    def test_square_round_trip(self):
        L = cyclic_latin(4)
        assert square_from_json(square_to_json(L)) == L

    def test_partitioned_graph_round_trip(self):
        P = PartitionedGraph(Graph(4, frozenset({(0, 1)})), (frozenset({0, 2}), frozenset({3})))
        data = partitioned_graph_to_json(P)
        assert data == {"graph": {"vertices": 4, "edges": [[0, 1]]}, "parts": [[0, 2], [3]]}
        assert partitioned_graph_from_json(data) == P

    def test_wire_format_keys(self):
        assert set(bipartite_graph_to_json(BipartiteGraph(1, 1))) == {"left", "right", "edges"}
        assert set(hypergraph_to_json(TriHypergraph((1, 1, 1)))) == {"sides", "edges"}
        assert set(square_to_json(cyclic_latin(2))) == {"n", "cells"}
        assert set(family_to_json(gen_drisko_extremal(2))) == {"graph", "members"}

"""Builders that make their objects without the constructor's check.

These make objects through `structures._built`, which skips `__post_init__`:
the exhaustive streams `latin_squares` and `row_latin_squares`,
`independence_complex` and `graph_from_masks`; the random draws
`random_matching`, `random_family`, `gen_theorem19_instance`,
`random_graph`, `random_partition_system` and `random_lemma31_graph`; and
`gen_accommodating_counterexample` (with the cycle host and matchings it
is made of), `family_to_hypergraph` and `game.line_graph`.  Each must give,
field by field and type by type, what the public constructor makes from the
same fields, and must check its own scalar arguments wherever the skipped
constructor caught a bad one; the public constructors keep every check.
"""

import contextlib
import dataclasses
import random
import re

import pytest

from trimatch import constructions as cons
from trimatch.canonical import graph_classes
from trimatch.game import line_graph
from trimatch.homology import SimplicialComplex, independence_complex
from trimatch.structures import (
    BipartiteGraph, Graph, LatinSquare, Matching, MatchingFamily, PartitionedGraph,
    TriHypergraph, family_to_hypergraph, graph_from_masks)
from trimatch.verifier import (
    SHIPPED_SCOPES, STATEMENTS, ascending_sequences, is_accommodating_shaped)


def fields_of(obj):
    """Every field of a dataclass instance, init=False ones included, with
    the type of its value, so a list never passes for a tuple nor a set for
    a frozenset."""
    return {f.name: (type(getattr(obj, f.name)), getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


def assert_as_constructed(built, checked):
    assert type(built) is type(checked)
    assert fields_of(built) == fields_of(checked)


def square_as_constructed(L):
    assert_as_constructed(L, LatinSquare(L.order, L.cells))


def matching_as_constructed(M):
    assert_as_constructed(M, Matching(M.edges))


def bipartite_as_constructed(G):
    assert_as_constructed(G, BipartiteGraph(G.left_size, G.right_size, G.edges))


def family_as_constructed(F):
    bipartite_as_constructed(F.host)
    for member in F.members:
        matching_as_constructed(member)
    assert_as_constructed(F, MatchingFamily(F.host, F.members))


def hypergraph_as_constructed(H):
    assert_as_constructed(H, TriHypergraph(H.side_sizes, H.edges))


def graph_as_constructed(G):
    assert_as_constructed(G, Graph(G.n, G.edges))


def pgraph_as_constructed(P):
    graph_as_constructed(P.graph)
    assert_as_constructed(P, PartitionedGraph(P.graph, P.parts))


AS_CONSTRUCTED = {
    MatchingFamily: family_as_constructed, BipartiteGraph: bipartite_as_constructed,
    TriHypergraph: hypergraph_as_constructed, Graph: graph_as_constructed,
    PartitionedGraph: pgraph_as_constructed,
}


@contextlib.contextmanager
def unchecked():
    """Make every checked constructor of a draw's types fail while the block
    runs, so a builder that still sends its output through one is caught."""
    def check(self):
        raise AssertionError(f"{type(self).__name__}.__post_init__ ran")

    with pytest.MonkeyPatch.context() as mp:
        for cls in (Matching, MatchingFamily, BipartiteGraph, TriHypergraph, Graph,
                    PartitionedGraph):
            mp.setattr(cls, "__post_init__", check)
        yield


class TestSquareBuilders:
    @pytest.mark.parametrize("n", range(5))
    def test_every_latin_square(self, n):
        count = 0
        for L in cons.latin_squares(n):
            square_as_constructed(L)
            count += 1
        assert count == (1, 1, 2, 12, 576)[n]

    @pytest.mark.parametrize("n", range(5))
    def test_every_row_latin_square(self, n):
        count = 0
        for L in cons.row_latin_squares(n):
            square_as_constructed(L)
            count += 1
        assert count == (1, 1, 2, 36, 13824)[n]

    def test_random_latin_draws(self):
        rng = random.Random(25)
        for n in list(range(cons.RANDOM_LATIN_CAP + 1)) * 2:
            L = cons.random_latin(n, rng)
            square_as_constructed(L)
            assert L.is_latin()


def seeded_graphs():
    rng = random.Random(2501)
    for _ in range(60):
        n = rng.randint(0, 18)
        p = rng.choice((0.3, 0.5, 0.8)) if n > 14 else rng.random()
        yield cons.random_graph(n, rng, p)


class TestIndependenceComplex:
    def complex_as_constructed(self, G):
        C = independence_complex(G)
        assert_as_constructed(C, SimplicialComplex(C.faces))

    def test_every_graph_class_on_at_most_6_vertices(self):
        for adj in graph_classes(6):
            self.complex_as_constructed(graph_from_masks(adj))

    def test_the_empty_graph(self):
        C = independence_complex(Graph(0))
        assert C.faces == (((),),)
        assert_as_constructed(C, SimplicialComplex(C.faces))

    def test_seeded_random_graphs_up_to_18_vertices(self):
        sizes = set()
        for G in seeded_graphs():
            self.complex_as_constructed(G)
            sizes.add(G.n)
        assert max(sizes) == 18


class TestGraphFromMasks:
    def test_every_graph_class_on_at_most_7_vertices(self):
        for adj in graph_classes(7):
            n = len(adj)
            checked = Graph(n, frozenset(
                (u, v) for u in range(n) for v in range(n) if adj[u] >> v & 1))
            assert_as_constructed(graph_from_masks(adj), checked)
            assert checked.adj == adj

    @pytest.mark.parametrize("adj, message", [
        ([0b10, 0], "vertex 0 neighbours 1, but vertex 1 not 0"),
        ([0, 0b01], "vertex 1 neighbours 0, but vertex 0 not 1"),
        ([0b1, 0], "loop at vertex 0"),
        ([0b100, 0b100], "mask of vertex 0 has a bit outside 0..1"),
        ([0b10, 0b101], "mask of vertex 1 has a bit outside 0..1"),
        ([0, -2], "mask of vertex 1 has a bit outside 0..1"),
        ([0b110, 0b001, 0b000], "vertex 0 neighbours 2, but vertex 2 not 0"),
        # two bits for one edge, yet neither has its mirror
        ([0b100, 0b000, 0b010], "vertex 0 neighbours 2, but vertex 2 not 0"),
    ])
    def test_malformed_masks_name_their_vertex(self, adj, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph_from_masks(adj)


RANDOMIZED_SHIPPED = [sid for sid, scope in SHIPPED_SCOPES.items() if scope.mode == "randomized"]


class TestDraws:
    @pytest.mark.parametrize("sid", RANDOMIZED_SHIPPED)
    def test_shipped_draws(self, sid):
        # every draw of the theorem suite's randomized scopes, from its seed
        rec, scope = STATEMENTS[sid], SHIPPED_SCOPES[sid]
        rng = random.Random(scope.seed)
        with unchecked():
            objs = [rec.randomized(rng, **scope.params)[rec.codec.key]
                    for _ in range(scope.trials)]
            derived = [family_to_hypergraph(F) for F in objs if isinstance(F, MatchingFamily)]
            derived += [line_graph(B) for B in objs if isinstance(B, BipartiteGraph)]
        for obj in objs + derived:
            AS_CONSTRUCTED[type(obj)](obj)

    def test_random_families_over_sizes(self):
        rng = random.Random(2911)
        profiles = [[], [0], [0, 0], [1], [3, 1, 2], [4] * 7, [5, 5, 5, 6, 6]]
        with unchecked():
            families = [cons.random_family(sizes, rng) for sizes in profiles * 20]
            hypers = [family_to_hypergraph(F) for F in families]
        for F, H in zip(families, hypers):
            family_as_constructed(F)
            hypergraph_as_constructed(H)

    def test_random_graphs_and_partition_systems(self):
        rng = random.Random(2912)
        with unchecked():
            graphs = [cons.random_graph(n, rng, p) for n in range(0, 13) for p in (0, 0.35, 0.5, 1)]
            systems = [cons.random_partition_system(rng, max_vertices=v, max_parts=m)
                       for v in (2, 7, 16) for m in (1, 4, 8) for _ in range(10)]
        for G in graphs:
            graph_as_constructed(G)
        for P in systems:
            pgraph_as_constructed(P)

    def test_theorem19_and_lemma31_draws(self):
        rng = random.Random(2913)
        with unchecked():
            hypers = [cons.gen_theorem19_instance(n, seed)
                      for n in (2, 3, 4, 6) for seed in range(10)]
            bipartites = [cons.random_lemma31_graph(ell, rng, max_edges)
                          for ell in (1, 2, 3) for max_edges in (12, 16, 20) for _ in range(10)]
            lines = [line_graph(B) for B in bipartites]
        for H in hypers:
            hypergraph_as_constructed(H)
        for B, L in zip(bipartites, lines):
            bipartite_as_constructed(B)
            graph_as_constructed(L)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_accommodating_counterexample(self, n):
        with unchecked():
            families = [cons.gen_accommodating_counterexample(a, n)
                        for a in ascending_sequences(n) if not is_accommodating_shaped(a, n)]
        assert families
        for F in families:
            family_as_constructed(F)

    @pytest.mark.parametrize("make, error, message", [
        pytest.param(lambda rng: cons.random_graph(-1, rng),
                     ValueError, "vertex count must be non-negative", id="random_graph(-1)"),
        pytest.param(lambda rng: cons.random_graph(2.5, rng),
                     TypeError, "", id="random_graph(2.5)"),
        pytest.param(lambda rng: cons.random_matching(3, 3, 4, rng),
                     ValueError, "matching size exceeds a side", id="random_matching(3, 3, 4)"),
        pytest.param(lambda rng: cons.random_matching(3, 3, -1, rng),
                     ValueError, "", id="random_matching(3, 3, -1)"),
        pytest.param(lambda rng: cons.random_family([2, -1], rng),
                     ValueError, "", id="random_family([2, -1])"),
        pytest.param(lambda rng: cons.random_family([-1], rng),
                     ValueError, "", id="random_family([-1])"),
        pytest.param(lambda rng: cons.gen_theorem19_instance(1, 0),
                     ValueError, "n must be at least 2", id="gen_theorem19_instance(1, 0)"),
        pytest.param(lambda rng: cons.random_lemma31_graph(0, rng),
                     ValueError, "ell must be at least 1", id="random_lemma31_graph(0)"),
        pytest.param(lambda rng: cons.random_lemma31_graph(-2, rng),
                     ValueError, "ell must be at least 1", id="random_lemma31_graph(-2)"),
        pytest.param(lambda rng: cons.random_lemma31_graph(3, rng, 8),
                     ValueError, "exceeds the edge budget", id="random_lemma31_graph(3, 8)"),
        pytest.param(lambda rng: cons.random_partition_system(rng, max_vertices=1),
                     ValueError, "", id="random_partition_system(max_vertices=1)"),
        pytest.param(lambda rng: cons.random_partition_system(rng, max_parts=0),
                     ValueError, "", id="random_partition_system(max_parts=0)"),
        pytest.param(lambda rng: cons.gen_accommodating_counterexample((0, 0), 2),
                     ValueError, "length 2n-1", id="gen_accommodating_counterexample((0, 0), 2)"),
        pytest.param(lambda rng: cons.gen_accommodating_counterexample((0, 3, 0), 2),
                     ValueError, "ascending", id="gen_accommodating_counterexample((0, 3, 0), 2)"),
        pytest.param(lambda rng: cons.gen_accommodating_counterexample((0, 0, 3), 2),
                     ValueError, "in [0, n]", id="gen_accommodating_counterexample((0, 0, 3), 2)"),
        pytest.param(lambda rng: cons.gen_accommodating_counterexample((), 0),
                     ValueError, "length 2n-1", id="gen_accommodating_counterexample((), 0)"),
    ])
    def test_bad_arguments_are_rejected_by_the_builder(self, make, error, message):
        # the constructors that caught these are skipped now
        with unchecked(), pytest.raises(error, match=re.escape(message) if message else None):
            for seed in range(20):
                make(random.Random(seed))


class TestPublicConstructorsKeepEveryCheck:
    @pytest.mark.parametrize("make, message", [
        (lambda: Graph(-1), "vertex count must be non-negative"),
        (lambda: Graph(3, frozenset({(1, 1)})), "loop at vertex 1"),
        (lambda: Graph(3, frozenset({(0, 3)})), "edge (0, 3) out of bounds"),
        (lambda: Graph(3, frozenset({(-1, 0)})), "edge (-1, 0) out of bounds"),
        (lambda: Graph(3, frozenset({("x", 0)})), "invalid literal for int()"),
        (lambda: LatinSquare(-1), "order must be non-negative"),
        (lambda: LatinSquare(2, ((0, 1),)), "cells must form an n x n grid"),
        (lambda: LatinSquare(2, ((0, 1), (1,))), "cells must form an n x n grid"),
        (lambda: LatinSquare(2, ((0, 1), (2, 0))), "symbol 2 out of range [0, 2)"),
        (lambda: LatinSquare(2, ((0, 1), (-1, 0))), "symbol -1 out of range [0, 2)"),
        (lambda: LatinSquare(1, (("x",),)), "invalid literal for int()"),
        (lambda: SimplicialComplex(()), "exactly the empty face"),
        (lambda: SimplicialComplex((((),), ((0, 1),))), "face (0, 1) stored at wrong dimension"),
        (lambda: SimplicialComplex((((),), ((0,), (1,)), ((1, 1),))),
         "face (1, 1) repeats a vertex"),
        (lambda: SimplicialComplex((((),), ((0,),), ((0, 1),))),
         "not closed downward at (0, 1)"),
        (lambda: SimplicialComplex((((),), (("x",),))), "invalid literal for int()"),
    ])
    def test_bad_input_is_rejected(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

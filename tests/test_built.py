"""Builders that make their objects without the constructor's check.

`latin_squares`, `row_latin_squares`, `independence_complex` and
`graph_from_masks` make objects through `structures._built`, which skips
`__post_init__`.  Each must give, field by field and type by type, what the
public constructor makes from the same fields; the public constructors keep
every check.
"""

import dataclasses
import random
import re

import pytest

from trimatch import constructions as cons
from trimatch.canonical import graph_classes
from trimatch.homology import SimplicialComplex, independence_complex
from trimatch.structures import Graph, LatinSquare, graph_from_masks


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

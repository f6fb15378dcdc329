import gc
import hashlib
import itertools
import math
import random
import time
import tracemalloc
from unittest import mock

import pytest

from trimatch import oracle, solver
from trimatch.canonical import (
    _refine, automorphism_generators, canonical_labelling, equitable_partition, graph_classes,
    orbit_mask, set_orbit_representatives)
from trimatch.constructions import cyclic_latin, gen_drisko_extremal, random_graph
from trimatch.game import line_graph, psi
from trimatch.structures import (
    BipartiteGraph, Graph, family_to_hypergraph, graph_from_masks, latin_to_hypergraph)
from trimatch.verifier import enumerate_graphs_up_to_iso


def relabelled(edges, perm):
    return [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]


def all_labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def brute_force_aut_order(n, edges):
    edge_set = set(edges)
    return sum(1 for perm in itertools.permutations(range(n))
               if all(e in edge_set for e in relabelled(edges, perm)))


def closure(n, generators):
    """The group, as a set of tuples, that `generators` generate on range(n)."""
    identity = tuple(range(n))
    group, stack = {identity}, [identity]
    while stack:
        g = stack.pop()
        for perm in generators:
            h = tuple(perm[g[v]] for v in range(n))
            if h not in group:
                group.add(h)
                stack.append(h)
    return group


def group_order(n, generators):
    return len(closure(n, generators))


def assert_same_partition(pairs):
    """(key, oracle key) pairs: each key class is exactly one oracle class."""
    by_key, by_oracle = {}, {}
    for key, ref in pairs:
        by_key.setdefault(key, set()).add(ref)
        by_oracle.setdefault(ref, set()).add(key)
    assert all(len(refs) == 1 for refs in by_key.values())
    assert all(len(keys) == 1 for keys in by_oracle.values())


def colouring(colours):
    """Ordered cells (bitmasks) of a vertex colouring, by increasing colour,
    and each vertex's cell index."""
    used = sorted(set(colours))
    cells = [sum(1 << v for v, c in enumerate(colours) if c == k) for k in used]
    return cells, [used.index(c) for c in colours]


def image(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def brute_force_coloured_aut_order(n, edges, colours):
    edge_set = set(edges)
    return sum(1 for perm in itertools.permutations(range(n))
               if all(colours[perm[v]] == colours[v] for v in range(n))
               and all(e in edge_set for e in relabelled(edges, perm)))


# strongly regular pairs and others that colour refinement cannot separate

def rook_graph():
    """K4 x K4: cells of a 4x4 board, joined when they share a row or column."""
    return [(u, v) for u, v in itertools.combinations(range(16), 2)
            if u // 4 == v // 4 or u % 4 == v % 4]


def shrikhande_graph():
    """Cayley graph of Z4 x Z4 with connection set {±(0,1), ±(1,0), ±(1,1)}."""
    edges = set()
    for a, b in itertools.product(range(4), repeat=2):
        for da, db in ((0, 1), (1, 0), (1, 1)):
            u, v = 4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return [(min(u, v), max(u, v)) for u, v in outer + spokes + inner]


HARD_PAIRS = {
    "C6 vs two triangles": (
        6, [(i, (i + 1) % 6) for i in range(5)] + [(0, 5)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "rook K4xK4 vs Shrikhande": (16, rook_graph(), shrikhande_graph()),
}


def twin_quotient(H):
    """(adj, cells) of the twin quotient of H, exactly as
    `solver._quotient_automorphisms` hands them to the group search."""
    seen = []

    def record(adj, cells, first=None):
        seen.append((adj, cells))
        return automorphism_generators(adj, cells, first)

    edges, classes, slot = solver._twin_classes(H)
    a, b, c = edges[0]
    with mock.patch.object(solver, "automorphism_generators", record):
        solver._quotient_automorphisms(edges, classes, slot, (slot[0][a], slot[1][b], slot[2][c]))
    return seen[0]


def random_inputs(seed, coloured):
    """Seeded (adj, cells) pairs on 6-40 vertices, cells None if uncoloured."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randrange(6, 41)
        adj = random_graph(n, rng, rng.choice((0.1, 0.3, 0.5, 0.8))).adj
        yield adj, colouring([rng.randrange(3) for _ in range(n)])[0] if coloured else None


def pinned_inputs(group):
    """The (adj, cells) pairs of one group of `TestPinnedLabellings`."""
    if group == "cyclic latin quotients":
        return [twin_quotient(latin_to_hypergraph(cyclic_latin(n))) for n in range(4, 13)]
    if group == "drisko quotients":
        return [twin_quotient(family_to_hypergraph(gen_drisko_extremal(n))) for n in range(4, 9)]
    if group == "symmetric":
        graphs = [(10, petersen_graph()), (16, list(itertools.combinations(range(16), 2))),
                  (16, [])]
        for name in sorted(HARD_PAIRS):
            n, left, right = HARD_PAIRS[name]
            graphs += [(n, left), (n, right)]
        return [(Graph(n, edges).adj, None) for n, edges in graphs]
    return list(random_inputs(81 if group == "random" else 82, group == "random coloured"))


class TestAgainstOracle:
    def test_every_labelled_graph_up_to_five_vertices(self, graph_key):
        for n in range(6):
            graphs = list(all_labelled_graphs(n))
            assert len(graphs) == 2 ** (n * (n - 1) // 2)  # 1024 at n = 5
            assert_same_partition(
                (graph_key(n, edges), oracle.canonical_key_oracle(n, edges))
                for edges in graphs)

    @pytest.mark.parametrize("n,samples", [(6, 60), (7, 25)])
    def test_seeded_sample(self, n, samples, graph_key):
        rng = random.Random(n)
        pairs = []
        for _ in range(samples):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            ref = oracle.canonical_key_oracle(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            pairs.append((graph_key(n, edges), ref))
            pairs.append((graph_key(n, relabelled(edges, perm)), ref))
        assert_same_partition(pairs)

    def test_oracle_is_limited_to_seven_vertices(self):
        with pytest.raises(ValueError, match="7 vertices"):
            oracle.canonical_key_oracle(8, [])


class TestLabelling:
    @pytest.mark.parametrize("name", sorted(HARD_PAIRS))
    def test_refinement_equivalent_pairs_differ(self, name, graph_key):
        n, left, right = HARD_PAIRS[name]
        rng = random.Random(20)
        for edges in (left, right):
            # both graphs are regular, so colour refinement alone sees one cell
            assert len({a.bit_count() for a in Graph(n, edges).adj}) == 1
        keys = []
        for edges in (left, right):
            key = graph_key(n, edges)
            for _ in range(20):
                perm = list(range(n))
                rng.shuffle(perm)
                assert graph_key(n, relabelled(edges, perm)) == key
            keys.append(key)
        assert keys[0] != keys[1]

    @pytest.mark.parametrize("n,edges", [
        (16, list(itertools.combinations(range(16), 2))),
        (16, []),
        (10, petersen_graph()),
    ], ids=["K16", "empty16", "petersen"])
    def test_symmetric_graphs_key_quickly(self, n, edges, graph_key):
        # automorphism pruning keeps these polynomial rather than n!
        start = time.process_time()
        key, _, generators = canonical_labelling(Graph(n, edges).adj)
        assert time.process_time() - start < 1.0
        assert generators
        assert graph_key(n, edges) == key

    def test_canonical_order_gives_one_graph_per_class(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 12)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            perm = list(range(n))
            rng.shuffle(perm)
            forms = []
            for version in (edges, relabelled(edges, perm)):
                _, order, _ = canonical_labelling(Graph(n, version).adj)
                assert sorted(order) == list(range(n))
                position = {v: i for i, v in enumerate(order)}
                forms.append(sorted(relabelled(version, position)))
            assert forms[0] == forms[1]

    def test_generators_generate_the_automorphism_group(self):
        for n in range(6):
            for G in enumerate_graphs_up_to_iso(n):
                edges = sorted(G.edges)
                _, _, generators = canonical_labelling(Graph(n, edges).adj)
                for perm in generators:
                    assert sorted(relabelled(edges, perm)) == edges
                assert group_order(n, generators) == brute_force_aut_order(n, edges)

    def test_labelling_leaves_no_garbage_for_the_collector(self):
        # with the collector off, a reference cycle per call would keep each
        # call's closures alive: 300 608 B over 200 calls when search held itself
        classes = [adj for adj in graph_classes(7) if len(adj) == 7][:200]
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for adj in classes:  # fills the interpreter's free lists first
                canonical_labelling(adj)
            before = tracemalloc.get_traced_memory()[0]
            for adj in classes:
                canonical_labelling(adj)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 1024


class TestColouredLabelling:
    """`canonical_labelling(adj, cells)` on vertex-coloured graphs."""

    def test_generators_keep_every_cell(self):
        rng = random.Random(61)
        for n in range(7):
            for G in enumerate_graphs_up_to_iso(n):
                edges = sorted(G.edges)
                for _ in range(3):
                    cells, colours = colouring([rng.randrange(3) for _ in range(n)])
                    _, order, generators = canonical_labelling(G.adj, cells)
                    assert sorted(order) == list(range(n))
                    for perm in generators:
                        assert sorted(relabelled(edges, perm)) == edges
                        assert [image(cell, perm) for cell in cells] == cells
                    if n <= 5:
                        assert group_order(n, generators) == \
                            brute_force_coloured_aut_order(n, edges, colours)

    def test_key_is_invariant_under_colour_preserving_relabelling(self):
        rng = random.Random(62)
        for _ in range(300):
            n = rng.randrange(1, 7)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            cells, _ = colouring([rng.randrange(3) for _ in range(n)])
            key = canonical_labelling(Graph(n, edges).adj, cells)[0]
            perm = list(range(n))
            rng.shuffle(perm)
            moved = [image(cell, perm) for cell in cells]
            assert canonical_labelling(Graph(n, relabelled(edges, perm)).adj, moved)[0] == key

    def test_keys_separate_colourings_like_the_oracle(self):
        pairs = []
        for n in range(5):
            for edges in all_labelled_graphs(n):
                for colours in itertools.product(range(2), repeat=n):
                    cells, index = colouring(colours)
                    pairs.append((canonical_labelling(Graph(n, edges).adj, cells)[0],
                                  oracle.canonical_key_oracle(n, edges, index)))
        rng = random.Random(63)
        for _ in range(200):
            edges = [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.5]
            cells, index = colouring([rng.randrange(3) for _ in range(6)])
            pairs.append((canonical_labelling(Graph(6, edges).adj, cells)[0],
                          oracle.canonical_key_oracle(6, edges, index)))
        assert_same_partition(pairs)

    def test_isomorphic_only_by_breaking_colours(self):
        # the path 0-1-2 with its centre coloured apart, and with an end
        adj = Graph(3, [(0, 1), (1, 2)]).adj
        centre = canonical_labelling(adj, [0b101, 0b010])[0]
        end = canonical_labelling(adj, [0b110, 0b001])[0]
        assert centre != end
        # the same sets of colours, listed in the other order
        assert canonical_labelling(adj, [0b010, 0b101])[0] != centre
        # a 4-cycle whose two colours alternate, and one whose colours are adjacent pairs
        square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).adj
        assert (canonical_labelling(square, [0b0101, 0b1010])[0]
                != canonical_labelling(square, [0b0011, 0b1100])[0])

    def test_without_cells_the_labelling_is_unchanged(self):
        # digest of (key, order, generators) of every labelled graph on up
        # to five vertices, recorded before `cells` existed
        digest = hashlib.sha256()
        for n in range(6):
            for edges in all_labelled_graphs(n):
                adj = Graph(n, edges).adj
                labelling = canonical_labelling(adj)
                digest.update(repr(labelling).encode())
                if n:
                    # one cell holding every vertex labels the same way
                    key, order, generators = canonical_labelling(adj, [(1 << n) - 1])
                    assert (key, order, generators) == (
                        (n, (n,), labelling[0][1]), labelling[1], labelling[2])
        assert digest.hexdigest() == \
            "10d3b4560dfe28bdda9fda55a619e9cf67850e05f68200b937811e0166f1be0b"


class TestPinnedLabellings:
    """SHA-256 of (key, order, generators) over inputs beyond five vertices,
    recorded before `_refine` learned to skip cells a splitter cannot touch:
    the refinement order, and so every key, order and generator list, must
    not move."""

    PINNED = {
        "cyclic latin quotients":
            "82cfefe56021e68b4ba4a9cb03ac2fe50196f013948b7f227a64bd31f1e3b65f",
        "drisko quotients":
            "ced47c2bc7e791dfe62fbf8ad05aaa4a355943202bc4ff05e921cc73dc8d22bf",
        "symmetric":
            "bc436b268e572e6f61d83b4c7a6809ca016154d6203f9692405fe0387da022d1",
        "random":
            "25f609aa0e705192c7ea13997963a037f64a78c1af9b5bc933b63efbd9a1c19b",
        "random coloured":
            "5348141f9e3f5543fb20de8c6a7656b6ff23bc52f7de54b25610197bb2f442b8",
    }

    @pytest.mark.parametrize("group", sorted(PINNED))
    def test_labelling_is_pinned(self, group):
        digest = hashlib.sha256()
        for adj, cells in pinned_inputs(group):
            key, order, generators = canonical_labelling(adj, cells)
            # the last entry of a key is the code, an int too long for repr
            digest.update(repr((key[:-1], hex(key[-1]), order, generators)).encode())
        assert digest.hexdigest() == self.PINNED[group]


def orbits(n, generators):
    return {orbit_mask(1 << v, generators) for v in range(n)}


class TestAutomorphismGenerators:
    """`automorphism_generators(adj, cells, first)`, the group search with
    no canonical form, against brute force and the labeller."""

    def test_group_and_stabiliser_match_the_oracle(self):
        rng = random.Random(83)
        singleton_firsts = 0
        for _ in range(400):
            n = rng.randrange(1, 8)
            adj = random_graph(n, rng, rng.choice((0.2, 0.5, 0.8))).adj
            cells = colouring([rng.randrange(rng.randrange(1, 4)) for _ in range(n)])[0]
            rng.shuffle(cells)
            first = rng.randrange(n)
            gens, stab = automorphism_generators(adj, cells, first)
            group = oracle.automorphism_group_oracle(adj, cells)
            assert closure(n, gens) == group
            assert closure(n, stab) == {perm for perm in group if perm[first] == first}
            singleton_firsts += _refine(adj, list(cells), list(cells)).count(1 << first)
        assert singleton_firsts >= 40

    def test_first_in_a_singleton_cell_keeps_every_generator(self):
        # a star whose centre is a cell of its own: the leaves still permute
        adj = Graph(5, [(0, v) for v in range(1, 5)]).adj
        gens, stab = automorphism_generators(adj, [0b00001, 0b11110], 0)
        assert len(closure(5, gens)) == 24
        assert stab == gens
        # in one cell the refinement splits the centre off by its degree
        gens, stab = automorphism_generators(adj, [0b11111], 0)
        assert len(closure(5, gens)) == 24
        assert stab == gens

    def test_without_first_it_finds_the_whole_group(self):
        for n in range(6):
            for G in enumerate_graphs_up_to_iso(n):
                edges = sorted(G.edges)
                gens, _ = automorphism_generators(Graph(n, edges).adj, [(1 << n) - 1] if n else [])
                for perm in gens:
                    assert sorted(relabelled(edges, perm)) == edges
                assert group_order(n, gens) == brute_force_aut_order(n, edges)

    @pytest.mark.parametrize("group", ["cyclic latin quotients", "drisko quotients"])
    def test_pinned_quotients_have_the_labellers_orbits(self, group):
        # node 0 is the triple of the quotient's first edge, as in the solver
        for adj, cells in pinned_inputs(group):
            n = len(adj)
            gens, stab = automorphism_generators(adj, cells, 0)
            for perm in gens:
                assert all(image(adj[v], perm) == adj[perm[v]] for v in range(n))
                assert all(image(cell, perm) == cell for cell in cells)
            assert orbits(n, gens) == orbits(n, canonical_labelling(adj, cells)[2])
            assert all(perm[0] == 0 for perm in stab)
            fixed = [1, cells[0] ^ 1] + cells[1:]
            assert orbits(n, stab) == orbits(n, canonical_labelling(adj, fixed)[2])

    def test_bad_cells_or_first_are_rejected(self):
        adj = Graph(3, [(0, 1)]).adj
        with pytest.raises(ValueError, match="ordered partition"):
            automorphism_generators(adj, [0b011, 0b110])
        for first in (-1, 3):
            with pytest.raises(ValueError, match="first must be a vertex"):
                automorphism_generators(adj, [0b111], first)

    def test_search_leaves_no_garbage_for_the_collector(self):
        classes = [adj for adj in graph_classes(7) if len(adj) == 7][:200]
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for adj in classes:
                automorphism_generators(adj, [0b1111111])
            before = tracemalloc.get_traced_memory()[0]
            for adj in classes:
                automorphism_generators(adj, [0b1111111])
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 1024


def as_sets(cells):
    """An ordered partition of bitmasks as a set of vertex sets."""
    return {frozenset(v for v in range(cell.bit_length()) if cell >> v & 1) for cell in cells}


def refinement_inputs():
    """Seeded graphs on 0-20 vertices, half of them coloured, the regular
    graphs of `HARD_PAIRS`, and the twin quotients of cyclic Latin squares
    with their cells: (adj, cells) pairs."""
    rng = random.Random(91)
    for _ in range(300):
        n = rng.randrange(21)
        adj = random_graph(n, rng, rng.choice((0.1, 0.2, 0.5, 0.8))).adj
        if rng.random() < 0.5:
            yield adj, colouring([rng.randrange(3) for _ in range(n)])[0]
        else:
            yield adj, [(1 << n) - 1] if n else []
    for n, *pair in HARD_PAIRS.values():
        for edges in pair:
            yield Graph(n, edges).adj, [(1 << n) - 1]
    for n in range(4, 13):
        yield twin_quotient(latin_to_hypergraph(cyclic_latin(n)))


class TestRefinement:
    """`equitable_partition` and `_refine` against the naive
    `oracle.equitable_refinement_oracle`, as unordered partitions: the
    coarsest equitable refinement is unique as a set partition."""

    def test_against_oracle(self):
        rng = random.Random(92)
        individualised = 0
        for adj, cells in refinement_inputs():
            n = len(adj)
            assert as_sets(equitable_partition(adj)) == \
                oracle.equitable_refinement_oracle(adj, [(1 << n) - 1] if n else [])
            refined = _refine(adj, list(cells), list(cells))
            assert as_sets(refined) == oracle.equitable_refinement_oracle(adj, cells)
            # individualise a vertex of the first non-singleton cell, as the
            # labelling search does, and queue only it
            t = next((t for t, cell in enumerate(refined) if cell & (cell - 1)), None)
            if t is None:
                continue
            b = 1 << rng.choice([v for v in range(n) if refined[t] >> v & 1])
            child = refined[:t] + [b, refined[t] ^ b] + refined[t + 1:]
            assert as_sets(_refine(adj, list(child), [b])) == \
                oracle.equitable_refinement_oracle(adj, child)
            individualised += 1
        assert individualised >= 100

    def test_empty_graph_has_no_cells(self):
        assert equitable_partition([]) == []
        assert canonical_labelling([]) == ((0, 0), [], [])
        assert canonical_labelling([], []) == ((0, (), 0), [], [])


class TestCellsValidation:
    """`cells` must be an ordered partition of the vertices into nonempty
    bitmasks; here on the path 0-1 plus an isolated vertex 2."""

    ADJ = Graph(3, [(0, 1)]).adj

    @pytest.mark.parametrize("cells", [
        [0, 0b111],  # an empty cell
        [0b011],  # vertex 2 in no cell
        [0b011, 0b110],  # vertex 1 in two cells
        [0b1111],  # a vertex that does not exist
    ], ids=["empty cell", "missing vertex", "overlap", "out of range"])
    def test_non_partition_is_rejected(self, cells):
        with pytest.raises(ValueError, match="ordered partition"):
            canonical_labelling(self.ADJ, cells)

    def test_empty_cell_in_empty_graph_is_rejected(self):
        with pytest.raises(ValueError, match="ordered partition"):
            canonical_labelling([], [0])

    def test_a_partition_is_accepted(self):
        # the isolated vertex first, then the edge, whose ends may swap
        key, order, generators = canonical_labelling(self.ADJ, [0b100, 0b011])
        assert key[:2] == (3, (1, 2))
        assert sorted(order) == [0, 1, 2]
        assert generators == [[1, 0, 2]]


class TestOrbits:
    def test_orbit_mask(self):
        generators = [[1, 2, 0, 3, 4], [0, 1, 2, 4, 3]]
        assert orbit_mask(0b00001, generators) == 0b00111
        assert orbit_mask(0b01000, generators) == 0b11000
        assert orbit_mask(0b00001, []) == 0b00001

    def test_set_orbit_representatives(self):
        rotation = [1, 2, 3, 0]
        reps = list(set_orbit_representatives(4, [rotation]))
        # subsets of a 4-cycle's vertices under rotation: 6 necklaces
        assert reps == [0b0000, 0b0001, 0b0011, 0b0101, 0b0111, 0b1111]
        assert list(set_orbit_representatives(3, [])) == list(range(8))


class TestEnumeration:
    """Class counts are checked in test_verifier.TestGraphEnumeration."""

    def test_orbit_stabilizer(self):
        # each class stands for n!/|Aut(G)| labelled graphs
        for n in range(7):
            labelled = sum(math.factorial(n) // brute_force_aut_order(n, sorted(G.edges))
                           for G in enumerate_graphs_up_to_iso(n))
            assert labelled == 2 ** (n * (n - 1) // 2)

    def test_classes_are_pairwise_non_isomorphic(self, graph_key):
        keys = [graph_key(G.n, G.edges) for G in map(graph_from_masks, graph_classes(6))]
        assert len(set(keys)) == len(keys)

    def test_calls_return_equal_lists(self):
        assert enumerate_graphs_up_to_iso(6) == enumerate_graphs_up_to_iso(6)
        assert list(map(graph_from_masks, graph_classes(5))) == \
            [G for n in range(6) for G in enumerate_graphs_up_to_iso(n)]

    # SHA-256 of repr(adj) over the stream at 8 vertices, recorded from the
    # list-of-levels generator this stream replaced: it pins the order too
    CLASSES_8 = (13599, "192829ab163e85b256344f7e92472bc78d4392546ec29c17ef6543fa9dddc2c4")

    def test_mask_sequence_is_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for adj in graph_classes(8):
            assert isinstance(adj, tuple) and all(isinstance(a, int) for a in adj)
            digest.update(repr(adj).encode())
            count += 1
        assert (count, digest.hexdigest()) == self.CLASSES_8

    def test_stream_holds_one_level(self):
        # the 1 253 classes on at most 7 vertices: the list of levels
        # peaked at 2.09 MB, the stream holds the 156 parents on 6
        stream = graph_classes(7)
        tracemalloc.start()
        try:
            count = sum(1 for _ in stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1253
        assert peak < 500_000

    def test_negative_size_yields_nothing(self):
        assert list(graph_classes(-1)) == []
        assert list(graph_classes(0)) == [()]
        assert enumerate_graphs_up_to_iso(-1) == []


class TestPsiMemoKeys:
    def test_relabelled_twelve_vertex_states_share_entries(self):
        # a 12-vertex line graph of a bipartite graph, as LEMMA_3_1 plays on
        host = BipartiteGraph(4, 4, frozenset(
            {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0),
             (0, 2), (1, 3), (2, 0), (3, 1)}))
        L = line_graph(host)
        assert L.n == 12
        memo = {}
        value = psi(L, memo=memo)
        size = len(memo)
        perm = list(range(12))
        random.Random(12).shuffle(perm)
        assert psi(type(L)(12, frozenset(relabelled(L.edges, perm))), memo=memo) == value
        assert len(memo) == size

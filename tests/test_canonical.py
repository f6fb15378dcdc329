import hashlib
import itertools
import math
import random
import time

import pytest

from trimatch import oracle
from trimatch.canonical import canonical_labelling, orbit_mask, set_orbit_representatives
from trimatch.game import line_graph, psi
from trimatch.structures import BipartiteGraph, Graph
from trimatch.verifier import enumerate_graphs_up_to_iso, graph_classes


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


def group_order(n, generators):
    identity = tuple(range(n))
    group, stack = {identity}, [identity]
    while stack:
        g = stack.pop()
        for perm in generators:
            h = tuple(perm[g[v]] for v in range(n))
            if h not in group:
                group.add(h)
                stack.append(h)
    return len(group)


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
        for level in graph_classes(6):
            keys = [graph_key(G.n, G.edges) for G in level]
            assert len(set(keys)) == len(keys)

    def test_calls_return_equal_lists(self):
        assert enumerate_graphs_up_to_iso(6) == enumerate_graphs_up_to_iso(6)
        assert graph_classes(5) == [enumerate_graphs_up_to_iso(n) for n in range(6)]


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

import functools
import hashlib
import itertools
from collections import Counter
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from trimatch import oracle, solver
from trimatch.constructions import (
    cyclic_latin,
    gen_drisko_extremal,
    gen_fracd_sharp,
    gen_p3_family,
    latin_squares,
    random_family,
    random_partition_system,
)
from trimatch.errors import BudgetExceededError
from trimatch.solver import (
    find_bounded_diagonal,
    find_independent_transversal,
    find_rainbow_matching,
    max_matching_size,
)
from trimatch.structures import (
    Graph,
    LatinSquare,
    MatchingFamily,
    PartitionedGraph,
    TriHypergraph,
    family_to_hypergraph,
    latin_to_hypergraph,
)


def random_hypergraph(rng, max_edges=12):
    sides = tuple(rng.randrange(1, 5) for _ in range(3))
    m = rng.randrange(0, max_edges + 1)
    edges = tuple(
        (rng.randrange(sides[0]), rng.randrange(sides[1]), rng.randrange(sides[2]))
        for _ in range(m)
    )
    return TriHypergraph(sides, edges)


def planted_twins(rng, side):
    """Random hypergraph where new vertices of `side` copy the link of old ones."""
    sides = [rng.randrange(1, 4) for _ in range(3)]
    edges = [tuple(rng.randrange(k) for k in sides) for _ in range(rng.randrange(1, 6))]
    copies = rng.randrange(1, 4)
    for c in range(copies):
        v = rng.choice(edges)[side]
        edges += [e[:side] + (sides[side] + c,) + e[side + 1:] for e in edges if e[side] == v]
    sides[side] += copies
    return TriHypergraph(tuple(sides), tuple(edges))


def repeated_rows_grid(rng):
    """Random n x n grid (not Latin) built from a pool of at most 2 rows."""
    n = rng.randrange(2, 5)
    pool = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randrange(1, 3))]
    return LatinSquare(n, tuple(rng.choice(pool) for _ in range(n)))


def repeated_members_family(rng):
    """Family whose members are drawn, with repeats, from a few matchings."""
    base = random_family([rng.randrange(0, 4) for _ in range(rng.randrange(1, 4))], rng)
    members = tuple(rng.choice(base.members) for _ in range(rng.randrange(2, 7)))
    return MatchingFamily(base.host, members)


def disjoint_copies(rng):
    """Two disjoint copies of a random hypergraph: cells of a random n x n
    grid, n = 2..3, each with a random symbol."""
    n = rng.randrange(2, 4)
    edges = [(r, c, rng.randrange(n)) for r in range(n) for c in range(n) if rng.random() < 0.8]
    edges += [(r + n, c + n, s + n) for r, c, s in edges]
    return TriHypergraph((2 * n, 2 * n, 2 * n), tuple(edges))


def rotation_orbits(rng):
    """A union of orbits of random triples under adding a random shift
    vector mod n, closed also under rotating the sides half of the time."""
    n = rng.randrange(2, 6)
    shift = rng.choice([d for d in itertools.product(range(2), repeat=3) if any(d)])
    turn_sides = rng.random() < 0.5
    edges = set()
    for _ in range(rng.randrange(1, 5)):
        a, b, c = (rng.randrange(n) for _ in range(3))
        orbit = {((a + i * shift[0]) % n, (b + i * shift[1]) % n, (c + i * shift[2]) % n)
                 for i in range(n)}
        if turn_sides:
            orbit |= {(y, z, x) for x, y, z in orbit} | {(z, x, y) for x, y, z in orbit}
        if len(edges | orbit) <= oracle.ORACLE_EDGE_LIMIT:
            edges |= orbit
    return TriHypergraph((n, n, n), tuple(edges))


def partial_latin(rng):
    """A cyclic or random Latin square of order 2..5, with random cells deleted."""
    n = rng.randrange(2, 6)
    L = cyclic_latin(n) if rng.random() < 0.7 else next(latin_squares(n, rng))
    cells = [(r, c, L.cells[r][c]) for r in range(n) for c in range(n)]
    lost = rng.randrange(max(0, n * n - oracle.ORACLE_EDGE_LIMIT), n * n // 2 + 1)
    return TriHypergraph((n, n, n), tuple(rng.sample(cells, n * n - lost)))


def drisko_subfamily(rng):
    """A Drisko family on C_2n, n = 2..5, with random members left out."""
    F = gen_drisko_extremal(rng.randrange(2, 6))
    members = tuple(m for m in F.members if rng.random() < 0.8)
    return MatchingFamily(F.host, members or F.members)


# (instances, total nodes, SHA-256 of the list of node counts) per stream,
# recorded before root orbits existed
UNPRUNED_STREAMS = {
    "random": (300, 1085, "7fefdd489edc2b9a90cc0fefe0798a13f31e900df8325015407136a3b8041fcf"),
    "twins0": (150, 516, "aa102cc32e2e05d2ef7c3b3900041343023bd8c4e5862a9d3176f93066b3bf58"),
    "twins1": (150, 540, "089cc90e4c919029a15c2a3002c53d7d97aec48e0a412730837b0e90c9c95221"),
    "twins2": (150, 510, "d1aef7a2cf2ff9902da69f47334070eae40a8586b91c164e7bcca648b0a6be9c"),
    "grids": (120, 686, "ca663d931c38ef791d130847a841ee264bd73ea9dec2e86594fc382821adbb62"),
    "families": (60, 212, "cbb57808e76e97f6d22a302271956ef61a9406212fb8429906ab68254dfe0e53"),
}


def seeded_stream(name):
    """Solver results on the seeded inputs of the oracle tests below."""
    if name == "random":
        rng = random.Random(12345)
        for _ in range(300):
            yield max_matching_size(random_hypergraph(rng))
    elif name.startswith("twins"):
        side = int(name[-1])
        rng = random.Random(500 + side)
        for _ in range(150):
            yield max_matching_size(planted_twins(rng, side))
    elif name == "grids":
        rng = random.Random(41)
        for _ in range(120):
            yield max_matching_size(latin_to_hypergraph(repeated_rows_grid(rng)))
    elif name == "families":
        rng = random.Random(99)
        for _ in range(60):
            sizes = [rng.randrange(0, 3) for _ in range(rng.randrange(1, 5))]
            yield find_rainbow_matching(random_family(sizes, rng))


def assert_every_target(solve, optimum, most=None):
    # a target search may stop at any value >= target, exactly when reachable
    top = optimum + 1 if most is None else min(optimum + 1, most)
    assert solve(None).optimum == optimum
    for target in range(top + 1):
        got = solve(target).optimum
        if target > optimum:
            assert got == optimum
        else:
            assert target <= got <= optimum


class TestMaxMatching:
    def test_empty(self):
        res = max_matching_size(TriHypergraph((2, 2, 2), ()))
        assert res.optimum == 0
        assert len(res.witness) == 0

    def test_cyclic_latin_3(self):
        res = max_matching_size(latin_to_hypergraph(cyclic_latin(3)))
        assert res.optimum == 3

    def test_fracd_sharp_n3(self):
        res = max_matching_size(gen_fracd_sharp(3))
        assert res.optimum == 2

    def test_witness_is_validated_matching(self):
        # order 5: the search finds its matching's edges out of sorted order
        H = latin_to_hypergraph(cyclic_latin(5))
        res = max_matching_size(H)
        # a sorted tuple of distinct, pairwise disjoint edge triples of H
        assert isinstance(res.witness, tuple)
        assert res.witness == tuple(sorted(set(res.witness)))
        assert len(res.witness) == res.optimum == 5
        assert set(res.witness) <= set(H.edges)
        assert all(len(set(side)) == 5 for side in zip(*res.witness))

    def test_budget_exceeded_is_distinct(self):
        H = latin_to_hypergraph(cyclic_latin(4))
        with pytest.raises(BudgetExceededError):
            max_matching_size(H, node_budget=3)

    def test_deterministic_node_counts(self):
        H = latin_to_hypergraph(cyclic_latin(4))
        a = max_matching_size(H)
        b = max_matching_size(H)
        assert a.nodes_explored == b.nodes_explored
        F = gen_drisko_extremal(6)  # two C-side twin classes of 5 members
        a = find_rainbow_matching(F, target=6)
        b = find_rainbow_matching(F, target=6)
        assert (a.optimum, a.witness, a.nodes_explored) == (b.optimum, b.witness, b.nodes_explored)

    def test_cyclic_latin_tree_is_unchanged(self):
        # no twins, and even orders miss n: the root searches one child per
        # orbit of the square's symmetries, the child of its first use-child
        # one per orbit of their stabiliser of that edge, and below them the
        # tree is the plain most-constrained-vertex tree
        for n, nodes in ((4, 7), (6, 22), (8, 145), (10, 1555), (12, 38659)):
            res = max_matching_size(latin_to_hypergraph(cyclic_latin(n)))
            assert (res.optimum, res.nodes_explored) == (n - 1, nodes)

    def test_unpruned_roots_keep_their_trees(self):
        # Node counts recorded before root orbits existed.  Odd cyclic
        # squares have a transversal, found in the first root child; in
        # these seeded streams no two root children searched are related by
        # a symmetry, so every tree is searched as before.
        for n, nodes in ((5, 17), (7, 27), (9, 39)):
            res = max_matching_size(latin_to_hypergraph(cyclic_latin(n)))
            assert (res.optimum, res.nodes_explored) == (n, nodes)
        for name, (size, total, digest) in UNPRUNED_STREAMS.items():
            counts = [res.nodes_explored for res in seeded_stream(name)]
            assert (len(counts), sum(counts)) == (size, total)
            assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest

    def test_oracle_equivalence_random(self):
        rng = random.Random(12345)
        for _ in range(300):
            H = random_hypergraph(rng)
            assert max_matching_size(H).optimum == oracle.matching_number_oracle(H)


class TestRainbow:
    def test_drisko_extremal_n3_infeasible(self):
        F = gen_drisko_extremal(3)
        res = find_rainbow_matching(F, target=3)
        assert res.optimum == 2

    def test_random_full_families_feasible(self):
        rng = random.Random(7)
        for _ in range(30):
            F = random_family([3] * 5, rng)
            res = find_rainbow_matching(F, target=3)
            assert res.optimum >= 3

    def test_p3_family_unconstrained_optimum(self):
        res = find_rainbow_matching(gen_p3_family(2))
        assert res.optimum == 3

    def test_target_beyond_members_rejected(self):
        F = gen_drisko_extremal(2)
        with pytest.raises(ValueError):
            find_rainbow_matching(F, target=3)

    def test_witness_edges_come_from_their_members(self):
        F = gen_p3_family(2)
        res = find_rainbow_matching(F)
        for i, edge in res.witness:
            assert edge in F.members[i].edges

    def test_matches_family_hypergraph_optimum(self):
        rng = random.Random(99)
        for _ in range(60):
            sizes = [rng.randrange(0, 3) for _ in range(rng.randrange(1, 5))]
            F = random_family(sizes, rng)
            if sum(sizes) > 10:
                continue
            via_hyper = max_matching_size(family_to_hypergraph(F)).optimum
            assert find_rainbow_matching(F).optimum == via_hyper
            assert via_hyper == oracle.rainbow_oracle(F)


class TestTwinClasses:
    @pytest.mark.parametrize("side", [0, 1, 2])
    def test_planted_duplicate_links_match_oracle(self, side):
        rng = random.Random(500 + side)
        for _ in range(150):
            H = planted_twins(rng, side)
            optimum = oracle.matching_number_oracle(H)
            assert_every_target(lambda t: max_matching_size(H, target=t), optimum)

    def test_grids_with_repeated_rows_match_oracle(self):
        rng = random.Random(41)
        for _ in range(120):
            H = latin_to_hypergraph(repeated_rows_grid(rng))
            optimum = oracle.matching_number_oracle(H)
            assert_every_target(lambda t: max_matching_size(H, target=t), optimum)

    def test_repeated_members_match_rainbow_oracle(self):
        rng = random.Random(43)
        for _ in range(200):
            F = repeated_members_family(rng)
            optimum = oracle.rainbow_oracle(F)
            assert_every_target(lambda t: find_rainbow_matching(F, target=t), optimum,
                                most=len(F.members))

    def test_identical_members_give_distinct_witness_indices(self):
        F = gen_p3_family(2)
        member = max(F.members, key=len)
        k = len(member)
        G = MatchingFamily(F.host, (member,) * (k + 2))
        res = find_rainbow_matching(G)
        assert res.optimum == k
        indices = [i for i, _ in res.witness]
        assert len(set(indices)) == len(indices) == k
        assert sorted(edge for _, edge in res.witness) == sorted(member.edges)

    def test_tree_does_not_grow_with_repeats(self):
        # once every member repeats at least host.left_size times, the C-side
        # count never binds the bound and no class runs out: the tree is fixed
        rng = random.Random(47)
        for _ in range(60):
            base = random_family([rng.randrange(1, 4) for _ in range(rng.randrange(2, 5))], rng)
            k = max(base.host.left_size, 1)
            counts = set()
            for repeats in (k, k + 2, k + 5):
                members = tuple(m for m in base.members for _ in range(repeats))
                res = find_rainbow_matching(MatchingFamily(base.host, members))
                counts.add(res.nodes_explored)
            assert len(counts) == 1

    def test_drisko_extremal_scales_linearly(self):
        for n in range(2, 13):
            res = find_rainbow_matching(gen_drisko_extremal(n), target=n)
            assert res.optimum == n - 1
            assert res.nodes_explored <= 8 * n


class TestRootOrbits:
    """Inputs with planted symmetry, where the root searches one child per
    orbit of the twin quotient's automorphisms, and the child of its first
    use-child one per orbit of their stabiliser of that edge, against the
    oracles."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = solver.automorphism_generators

        def counted(adj, cells, first=None):
            calls.append(len(adj))
            return search(adj, cells, first)

        monkeypatch.setattr(solver, "automorphism_generators", counted)
        return calls

    @pytest.mark.parametrize("make,seed", [
        (disjoint_copies, 71), (rotation_orbits, 72), (partial_latin, 73)])
    def test_planted_symmetry_matches_oracle(self, make, seed, searches):
        rng = random.Random(seed)
        for _ in range(400):
            H = make(rng)
            optimum = oracle.matching_number_oracle(H)
            assert_every_target(lambda t: max_matching_size(H, target=t), optimum)
        assert len(searches) >= 40  # the orbit path really runs

    def test_drisko_subfamilies_match_rainbow_oracle(self, searches):
        rng = random.Random(74)
        for _ in range(300):
            F = drisko_subfamily(rng)
            optimum = oracle.rainbow_oracle(F)
            assert_every_target(lambda t: find_rainbow_matching(F, target=t), optimum,
                                most=len(F.members))
        assert len(searches) >= 40

    def test_drisko_root_children_are_skipped(self, searches):
        # one twin class of even members and one of odd members, swapped by
        # a rotation of C_16: 28 nodes before root orbits, one search now
        res = find_rainbow_matching(gen_drisko_extremal(8), target=8)
        assert (res.optimum, res.nodes_explored) == (7, 15)
        assert len(searches) == 1

    def test_first_level_prunes_by_the_stabiliser_of_e0(self, searches):
        # the triples of Z_3^3 off the plane a + b + c = 0: pruning the
        # child of `use e0` by the whole group, not by the stabiliser of
        # e0, skips the only children that reach a perfect matching
        H = TriHypergraph((3, 3, 3), tuple(
            e for e in itertools.product(range(3), repeat=3) if sum(e) % 3))
        assert_every_target(lambda t: max_matching_size(H, target=t), 3)
        searches.clear()
        assert max_matching_size(H).nodes_explored == 8
        assert len(searches) == 1

    @pytest.mark.parametrize("make,seed,shrunk", [
        (disjoint_copies, 71, 10), (partial_latin, 73, 11)])
    def test_first_level_orbits_run_on_planted_inputs(self, make, seed, shrunk):
        # the same search with a trivial stabiliser never skips below the
        # root: each tree it makes larger skipped a child of `use e0`
        quotient = solver._quotient_automorphisms

        def without_stabiliser(*args):
            node, gens, _ = quotient(*args)
            return node, gens, []

        rng = random.Random(seed)
        larger = 0
        for _ in range(400):
            H = make(rng)
            nodes = max_matching_size(H).nodes_explored
            with mock.patch.object(solver, "_quotient_automorphisms", without_stabiliser):
                plain = max_matching_size(H).nodes_explored
            assert nodes <= plain
            larger += nodes < plain
        assert larger == shrunk


class TestDiagonal:
    def test_cyclic_4_bound_1_infeasible(self):
        L = cyclic_latin(4)
        res = find_bounded_diagonal(L, 1)
        assert res.optimum == 3  # best partial transversal of Z_4
        # a partial witness is its row-sorted cells too
        assert isinstance(res.witness, tuple) and len(res.witness) == 3
        assert list(res.witness) == sorted(res.witness)
        assert len({c for _, c in res.witness}) == len({L.cells[r][c] for r, c in res.witness}) == 3

    def test_cyclic_4_bound_2_feasible(self):
        L = cyclic_latin(4)
        res = find_bounded_diagonal(L, 2)
        assert res.optimum == 4
        # a full diagonal is its row-sorted cells; its columns are a permutation
        assert [row for row, _ in res.witness] == [0, 1, 2, 3]
        assert sorted(col for _, col in res.witness) == [0, 1, 2, 3]
        assert max(Counter(L.cells[r][c] for r, c in res.witness).values()) <= 2

    def test_bound_n_always_feasible(self):
        for n in (1, 2, 3, 4):
            L = cyclic_latin(n)
            assert find_bounded_diagonal(L, n).optimum == n

    def test_oracle_agreement(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(1, 5)
            cells = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            L = LatinSquare(n, cells)
            for bound in (1, 2):
                assert find_bounded_diagonal(L, bound).optimum == oracle.diagonal_oracle(L, bound)

    def test_bound_below_1_rejected(self):
        with pytest.raises(ValueError):
            find_bounded_diagonal(cyclic_latin(2), 0)


class TestTransversal:
    def test_edgeless_graph_full_transversal(self):
        P = PartitionedGraph(Graph(4), (frozenset({0}), frozenset({1, 2}), frozenset({3})))
        res = find_independent_transversal(P)
        assert res.optimum == 3

    def test_two_adjacent_singletons(self):
        P = PartitionedGraph(
            Graph(2, frozenset({(0, 1)})), (frozenset({0}), frozenset({1}))
        )
        res = find_independent_transversal(P)
        assert res.optimum == 1

    @pytest.mark.parametrize("side", [0, 1])
    def test_consistency_with_rainbow_on_drisko(self, side):
        # conflict graph of the member-indexed hypergraph, hyperedges
        # partitioned by one host side; max covered parts = rainbow optimum
        F = gen_drisko_extremal(3)
        H = family_to_hypergraph(F)
        edges = H.support()
        n = len(edges)
        conflicts = set()
        for i in range(n):
            for j in range(i + 1, n):
                if any(edges[i][s] == edges[j][s] for s in range(3)):
                    conflicts.add((i, j))
        parts = {}
        for i, e in enumerate(edges):
            parts.setdefault(e[side], set()).add(i)
        P = PartitionedGraph(
            Graph(n, frozenset(conflicts)),
            tuple(frozenset(v) for _, v in sorted(parts.items())),
        )
        res = find_independent_transversal(P)
        assert res.optimum == find_rainbow_matching(F).optimum
        assert res.optimum == oracle.transversal_oracle(P)

    def test_oracle_agreement_random(self):
        from trimatch.constructions import random_partition_system

        rng = random.Random(21)
        for _ in range(60):
            P = random_partition_system(rng)
            assert find_independent_transversal(P).optimum == oracle.transversal_oracle(P)

    def test_oracle_agreement_on_every_small_graph_and_pair_of_parts(self):
        # all labelled graphs on <= 4 vertices; the parts range over every
        # ordered pair of vertex sets, so they may be empty, equal or overlap
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            subsets = [frozenset(s) for k in range(n + 1)
                       for s in itertools.combinations(range(n), k)]
            for mask in range(1 << len(pairs)):
                G = Graph(n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
                for parts in itertools.product(subsets, repeat=2):
                    P = PartitionedGraph(G, parts)
                    assert find_independent_transversal(P).optimum == oracle.transversal_oracle(P)

    def test_oracle_agreement_up_to_12_vertices(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randrange(0, 13)
            p = rng.random()
            G = Graph(n, frozenset(e for e in itertools.combinations(range(n), 2)
                                   if rng.random() < p))
            parts = tuple(frozenset(v for v in range(n) if rng.random() < 0.3)
                          for _ in range(rng.randrange(0, 7)))
            P = PartitionedGraph(G, parts)
            assert find_independent_transversal(P).optimum == oracle.transversal_oracle(P)

    def test_vertices_in_no_part_add_no_nodes(self):
        # each system gains four vertices in no part, joined to one another
        # and to its own vertices; the search never branches on them
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randrange(1, 9)
            edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3}
            parts = tuple(frozenset(v for v in range(n) if rng.random() < 0.4)
                          for _ in range(rng.randrange(1, 5)))
            extra = {e for e in itertools.combinations(range(n + 4), 2)
                     if e[1] >= n and rng.random() < 0.5}
            small = find_independent_transversal(PartitionedGraph(Graph(n, frozenset(edges)),
                                                                  parts))
            large = find_independent_transversal(
                PartitionedGraph(Graph(n + 4, frozenset(edges | extra)), parts))
            assert large.optimum == small.optimum
            assert large.nodes_explored == small.nodes_explored

    def test_perfect_matching_on_60_vertices_within_100_nodes(self):
        # 2**30 maximal independent sets; the parts touch only four vertices
        G = Graph(60, frozenset((2 * i, 2 * i + 1) for i in range(30)))
        P = PartitionedGraph(G, (frozenset({0}), frozenset({1}), frozenset({2, 4}),
                                 frozenset({3})))
        assert find_independent_transversal(P, node_budget=100).optimum == 3

    def test_deficiency_bounds_checked(self):
        P = PartitionedGraph(Graph(1), (frozenset({0}),))
        with pytest.raises(ValueError):
            find_independent_transversal(P, deficiency=2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_nu_matches_subset_enumeration(seed):
    rng = random.Random(seed)
    H = random_hypergraph(rng, max_edges=10)
    assert max_matching_size(H).optimum == oracle.matching_number_oracle(H)


class TestSearchesLeaveNoGarbage:
    """Each recursive search unbinds itself when its call ends, by a return
    or by BudgetExceededError, so no call leaves a reference cycle; when
    the searches held themselves, each call left at least its function, its
    closure cells and their tuple to the collector."""

    def test_matching_search(self, left_to_collector):
        rng = random.Random(2901)
        # order 6 reaches the orbit tests of both pruned levels (`new_child`)
        latin = latin_to_hypergraph(cyclic_latin(6))
        calls = [functools.partial(max_matching_size, random_hypergraph(rng)) for _ in range(100)]
        calls += [functools.partial(max_matching_size, latin),
                  functools.partial(max_matching_size, latin, node_budget=5)]
        assert left_to_collector(calls) == 0

    def test_rainbow_search(self, left_to_collector):
        families = [gen_drisko_extremal(n) for n in (2, 3, 4, 5)]
        calls = [functools.partial(find_rainbow_matching, F) for F in families]
        calls.append(functools.partial(find_rainbow_matching, families[-1], node_budget=3))
        assert left_to_collector(calls) == 0

    def test_diagonal_search(self, left_to_collector):
        calls = [functools.partial(find_bounded_diagonal, cyclic_latin(n), bound)
                 for n in range(1, 7) for bound in (1, 2)]
        calls.append(functools.partial(find_bounded_diagonal, cyclic_latin(8), 1, node_budget=50))
        assert left_to_collector(calls) == 0

    def test_transversal_search(self, left_to_collector):
        rng = random.Random(2902)
        systems = [random_partition_system(rng) for _ in range(100)]
        calls = [functools.partial(find_independent_transversal, P) for P in systems]
        calls.append(functools.partial(find_independent_transversal, systems[0], node_budget=1))
        assert left_to_collector(calls) == 0

    @pytest.mark.parametrize("name", ["matching", "rainbow", "psi", "diagonal"])
    def test_oracle(self, left_to_collector, name):
        rng = random.Random(2903)
        inputs = {
            "matching": [(random_hypergraph(rng, max_edges=8),) for _ in range(40)],
            "rainbow": [(random_family([2, 2, 3], rng),) for _ in range(40)],
            "psi": [(Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})),), (Graph(3),)],
            "diagonal": [(cyclic_latin(n), 1) for n in range(1, 5)],
        }[name]
        search = {"matching": oracle.matching_number_oracle, "rainbow": oracle.rainbow_oracle,
                  "psi": oracle.psi_oracle, "diagonal": oracle.diagonal_oracle}[name]
        assert left_to_collector([functools.partial(search, *args) for args in inputs]) == 0


class TestWitnessValidators:
    """Each validator checks the plain witness tuple its solver returns and
    rejects a broken one with an AssertionError; each solver runs its own
    validator once, on the very tuple it returns."""

    @pytest.mark.parametrize("edges", [
        [(0, 0, 0), (0, 2, 1)],  # two edges on symbol 0
        [(0, 0, 0), (0, 0, 0)],  # one edge used twice
    ])
    def test_hyper_matching_that_shares_a_vertex(self, edges):
        with pytest.raises(AssertionError, match="share a vertex"):
            solver._validate_hyper_matching(latin_to_hypergraph(cyclic_latin(3)), edges, 2)

    @pytest.mark.parametrize("witness", [
        [(0, (0, 0)), (1, (0, 0))],  # one host edge for two members
        [(0, (0, 0)), (2, (1, 0))],  # two edges on right vertex 0
    ])
    def test_rainbow_that_shares_a_vertex(self, witness):
        with pytest.raises(AssertionError, match="share a vertex"):
            solver._validate_rainbow(gen_drisko_extremal(3), witness, 2)

    def test_diagonal_that_repeats_a_column(self):
        with pytest.raises(AssertionError, match="repeats a row or column"):
            solver._validate_diagonal(cyclic_latin(3), [(0, 0), (1, 0)], 2, 2)

    def test_transversal_that_is_not_independent(self):
        P = PartitionedGraph(Graph(2, frozenset({(0, 1)})), (frozenset({0}), frozenset({1})))
        with pytest.raises(AssertionError, match="not independent"):
            solver._validate_transversal(P, (0, 1), 2)

    @pytest.mark.parametrize("validator, solve, returned", [
        ("_validate_hyper_matching",
         lambda: max_matching_size(latin_to_hypergraph(cyclic_latin(4))), True),
        ("_validate_rainbow", lambda: find_rainbow_matching(gen_drisko_extremal(3)), True),
        # the rainbow witness is read off the matching number's own witness
        ("_validate_hyper_matching",
         lambda: find_rainbow_matching(gen_drisko_extremal(3)), False),
        ("_validate_diagonal", lambda: find_bounded_diagonal(cyclic_latin(4), 2), True),
        ("_validate_diagonal", lambda: find_bounded_diagonal(cyclic_latin(4), 1), True),
        ("_validate_transversal", lambda: find_independent_transversal(
            PartitionedGraph(Graph(3, frozenset({(0, 1)})),
                             (frozenset({0}), frozenset({1, 2})))), True),
    ], ids=["nu", "rainbow", "rainbow-nu", "diagonal-full", "diagonal-partial", "transversal"])
    def test_each_witness_is_validated_once(self, validator, solve, returned, monkeypatch):
        seen = []
        real = getattr(solver, validator)

        def counting(instance, witness, *rest):
            seen.append(witness)
            return real(instance, witness, *rest)

        monkeypatch.setattr(solver, validator, counting)
        res = solve()
        (witness,) = seen
        assert isinstance(witness, tuple)
        assert (witness is res.witness) == returned

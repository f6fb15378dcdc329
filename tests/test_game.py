import hashlib
import random

import pytest

from trimatch import game, oracle
from trimatch.canonical import graph_classes
from trimatch.constructions import random_graph, random_lemma31_graph
from trimatch.errors import BudgetExceededError
from trimatch.game import line_graph, psi, psi_at_least, psi_line
from trimatch.structures import BipartiteGraph, Graph, INFINITY, graph_from_masks
from trimatch.verifier import PSI_ORACLE_EDGE_LIMIT, enumerate_graphs_up_to_iso

CAPS = (0, 1, 2, 3, INFINITY)


def path(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def delete_by_definition(G, e):
    """G - e: the same vertices, without edge e."""
    return Graph(G.n, G.edges - {e})


def explode_by_definition(G, e):
    """G * e: remove both ends of e and all their neighbours, then number the
    surviving vertices 0..k-1 in their old order."""
    gone = set(e) | {x for f in G.edges if set(e) & set(f) for x in f}
    index = {v: i for i, v in enumerate(v for v in range(G.n) if v not in gone)}
    return Graph(len(index), frozenset(
        (index[u], index[v]) for u, v in G.edges if u in index and v in index))


class TestPsi:
    def test_empty_graph(self):
        assert psi(Graph(0)) == 0

    def test_single_vertex_is_infinite(self):
        assert psi(Graph(1)) == INFINITY

    def test_k2_and_short_path(self):
        assert psi(path(2)) == 1
        assert psi(path(3)) == 1

    def test_path_with_three_edges_is_infinite(self):
        # an end edge either isolates the endpoint or strands the far end
        assert psi(path(4)) == INFINITY

    def test_cycles(self):
        assert psi(cycle(4)) == 1
        assert psi(cycle(6)) == 2

    def test_matches_unmemoized_recursion_small(self):
        for n in range(0, 5):
            for G in enumerate_graphs_up_to_iso(n):
                assert psi(G) == oracle.psi_oracle(G)

    def test_minimax_consistency_replay(self):
        # psi equals the best over single moves of min(delete, explode + 1)
        memo = {}
        for n in range(2, 7):
            for G in enumerate_graphs_up_to_iso(n):
                if not G.edges:
                    continue
                replay = max(
                    min(psi(delete_by_definition(G, e), memo=memo),
                        psi(explode_by_definition(G, e), memo=memo) + 1)
                    for e in G.edges
                )
                degs = G.degrees()
                expected = INFINITY if 0 in degs else replay
                assert psi(G, memo=memo) == expected

    def test_isomorphism_invariance(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randrange(2, 8)
            edges = frozenset(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            )
            G = Graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            H = Graph(n, frozenset((perm[u], perm[v]) for u, v in edges))
            assert psi(G) == psi(H)

    def test_component_additivity(self):
        left = cycle(4)
        shifted = frozenset((u + 4, v + 4) for u, v in cycle(6).edges)
        both = Graph(10, left.edges | shifted)
        assert psi(both) == psi(left) + psi(cycle(6))

    def test_shared_memo_gives_same_values(self):
        memo = {}
        vals = [psi(cycle(6), memo=memo), psi(cycle(4), memo=memo), psi(path(3), memo=memo)]
        assert vals == [psi(cycle(6)), psi(cycle(4)), psi(path(3))]

    def test_memo_cap_reported(self, monkeypatch):
        monkeypatch.setattr(game, "MEMO_LIMIT", 2)
        with pytest.raises(BudgetExceededError):
            psi(cycle(8))

    def test_labelled_key_cache_is_emptied_at_the_budget(self, monkeypatch):
        alone = {}
        assert psi(cycle(8), memo=alone) == 3
        real = game.canonical_graph_key
        calls = []
        monkeypatch.setattr(game, "canonical_graph_key", lambda *a: calls.append(a) or real(*a))
        psi(cycle(8))
        roomy = len(calls)
        calls.clear()
        # the cache outgrows a budget the memo entries fit in: it starts over
        monkeypatch.setattr(game, "MEMO_LIMIT", len(alone))
        assert psi(cycle(8)) == 3
        assert len(calls) > roomy

    def test_budget_counts_only_the_entries_a_call_adds(self, monkeypatch):
        alone = {}
        assert psi(cycle(6), memo=alone) == 2
        shared = {}
        psi(Graph(7, frozenset((u, v) for u in range(7) for v in range(u + 1, 7))), memo=shared)
        psi(path(8), memo=shared)
        assert len(shared) > len(alone)
        # a table already larger than the limit does not fail the call
        monkeypatch.setattr(game, "MEMO_LIMIT", len(alone))
        assert psi(cycle(6), memo=shared) == 2
        monkeypatch.setattr(game, "MEMO_LIMIT", len(alone) - 1)
        with pytest.raises(BudgetExceededError):
            psi(cycle(6))


class TestStateFormat:
    """Small states at every cap, and the search pinned entry by entry."""

    # One shared table filled by the run below, and the canonical_graph_key
    # calls it makes, as recorded when cap-2 states were first answered by
    # the deletion closure instead of a keyed search.  A change to the edge
    # order, the component order, the caps, the cap-2 rule or the
    # labelled-key cache moves one of the three.
    PINNED = (405, 1336, "0f712e0e4dedd572b51d6a3cdb12b108a60615d7f968df26ffcc40b99d8f194b")

    def test_shared_table_and_key_calls_are_pinned(self, monkeypatch):
        real = game.canonical_graph_key
        calls = []
        monkeypatch.setattr(game, "canonical_graph_key", lambda *a: calls.append(a) or real(*a))
        table = {}
        for adj in graph_classes(6):
            psi(graph_from_masks(adj), memo=table)
        rng = random.Random(7)
        for _ in range(20):
            psi(random_graph(7, rng), memo=table)
        rng = random.Random(31)
        for _ in range(10):
            L = line_graph(random_lemma31_graph(rng.choice((2, 3)), rng))
            psi_at_least(L, 2, memo=table)
            psi_at_least(L, 3, memo=table)
        digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
        assert (len(table), len(calls), digest) == self.PINNED

    def test_small_states(self):
        path3 = path(3)
        isolated = Graph(3, {(0, 1)})
        empty = Graph(0)
        for k in CAPS:
            assert psi(path3, cap=k) == min(1, k)
            assert psi(isolated, cap=k) == k
            assert psi(empty, cap=k) == 0
            assert psi_at_least(empty, k) == (k <= 0)
        assert psi(isolated) == INFINITY


class TestPsiAtLeast:
    def test_agrees_with_value_exhaustively(self):
        for n in range(0, 6):
            for G in enumerate_graphs_up_to_iso(n):
                v = psi(G)
                for k in range(0, 5):
                    assert psi_at_least(G, k) == (v >= k)

    def test_infinite_cases(self):
        assert psi_at_least(Graph(1), 10)
        assert psi_at_least(path(4), 7)

    def test_budget_counts_only_the_entries_a_call_adds(self, monkeypatch):
        alone = {}
        assert psi_at_least(cycle(9), 3, memo=alone)
        shared = {}
        for n in range(4, 9):
            psi_at_least(cycle(n), 3, memo=shared)
        assert len(shared) > len(alone)
        monkeypatch.setattr(game, "MEMO_LIMIT", len(alone))
        assert psi_at_least(cycle(9), 3, memo=shared)
        monkeypatch.setattr(game, "MEMO_LIMIT", len(alone) - 1)
        with pytest.raises(BudgetExceededError):
            psi_at_least(cycle(9), 3)


class TestCappedPsi:
    """psi(G, cap=k) is min(psi(G), k), and its table may serve any cap."""

    @staticmethod
    def oracle_graphs():
        small = [G for n in range(7) for G in enumerate_graphs_up_to_iso(n)
                 if len(G.edges) <= PSI_ORACLE_EDGE_LIMIT]
        rng = random.Random(11)
        drawn = []
        while len(drawn) < 30:
            G = random_graph(rng.randrange(6, 10), rng, p=0.3)
            if len(G.edges) <= PSI_ORACLE_EDGE_LIMIT:
                drawn.append(G)
        return small + drawn

    def test_matches_oracle_at_every_cap(self):
        for G in self.oracle_graphs():
            value = oracle.psi_oracle(G)
            for k in CAPS:
                assert psi(G, cap=k) == min(value, k), (G, k)

    def test_matches_full_value_beyond_the_oracle(self):
        for n in range(7):
            for G in enumerate_graphs_up_to_iso(n):
                value = psi(G)
                for k in CAPS:
                    assert psi(G, cap=k) == min(value, k), (G, k)

    def test_shared_memo_thresholds_then_values(self):
        # thresholds first leave lower bounds in the table; a later full
        # value must search on from them, never read them as exact
        graphs = [G for n in range(2, 7) for G in enumerate_graphs_up_to_iso(n)]
        graphs += [cycle(n) for n in range(8, 12)] + [path(9)]
        fresh = [psi(G) for G in graphs]
        shared = {}
        for k in (1, 2, 3):
            for G, value in zip(graphs, fresh):
                assert psi_at_least(G, k, memo=shared) == (value >= k), (G, k)
        assert any(not exact for _, exact in shared.values())
        for G, value in zip(graphs, fresh):
            assert psi(G, cap=2, memo=shared) == min(value, 2)
            assert psi(G, memo=shared) == value, G

    def test_cap_one_needs_no_table_entry(self):
        memo = {}
        for G in (cycle(9), path(4), Graph(10, cycle(6).edges)):
            for k in (0, 1):
                assert psi(G, cap=k, memo=memo) == k
                assert psi_at_least(G, k, memo=memo)
        assert memo == {}


class TestCapTwoClosure:
    """psi >= 2 by the deletion closure, which needs no key and no entry."""

    def test_matches_oracle_on_small_classes(self):
        checked = 0
        for adj in graph_classes(7):
            G = graph_from_masks(adj)
            if len(G.edges) <= PSI_ORACLE_EDGE_LIMIT:
                assert psi(G, cap=2) == min(oracle.psi_oracle(G), 2), adj
                checked += 1
        assert checked == 396

    def test_matches_the_search_at_cap_3(self):
        for adj in graph_classes(7):
            G = graph_from_masks(adj)
            assert psi(G, cap=2) == min(psi(G, cap=3), 2), adj

    def test_cap_two_makes_no_key_call_and_no_entry(self, monkeypatch):
        calls = []
        monkeypatch.setattr(game, "canonical_graph_key", lambda *a: calls.append(a))
        rng = random.Random(5)
        graphs = [cycle(n) for n in range(3, 12)] + [path(n) for n in range(2, 9)]
        graphs += [random_graph(rng.randrange(2, 12), rng) for _ in range(40)]
        graphs += [line_graph(random_lemma31_graph(3, rng)) for _ in range(5)]
        memo = {}
        for G in graphs:
            psi(G, cap=2, memo=memo)
            psi_at_least(G, 2, memo=memo)
        assert calls == [] and memo == {}

    def test_answer_cache_is_emptied_at_the_budget(self, monkeypatch):
        # the line graph of a 3 x 3 host with 7 edges, psi = 2
        L = Graph(7, frozenset({(0, 1), (0, 5), (1, 3), (1, 6), (2, 3), (2, 4), (3, 6),
                                (4, 5), (4, 6), (5, 6)}))
        real = game._closure_isolates
        runs = []
        monkeypatch.setattr(game, "_closure_isolates", lambda *a: runs.append(a) or real(*a))
        alone = {}
        assert psi(L, cap=3, memo=alone) == 2
        roomy = len(runs)
        assert roomy == len({adj for _, adj in runs}) > len(alone)
        runs.clear()
        # the cache outgrows a budget the memo entries fit in: it starts over
        monkeypatch.setattr(game, "MEMO_LIMIT", len(alone))
        assert psi(L, cap=3) == 2
        assert len(runs) > roomy


class TestLineGraph:
    def test_single_edge(self):
        L = line_graph(BipartiteGraph(1, 1, frozenset({(0, 0)})))
        assert L.n == 1 and not L.edges

    def test_two_edge_path(self):
        L = line_graph(BipartiteGraph(2, 1, frozenset({(0, 0), (1, 0)})))
        assert L.n == 2 and L.edges == frozenset({(0, 1)})

    def test_c6_line_graph_is_c6(self):
        host = BipartiteGraph(3, 3, frozenset({(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)}))
        L = line_graph(host)
        assert L.n == 6
        assert sorted(L.degrees()) == [2] * 6
        assert psi(L) == psi(cycle(6))

    def test_perfect_matching_gives_infinity(self):
        host = BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        assert psi_line(host) == INFINITY

    def test_lemma_degree_profile_reaches_2(self):
        # left degrees (1, 2, 2) force at least two explosions
        host = BipartiteGraph(
            3, 3, frozenset({(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)})
        )
        assert psi_line(host) >= 2


class TestCanonicalKey:
    def test_iso_graphs_same_key(self, graph_key):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randrange(1, 8)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
            assert graph_key(n, edges) == graph_key(n, permuted)

    def test_non_iso_graphs_differ(self, graph_key):
        a = graph_key(4, [(0, 1), (1, 2), (2, 3)])
        b = graph_key(4, [(0, 1), (1, 2), (1, 3)])
        assert a != b

    def test_complete_graphs_fast(self, graph_key):
        # automorphism pruning keeps K_10 polynomial rather than factorial;
        # test_canonical.py times K_16, the empty graph and Petersen's
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        key = graph_key(10, edges)
        assert key[0] == 10
        assert key != graph_key(10, edges[1:])

import random
import re

import pytest

from trimatch import homology, oracle
from trimatch.constructions import random_graph, random_partition_system
from trimatch.errors import BudgetExceededError
from trimatch.game import psi
from trimatch.homology import (
    BettiVector,
    SimplicialComplex,
    betti,
    boundary_matrix,
    eta_homological,
    euler_characteristic_check,
    graph_eta,
    independence_complex,
    topological_hall_subsets,
    _boundary_columns,
    _pivots,
)
from trimatch.structures import Graph, INFINITY, PartitionedGraph
from trimatch.verifier import STATEMENTS, Scope, enumerate_graphs_up_to_iso, verify


def cycle(n):
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def path(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def circulant(n, steps):
    return Graph(n, frozenset(tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps))


def petersen():
    return Graph(10, frozenset(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]))


def complete(m):
    return Graph(m, frozenset((u, v) for u in range(m) for v in range(u + 1, m)))


def full_eta(G):
    return graph_eta(G.adj, (1 << G.n) - 1)


def complex_eta(G, keep):
    """eta through the complex of the induced graph on keep, relabelled."""
    index = {v: i for i, v in enumerate(sorted(keep))}
    induced = Graph(len(index), frozenset(
        (index[u], index[v]) for u, v in G.edges if u in index and v in index))
    return eta_homological(independence_complex(induced))


def full_simplex_complex(m):
    return independence_complex(Graph(m))


def columns(m, n_cols):
    """Sparse columns (row index -> entry) of a dense matrix with n_cols columns."""
    return [{r: row[c] for r, row in enumerate(m) if row[c]} for c in range(n_cols)]


def sparse_rank(m, n_cols=None):
    return len(_pivots(columns(m, len(m[0]) if n_cols is None else n_cols)))


def random_complex(rng):
    """Downward closure of a few random faces on at most 7 vertices."""
    n = rng.randint(1, 7)
    return SimplicialComplex.from_faces(
        rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 6)))


RP2 = SimplicialComplex.from_faces([
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
])


def oracle_betti(C):
    """Reduced Betti numbers from the dense Bareiss twin on boundary_matrix."""
    ranks = [oracle.bareiss_rank_oracle(boundary_matrix(C, j))
             for j in range(C.dimension + 1)] + [0]
    counts = C.face_counts()
    return (counts[0] - ranks[0],) + tuple(
        counts[j + 1] - ranks[j] - ranks[j + 1] for j in range(C.dimension + 1)
    )


class TestComplex:
    def test_edgeless_graph_gives_full_simplex(self):
        C = full_simplex_complex(3)
        assert C.face_counts() == (1, 3, 3, 1)

    def test_k2_two_points(self):
        C = independence_complex(Graph(2, frozenset({(0, 1)})))
        assert C.face_counts() == (1, 2)

    def test_c4_two_disjoint_segments(self):
        C = independence_complex(cycle(4))
        assert C.faces_of_dim(1) == ((0, 2), (1, 3))

    def test_downward_closure_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex((((),), (), (((0, 1)),)))

    @pytest.mark.parametrize("faces, message", [
        ((((),), ((0,),), ((0, 1),), ((0, 1), (0, 2))), "face (0, 1) stored at wrong dimension"),
        ((((),), ((0,), (1, 1))), "face (1, 1) stored at wrong dimension"),
        ((((),), ((0,), (1,)), ((0, 1), (1, 1))), "face (1, 1) repeats a vertex"),
        ((((),), ((0,), (1,)), ((1, 0), (0, 2), (1, 2))), "not closed downward at (0, 2)"),
        ((((),), (), ((0, 1),)), "not closed downward at (0, 1)"),
        ((((0,),),), "exactly the empty face"),
    ])
    def test_each_check_names_its_face(self, faces, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimplicialComplex(faces)

    def test_faces_are_sorted_integers(self):
        C = SimplicialComplex((((),), (("1",), (0,)), ((1.0, 0),)))
        assert C.faces == (((),), ((0,), (1,)), ((0, 1),))

    def test_void_complex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(())

    def test_face_budget(self, monkeypatch):
        monkeypatch.setattr(homology, "FACE_LIMIT", 100)
        with pytest.raises(BudgetExceededError):
            independence_complex(Graph(10))


class TestBetti:
    def test_full_simplex_contractible(self):
        assert betti(full_simplex_complex(3)).all_zero()

    def test_two_points(self):
        bv = betti(independence_complex(Graph(2, frozenset({(0, 1)}))))
        assert bv.values == (0, 1)

    def test_independence_complex_of_c6(self):
        # wedge of two circles: the Euler characteristic pins beta_1 = 2
        bv = betti(independence_complex(cycle(6)))
        assert bv.values == (0, 0, 2, 0)

    def test_hexagon_complex_is_a_circle(self):
        # the cycle itself as a 1-complex has a single 1-dimensional hole
        hexagon = SimplicialComplex.from_faces(
            [(i, (i + 1) % 6) for i in range(6)]
        )
        assert betti(hexagon).values == (0, 0, 1)

    def test_independence_complex_of_c5_is_a_circle(self):
        bv = betti(independence_complex(cycle(5)))
        assert bv.values == (0, 0, 1)

    def test_empty_face_only(self):
        C = SimplicialComplex((((),),))
        assert betti(C).values == (1,)

    def test_euler_poincare_everywhere(self):
        for n in range(0, 6):
            for G in enumerate_graphs_up_to_iso(n):
                C = independence_complex(G)
                assert euler_characteristic_check(C, betti(C))


class TestRank:
    def test_bareiss_matches_fraction_elimination(self):
        rng = random.Random(17)
        for _ in range(50):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            m = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            assert sparse_rank(m) == oracle.rational_rank_oracle(m)
            assert oracle.bareiss_rank_oracle(m) == oracle.rational_rank_oracle(m)

    def test_row_shuffle_leaves_betti_unchanged(self):
        rng = random.Random(23)
        C = independence_complex(cycle(6))
        for j in range(0, C.dimension + 1):
            m = boundary_matrix(C, j)
            shuffled = m[:]
            rng.shuffle(shuffled)
            assert sparse_rank(m) == sparse_rank(shuffled)

    def test_empty_and_zero_matrices(self):
        for n in range(4):
            assert _pivots(columns([], n)) == []  # 0 x n
            assert _pivots(columns([[] for _ in range(n)], 0)) == []  # n x 0
            assert sparse_rank([[0] * 3 for _ in range(n)], 3) == 0

    def test_no_unit_pivot_matches_fraction_elimination(self):
        # entries in {0, +-2, +-3, +-6}: no unit pivot exists at the start, so
        # the integer steps and the content division carry the elimination
        rng = random.Random(41)
        entries = (0, 0, 2, -2, 3, -3, 6, -6)
        for _ in range(150):
            n_rows, n_cols = rng.randrange(0, 7), rng.randrange(0, 7)
            m = [[rng.choice(entries) for _ in range(n_cols)] for _ in range(n_rows)]
            expected = oracle.rational_rank_oracle(m)
            assert sparse_rank(m, n_cols) == expected
            rows = rng.sample(m, n_rows)
            order = rng.sample(range(n_cols), n_cols)
            permuted = [[row[c] for c in order] for row in rows]
            assert sparse_rank(permuted, n_cols) == expected

    def test_rank_is_rational_not_mod_2(self):
        # RP^2 on 6 vertices: the boundary of the 10 triangles has rational
        # rank 10 but rank 9 mod 2, so a mod-2 rank would give b1 = b2 = 1
        assert RP2.face_counts() == (1, 6, 15, 10)
        bv = betti(RP2)
        assert bv.all_zero()
        assert bv.values == oracle_betti(RP2)
        assert euler_characteristic_check(RP2, bv)
        assert sparse_rank(boundary_matrix(RP2, 2)) == 10

    def test_pivot_columns_are_a_column_basis(self):
        # non-unit entries force the scaled steps; the pivot columns alone
        # must have the full rank, so every other column is in their span
        rng = random.Random(53)
        entries = (0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -6)
        for _ in range(300):
            n_rows, n_cols = rng.randrange(0, 8), rng.randrange(0, 8)
            m = [[rng.choice(entries) for _ in range(n_cols)] for _ in range(n_rows)]
            pivots = _pivots(columns(m, n_cols))
            assert len(set(pivots)) == len(pivots) == oracle.rational_rank_oracle(m)
            if pivots and n_rows:
                basis = [[row[c] for c in pivots] for row in m]
                assert oracle.rational_rank_oracle(basis) == len(pivots)

    def test_betti_matches_bareiss_on_random_complexes(self):
        rng = random.Random(59)
        for _ in range(400):
            C = random_complex(rng)
            expected = oracle_betti(C)
            assert betti(C).values == expected, C
            nonzero = [j for j in range(-1, C.dimension + 1) if expected[j + 1]]
            assert eta_homological(C) == (nonzero[0] + 1 if nonzero else INFINITY), C

    def test_cleared_map_keeps_exactly_the_unpivoted_rows(self):
        rng = random.Random(61)
        for C in [RP2, independence_complex(cycle(9))] + [random_complex(rng) for _ in range(100)]:
            for j in range(1, C.dimension + 1):
                cleared = set(_pivots(_boundary_columns(C, j - 1)))
                full = _boundary_columns(C, j)
                kept = _boundary_columns(C, j, cleared)
                assert [set(c) for c in kept] == [set(c) - cleared for c in full]
                assert len(_pivots(kept)) == len(_pivots(full))
        # in a simplex every (j-1)-face bounds a j-face, so no row is empty
        C = full_simplex_complex(5)
        for j in range(1, C.dimension + 1):
            cleared = _pivots(_boundary_columns(C, j - 1))
            kept = set().union(*_boundary_columns(C, j, cleared))
            assert len(kept) == len(C.faces_of_dim(j - 1)) - len(cleared)

    def test_large_complexes_match_bareiss(self):
        rng = random.Random(43)
        for n in (14, 15, 16):
            C = independence_complex(random_graph(n, rng, p=0.35))
            expected = oracle_betti(C)
            assert betti(C).values == expected
            nonzero = [j for j in range(-1, C.dimension + 1) if expected[j + 1]]
            assert eta_homological(C) == (nonzero[0] + 1 if nonzero else INFINITY)


class TestEta:
    def test_full_simplex_infinite(self):
        assert eta_homological(full_simplex_complex(4)) == INFINITY

    def test_two_points_is_one(self):
        C = independence_complex(Graph(2, frozenset({(0, 1)})))
        assert eta_homological(C) == 1

    def test_empty_face_complex_is_zero(self):
        assert eta_homological(independence_complex(Graph(0))) == 0

    def test_c6_matches_game_value(self):
        assert eta_homological(independence_complex(cycle(6))) == 2 == psi(cycle(6))

    def test_stops_at_the_first_nonzero_betti_number(self, monkeypatch):
        # K_{3,4}: its complex is a triangle and a tetrahedron, apart, so
        # b_0 = 1 and the maps from 2- and 3-chains are never built
        K34 = Graph(7, frozenset((u, v) for u in range(3) for v in range(3, 7)))
        C = independence_complex(K34)
        assert C.dimension == 3
        built = []
        real = homology._boundary_columns

        def recording(C, j, cleared=()):
            built.append(j)
            return real(C, j, cleared)

        monkeypatch.setattr(homology, "_boundary_columns", recording)
        assert eta_homological(C) == 1
        assert built == [0, 1]
        built.clear()
        assert betti(C).values == (0, 1, 0, 0, 0)
        assert built == [0, 1, 2, 3, 4]

    def test_dominates_psi_small(self):
        memo = {}
        for n in range(0, 6):
            for G in enumerate_graphs_up_to_iso(n):
                eta = eta_homological(independence_complex(G))
                assert eta >= psi(G, memo=memo)


class TestGraphEta:
    """graph_eta against the complex route and the closed forms."""

    def test_matches_complex_route_on_all_small_classes(self):
        for n in range(8):
            for G in enumerate_graphs_up_to_iso(n):
                assert full_eta(G) == eta_homological(independence_complex(G)), G

    @pytest.mark.parametrize("p", [0.1, 0.35, 0.5, 0.7, 0.9])
    def test_matches_complex_route_on_random_graphs(self, p):
        rng = random.Random(int(p * 100))
        for _ in range(150):
            G = random_graph(rng.randint(0, 12), rng, p)
            assert full_eta(G) == eta_homological(independence_complex(G)), G

    def test_paths_past_the_face_limit(self, monkeypatch):
        # Kozlov: I(P_n) is contractible for n = 1 (mod 3), else a sphere
        # of dimension ceil(n / 3) - 1
        monkeypatch.setattr(homology, "FACE_LIMIT", 50)
        for n in list(range(0, 40)) + [299, 300, 301, 998, 999, 1000]:
            expected = INFINITY if n % 3 == 1 else -(-n // 3)
            assert full_eta(path(n)) == expected, n

    def test_cycles(self):
        # Kozlov: eta(C_n) = k for n = 3k or 3k + 1, and k + 1 for n = 3k + 2
        for n in range(3, 13):
            k = n // 3
            assert full_eta(cycle(n)) == (k + 1 if n % 3 == 2 else k), n

    def test_cycle_rule_matches_the_complex_route(self, monkeypatch):
        for k in range(4, 19):
            expected = eta_homological(independence_complex(cycle(k)))
            with monkeypatch.context() as patch:
                patch.setattr(homology, "FACE_LIMIT", 1)
                assert full_eta(cycle(k)) == expected == (k + 1) // 3, k
        assert full_eta(cycle(40)) == 13

    def test_unreduced_component_keeps_the_budget(self, monkeypatch):
        # neither the circulant C_40(1, 3) nor the Petersen graph has a fold
        with pytest.raises(BudgetExceededError):
            full_eta(circulant(40, (1, 3)))
        with monkeypatch.context() as patch:
            patch.setattr(homology, "FACE_LIMIT", 20)
            with pytest.raises(BudgetExceededError):
                full_eta(petersen())
        assert full_eta(petersen()) == 3

    def test_edge_cases(self):
        assert full_eta(Graph(0)) == 0
        assert graph_eta(cycle(6).adj, 0) == 0
        assert full_eta(Graph(1)) == INFINITY
        for m in range(2, 9):
            assert full_eta(complete(m)) == 1
        # an isolated vertex makes a cone, whatever the rest costs
        G = Graph(41, frozenset((i, (i + 1) % 40) for i in range(40)))
        assert full_eta(G) == INFINITY

    def test_disjoint_unions_add_up(self):
        parts = [cycle(5), cycle(6), path(5), complete(3), cycle(7)]
        offset, edges = 0, set()
        for H in parts:
            edges |= {(u + offset, v + offset) for u, v in H.edges}
            offset += H.n
        union = Graph(offset, frozenset(edges))
        assert full_eta(union) == sum(full_eta(H) for H in parts) == 2 + 2 + 2 + 1 + 2
        assert full_eta(Graph(offset + 4, union.edges | {(offset, offset + 1)})) == INFINITY

    def test_sub_mask_equals_the_relabelled_induced_graph(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(1, 11)
            G = random_graph(n, rng, rng.choice([0.2, 0.4, 0.6]))
            keep = [v for v in range(n) if rng.random() < 0.7]
            assert graph_eta(G.adj, sum(1 << v for v in keep)) == complex_eta(G, keep)

    def test_topological_hall_subsets_match_the_complex_route(self):
        rng = random.Random(77)
        for _ in range(200):
            P = random_partition_system(rng, max_vertices=10, max_parts=5)
            for members, eta, _ in topological_hall_subsets(P, 1):
                keep = set().union(*(P.parts[i] for i in members))
                assert eta == complex_eta(P.graph, keep)


class TestTopologicalHall:
    """Theorems 2.3/2.4 as judged by their registry records."""

    @staticmethod
    def judge(P, deficiency):
        """(hypothesis, conclusion) of the TOPHALL record on one system."""
        rec = STATEMENTS["TOPHALL_2_3"]
        inst = {"pgraph": P, "deficiency": deficiency}
        return rec.hypothesis(inst), rec.conclusion(inst, rec.codec.solve)

    def test_edgeless_singletons(self):
        P = PartitionedGraph(Graph(3), (frozenset({0}), frozenset({1}), frozenset({2})))
        assert self.judge(P, 0) == (True, True)
        report = verify("TOPHALL_2_3", Scope("stdin"), instances=[{"pgraph": P, "deficiency": 0}])
        assert report.hypothesis_hits == 1
        assert report.violations == []

    def test_adjacent_singletons_hypothesis_fails(self):
        P = PartitionedGraph(
            Graph(2, frozenset({(0, 1)})), (frozenset({0}), frozenset({1}))
        )
        hypothesis, _ = self.judge(P, 0)
        assert not hypothesis
        report = verify("TOPHALL_2_3", Scope("stdin"), instances=[{"pgraph": P, "deficiency": 0}])
        assert report.hypothesis_hits == 0
        assert report.violations == []

    def test_deficiency_one_rescues_adjacent_singletons(self):
        P = PartitionedGraph(
            Graph(2, frozenset({(0, 1)})), (frozenset({0}), frozenset({1}))
        )
        _, conclusion = self.judge(P, 1)
        assert conclusion

    def test_never_violated_on_random_systems(self):
        rng = random.Random(31)
        systems = [random_partition_system(rng) for _ in range(40)]
        for sid, d in (("TOPHALL_2_3", 0), ("TOPHALL_DEF_2_4", 1)):
            instances = [{"pgraph": P, "deficiency": min(d, len(P.parts))} for P in systems]
            report = verify(sid, Scope("stdin"), instances=instances)
            assert report.instances_checked == 40
            assert report.hypothesis_hits > 0
            assert report.violations == []

    def test_report_shape(self):
        P = PartitionedGraph(Graph(1), (frozenset({0}),))
        assert len(list(topological_hall_subsets(P, 0))) == 2  # empty subset and the part
        report = verify("TOPHALL_2_3", Scope("stdin"), instances=[{"pgraph": P, "deficiency": 0}])
        assert (report.instances_checked, report.hypothesis_hits) == (1, 1)
        assert report.scope == {"mode": "stdin"}

    def test_subsets_agree_with_report_and_tophall_hypothesis(self):
        hypothesis = STATEMENTS["TOPHALL_DEF_2_4"].hypothesis
        rng = random.Random(32)
        seen = set()
        for _ in range(40):
            P = random_partition_system(rng)
            d = min(1, len(P.parts))
            subsets = list(topological_hall_subsets(P, d))
            assert [members for members, _, _ in subsets] == [
                tuple(i for i in range(len(P.parts)) if mask >> i & 1)
                for mask in range(1 << len(P.parts))]
            assert all(ok == (eta >= len(members) - d) for members, eta, ok in subsets)
            holds = all(ok for _, _, ok in subsets)
            assert hypothesis({"pgraph": P, "deficiency": d}) == holds
            seen.add(holds)
        assert seen == {True, False}

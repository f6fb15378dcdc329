import random

import pytest

from trimatch import oracle
from trimatch.constructions import random_graph
from trimatch.errors import BudgetExceededError
from trimatch.game import psi
from trimatch.homology import (
    BettiVector,
    SimplicialComplex,
    TopologicalHallReport,
    betti,
    boundary_matrix,
    check_topological_hall,
    eta_homological,
    euler_characteristic_check,
    independence_complex,
    topological_hall_subsets,
    _rank,
)
from trimatch.solver import PartitionedGraph
from trimatch.structures import Graph, INFINITY
from trimatch.verifier import enumerate_graphs_up_to_iso


def cycle(n):
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def full_simplex_complex(m):
    return independence_complex(Graph(m))


def columns(m, n_cols):
    """Sparse columns (row index -> entry) of a dense matrix with n_cols columns."""
    return [{r: row[c] for r, row in enumerate(m) if row[c]} for c in range(n_cols)]


def sparse_rank(m, n_cols=None):
    return _rank(columns(m, len(m[0]) if n_cols is None else n_cols))


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

    def test_void_complex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(())

    def test_face_budget(self):
        with pytest.raises(BudgetExceededError):
            independence_complex(Graph(10), face_limit=100)


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
            assert _rank(columns([], n)) == 0  # 0 x n
            assert _rank(columns([[] for _ in range(n)], 0)) == 0  # n x 0
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
        rp2 = SimplicialComplex.from_faces([
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
        ])
        assert rp2.face_counts() == (1, 6, 15, 10)
        bv = betti(rp2)
        assert bv.all_zero()
        assert euler_characteristic_check(rp2, bv)
        assert sparse_rank(boundary_matrix(rp2, 2)) == 10

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

    def test_dominates_psi_small(self):
        memo = {}
        for n in range(0, 6):
            for G in enumerate_graphs_up_to_iso(n):
                eta = eta_homological(independence_complex(G))
                assert eta >= psi(G, memo=memo)


class TestTopologicalHall:
    def test_edgeless_singletons(self):
        P = PartitionedGraph(Graph(3), (frozenset({0}), frozenset({1}), frozenset({2})))
        report = check_topological_hall(P, 0)
        assert report.hypothesis_holds and report.conclusion_holds
        assert not report.violated

    def test_adjacent_singletons_hypothesis_fails(self):
        P = PartitionedGraph(
            Graph(2, frozenset({(0, 1)})), (frozenset({0}), frozenset({1}))
        )
        report = check_topological_hall(P, 0)
        assert not report.hypothesis_holds
        assert not report.violated

    def test_deficiency_one_rescues_adjacent_singletons(self):
        P = PartitionedGraph(
            Graph(2, frozenset({(0, 1)})), (frozenset({0}), frozenset({1}))
        )
        report = check_topological_hall(P, 1)
        assert report.conclusion_holds

    def test_never_violated_on_random_systems(self):
        from trimatch.constructions import random_partition_system

        rng = random.Random(31)
        for _ in range(40):
            P = random_partition_system(rng)
            for d in (0, 1):
                report = check_topological_hall(P, min(d, len(P.parts)))
                assert not report.violated

    def test_report_shape(self):
        P = PartitionedGraph(Graph(1), (frozenset({0}),))
        report = check_topological_hall(P, 0)
        assert isinstance(report, TopologicalHallReport)
        assert len(report.subset_values) == 2  # empty subset and the part

    def test_subsets_agree_with_report_and_tophall_hypothesis(self):
        from trimatch.constructions import random_partition_system
        from trimatch.verifier import STATEMENTS

        hypothesis = STATEMENTS["TOPHALL_DEF_2_4"].hypothesis
        rng = random.Random(32)
        seen = set()
        for _ in range(40):
            P = random_partition_system(rng)
            d = min(1, len(P.parts))
            report = check_topological_hall(P, d)
            assert tuple(topological_hall_subsets(P, d)) == report.subset_values
            assert hypothesis({"pgraph": P, "deficiency": d}) == report.hypothesis_holds
            seen.add(report.hypothesis_holds)
        assert seen == {True, False}

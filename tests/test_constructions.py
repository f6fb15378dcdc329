import hashlib
import itertools
import json
import random

import pytest

from trimatch import constructions as cons
from trimatch import oracle
from trimatch.errors import BudgetExceededError, ConstructionError
from trimatch.solver import find_rainbow_matching, max_matching_size
from trimatch.structures import (
    degree,
    family_to_hypergraph,
    is_p_simple,
    is_regular,
    latin_to_hypergraph,
)


def digest(obj):
    """Short fingerprint of a JSON-able output, to pin it without spelling it out."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


class TestDrisko:
    def test_member_count_and_sizes(self):
        for n in (2, 3, 4):
            F = cons.gen_drisko_extremal(n)
            assert len(F.members) == 2 * n - 2
            assert all(len(m) == n for m in F.members)

    def test_no_rainbow_of_size_n(self):
        for n in (2, 3):
            F = cons.gen_drisko_extremal(n)
            assert find_rainbow_matching(F, target=n).optimum == n - 1

    def test_sharpness_critical(self):
        # one extra odd matching tips the family over the threshold
        for n in (2, 3):
            F = cons.gen_drisko_extremal(n)
            extra = cons.cycle_odd_matching(n)
            from trimatch.structures import MatchingFamily

            F2 = MatchingFamily(F.host, F.members + (extra,))
            assert find_rainbow_matching(F2, target=n).optimum >= n

    def test_n_below_2_rejected(self):
        with pytest.raises(ValueError):
            cons.gen_drisko_extremal(1)


class TestAccommodating:
    def test_n2_zero_prefix(self):
        F = cons.gen_accommodating_counterexample((0, 1, 2), 2)
        assert oracle.rainbow_oracle(F) < 2
        assert all(len(m) >= a for m, a in zip(F.members, (0, 1, 2)))

    def test_n3_example(self):
        F = cons.gen_accommodating_counterexample((1, 1, 3, 3, 3), 3)
        assert oracle.rainbow_oracle(F) < 3

    def test_sizes_follow_the_formula(self):
        a = (0, 1, 1, 2, 3)
        F = cons.gen_accommodating_counterexample(a, 3)
        assert [len(m) for m in F.members[:3]] == [min(3, x) for x in a[:3]]

    def test_accommodating_shaped_rejected(self):
        with pytest.raises(ConstructionError):
            cons.gen_accommodating_counterexample((1, 2, 2), 2)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            cons.gen_accommodating_counterexample((2, 1, 0), 2)
        with pytest.raises(ValueError):
            cons.gen_accommodating_counterexample((0, 1), 2)


class TestP3Family:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sizes_at_least_index(self, k):
        F = cons.gen_p3_family(k)
        assert len(F.members) == 2 * k
        for i, m in enumerate(F.members, start=1):
            assert len(m) >= i or i <= k  # members 1..k all have size k

    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 3), (3, 4), (4, 6)])
    def test_rainbow_optimum_is_floor_3k_over_2(self, k, expected):
        F = cons.gen_p3_family(k)
        assert find_rainbow_matching(F).optimum == expected == 3 * k // 2


class TestFracdSharp:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_regular_simple(self, n):
        H = cons.gen_fracd_sharp(n)
        assert H.side_sizes == (n, n, n)
        assert H.is_simple()
        assert is_regular(H, 2 * n - 2)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_nu_is_n_minus_1(self, n):
        H = cons.gen_fracd_sharp(n)
        assert max_matching_size(H).optimum == n - 1
        if n <= 3:
            assert oracle.matching_number_oracle(H) == n - 1

    def test_special_stars_have_full_degree(self):
        H = cons.gen_fracd_sharp(3)
        assert degree(H, "A", 0) == 4
        assert degree(H, "B", 0) == 4
        assert degree(H, "C", 0) == 4

    # pinned outputs: a change of the layers or of their order changes them
    GOLDEN = {2: "6d38a62739188062", 3: "3f641917c020b7f7", 4: "96702bb65b3f849c",
              5: "0d950ddc6343abf9", 6: "d7461f5628aa29b9"}

    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_golden_edges(self, n):
        assert digest(cons.gen_fracd_sharp(n).edges) == self.GOLDEN[n]


def grid_need(n, d):
    candidates = list(itertools.product(range(n), repeat=3))
    return candidates, {(side, v): d for side in range(3) for v in range(n)}


class TestRegularCompletions:
    @pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1)])
    def test_equals_brute_force_in_order(self, n, d):
        candidates, need = grid_need(n, d)

        def meets_need(subset):
            counts = {key: 0 for key in need}
            for t in subset:
                for key in enumerate(t):
                    counts[key] += 1
            return counts == need

        # a d-regular subset has n * d triples, and combinations of one size
        # come in include-first lexicographic order
        brute = [c for c in itertools.combinations(candidates, n * d) if meets_need(c)]
        assert brute
        assert list(cons.regular_completions(candidates, need)) == brute

    def test_enumerate_regular_simple_counts(self):
        counts = {(n, d): len(list(cons.enumerate_regular_simple(n, d)))
                  for n in (1, 2, 3) for d in (0, 1, 2, 3)}
        # d = 1 on sides of size n: pairs of permutations, (n!)**2
        assert counts[(1, 1)] == 1 and counts[(2, 1)] == 4 and counts[(3, 1)] == 36
        assert counts[(1, 2)] == 0 and counts[(3, 3)] == 7392
        assert all(counts[(n, 0)] == 1 for n in (1, 2, 3))
        for H in cons.enumerate_regular_simple(2, 2):
            assert H.is_simple() and is_regular(H, 2)

    def test_enumerate_regular_simple_is_a_stream(self):
        stream = cons.enumerate_regular_simple(3, 3)
        assert iter(stream) is stream
        first = next(stream)
        assert first.is_simple() and is_regular(first, 3)

    def test_unmeetable_need_yields_nothing(self):
        candidates, need = grid_need(2, 5)
        assert list(cons.regular_completions(candidates, need)) == []

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(cons, "COMPLETION_NODE_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="budget") as exc:
            list(cons.enumerate_regular_simple(3, 1))
        assert exc.value.nodes == 11


class TestDoubleSideA:
    def test_edge_count_doubles(self):
        H = latin_to_hypergraph(cons.cyclic_latin(3))
        H2 = cons.double_side_A(H)
        assert H2.n_edges == 2 * H.n_edges
        assert H2.side_sizes == (6, 3, 3)

    def test_single_edge_gives_parallel_bc_pair(self):
        from trimatch.structures import TriHypergraph

        H = TriHypergraph((1, 1, 1), ((0, 0, 0),))
        H2 = cons.double_side_A(H)
        assert H2.edges == ((0, 0, 0), (1, 0, 0))
        assert not is_p_simple(H2, ("B", "C"), 1)
        assert is_p_simple(H2, ("B", "C"), 2)

    def test_doubled_row_latin_meets_almost_drisko_hypotheses(self):
        rng = random.Random(2)
        for L in cons.gen_row_latin(3, "random", seed=5, count=5):
            H2 = cons.double_side_A(latin_to_hypergraph(L))
            n = 3
            assert H2.side_sizes[0] >= 2 * n - 1
            assert all(degree(H2, "A", a) == n for a in range(H2.side_sizes[0]))
            assert is_p_simple(H2, ("A", "C"), 1)
            assert is_p_simple(H2, ("B", "C"), 2)
            assert max_matching_size(H2).optimum == n


class TestLatinStreams:
    def test_cyclic_definition(self):
        L = cons.cyclic_latin(3)
        assert all(L.cells[i][j] == (i + j) % 3 for i in range(3) for j in range(3))

    def test_exhaustive_counts(self):
        assert sum(1 for _ in cons.gen_latin(1, "exhaustive")) == 1
        assert sum(1 for _ in cons.gen_latin(2, "exhaustive")) == 2
        assert sum(1 for _ in cons.gen_latin(3, "exhaustive")) == 12
        assert sum(1 for _ in cons.gen_latin(4, "exhaustive")) == 576

    def test_exhaustive_emits_latin_squares_without_repeats(self):
        seen = set()
        for L in cons.gen_latin(3, "exhaustive"):
            assert L.is_latin()
            assert L.cells not in seen
            seen.add(L.cells)

    def test_exhaustive_lex_order(self):
        squares = [L.cells for L in cons.gen_latin(3, "exhaustive")]
        flat = [tuple(x for row in c for x in row) for c in squares]
        assert flat == sorted(flat)

    def test_random_is_seed_deterministic(self):
        a = [L.cells for L in cons.gen_latin(4, "random", seed=11, count=5)]
        b = [L.cells for L in cons.gen_latin(4, "random", seed=11, count=5)]
        assert a == b
        assert all(cons.cyclic_latin(4).is_latin() for _ in a)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            next(cons.gen_latin(6, "exhaustive"))

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            next(cons.gen_latin(3, "random"))

    @pytest.mark.parametrize("gen", [cons.gen_latin, cons.gen_row_latin])
    @pytest.mark.parametrize("mode", ["cyclic", "exhaustive"])
    def test_only_the_random_mode_takes_a_seed(self, gen, mode):
        with pytest.raises(ValueError, match=f"^{mode} mode takes no seed, got 0$"):
            next(gen(3, mode, seed=0))

    @pytest.mark.parametrize("gen", [cons.gen_latin, cons.gen_row_latin])
    @pytest.mark.parametrize("mode,seed", [("cyclic", None), ("exhaustive", None),
                                           ("random", 1)])
    def test_a_negative_count_is_refused(self, gen, mode, seed):
        with pytest.raises(ValueError, match="^count must not be negative, got -1$"):
            next(gen(3, mode, seed=seed, count=-1))

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="order must be non-negative"):
            cons.latin_squares(-1)
        with pytest.raises(ValueError, match="order must be non-negative"):
            cons.random_latin(-1, random.Random(1))

    def test_random_order_is_capped(self):
        L = cons.random_latin(cons.RANDOM_LATIN_CAP, random.Random(0))
        assert L.order == cons.RANDOM_LATIN_CAP and L.is_latin()
        with pytest.raises(ValueError, match=f"capped at order {cons.RANDOM_LATIN_CAP}"):
            cons.random_latin(cons.RANDOM_LATIN_CAP + 1, random.Random(0))

    # pinned outputs: a change of the fill order or of its rng calls changes them
    GOLDEN = {4: "6f3b634f2522c51d", 5: "807c9a688fbd354e", 6: "37eda2be7f7d48c4",
              7: "83c885b7a6b6617a"}
    RNG_AFTER = {1: ("8b2450ade83392de", 0.13436424411240122),
                 2: ("d0f64a1ca7a7daf6", 0.7359699890685233),
                 3: ("de8ae97314891268", 0.7800764890835564),
                 4: ("83e62e7df77b257d", 0.14506275949834935),
                 5: ("78fb41636de6b1bf", 0.8016644306001379),
                 6: ("7cebb51a3d5b47f6", 0.525423040301249)}

    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_random_stream_golden(self, n):
        squares = [L.cells for L in cons.gen_latin(n, "random", seed=3, count=20)]
        assert digest(squares) == self.GOLDEN[n]

    @pytest.mark.parametrize("n", sorted(RNG_AFTER))
    def test_first_fill_draws_golden_rng_calls(self, n):
        rng = random.Random(n)
        squares = [next(cons.latin_squares(n, rng)).cells for _ in range(5)]
        assert (digest(squares), rng.random()) == self.RNG_AFTER[n]


class TestRowLatinStreams:
    @pytest.mark.parametrize("n,cells", [
        (0, [()]),
        (1, [((0,),)]),
        (2, [((0, 1), (0, 1)), ((0, 1), (1, 0))]),
    ])
    def test_row_latin_squares_is_a_stream(self, n, cells):
        stream = cons.row_latin_squares(n)
        assert iter(stream) is stream
        assert [L.cells for L in stream] == cells

    def test_negative_order_is_refused_at_the_call(self):
        with pytest.raises(ValueError, match="order must be non-negative"):
            cons.row_latin_squares(-1)

    def test_normalized_counts(self):
        assert sum(1 for _ in cons.gen_row_latin(2, "exhaustive")) == 2
        assert sum(1 for _ in cons.gen_row_latin(3, "exhaustive")) == 36

    def test_rows_are_permutations_columns_free(self):
        found_column_clash = False
        for L in cons.gen_row_latin(3, "exhaustive"):
            assert L.is_row_latin()
            if not L.is_column_latin():
                found_column_clash = True
        assert found_column_clash

    def test_random_deterministic(self):
        a = [L.cells for L in cons.gen_row_latin(3, "random", seed=4, count=4)]
        b = [L.cells for L in cons.gen_row_latin(3, "random", seed=4, count=4)]
        assert a == b

    GOLDEN = {3: "83a2649348cf5172", 4: "4307ded978b86d93", 5: "789a949994bac40a"}

    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_random_stream_golden(self, n):
        squares = [L.cells for L in cons.gen_row_latin(n, "random", seed=3, count=20)]
        assert digest(squares) == self.GOLDEN[n]


class TestTheorem19:
    @pytest.mark.parametrize("n", [2, 3])
    def test_hypothesis_predicates(self, n):
        for seed in range(20):
            H = cons.gen_theorem19_instance(n, seed)
            assert H.side_sizes == (2 * n - 1, n, n)
            assert all(degree(H, "A", a) == n for a in range(2 * n - 1))
            assert is_p_simple(H, ("A", "C"), 1)
            assert is_p_simple(H, ("B", "C"), 2)

    def test_nu_reaches_n(self):
        for seed in range(20):
            H = cons.gen_theorem19_instance(3, seed)
            assert max_matching_size(H, target=3).optimum >= 3

    def test_seed_determinism(self):
        assert cons.gen_theorem19_instance(3, 9) == cons.gen_theorem19_instance(3, 9)

    def test_stream_draws_consecutive_seeds(self):
        assert list(cons.gen_theorem19(2, 5, 3)) == [
            cons.gen_theorem19_instance(2, seed) for seed in (5, 6, 7)]
        assert list(cons.gen_theorem19(2, 5)) == [cons.gen_theorem19_instance(2, 5)]
        assert list(cons.gen_theorem19(2, 5, 0)) == []
        with pytest.raises(ValueError, match="^count must not be negative, got -2$"):
            cons.gen_theorem19(2, 5, -2)


class TestRandomGenerators:
    def test_random_family_respects_profile(self):
        rng = random.Random(6)
        F = cons.random_family([1, 2, 3, 3, 3], rng)
        assert F.sizes() == [1, 2, 3, 3, 3]

    def test_family_generation_deterministic(self):
        a = cons.random_family([2, 2], random.Random(3))
        b = cons.random_family([2, 2], random.Random(3))
        assert a == b

    def test_regular_simple_generator(self):
        rng = random.Random(14)
        H = cons.random_regular_simple(3, 3, rng)
        assert H.is_simple() and is_regular(H, 3)

    def test_stein_generator(self):
        rng = random.Random(15)
        H = cons.random_stein_instance(3, rng)
        assert is_regular(H, 3)
        assert is_p_simple(H, ("A", "B"), 1)

    def test_conj_drisko_generator(self):
        from trimatch.structures import max_degree

        rng = random.Random(16)
        H = cons.random_conj_drisko_instance(2, rng)
        assert H.side_sizes[0] == 3
        assert all(degree(H, "A", a) == 2 for a in range(3))
        assert max_degree(H, "B") <= 3 and max_degree(H, "C") <= 3

    @pytest.mark.parametrize("n,expected", [
        (2, "cd4ee6c48132faad"), (3, "6462ec65c44364dc"), (4, "c3d7cacfdf8b42ba")])
    def test_conj_drisko_generator_is_pinned(self, n, expected):
        # each instance and the next draw of its rng, so the degree repair
        # must make the same rng calls in the same order
        from trimatch.structures import hypergraph_to_json

        out = []
        for seed in range(10):
            rng = random.Random(seed)
            H = cons.random_conj_drisko_instance(n, rng)
            out.append([hypergraph_to_json(H), rng.getrandbits(32)])
        assert digest(out) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_degree_repair_removes_one_unit_of_overflow_a_pass(self, n):
        # every entry starts on one vertex; a pass makes two rng.choice
        # calls, so the passes are counted, and equal the overflow
        class Counting(random.Random):
            choices = 0

            def choice(self, seq):
                self.choices += 1
                return super().choice(seq)

        # the caps and entry counts of gen_theorem19_instance and of
        # random_conj_drisko_instance
        for cap, size in ((2, 2 * n - 1), (2 * n - 1, (2 * n - 1) * n)):
            assign, rng = [0] * size, Counting(n)
            cons._repair_degrees(assign, n, cap, rng)
            assert max(assign.count(b) for b in range(n)) <= cap
            assert rng.choices == 2 * max(size - cap, 0)

    def test_bounded_tri_generator(self):
        from trimatch.structures import max_degree, min_degree

        rng = random.Random(18)
        H = cons.random_bounded_tri(rng, 3, 6, 5, 3)
        assert H.is_simple()
        assert min_degree(H, "A") == 5
        assert max_degree(H, "B") <= 3 and max_degree(H, "C") <= 3

    def test_lemma31_graph_meets_profile(self):
        from trimatch.verifier import lemma31_hypothesis_holds

        rng = random.Random(19)
        for ell in (2, 3):
            for _ in range(20):
                G = cons.random_lemma31_graph(ell, rng, 12)
                assert len(G.edges) <= 12
                assert lemma31_hypothesis_holds(G, ell)

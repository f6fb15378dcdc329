import argparse
import dataclasses
import hashlib
import io
import json
import random

import pytest

from trimatch import verifier
from trimatch.cli import BUDGET_EXCEEDED, DISAGREEMENT, build_parser, main
from trimatch.constructions import cyclic_latin, gen_drisko_extremal, random_graph
from trimatch.solver import SolveResult
from trimatch.structures import (
    family_to_json,
    graph_to_json,
    hypergraph_to_json,
    latin_to_hypergraph,
    square_to_json,
    Graph,
)


# one valid input line of each kind
HYPER = '{"sides": [1, 1, 1], "edges": []}'
GRAPH = '{"vertices": 2, "edges": []}'
SQUARE = '{"n": 2, "cells": [[0, 1], [1, 0]]}'
HYPER_EDGE = '{"sides": [1, 1, 1], "edges": [[0, 0, 0]]}'
DRISKO_3 = family_to_json(gen_drisko_extremal(3))


# the flags each gen construction reads, and a value for every gen flag
GEN_FLAGS = {
    "drisko": ["--n"],
    "accommodating": ["--n", "--sizes"],
    "p3": ["--k"],
    "fracd-sharp": ["--n"],
    "double-a": ["-i"],
    "latin": ["--count", "--mode", "--n", "--seed"],
    "row-latin": ["--count", "--mode", "--n", "--seed"],
    "theorem19": ["--count", "--n", "--seed"],
}
ALL_GEN_FLAGS = {"--n": "3", "--k": "2", "--sizes": "1,2", "--mode": "cyclic", "--seed": "1",
                 "--count": "1", "-i": "-"}


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line.strip()]


class TestSolverVerbs:
    def test_nu(self, monkeypatch, capsys):
        line = json.dumps(hypergraph_to_json(latin_to_hypergraph(cyclic_latin(3))))
        code, out, err = run_cli(["nu"], line + "\n", monkeypatch, capsys)
        assert code == 0
        (result,) = json_lines(out)
        assert result["optimum"] == 3
        assert set(result) == {"optimum", "witness", "nodes"}

    def test_rainbow_target_missed_exits_1(self, monkeypatch, capsys):
        line = json.dumps(family_to_json(gen_drisko_extremal(3)))
        code, out, err = run_cli(["rainbow", "--target", "3"], line + "\n", monkeypatch, capsys)
        assert code == 1
        (result,) = json_lines(out)
        assert result["optimum"] == 2

    def test_rainbow_drisko_12_within_small_budget(self, monkeypatch, capsys):
        # identical members are twins, so the proof of optimum n - 1 is short
        _, out, _ = run_cli(["gen", "drisko", "--n", "12"], "", monkeypatch, capsys)
        code, out, _ = run_cli(["rainbow", "--target", "12", "--budget", "10000"], out,
                               monkeypatch, capsys)
        assert code == 1
        (result,) = json_lines(out)
        assert result["optimum"] == 11

    def test_rainbow_feasible(self, monkeypatch, capsys):
        line = json.dumps(family_to_json(gen_drisko_extremal(3)))
        code, out, _ = run_cli(["rainbow", "--target", "2"], line + "\n", monkeypatch, capsys)
        assert code == 0
        assert json_lines(out)[0]["optimum"] >= 2

    def test_diagonal(self, monkeypatch, capsys):
        line = json.dumps(square_to_json(cyclic_latin(4)))
        code, out, _ = run_cli(["diagonal", "--bound", "2"], line + "\n", monkeypatch, capsys)
        assert code == 0
        assert json_lines(out)[0]["optimum"] == 4
        code, out, _ = run_cli(["diagonal", "--bound", "1"], line + "\n", monkeypatch, capsys)
        assert code == 1

    def test_transversal(self, monkeypatch, capsys):
        payload = {
            "graph": {"vertices": 2, "edges": [[0, 1]]},
            "parts": [[0], [1]],
        }
        code, out, _ = run_cli(
            ["transversal", "--deficiency", "0"], json.dumps(payload) + "\n",
            monkeypatch, capsys,
        )
        assert code == 1
        assert json_lines(out)[0]["optimum"] == 1
        code, _, _ = run_cli(
            ["transversal", "--deficiency", "1"], json.dumps(payload) + "\n",
            monkeypatch, capsys,
        )
        assert code == 0

    def test_input_file_reads_like_stdin(self, monkeypatch, capsys, tmp_path):
        text = GOLDEN_INPUTS["hypergraphs"]
        path = tmp_path / "hypergraphs.jsonl"
        path.write_text(text)
        from_stdin = run_cli(["nu", "--format", "summary"], text, monkeypatch, capsys)
        from_file = run_cli(["nu", "--format", "summary", "-i", str(path)], "", monkeypatch,
                            capsys)
        assert from_file[:2] == from_stdin[:2]
        assert from_file[1].splitlines() == ["nu = 3", "nu = 1", "nu = 1"]

    def test_missing_input_file_is_a_usage_error(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "missing.jsonl"
        code, out, err = run_cli(["nu", "-i", str(path)], "", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert str(path) in err and "Traceback" not in err


class TestTopologyVerbs:
    def test_psi_empty_graph(self, monkeypatch, capsys):
        line = json.dumps({"vertices": 0, "edges": []})
        code, out, _ = run_cli(["psi"], line + "\n", monkeypatch, capsys)
        assert code == 0
        assert json_lines(out) == [{"psi": 0}]

    def test_psi_single_vertex_inf(self, monkeypatch, capsys):
        line = json.dumps({"vertices": 1, "edges": []})
        code, out, _ = run_cli(["psi"], line + "\n", monkeypatch, capsys)
        assert json_lines(out) == [{"psi": "inf"}]

    def test_psi_line(self, monkeypatch, capsys):
        line = json.dumps({"left": 2, "right": 1, "edges": [[0, 0], [1, 0]]})
        code, out, _ = run_cli(["psi-line"], line + "\n", monkeypatch, capsys)
        assert json_lines(out) == [{"psi": 1}]

    def test_eta_and_betti(self, monkeypatch, capsys):
        c6 = Graph(6, frozenset((i, (i + 1) % 6) for i in range(6)))
        line = json.dumps(graph_to_json(c6))
        code, out, _ = run_cli(["eta"], line + "\n", monkeypatch, capsys)
        assert json_lines(out) == [{"eta": 2}]
        code, out, _ = run_cli(["betti"], line + "\n", monkeypatch, capsys)
        assert json_lines(out)[0]["betti"] == [0, 0, 2, 0]

    def test_eta_of_a_path_past_the_face_limit(self, monkeypatch, capsys):
        # P_60 has more than 200 000 independent sets; folds reduce it to 20 edges
        p60 = Graph(60, frozenset((i, i + 1) for i in range(59)))
        line = json.dumps(graph_to_json(p60))
        code, out, _ = run_cli(["eta", "--format", "summary"], line + "\n", monkeypatch, capsys)
        assert code == 0
        assert out.splitlines()[-1] == "eta = 20"

    def test_eta_of_the_readme_graph(self, monkeypatch, capsys):
        G = random_graph(22, random.Random(5), p=0.35)
        line = json.dumps(graph_to_json(G))
        code, out, _ = run_cli(["eta"], line + "\n", monkeypatch, capsys)
        assert (code, json_lines(out)) == (0, [{"eta": 3}])

    def test_cycle_is_answered_without_faces(self, monkeypatch, capsys):
        c40 = Graph(40, frozenset((i, (i + 1) % 40) for i in range(40)))
        line = json.dumps(graph_to_json(c40))
        code, out, _ = run_cli(["eta"], line + "\n", monkeypatch, capsys)
        assert (code, json_lines(out)) == (0, [{"eta": 13}])

    def test_budget_exceeded_has_its_own_exit_code(self, monkeypatch, capsys):
        # the circulant C_40(1, 3) has no fold and is not a cycle, so its
        # complex still passes the face limit
        c40_13 = Graph(40, frozenset(
            (min(i, (i + s) % 40), max(i, (i + s) % 40)) for i in range(40) for s in (1, 3)))
        line = json.dumps(graph_to_json(c40_13))
        code, _, err = run_cli(["eta"], line + "\n", monkeypatch, capsys)
        assert code == BUDGET_EXCEEDED == 4
        assert "face count exceeded 200000" in err
        line = json.dumps(hypergraph_to_json(latin_to_hypergraph(cyclic_latin(6))))
        code, _, err = run_cli(["nu", "--budget", "3"], line + "\n", monkeypatch, capsys)
        assert code == BUDGET_EXCEEDED
        assert "budget exceeded" in err


class TestGen:
    def test_gen_drisko_round_trips_through_rainbow(self, monkeypatch, capsys):
        code, out, _ = run_cli(["gen", "drisko", "--n", "2"], "", monkeypatch, capsys)
        assert code == 0
        family_line = out.strip()
        code, out, _ = run_cli(["rainbow", "--target", "2"], family_line + "\n",
                               monkeypatch, capsys)
        assert code == 1  # extremal family misses the target

    def test_gen_latin_exhaustive_count(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["gen", "latin", "--n", "3", "--mode", "exhaustive"], "", monkeypatch, capsys
        )
        assert code == 0
        assert len(json_lines(out)) == 12

    @pytest.mark.parametrize("mode,kind", [
        (mode, kind) for kind in ("latin", "row-latin") for mode in ("exhaustive", "random",
                                                                     "cyclic")
    ] + [("random", "theorem19")])
    def test_gen_count_zero_prints_nothing(self, kind, mode, monkeypatch, capsys):
        # each command gets only the flags it reads: theorem19 draws at random
        # and has no --mode, and only the random mode reads --seed
        flags = [] if kind == "theorem19" else ["--mode", mode]
        flags += ["--seed", "1"] if mode == "random" else []
        code, out, err = run_cli(["gen", kind, "--n", "3", "--count", "0"] + flags, "",
                                 monkeypatch, capsys)
        assert code == 0
        assert out == ""
        assert "0 object(s) generated" in err

    @pytest.mark.parametrize("argv", [
        "gen latin --n 3 --count -1",
        "gen row-latin --n 3 --mode random --seed 1 --count -1",
        "gen theorem19 --n 2 --seed 1 --count -2",
    ])
    def test_gen_negative_count_is_a_usage_error(self, argv, monkeypatch, capsys):
        code, out, err = run_cli(argv.split(), "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"error: count must not be negative, got {argv.split()[-1]}" in err

    @pytest.mark.parametrize("kind", ["latin", "row-latin"])
    def test_gen_cyclic_stops_at_count(self, kind, monkeypatch, capsys):
        # the cyclic stream holds one square; --count 0 is checked above
        for count in ([], ["--count", "1"], ["--count", "2"]):
            code, out, _ = run_cli(["gen", kind, "--n", "3"] + count, "", monkeypatch, capsys)
            assert code == 0
            assert json_lines(out) == [square_to_json(cyclic_latin(3))]

    def test_gen_row_latin_cyclic_is_the_default(self, monkeypatch, capsys):
        code, out, _ = run_cli(["gen", "row-latin", "--n", "4"], "", monkeypatch, capsys)
        assert code == 0
        assert json_lines(out) == [square_to_json(cyclic_latin(4))]

    def test_gen_random_requires_seed(self, monkeypatch, capsys):
        code, _, err = run_cli(["gen", "latin", "--n", "3", "--mode", "random"],
                               "", monkeypatch, capsys)
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("argv, message", [
        ("gen latin --n 40 --mode random --seed 1", "capped at order 22, asked for 40"),
        ("verify CAMWAN_1_10 --random 1 --seed 1 --param n=40", "capped at order 22"),
        ("hunt CONJ_RBS_1_1 --budget 1 --seed 1 --param n=40", "capped at order 22"),
        ("gen latin --n -1 --mode random --seed 1", "order must be non-negative"),
        ("gen latin --n -1 --mode exhaustive", "order must be non-negative"),
    ])
    def test_latin_orders_out_of_reach_are_usage_errors(self, argv, message, monkeypatch,
                                                        capsys):
        code, out, err = run_cli(argv.split(), "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert "error: " in err and message in err

    def test_gen_seed_determinism(self, monkeypatch, capsys):
        args = ["gen", "theorem19", "--n", "2", "--seed", "5", "--count", "3"]
        _, out1, _ = run_cli(args, "", monkeypatch, capsys)
        _, out2, _ = run_cli(args, "", monkeypatch, capsys)
        assert out1 == out2

    def test_gen_double_a_pipes(self, monkeypatch, capsys):
        line = json.dumps(hypergraph_to_json(latin_to_hypergraph(cyclic_latin(2))))
        code, out, _ = run_cli(["gen", "double-a"], line + "\n", monkeypatch, capsys)
        assert code == 0
        doubled = json_lines(out)[0]
        assert doubled["sides"] == [4, 2, 2]
        assert len(doubled["edges"]) == 8

    def test_gen_accommodating(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["gen", "accommodating", "--n", "2", "--sizes", "0,1,2"], "",
            monkeypatch, capsys,
        )
        assert code == 0
        fam = json_lines(out)[0]
        assert len(fam["members"]) == 3

    def test_each_construction_accepts_only_the_flags_it_reads(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (gen,) = [a for a in sub.choices["gen"]._actions
                  if isinstance(a, argparse._SubParsersAction)]
        accepted = {name: sorted(action.option_strings[0] for action in parser._actions
                                 if action.option_strings and action.dest != "help")
                    for name, parser in gen.choices.items()}
        assert accepted == GEN_FLAGS
        assert sum(map(len, accepted.values())) == 17

    @pytest.mark.parametrize("name,flag", [
        (name, flag) for name, flags in GEN_FLAGS.items() for flag in ALL_GEN_FLAGS
        if flag not in flags])
    def test_a_flag_the_construction_does_not_read_exits_2(self, name, flag, monkeypatch,
                                                            capsys):
        needed = {"accommodating": ["--sizes", "0,1,2"], "theorem19": ["--seed", "1"]}
        argv = ["gen", name] + needed.get(name, []) + [flag, ALL_GEN_FLAGS[flag]]
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} {ALL_GEN_FLAGS[flag]}" in err

    @pytest.mark.parametrize("argv,message", [
        ("gen latin --n 3 --mode exhaustive --seed 1", "exhaustive mode takes no seed, got 1"),
        ("gen row-latin --n 3 --seed 1", "cyclic mode takes no seed, got 1"),
    ])
    def test_a_seed_outside_the_random_mode_exits_2(self, argv, message, monkeypatch,
                                                     capsys):
        code, out, err = run_cli(argv.split(), "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("argv,flag", [
        ("gen theorem19 --n 2", "--seed"),
        ("gen accommodating --n 2", "--sizes"),
        ("hunt CONJ_SYM_1_3 --budget 5", "--seed"),
        ("suite", "--theorems"),
    ])
    def test_a_missing_required_flag_exits_2(self, argv, flag, monkeypatch, capsys):
        code, out, err = run_cli(argv.split(), "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"the following arguments are required: {flag}" in err

    def test_a_size_that_is_not_an_integer_names_the_flag(self, monkeypatch, capsys):
        code, out, err = run_cli(["gen", "accommodating", "--n", "2", "--sizes", "1,x"], "",
                                 monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert "argument --sizes: expected comma-separated integers, got '1,x'" in err

    @pytest.mark.parametrize("verb", ["nu", "rainbow", "diagonal", "transversal"])
    @pytest.mark.parametrize("budget", ["0", "-1", "x"])
    def test_a_budget_below_one_node_names_the_flag(self, verb, budget, monkeypatch, capsys):
        # parsed before any input is read, so the empty stdin never matters
        code, out, err = run_cli([verb, f"--budget={budget}"], "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"argument --budget: expected a positive integer, got '{budget}'" in err

    def test_construction_flags_follow_its_name(self, monkeypatch, capsys):
        code, out, _ = run_cli(["gen", "--n", "3", "drisko"], "", monkeypatch, capsys)
        assert code == 2
        assert out == ""


class TestVerifyHuntSuite:
    def test_verify_exhaustive(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["verify", "ETA_GE_PSI_2_5", "--exhaustive", "--param", "max_vertices=4"],
            "", monkeypatch, capsys,
        )
        assert code == 0
        report = json_lines(out)[0]
        assert report["violations"] == []
        assert report["instances_checked"] == 19

    @pytest.mark.parametrize("argv,stdin_text,checked", [
        ("verify CONJ_FRACD_5_1 --exhaustive --param n=3 --param d=0", "", 1),
        ("verify CONJ_FRACD_5_1 --stdin", '{"sides": [2, 2, 2], "edges": []}\n', 1),
        ("hunt CONJ_FRACD_5_1 --budget 5 --seed 1 --param d=0", "", 5),
        # the double-delta draw divides by its B/C degree cap (deg_a + 1) // 2,
        # which is 0 here: it draws the edgeless hypergraph instead
        ("hunt REMARK_5_DOUBLE_DELTA --budget 1 --seed 1 --param deg_a=0", "", 1),
    ])
    def test_fracd_at_degree_0_is_vacuous(self, argv, stdin_text, checked, monkeypatch,
                                          capsys):
        # (d - 1) / d is undefined at d = 0, so no edgeless hypergraph on
        # nonempty sides meets the hypothesis
        code, out, _ = run_cli(argv.split(), stdin_text, monkeypatch, capsys)
        assert code == 0
        report = json_lines(out)[0]
        assert (report["instances_checked"], report["hypothesis_hits"]) == (checked, 0)
        assert report["violations"] == []

    def test_verify_summary_is_one_stdout_line(self, monkeypatch, capsys):
        argv = ["verify", "ETA_GE_PSI_2_5", "--exhaustive", "--param", "max_vertices=4",
                "--format", "summary"]
        code, out, _ = run_cli(argv, "", monkeypatch, capsys)
        assert code == 0
        assert out == "ETA_GE_PSI_2_5: 19 checked, 19 hypothesis hits, 0 violations\n"

    def test_param_without_equals_sign_exits_2(self, monkeypatch, capsys):
        argv = ["verify", "ETA_GE_PSI_2_5", "--exhaustive", "--param", "max_vertices"]
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 2 and out == ""
        assert "error: --param expects key=value, got 'max_vertices'" in err

    def test_verify_random_needs_seed(self, monkeypatch, capsys):
        code, _, err = run_cli(["verify", "DRISKO_1_5", "--random", "5"], "",
                               monkeypatch, capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        ("verify CAMWAN_1_10 --stdin --param max_order=9",
         "stdin scope takes no params, got {'max_order': 9}"),
        ("verify CAMWAN_1_10 --stdin --seed 4", "stdin scope takes no seed, got 4"),
        ("verify CAMWAN_1_10 --exhaustive --seed 4 --param max_order=3",
         "exhaustive scope takes no seed, got 4"),
    ])
    def test_verify_flag_its_scope_does_not_read_exits_2(self, argv, message, monkeypatch,
                                                         capsys):
        line = json.dumps(square_to_json(cyclic_latin(3)))
        code, out, err = run_cli(argv.split(), line + "\n", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("scopes", [
        ["--stdin", "--random", "5", "--seed", "1"],
        ["--random", "5", "--seed", "1", "--exhaustive"],
        ["--exhaustive", "--stdin"],
        [],
    ])
    def test_verify_scope_flags_are_exclusive(self, scopes, monkeypatch, capsys):
        line = json.dumps(family_to_json(gen_drisko_extremal(3)))
        code, out, err = run_cli(["verify", "DRISKO_1_5"] + scopes, line + "\n",
                                 monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert "--exhaustive" in err and "--random" in err and "--stdin" in err

    def test_verify_stdin_judges_each_line_as_it_is_read(self, monkeypatch, capsys):
        # the third line is not an object: the first two are judged before it is read
        judged = []
        real = verifier.graph_eta

        def counting(adj, mask, **kw):
            judged.append(mask)
            return real(adj, mask, **kw)

        monkeypatch.setattr(verifier, "graph_eta", counting)
        stdin = '{"vertices": 2, "edges": [[0, 1]]}\n{"vertices": 3, "edges": []}\n[1, 2]\n'
        code, out, err = run_cli(["verify", "ETA_GE_PSI_2_5", "--stdin"], stdin,
                                 monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert "error: input line 3: expected a JSON object" in err
        assert judged == [0b11, 0b111]

    def test_verify_stdin_pipe(self, monkeypatch, capsys):
        # gen X | verify --stdin round-trips without temp files or wrapping
        code, out, _ = run_cli(
            ["gen", "latin", "--n", "3", "--mode", "exhaustive"], "", monkeypatch, capsys
        )
        code, out, _ = run_cli(
            ["verify", "CAMWAN_1_10", "--stdin"], out, monkeypatch, capsys
        )
        assert code == 0
        report = json_lines(out)[0]
        assert report["instances_checked"] == 12
        assert report["violations"] == []

    def test_gen_drisko_pipes_into_drisko_verify(self, monkeypatch, capsys):
        # raw family input: n derives as the largest n with 2n-1 <= members,
        # so the 4-member extremal family is judged (and passes) at n = 2
        code, out, _ = run_cli(["gen", "drisko", "--n", "3"], "", monkeypatch, capsys)
        code, out, _ = run_cli(["verify", "DRISKO_1_5", "--stdin"], out,
                               monkeypatch, capsys)
        assert code == 0
        report = json_lines(out)[0]
        assert report["instances_checked"] == 1
        assert report["hypothesis_hits"] == 1
        assert report["violations"] == []

    def test_suite_theorems_quick(self, monkeypatch, capsys):
        code, out, err = run_cli(["suite", "--theorems"], "", monkeypatch, capsys)
        assert code == 0
        reports = json_lines(out)
        assert len(reports) == 10
        assert all(r["violations"] == [] for r in reports)
        assert all(r["disagreements"] == 0 for r in reports)
        assert "all statements clean" in err

    def test_verify_stdout_is_reproducible(self, monkeypatch, capsys):
        # identical seed and parameters give identical output bytes
        argv = ["verify", "DRISKO_1_5", "--random", "200", "--seed", "7"]
        code1, out1, _ = run_cli(argv, "", monkeypatch, capsys)
        code2, out2, _ = run_cli(argv, "", monkeypatch, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json_lines(out1)[0]["hypothesis_hits"] == 200

    def test_gen_accommodating_counterexample_is_not_a_violation(self, monkeypatch, capsys):
        # a non-accommodating family piped in raw stands for no instance of
        # the sufficiency direction, so it is counted but not judged
        _, out, _ = run_cli(["gen", "accommodating", "--n", "3", "--sizes", "1,1,2,3,3"],
                            "", monkeypatch, capsys)
        code, out, _ = run_cli(["verify", "ACCOMMODATING_1_8", "--stdin"], out,
                               monkeypatch, capsys)
        assert code == 0
        report = json_lines(out)[0]
        assert report["instances_checked"] == 1
        assert report["hypothesis_hits"] == 0
        assert report["violations"] == []

    def test_hunt(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["hunt", "CONJ_SYM_1_3", "--budget", "10", "--seed", "3", "--param", "n=2"],
            "", monkeypatch, capsys,
        )
        assert code == 0
        assert "no counterexample found" in err

    def test_hunt_solver_fault_exits_3(self, monkeypatch, capsys):
        # the oracle contradicts every candidate of a solver that reads 0
        monkeypatch.setattr(verifier, "max_matching_size",
                            lambda H, **kw: SolveResult(0, None, 0))
        code, out, err = run_cli(
            ["hunt", "CONJ_SYM_1_3", "--budget", "5", "--seed", "13", "--param", "n=2"],
            "", monkeypatch, capsys,
        )
        assert code == DISAGREEMENT == 3
        assert json_lines(out)[0]["disagreements"] == 5
        assert "disagreements=5" in err

    @staticmethod
    def plant_wrong_psi_entry(monkeypatch, graph_key):
        real = verifier.psi

        def planting(G, *, memo=None, **kw):
            if memo is not None:  # the sweep's table, not the re-check's
                # an exact entry of 50, but psi(K2) is 1
                memo[graph_key(2, [(0, 1)])] = (50, True)
            return real(G, memo=memo, **kw)

        monkeypatch.setattr(verifier, "psi", planting)

    def test_verify_table_fault_exits_3_not_1(self, monkeypatch, capsys, graph_key):
        self.plant_wrong_psi_entry(monkeypatch, graph_key)
        code, out, _ = run_cli(
            ["verify", "ETA_GE_PSI_2_5", "--exhaustive", "--param", "max_vertices=4"],
            "", monkeypatch, capsys,
        )
        report = json_lines(out)[0]
        assert code == 3
        assert report["violations"]
        assert report["disagreements"] == len(report["violations"])

    def test_suite_table_fault_exits_3(self, monkeypatch, capsys, graph_key):
        self.plant_wrong_psi_entry(monkeypatch, graph_key)
        code, out, err = run_cli(["suite", "--theorems"], "", monkeypatch, capsys)
        assert code == 3
        assert [r["statement"] for r in json_lines(out) if r["disagreements"]] == [
            "ETA_GE_PSI_2_5"]
        assert "VIOLATIONS FOUND" in err

    def test_confirmed_theorem_violation_still_exits_1(self, monkeypatch, capsys):
        rec = dataclasses.replace(verifier.STATEMENTS["ETA_GE_PSI_2_5"],
                                  conclusion=lambda inst, optimum: False)
        monkeypatch.setitem(verifier.STATEMENTS, "ETA_GE_PSI_2_5", rec)
        code, out, _ = run_cli(
            ["verify", "ETA_GE_PSI_2_5", "--exhaustive", "--param", "max_vertices=3"],
            "", monkeypatch, capsys,
        )
        report = json_lines(out)[0]
        assert code == 1
        assert report["violations"] and report["disagreements"] == 0

    def test_hunt_requires_seed(self, monkeypatch, capsys):
        code, _, _ = run_cli(["hunt", "CONJ_SYM_1_3", "--budget", "5"], "",
                             monkeypatch, capsys)
        assert code == 2


class TestErrorsAndManifest:
    def test_malformed_json_reports_position(self, monkeypatch, capsys):
        code, _, err = run_cli(["nu"], "{not json}\n", monkeypatch, capsys)
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_missing_payload_field_names_line_statement_and_field(self, monkeypatch, capsys):
        good = {"pgraph": {"graph": {"vertices": 2, "edges": [[0, 1]]}, "parts": [[0], [1]]},
                "deficiency": 1}
        bad = {"pgraph": good["pgraph"]}
        stdin = json.dumps(good) + "\n\n" + json.dumps(bad) + "\n"
        code, out, err = run_cli(["verify", "TOPHALL_DEF_2_4", "--stdin"], stdin,
                                 monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert "input line 3" in err
        assert "TOPHALL_DEF_2_4" in err and "'deficiency'" in err

    # a line holds only its kind's keys, so only the graph verb keeps "vertices"
    @pytest.mark.parametrize("argv,line,field", [
        (["psi"], '{"vertices": 3}', "edges"),
        (["psi-line"], "{}", "left"),
        (["nu"], "{}", "sides"),
        (["rainbow"], "{}", "graph"),
        (["diagonal", "--bound", "2"], "{}", "n"),
        (["transversal"], "{}", "graph"),
        (["gen", "double-a"], "{}", "sides"),
    ])
    def test_solver_verb_names_missing_field_and_line(self, argv, line, field, monkeypatch,
                                                      capsys):
        code, out, err = run_cli(argv, f"\n{line}\n", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"error: input line 2: missing field '{field}'" in err

    @pytest.mark.parametrize("argv,line,message", [
        # a hypergraph statement that reads n crashed (exit 1) or judged the
        # instance vacuous (exit 0) when the payload had no n; CONJ_FRACD_5_1
        # did the same without d
        *[(["verify", sid, "--stdin"], json.dumps({"hyper": json.loads(HYPER_EDGE)}),
           f"missing field 'n' in {sid} payload")
          for sid in ["ALMOST_DRISKO_1_9", "CONJ_DRISKO_1_6", "CONJ_GEN_5_3", "CONJ_RBS_1_1",
                      "CONJ_STEIN_1_2", "CONJ_SYM_1_3"]],
        (["verify", "CONJ_FRACD_5_1", "--stdin"],
         json.dumps({"hyper": json.loads(HYPER_EDGE), "n": 1}),
         "missing field 'd' in CONJ_FRACD_5_1 payload"),
        # parameters that the statement does not read were accepted and ignored
        (["verify", "DRISKO_1_5", "--stdin"], json.dumps({"family": DRISKO_3, "n": 3,
                                                          "expect": False}),
         "DRISKO_1_5 payload has unknown field 'expect'; accepted: family, n"),
        (["verify", "CONJ_ASYM_5_2", "--stdin"],
         json.dumps({"hyper": json.loads(HYPER_EDGE), "n": 7, "d": 2}),
         "CONJ_ASYM_5_2 payload has unknown field 'd', 'n'; accepted: hyper"),
        # a misspelt key of an object was dropped, and another object answered
        (["nu"], '{"sides": [1, 1, 1], "edges": [], "edgs": [[0, 0, 0]]}',
         "hypergraph has unknown field 'edgs'; accepted: sides, edges"),
        (["transversal"],
         '{"graph": {"vertices": 2, "edges": [], "edge": [[0, 1]]}, "parts": [[0, 1]]}',
         "graph has unknown field 'edge'; accepted: vertices, edges"),
        (["verify", "DRISKO_1_5", "--stdin"], json.dumps({"family": {**DRISKO_3, "x": 1},
                                                          "n": 3}),
         "family has unknown field 'x'; accepted: graph, members"),
    ])
    def test_every_field_is_declared_once(self, argv, line, message, monkeypatch, capsys):
        code, out, err = run_cli(argv, f"\n{line}\n", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"error: input line 2: {message}\n" in err

    @pytest.mark.parametrize("argv,good,line,message", [
        (["nu"], '{"sides": [1, 1, 1], "edges": [[0, 0, 0]]}',
         '{"sides": [1, 1, 1], "edges": [[5, 0, 0]]}',
         "edge (5, 0, 0) out of bounds for sides (1, 1, 1)"),
        (["psi"], '{"vertices": 2, "edges": [[0, 1]]}', '{"vertices": 2, "edges": [[0, 2]]}',
         "edge (0, 2) out of bounds"),
        (["diagonal", "--bound", "2"], '{"n": 1, "cells": [[0]]}',
         '{"n": 2, "cells": [[0, 2], [1, 0]]}', "symbol 2 out of range [0, 2)"),
        (["gen", "double-a"], '{"sides": [1, 1, 1], "edges": [[0, 0, 0]]}',
         '{"sides": [1, -1, 1], "edges": []}', "side_sizes must be three non-negative counts"),
    ])
    def test_out_of_range_value_names_its_line(self, argv, good, line, message, monkeypatch,
                                               capsys):
        code, _, err = run_cli(argv, f"{good}\n{line}\n", monkeypatch, capsys)
        assert code == 2
        assert f"error: input line 2: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,good,line", [
        (["psi"], '{"vertices": 2, "edges": [[0, 1]]}', "[1, 2]"),
        (["verify", "ETA_GE_PSI_2_5", "--stdin"], '{"vertices": 2, "edges": []}', "[1, 2]"),
        (["verify", "ETA_GE_PSI_2_5", "--stdin"], '{"vertices": 2, "edges": []}', "5"),
        (["gen", "double-a"], '{"sides": [1, 1, 1], "edges": [[0, 0, 0]]}', "[1, 2]"),
    ])
    def test_line_that_is_not_an_object_is_a_usage_error(self, argv, good, line, monkeypatch,
                                                         capsys):
        code, _, err = run_cli(argv, f"{good}\n{line}\n", monkeypatch, capsys)
        assert code == 2
        assert "error: input line 2: expected a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,good,line,message", [
        (["nu"], '{"sides": [1, 1, 1], "edges": []}', '{"sides": 5, "edges": []}',
         "field 'sides': 5 is not a list"),
        (["verify", "CONJ_RBS_1_1", "--stdin"], '{"sides": [1, 1, 1], "edges": [[0, 0, 0]]}',
         '{"sides": 5, "edges": []}', "field 'sides': 5 is not a list"),
        # an array given as a number was iterated: "'int' object is not iterable"
        (["nu"], HYPER, '{"sides": [1, 1, 1], "edges": 5}', "field 'edges': 5 is not a list"),
        (["diagonal", "--bound", "2"], SQUARE, '{"n": 2, "cells": 5}',
         "field 'cells': 5 is not a list"),
        (["transversal"], '{"graph": ' + GRAPH + ', "parts": [[0]]}',
         '{"graph": ' + GRAPH + ', "parts": 5}', "field 'parts': 5 is not a list"),
        (["rainbow"], '{"graph": {"left": 1, "right": 1, "edges": []}, "members": []}',
         '{"graph": {"left": 1, "right": 1, "edges": [[0, 0]]}, "members": [5]}',
         "field 'members': 5 is not a list"),
        (["psi"], '{"vertices": 2, "edges": []}', '{"vertices": "3", "edges": []}',
         "field 'vertices': '3' is not an integer"),
        (["verify", "ETA_GE_PSI_2_5", "--stdin"], '{"vertices": 2, "edges": []}',
         '{"vertices": "3", "edges": []}', "field 'vertices': '3' is not an integer"),
        # a JSON number that is not an integer was truncated by int() and
        # answered: 1.9 read as 1, true as 1
        (["nu"], HYPER, '{"sides": [2, 2, 2], "edges": [[0, 0, 1.9]]}',
         "field 'edges': 1.9 is not an integer"),
        (["nu"], HYPER, '{"sides": [2.9, 2, 2], "edges": []}',
         "field 'sides': 2.9 is not an integer"),
        (["nu"], HYPER, '{"sides": [2, 2, 2], "edges": [[0, true, 1]]}',
         "field 'edges': True is not an integer"),
        (["psi"], GRAPH, '{"vertices": 3, "edges": [[0, 1.5]]}',
         "field 'edges': 1.5 is not an integer"),
        (["psi"], GRAPH, '{"vertices": 2.5, "edges": []}',
         "field 'vertices': 2.5 is not an integer"),
        (["eta"], GRAPH, '{"vertices": true, "edges": []}',
         "field 'vertices': True is not an integer"),
        (["diagonal", "--bound", "2"], SQUARE, '{"n": 2, "cells": [[0.2, 1], [1, 0]]}',
         "field 'cells': 0.2 is not an integer"),
        (["diagonal", "--bound", "2"], SQUARE, '{"n": 2.0, "cells": [[0, 1], [1, 0]]}',
         "field 'n': 2.0 is not an integer"),
        (["psi-line"], '{"left": 1, "right": 1, "edges": []}',
         '{"left": 1, "right": 1.0, "edges": []}', "field 'right': 1.0 is not an integer"),
        (["rainbow"], '{"graph": {"left": 1, "right": 1, "edges": []}, "members": []}',
         '{"graph": {"left": 1, "right": 1, "edges": [[0, 0]]}, "members": [[[0, 0.0]]]}',
         "field 'members': 0.0 is not an integer"),
        (["transversal"], '{"graph": ' + GRAPH + ', "parts": [[0]]}',
         '{"graph": ' + GRAPH + ', "parts": [[0, 1.0]]}', "field 'parts': 1.0 is not an integer"),
        (["verify", "CAMWAN_1_10", "--stdin"], '{"square": ' + SQUARE + '}',
         '{"square": {"n": 1, "cells": [[false]]}}', "field 'cells': False is not an integer"),
    ])
    def test_value_of_the_wrong_type_names_its_line(self, argv, good, line, message,
                                                    monkeypatch, capsys):
        code, _, err = run_cli(argv, f"{good}\n{line}\n", monkeypatch, capsys)
        assert code == 2
        assert f"error: input line 2: {message}" in err
        assert "Traceback" not in err

    def test_internal_type_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken(G):
            raise TypeError("internal")

        monkeypatch.setattr("trimatch.cli.psi", broken)
        with pytest.raises(TypeError, match="internal"):
            run_cli(["psi"], '{"vertices": 2, "edges": [[0, 1]]}\n', monkeypatch, capsys)

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken(G):
            raise KeyError("internal")

        monkeypatch.setattr("trimatch.cli.psi", broken)
        with pytest.raises(KeyError, match="internal"):
            run_cli(["psi"], '{"vertices": 2, "edges": [[0, 1]]}\n', monkeypatch, capsys)

    @pytest.mark.parametrize("argv,unknown,accepted", [
        (["verify", "LEMMA_3_1", "--random", "2", "--seed", "0", "--param", "ell=x"],
         "'ell'", "ells, max_edges"),
        (["verify", "ETA_GE_PSI_2_5", "--exhaustive", "--param", "foo=1"],
         "'foo'", "max_vertices"),
        (["hunt", "CONJ_SYM_1_3", "--budget", "2", "--seed", "0", "--param", "foo=1"],
         "'foo'", "n"),
    ])
    def test_unknown_param_is_a_usage_error(self, argv, unknown, accepted, monkeypatch,
                                            capsys):
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"unknown parameter {unknown}; accepted: {accepted}\n" in err

    @pytest.mark.parametrize("argv,message", [
        (["verify", "STRONG_CAMWAN_1_12", "--exhaustive", "--param", "max_order=2.5"],
         "parameter 'max_order' expects an int, got 2.5"),
        (["verify", "ETA_GE_PSI_2_5", "--exhaustive", "--param", 'max_vertices="x"'],
         "parameter 'max_vertices' expects an int, got 'x'"),
        (["verify", "CAMWAN_1_10", "--random", "3", "--seed", "1", "--param", 'n="x"'],
         "parameter 'n' expects an int, got 'x'"),
        (["verify", "DRISKO_1_5", "--random", "3", "--seed", "1", "--param", "n_values=5"],
         "parameter 'n_values' expects a list of ints, got 5"),
        # every parameter is a count: out of range is a usage error too
        (["verify", "CAMWAN_1_10", "--random", "3", "--seed", "1", "--param", "n=-1"],
         "parameter 'n' must not be negative, got -1"),
        (["hunt", "CONJ_RBS_1_1", "--budget", "3", "--seed", "1", "--param", "n=-1"],
         "parameter 'n' must not be negative, got -1"),
        (["verify", "DRISKO_1_5", "--random", "3", "--seed", "1", "--param", "n_values=[]"],
         "parameter 'n_values' must not be empty"),
        (["verify", "LEMMA_3_1", "--random", "3", "--seed", "1", "--param", "ells=[]"],
         "parameter 'ells' must not be empty"),
        (["verify", "STRONG_CAMWAN_1_12", "--exhaustive", "--param", "max_order=-1"],
         "parameter 'max_order' must not be negative, got -1"),
        # so is the trial count, and the random eta/psi cap holds at 0 trials
        (["verify", "DRISKO_1_5", "--random", "-5", "--seed", "1"],
         "trial count must not be negative, got -5"),
        (["hunt", "CONJ_RBS_1_1", "--budget", "-3", "--seed", "1"],
         "trial count must not be negative, got -3"),
        (["verify", "ETA_GE_PSI_2_5", "--random", "0", "--seed", "1", "--param", "vertices=9"],
         "random eta/psi capped at 8 vertices"),
    ])
    def test_param_of_the_wrong_kind_is_a_usage_error(self, argv, message, monkeypatch,
                                                      capsys):
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_report_line_counts_conclusions_judged(self, monkeypatch, capsys):
        # the 39 row-Latin squares of order <= 3 fall into 24 row-order classes
        code, out, err = run_cli(
            ["verify", "STRONG_CAMWAN_1_12", "--exhaustive", "--param", "max_order=3"],
            "", monkeypatch, capsys)
        assert code == 0
        assert "judged" not in out
        assert ("STRONG_CAMWAN_1_12: checked=39 hits=39 judged=24 violations=0 "
                "disagreements=0") in err

    def test_unknown_verb_usage_error(self, monkeypatch, capsys):
        code, _, _ = run_cli(["frobnicate"], "", monkeypatch, capsys)
        assert code == 2

    def test_manifest_emitted_once(self, monkeypatch, capsys):
        line = json.dumps({"vertices": 0, "edges": []})
        _, _, err = run_cli(["psi"], line + "\n", monkeypatch, capsys)
        assert err.count("manifest:") == 1

    def test_manifest_reproducible_digests(self, monkeypatch, capsys, tmp_path):
        line = json.dumps(square_to_json(cyclic_latin(3)))
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        run_cli(["--manifest", str(m1), "diagonal", "--bound", "2"], line + "\n",
                monkeypatch, capsys)
        run_cli(["--manifest", str(m2), "diagonal", "--bound", "2"], line + "\n",
                monkeypatch, capsys)
        d1 = json.loads(m1.read_text())
        d2 = json.loads(m2.read_text())
        assert d1["input_digest"] == d2["input_digest"]
        assert d1["output_digest"] == d2["output_digest"]

    def test_summary_format(self, monkeypatch, capsys):
        line = json.dumps(hypergraph_to_json(latin_to_hypergraph(cyclic_latin(3))))
        code, out, _ = run_cli(["nu", "--format", "summary"], line + "\n",
                               monkeypatch, capsys)
        assert code == 0
        assert "nu = 3" in out


# Fixed inputs for the golden outputs below, one JSON object per line.
GOLDEN_INPUTS = {
    "hypergraphs": (
        '{"sides": [3, 3, 3], "edges": [[0, 0, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1], '
        '[1, 1, 0], [1, 2, 2], [2, 0, 2], [2, 1, 1], [2, 2, 0]]}\n'
        '\n'
        '{"sides": [2, 2, 2], "edges": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]}\n'
        '{"sides": [2, 1, 1], "edges": [[0, 0, 0], [1, 0, 0], [1, 0, 0]]}\n'
    ),
    "families": (
        '{"graph": {"left": 3, "right": 3, "edges": [[0, 0], [0, 2], [1, 0], [1, 1], '
        '[2, 1], [2, 2]]}, "members": [[[0, 0], [1, 1], [2, 2]], [[0, 0], [1, 1], [2, 2]], '
        '[[0, 2], [1, 0], [2, 1]], [[0, 2], [1, 0], [2, 1]]]}\n'
        '{"graph": {"left": 8, "right": 8, "edges": [[0, 0], [1, 0], [1, 1], [2, 2], [3, 2], '
        '[3, 3], [4, 4], [5, 4], [5, 5], [6, 6], [7, 6], [7, 7]]}, "members": '
        '[[[1, 0], [3, 2]], [[1, 0], [3, 2]], [[0, 0], [1, 1], [3, 2]], '
        '[[0, 0], [1, 1], [2, 2], [3, 3]]]}\n'
    ),
    "squares": (
        '{"n": 4, "cells": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]}\n'
        '{"n": 3, "cells": [[1, 2, 0], [2, 0, 1], [0, 2, 1]]}\n'
        '{"n": 2, "cells": [[0, 1], [0, 1]]}\n'
    ),
    "partitioned": (
        '{"graph": {"vertices": 2, "edges": [[0, 1]]}, "parts": [[0], [1]]}\n'
        '{"graph": {"vertices": 6, "edges": [[0, 2], [1, 3], [2, 4], [3, 5]]}, '
        '"parts": [[0, 1], [2, 3], [4, 5]]}\n'
    ),
    "graphs": (
        '{"vertices": 0, "edges": []}\n'
        '{"vertices": 1, "edges": []}\n'
        '{"vertices": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}\n'
        '{"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}\n'
        '{"vertices": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]}\n'
    ),
    "bipartite": (
        '{"left": 2, "right": 1, "edges": [[0, 0], [1, 0]]}\n'
        '{"left": 3, "right": 3, "edges": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2], [2, 0]]}\n'
    ),
    "none": "",
}

# (argv, input) -> (exit code, SHA-256 of stdout), recorded before the verbs
# became table rows; a change here is a change of the CLI's output bytes
GOLDEN = {
    ("nu --format json", "hypergraphs"):
        (0, "f762a6cc9aa7040a7c7575a035a75745ded998c7c33ff36b623b6c7ba0bb4496"),
    ("nu --format summary", "hypergraphs"):
        (0, "0da1a92b680a360de0f9c8bb28621e7aeceff42d5d836c013309f619dd0d9be5"),
    ("nu --budget 3 --format json", "hypergraphs"):
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nu --budget 3 --format summary", "hypergraphs"):
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("rainbow --format json", "families"):
        (0, "6b3efd472aefbe307b9f5a6a06e1c55e9ae687144c601b53505a4c9997e092db"),
    ("rainbow --format summary", "families"):
        (0, "d23dcf03bd5d792565c74dc876ef6d1b17765395623fe703d09069d2d5edda9a"),
    ("rainbow --target 3 --format json", "families"):
        (1, "b9c12f5fe1b2a1ab9a8c64dce842c1e86102a1cc1649406cd8b84a01c9f580e5"),
    ("rainbow --target 3 --format summary", "families"):
        (1, "948d1c55d2d8e5457063183d4b2ac229c4106b5baf27c91290843dedc033759b"),
    ("diagonal --bound 1 --format json", "squares"):
        (1, "32ca0d9e3ed6d48a1aa085f81fd889654edac2ef51a13c38e449547173455653"),
    ("diagonal --bound 1 --format summary", "squares"):
        (1, "3327c106a6440cbee0cc321aaac41e89e424de9e1f719d6e6c898da51617bbb2"),
    ("diagonal --bound 2 --format json", "squares"):
        (0, "52a07b1541c0fead40ba5593ca50fc56cb4a3795aac7d19392d10c63fd919512"),
    ("diagonal --bound 2 --format summary", "squares"):
        (0, "7d9defdfd722972e1c1e1cbf906e224c5daaced9acb8932a2ab2bad86194da4a"),
    # the two transversal json digests were re-recorded when the search moved
    # from maximal independent sets to the parts: only "nodes" changed
    ("transversal --format json", "partitioned"):
        (1, "193d8ee6bbbb89834213e5ffdb7f9382283ac76deb2b0612c76b5981e4f7a5c2"),
    ("transversal --format summary", "partitioned"):
        (1, "92e9195dbe933f6dbf92be11ded1dcb54fc6edc1ed18032b76a4e87c939fdc73"),
    ("transversal --deficiency 1 --format json", "partitioned"):
        (0, "193d8ee6bbbb89834213e5ffdb7f9382283ac76deb2b0612c76b5981e4f7a5c2"),
    ("transversal --deficiency 1 --format summary", "partitioned"):
        (0, "9a88f8144240ce2fd1b70c415f420cd2fe2436b0baeaf9921ed63de69a86d04c"),
    ("psi --format json", "graphs"):
        (0, "90880dc60984d05147201e62c4546a0766c0e9edd265b63f60238560504d8d8e"),
    ("psi --format summary", "graphs"):
        (0, "d6713c9c02459dc0728f767fcfb50fe675a26072181c33a7a49bc45c44c4ff8b"),
    ("psi-line --format json", "bipartite"):
        (0, "41d4dd62d8ccd091ba4717644c7567ccc8375b24a82a6480a17a13d9e38144ca"),
    ("psi-line --format summary", "bipartite"):
        (0, "9f9351a73752b9354dc11bcfb542410269a5717b1ab33ac9d7d0a142db809285"),
    ("eta --format json", "graphs"):
        (0, "9aa041d754c4ea2cea3b01b0ed53629750b347cfd3dd0ec336fd425667b026f2"),
    ("eta --format summary", "graphs"):
        (0, "57e5c5558d87af6014975719a84f663666be49de17198090cdd2779bc65db964"),
    ("betti --format json", "graphs"):
        (0, "ed3a1cd2e85fb81c7c8560db67b956e0f58df97ba38a1bd2638311e1215cd519"),
    ("betti --format summary", "graphs"):
        (0, "c870f441fac071f0b3afef298a2d8e463f5d9a9df873685ce4092ce397567a1d"),
    ("gen drisko --n 3", "none"):
        (0, "31b7fe5ba7ea63af6495c0b9cdcf751263e3a7f941f924fd0add9caba5468145"),
    ("gen accommodating --n 3 --sizes 1,1,2,3,3", "none"):
        (0, "49cc117773f029bba4d70e11eadec011cef37d997c125ac0624d90a3dfdecc3f"),
    ("gen p3 --k 3", "none"):
        (0, "8162f712bf12bb205fb57f4debe35a96a217cb400cbe5c34457d36bbbdeda7c6"),
    ("gen fracd-sharp --n 3", "none"):
        (0, "3fbff088febf80a5c66446ab6b87a31da0384e3f81186c431d5bc47f7bc744b5"),
    ("gen latin --n 3", "none"):
        (0, "59a520d0fe39849200d2dfbbf41c0527b7fb3dc1e64d833adc9c6d449cdbdc30"),
    ("gen latin --n 3 --mode random --seed 2 --count 3", "none"):
        (0, "ae658043447c1b04b2e4b9ba324cc4c64de14d28be501fe013b0b9f1974826f6"),
    ("gen latin --n 3 --mode exhaustive", "none"):
        (0, "71e9b20c8ca8437115a7e94c865b0307690a781f16f60c33b4d3027eb6f48b0d"),
    ("gen row-latin --n 3", "none"):
        (0, "59a520d0fe39849200d2dfbbf41c0527b7fb3dc1e64d833adc9c6d449cdbdc30"),
    ("gen row-latin --n 3 --mode random --seed 2 --count 3", "none"):
        (0, "f42cbe71ea8540fe6f85997d60495083d390f428d912a1b948e808984801e4c3"),
    ("gen row-latin --n 3 --mode exhaustive --count 7", "none"):
        (0, "5989bfceb795c0398aa8dcb65c36aa4a619fc78de97bae93c487a2ff999d3a3f"),
    ("gen theorem19 --n 3 --seed 5 --count 2", "none"):
        (0, "415440717c56153c7bddfef8e3ae28635ded2ada2195aa62df9e228a13ef0305"),
    ("gen double-a", "hypergraphs"):
        (0, "687e24fa91b1dc864f8faea01070181cc4490cdebee25027e1209ee5f81e3056"),
    # the sweeps, recorded before the graph mask operations moved to
    # structures: they judge every statement through game, homology and
    # solver
    ("suite --theorems", "none"):
        (0, "d485a308c40c3130b95357a171714ee80036fd03bc147c2957e47c60653611d8"),
    ("verify ETA_GE_PSI_2_5 --exhaustive", "none"):
        (0, "761a5ec2350837fcb283636feb844f41a0bdf8133a0eb8b5838424306aa13277"),
    ("verify TOPHALL_DEF_2_4 --random 200 --seed 1", "none"):
        (0, "a416fef6641b7bbd33cc635d22ddb05ae4425c728dafceb6fb03ba3aad4a6b58"),
    ("hunt CONJ_DRISKO_1_6 --budget 30 --seed 1", "none"):
        (0, "029d2f609bbcb9f18e751ba4e533cdbd4c41da581fb9ca768ee8d3635adf7f2e"),
}


@pytest.mark.parametrize("argv,source", sorted(GOLDEN), ids=str)
def test_golden_output(argv, source, monkeypatch, capsys):
    code, out, _ = run_cli(argv.split(), GOLDEN_INPUTS[source], monkeypatch, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv, source]

"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import io
import json
import random
import time

import pytest

from trimatch import constructions as cons
from trimatch import oracle
from trimatch.cli import main as cli_main
from trimatch.game import line_graph, psi, psi_at_least
from trimatch.homology import betti, eta_homological, euler_characteristic_check, independence_complex
from trimatch.solver import find_bounded_diagonal, find_rainbow_matching, max_matching_size
from trimatch.structures import (
    MatchingFamily,
    TriHypergraph,
    family_to_json,
    is_regular,
)
from trimatch.verifier import (
    ascending_sequences,
    enumerate_graphs_up_to_iso,
    is_accommodating_shaped,
    lemma31_hypothesis_holds,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def run_cli(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(l) for l in out.strip().splitlines() if l.strip()]


def test_criterion_1_drisko_sharpness(monkeypatch, capsys):
    """Extremal families: rainbow target n infeasible at optimum n-1; one
    extra odd matching tips them over."""
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in (2, 3):
        F = cons.gen_drisko_extremal(n)
        line = json.dumps(family_to_json(F)) + "\n"
        code, results = run_cli(["rainbow", "--target", str(n)], line, monkeypatch, capsys)
        infeasible = code == 1 and results[0]["optimum"] == n - 1
        F2 = MatchingFamily(F.host, F.members + (cons.cycle_odd_matching(n),))
        line2 = json.dumps(family_to_json(F2)) + "\n"
        code2, results2 = run_cli(["rainbow", "--target", str(n)], line2, monkeypatch, capsys)
        feasible = code2 == 0 and results2[0]["optimum"] >= n
        ok = ok and infeasible and feasible
        detail.append(f"n={n}: optimum {results[0]['optimum']}, +1 matching -> {results2[0]['optimum']}")
    elapsed = time.monotonic() - t0
    report("criterion 1: extremal sharpness", ok and elapsed < 1.0,
           "; ".join(detail) + f"; {elapsed:.2f}s < 1s")


def test_criterion_2_random_families_reach_n():
    """10^4 seeded families at n=3 with the tight size profile all contain a
    rainbow matching of size 3."""
    t0 = time.monotonic()
    rng = random.Random(20260)
    failures = 0
    for _ in range(10_000):
        F = cons.random_family(cons.drisko_profile(3), rng)
        if find_rainbow_matching(F, target=3).optimum < 3:
            failures += 1
    elapsed = time.monotonic() - t0
    report("criterion 2: 10^4 profile families", failures == 0 and elapsed < 120,
           f"{failures} failures; {elapsed:.1f}s < 120s")


def test_criterion_3_accommodating_necessity():
    """Every below-threshold ascending sequence (n <= 3, entries <= n) yields
    a constructed family with no rainbow n-matching, by exhaustive search."""
    t0 = time.monotonic()
    checked = 0
    failures = 0
    for n in (1, 2, 3):
        for a in ascending_sequences(n):
            if is_accommodating_shaped(a, n):
                continue
            F = cons.gen_accommodating_counterexample(a, n)
            if any(len(m) < x for m, x in zip(F.members, a)):
                failures += 1
            if oracle.rainbow_oracle(F) >= n:
                failures += 1
            checked += 1
    elapsed = time.monotonic() - t0
    report("criterion 3: below-threshold sequences", failures == 0 and elapsed < 60,
           f"{checked} sequences, {failures} failures; {elapsed:.1f}s < 60s")


# complexes computed in criterion 4, reused by criterion 10's Euler check
_CRITERION4_COMPLEXES = []


def test_criterion_4_eta_dominates_psi():
    """Connectivity of the independence complex is at least the game value:
    exhaustively to 6 vertices (156 classes at exactly 6), plus 500 random
    7-vertex graphs."""
    t0 = time.monotonic()
    memo = {}
    violations = 0
    six_count = 0
    for n in range(0, 7):
        classes = enumerate_graphs_up_to_iso(n)
        if n == 6:
            six_count = len(classes)
        for G in classes:
            C = independence_complex(G)
            _CRITERION4_COMPLEXES.append(C)
            if eta_homological(C) < psi(G, memo=memo):
                violations += 1
    rng = random.Random(20261)
    for _ in range(500):
        G = cons.random_graph(7, rng)
        C = independence_complex(G)
        _CRITERION4_COMPLEXES.append(C)
        if eta_homological(C) < psi(G, memo=memo):
            violations += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 4: eta >= psi",
        violations == 0 and six_count == 156 and elapsed < 600,
        f"{six_count} classes at 6 vertices, {violations} violations; {elapsed:.1f}s < 600s",
    )


def test_criterion_5_line_graph_game_bound():
    """10^3 seeded bipartite graphs meeting the degree profile at each of
    ell = 2, 3 (<= 12 edges) have game value at least ell on the line graph."""
    t0 = time.monotonic()
    violations = 0
    memo = {}
    for ell in (2, 3):
        rng = random.Random(20262 + ell)
        for _ in range(1000):
            G = cons.random_lemma31_graph(ell, rng, 12)
            assert lemma31_hypothesis_holds(G, ell)
            if not psi_at_least(line_graph(G), ell, memo=memo):
                violations += 1
    elapsed = time.monotonic() - t0
    report("criterion 5: psi(L(G)) >= ell", violations == 0 and elapsed < 600,
           f"2000 graphs, {violations} violations; {elapsed:.1f}s < 600s")


def test_criterion_6_bounded_diagonals():
    """All 576 order-4 Latin squares and all normalized row-Latin squares of
    orders 3 and 4 admit a diagonal with symbol multiplicity at most 2."""
    t0 = time.monotonic()
    failures = 0
    checked = 0
    for L in cons.gen_latin(4, "exhaustive"):
        if find_bounded_diagonal(L, 2).optimum != 4:
            failures += 1
        checked += 1
    latin_count = checked
    for n in (3, 4):
        for L in cons.gen_row_latin(n, "exhaustive"):
            if find_bounded_diagonal(L, 2).optimum != n:
                failures += 1
            checked += 1
    elapsed = time.monotonic() - t0
    report(
        "criterion 6: multiplicity-2 diagonals",
        failures == 0 and latin_count == 576 and elapsed < 300,
        f"{checked} squares ({latin_count} Latin), {failures} failures; {elapsed:.1f}s < 300s",
    )


def test_criterion_7_function_row_instances():
    """10^3 seeded generator outputs at each of n = 2, 3 all reach a full
    matching."""
    t0 = time.monotonic()
    violations = 0
    for n in (2, 3):
        for seed in range(1000):
            H = cons.gen_theorem19_instance(n, 716000 + seed)
            if max_matching_size(H, target=n).optimum < n:
                violations += 1
    elapsed = time.monotonic() - t0
    report("criterion 7: function-row instances", violations == 0 and elapsed < 120,
           f"2000 instances, {violations} violations; {elapsed:.1f}s < 120s")


def test_criterion_8_p3_family_optimum():
    """The disjoint-paths family has rainbow optimum exactly floor(3k/2)."""
    t0 = time.monotonic()
    ok = True
    detail = []
    for k in (2, 4):
        opt = find_rainbow_matching(cons.gen_p3_family(k)).optimum
        ok = ok and opt == 3 * k // 2
        detail.append(f"k={k}: {opt} == {3 * k // 2}")
    elapsed = time.monotonic() - t0
    report("criterion 8: paths family optimum", ok and elapsed < 60,
           "; ".join(detail) + f"; {elapsed:.1f}s < 60s")


def test_criterion_9_sharp_regular_construction():
    """The pinned-corner construction is (2n-2)-regular, simple, and has
    matching number exactly n-1 by brute force."""
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in (2, 3):
        H = cons.gen_fracd_sharp(n)
        regular = is_regular(H, 2 * n - 2)
        simple = H.is_simple()
        nu = oracle.matching_number_oracle(H)
        ok = ok and regular and simple and nu == n - 1
        detail.append(f"n={n}: regular={regular} simple={simple} nu={nu}")
    elapsed = time.monotonic() - t0
    report("criterion 9: sharp regular construction", ok and elapsed < 60,
           "; ".join(detail) + f"; {elapsed:.1f}s < 60s")


def test_criterion_10_oracle_equivalence():
    """Solvers agree with brute-force enumeration; Betti numbers satisfy
    Euler-Poincare on every complex from criterion 4."""
    t0 = time.monotonic()
    mismatches = 0

    # matching number vs full subset enumeration, 10^3 random hypergraphs
    rng = random.Random(20263)
    for _ in range(1000):
        sides = tuple(rng.randrange(1, 5) for _ in range(3))
        m = rng.randrange(0, 13)
        edges = tuple(
            (rng.randrange(sides[0]), rng.randrange(sides[1]), rng.randrange(sides[2]))
            for _ in range(m)
        )
        H = TriHypergraph(sides, edges)
        if max_matching_size(H).optimum != oracle.matching_number_oracle(H):
            mismatches += 1

    # game value vs unmemoized recursion on all graphs up to 5 vertices
    memo = {}
    psi_graphs = 0
    for n in range(0, 6):
        for G in enumerate_graphs_up_to_iso(n):
            if psi(G, memo=memo) != oracle.psi_oracle(G):
                mismatches += 1
            psi_graphs += 1

    # Euler-Poincare on every complex computed in criterion 4
    complexes = _CRITERION4_COMPLEXES or [
        independence_complex(G)
        for n in range(0, 6)
        for G in enumerate_graphs_up_to_iso(n)
    ]
    euler_failures = sum(
        1 for C in complexes if not euler_characteristic_check(C, betti(C))
    )
    elapsed = time.monotonic() - t0
    report(
        "criterion 10: oracle equivalence",
        mismatches == 0 and euler_failures == 0,
        f"1000 hypergraphs, {psi_graphs} psi graphs, {len(complexes)} complexes, "
        f"{mismatches} mismatches, {euler_failures} Euler failures; {elapsed:.1f}s",
    )


def test_theorem_suite_gate():
    """The shipped theorem catalog reports zero violations end to end."""
    from trimatch.verifier import run_theorem_suite

    t0 = time.monotonic()
    reports, clean = run_theorem_suite()
    elapsed = time.monotonic() - t0
    report("theorem suite gate", clean,
           f"{sum(r.instances_checked for r in reports)} instances; {elapsed:.1f}s")

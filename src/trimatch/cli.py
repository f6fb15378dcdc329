"""Command-line entry point wiring all modules together.

Machine-readable JSON goes to stdout (one line per instance), a short human
summary and the run manifest go to stderr.  Exit codes: 0 success, 1 when
a theorem-suite violation occurs or an asserted feasibility fails, 2 on
usage errors (including malformed JSON, reported with its position, an
input line that is not a JSON object, and an input line that lacks a
field, reported with its line and the field), 3 when a recorded violation
is contradicted by its own re-check (a disagreement), and 4 when a search
or complex exceeds its budget (`BudgetExceededError`), so no answer exists.
"""

import argparse
import hashlib
import json
import math
import platform
import sys
import time

from . import __version__
from . import constructions as cons
from . import verifier
from .errors import BudgetExceededError, ConstructionError, InfeasibleScopeError
from .game import psi, psi_line
from .homology import betti, graph_eta, independence_complex
from .solver import (
    find_bounded_diagonal,
    find_independent_transversal,
    find_rainbow_matching,
    max_matching_size,
)
from .structures import (
    bipartite_graph_from_json,
    family_from_json,
    family_to_json,
    graph_from_json,
    hypergraph_from_json,
    hypergraph_to_json,
    partitioned_graph_from_json,
    square_from_json,
    square_to_json,
)

USAGE_ERROR = 2
# a recorded violation that its re-check contradicts: a solver or table fault
DISAGREEMENT = 3
# a search or complex outgrew its node, memo or face budget: no answer
BUDGET_EXCEEDED = 4


class _UsageError(Exception):
    pass


def _read_json_lines(stream):
    """Yield (line_number, parsed object) for each nonempty input line."""
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _UsageError(
                f"malformed JSON on input line {lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise _UsageError(f"input line {lineno}: expected a JSON object")
        yield lineno, data


def _parse_line(parse, lineno, data):
    try:
        return parse(data)
    except KeyError as exc:
        raise _UsageError(f"input line {lineno}: missing field {exc.args[0]!r}") from None


def _open_input(args):
    if getattr(args, "input", None) and args.input != "-":
        return open(args.input, "r", encoding="utf-8")
    return sys.stdin


def _value_to_json(v):
    if v == math.inf:
        return "inf"
    return v


class _Manifest:
    def __init__(self, argv):
        self.argv = argv
        self.start = time.monotonic()
        self.input_hash = hashlib.sha256()
        self.output_hash = hashlib.sha256()
        self.seed = None

    def note_input(self, obj):
        self.input_hash.update(json.dumps(obj, sort_keys=True).encode())

    def emit_output(self, obj, fmt="json"):
        text = json.dumps(obj, sort_keys=True)
        self.output_hash.update(text.encode())
        if fmt == "json":
            print(text)

    def finish(self, path=None):
        data = {
            "command": self.argv,
            "seed": self.seed,
            "versions": {"trimatch": __version__, "python": platform.python_version()},
            "input_digest": self.input_hash.hexdigest(),
            "output_digest": self.output_hash.hexdigest(),
            "wall_time": round(time.monotonic() - self.start, 3),
        }
        print(f"manifest: {json.dumps(data, sort_keys=True)}", file=sys.stderr)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2)
        return data


def _solve_lines(args, manifest, parse, solve, summarize):
    """Shared driver for the per-line solver verbs."""
    exit_code = 0
    count = 0
    stream = _open_input(args)
    try:
        for lineno, data in _read_json_lines(stream):
            manifest.note_input(data)
            obj = _parse_line(parse, lineno, data)
            result, ok = solve(obj)
            manifest.emit_output(result, args.format)
            if args.format == "summary":
                print(summarize(result, ok))
            if not ok:
                exit_code = 1
            count += 1
    finally:
        if stream is not sys.stdin:
            stream.close()
    print(f"{count} instance(s) processed", file=sys.stderr)
    return exit_code


def _cmd_nu(args, manifest):
    def solve(H):
        res = max_matching_size(H, node_budget=args.budget)
        return (
            {"optimum": res.optimum, "witness": [list(e) for e in sorted(res.witness.edges)],
             "nodes": res.nodes_explored},
            True,
        )

    return _solve_lines(args, manifest, hypergraph_from_json, solve,
                        lambda r, ok: f"nu = {r['optimum']}")


def _cmd_rainbow(args, manifest):
    def solve(F):
        res = find_rainbow_matching(F, target=args.target, node_budget=args.budget)
        ok = args.target is None or res.optimum >= args.target
        return (
            {"optimum": res.optimum,
             "witness": [[i, list(e)] for i, e in res.witness],
             "nodes": res.nodes_explored},
            ok,
        )

    return _solve_lines(args, manifest, family_from_json, solve,
                        lambda r, ok: f"rainbow optimum = {r['optimum']}"
                                      + ("" if ok else " (target missed)"))


def _cmd_diagonal(args, manifest):
    def solve(L):
        res = find_bounded_diagonal(L, args.bound, node_budget=args.budget)
        ok = res.optimum == L.order
        witness = (
            list(res.witness.entries) if hasattr(res.witness, "entries")
            else [list(c) for c in res.witness]
        )
        return (
            {"optimum": res.optimum, "witness": witness, "nodes": res.nodes_explored},
            ok,
        )

    return _solve_lines(args, manifest, square_from_json, solve,
                        lambda r, ok: f"diagonal size = {r['optimum']}"
                                      + ("" if ok else " (no full diagonal)"))


def _cmd_transversal(args, manifest):
    def solve(P):
        res = find_independent_transversal(P, deficiency=args.deficiency,
                                           node_budget=args.budget)
        ok = res.optimum >= len(P.parts) - args.deficiency
        return (
            {"optimum": res.optimum, "witness": list(res.witness),
             "nodes": res.nodes_explored},
            ok,
        )

    return _solve_lines(args, manifest, partitioned_graph_from_json, solve,
                        lambda r, ok: f"parts covered = {r['optimum']}"
                                      + ("" if ok else " (deficiency missed)"))


def _cmd_psi(args, manifest):
    def solve(G):
        return {"psi": _value_to_json(psi(G))}, True

    return _solve_lines(args, manifest, graph_from_json, solve,
                        lambda r, ok: f"psi = {r['psi']}")


def _cmd_psi_line(args, manifest):
    def solve(G):
        return {"psi": _value_to_json(psi_line(G))}, True

    return _solve_lines(args, manifest, bipartite_graph_from_json, solve,
                        lambda r, ok: f"psi = {r['psi']}")


def _cmd_eta(args, manifest):
    def solve(G):
        eta = graph_eta(G.adj, (1 << G.n) - 1)
        return {"eta": _value_to_json(eta)}, True

    return _solve_lines(args, manifest, graph_from_json, solve,
                        lambda r, ok: f"eta = {r['eta']}")


def _cmd_betti(args, manifest):
    def solve(G):
        bv = betti(independence_complex(G))
        return {"betti": list(bv.values), "from_dimension": -1}, True

    return _solve_lines(args, manifest, graph_from_json, solve,
                        lambda r, ok: f"betti = {r['betti']}")


def _cmd_gen(args, manifest):
    manifest.seed = args.seed
    emitted = 0

    def emit(obj):
        nonlocal emitted
        manifest.emit_output(obj, "json")  # generated objects are the output
        emitted += 1

    c = args.construction
    if c == "drisko":
        emit(family_to_json(cons.gen_drisko_extremal(args.n)))
    elif c == "accommodating":
        sizes = [int(x) for x in args.sizes.split(",")]
        emit(family_to_json(cons.gen_accommodating_counterexample(sizes, args.n)))
    elif c == "p3":
        emit(family_to_json(cons.gen_p3_family(args.k)))
    elif c == "fracd-sharp":
        emit(hypergraph_to_json(cons.gen_fracd_sharp(args.n)))
    elif c == "double-a":
        stream = _open_input(args)
        try:
            for lineno, data in _read_json_lines(stream):
                manifest.note_input(data)
                H = _parse_line(hypergraph_from_json, lineno, data)
                emit(hypergraph_to_json(cons.double_side_A(H)))
        finally:
            if stream is not sys.stdin:
                stream.close()
    elif c == "latin":
        if args.mode == "random" and args.seed is None:
            raise _UsageError("gen latin --mode random requires --seed")
        for L in cons.gen_latin(args.n, args.mode, seed=args.seed, count=args.count):
            emit(square_to_json(L))
    elif c == "row-latin":
        if args.mode == "random" and args.seed is None:
            raise _UsageError("gen row-latin --mode random requires --seed")
        for L in cons.gen_row_latin(args.n, args.mode, seed=args.seed, count=args.count):
            emit(square_to_json(L))
    elif c == "theorem19":
        if args.seed is None:
            raise _UsageError("gen theorem19 requires --seed")
        for i in range(1 if args.count is None else args.count):
            emit(hypergraph_to_json(cons.gen_theorem19_instance(args.n, args.seed + i)))
    else:
        raise _UsageError(f"unknown construction {c!r}")
    print(f"{emitted} object(s) generated", file=sys.stderr)
    return 0


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise _UsageError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _report_out(report, args, manifest):
    manifest.emit_output(report.to_json(), args.format)
    if args.format == "summary":
        print(
            f"{report.statement}: {report.instances_checked} checked, "
            f"{report.hypothesis_hits} hypothesis hits, "
            f"{len(report.violations)} violations"
        )
    print(
        f"{report.statement}: checked={report.instances_checked} "
        f"hits={report.hypothesis_hits} violations={len(report.violations)} "
        f"disagreements={report.disagreements}",
        file=sys.stderr,
    )


def _cmd_verify(args, manifest):
    params = _parse_params(args.param)
    if args.stdin:
        payloads = []
        for lineno, data in _read_json_lines(sys.stdin):
            manifest.note_input(data)
            payloads.append((lineno, data))
        report = verifier.verify_serialized_stream(args.statement, payloads,
                                                   cert_dir=args.cert_dir)
    elif args.random is not None:
        if args.seed is None:
            raise _UsageError("randomized verification requires --seed")
        manifest.seed = args.seed
        scope = verifier.Scope("randomized", trials=args.random, seed=args.seed,
                               params=params)
        report = verifier.verify(args.statement, scope, cert_dir=args.cert_dir)
    elif args.exhaustive:
        scope = verifier.Scope("exhaustive", params=params)
        report = verifier.verify(args.statement, scope, cert_dir=args.cert_dir)
    else:
        raise _UsageError("choose one of --exhaustive, --random T, or --stdin")
    _report_out(report, args, manifest)
    if report.disagreements:
        return DISAGREEMENT
    if verifier.statement_kind(args.statement) == "theorem" and report.violations:
        return 1
    return 0


def _cmd_hunt(args, manifest):
    if args.seed is None:
        raise _UsageError("hunt requires --seed")
    manifest.seed = args.seed
    params = _parse_params(args.param)
    report = verifier.hunt(args.statement, args.budget, args.seed, params=params,
                           cert_dir=args.cert_dir)
    _report_out(report, args, manifest)
    if report.violations:
        print("counterexample candidates recorded", file=sys.stderr)
    else:
        print("no counterexample found in budget (not a confirmation)", file=sys.stderr)
    return DISAGREEMENT if report.disagreements else 0


def _cmd_suite(args, manifest):
    if not args.theorems:
        raise _UsageError("suite currently supports --theorems")

    def progress(report):
        _report_out(report, args, manifest)

    reports, clean = verifier.run_theorem_suite(cert_dir=args.cert_dir, progress=progress)
    if not clean:
        print("theorem suite: VIOLATIONS FOUND", file=sys.stderr)
    else:
        print("theorem suite: all statements clean", file=sys.stderr)
    if any(report.disagreements for report in reports):
        return DISAGREEMENT
    return 0 if clean else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trimatch",
        description="Exact rainbow-matching / hypergraph-matching toolkit "
                    "with a topology-backed verification harness.",
    )
    parser.add_argument("--manifest", help="also write the run manifest to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=True):
        p.add_argument("-i", "--input", default="-", help="input file (default stdin)")
        p.add_argument("--format", choices=["json", "summary"], default="json")
        if budget:
            p.add_argument("--budget", type=int, default=10_000_000,
                           help="search node budget")

    p = sub.add_parser("nu", help="maximum matching size of a tripartite hypergraph")
    add_common(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("rainbow", help="rainbow matching in a matching family")
    add_common(p)
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=_cmd_rainbow)

    p = sub.add_parser("diagonal", help="bounded-multiplicity diagonal of a square")
    add_common(p)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_diagonal)

    p = sub.add_parser("transversal", help="partial independent transversal")
    add_common(p)
    p.add_argument("--deficiency", type=int, default=0)
    p.set_defaults(func=_cmd_transversal)

    p = sub.add_parser("psi", help="deletion/explosion game value of a graph")
    add_common(p, budget=False)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("psi-line", help="game value on the line graph of a bipartite graph")
    add_common(p, budget=False)
    p.set_defaults(func=_cmd_psi_line)

    p = sub.add_parser("eta", help="homological connectivity of the independence complex")
    add_common(p, budget=False)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("betti", help="reduced Betti numbers of the independence complex")
    add_common(p, budget=False)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("gen", help="emit constructions as JSON lines")
    p.add_argument("construction",
                   choices=["drisko", "accommodating", "p3", "fracd-sharp",
                            "double-a", "latin", "row-latin", "theorem19"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--sizes", default="", help="comma-separated size sequence")
    p.add_argument("--mode", choices=["cyclic", "random", "exhaustive"],
                   default="cyclic")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("-i", "--input", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="sweep a statement over a scope")
    p.add_argument("statement", choices=list(verifier.ALL_STATEMENT_IDS))
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--random", type=int, default=None, metavar="TRIALS")
    p.add_argument("--stdin", action="store_true",
                   help="judge serialized instances from stdin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--cert-dir", default=None)
    p.add_argument("--format", choices=["json", "summary"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt", help="randomized counterexample hunt for a conjecture")
    p.add_argument("statement", choices=list(verifier.CONJECTURE_IDS))
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--cert-dir", default=None)
    p.add_argument("--format", choices=["json", "summary"], default="json")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("suite", help="run the zero-violation theorem catalog")
    p.add_argument("--theorems", action="store_true")
    p.add_argument("--cert-dir", default=None)
    p.add_argument("--format", choices=["json", "summary"], default="json")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    manifest = _Manifest(["trimatch"] + argv)
    try:
        code = args.func(args, manifest)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ConstructionError, InfeasibleScopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_EXCEEDED
    manifest.finish(args.manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())

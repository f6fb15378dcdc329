"""Command-line entry point wiring all modules together.

Every per-line verb (`nu`, `rainbow`, `diagonal`, `transversal`, `psi`,
`psi-line`, `eta`, `betti`) is one row of `VERBS`, and every `gen`
construction is one row of `GENERATORS`.  Each row lists the flags its
command reads; `build_parser` adds exactly those, so argparse rejects any
other flag, and one driver per table runs the rows.  One reader,
`_read_input`, yields the JSON lines of `-i` or stdin to the solver verbs, `gen double-a` and `verify --stdin`, each line
decoded once by its `parse` hook (`verifier.deserialize_instance` for
`verify --stdin`), so `verify --stdin` judges each line as it is read and
keeps no list of them.

Machine-readable JSON goes to stdout (one line per instance), a short human
summary and the run manifest go to stderr.  Exit codes: 0 success, 1 when
a theorem-suite violation occurs or an asserted feasibility fails, 2 on
usage errors (including an `-i` file that cannot be opened, reported with
its path, malformed JSON, reported with its position, an input line that is
not a JSON object, lacks a field, or holds a value of the wrong JSON type or
one its constructor rejects, reported with its line, a flag the command
does not read, and conflicting or missing `verify` scope flags), 3 when a
recorded violation is contradicted by its own re-check (a disagreement),
and 4 when a search or complex exceeds its budget (`BudgetExceededError`),
so no answer exists.
"""

import argparse
import functools
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import __version__
from . import constructions as cons
from . import verifier
from .errors import BudgetExceededError, ConstructionError, InfeasibleScopeError
from .game import line_graph, psi
from .homology import betti, graph_eta, independence_complex
from .solver import (
    DEFAULT_NODE_BUDGET,
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


def _read_input(args, manifest, parse=None):
    """Yield (line number, object) for each nonempty line of `-i` or stdin.

    Each line must be a JSON object; it is recorded in the manifest and
    passed through `parse` when one is given.  A line that `parse` rejects
    with a ValueError (a missing or unknown field, or a value its
    constructor refuses) or a TypeError (a value of the wrong JSON type) is
    a usage error naming the line.
    """
    path = getattr(args, "input", None) or "-"
    try:
        stream = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read input file {path}: {exc.strerror}") from None
    try:
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
            manifest.note_input(data)
            try:
                obj = data if parse is None else parse(data)
            except (TypeError, ValueError) as exc:
                raise _UsageError(f"input line {lineno}: {exc}") from exc
            yield lineno, obj
    finally:
        if stream is not sys.stdin:
            stream.close()


def _value_to_json(v):
    return "inf" if v == math.inf else v


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


# ---------------------------------------------------------------------------
# Per-line verbs.  Solvers are looked up by their global names at call time,
# so a patched or traced `trimatch.cli.psi` is the one that runs.


@dataclass(frozen=True)
class _Verb:
    """One per-line verb: parse each input line, solve it, report it."""

    help: str
    parse: Callable
    solve: Callable  # (args, parsed line) -> (result, ok); a miss exits 1
    summary: str  # --format summary line, formatted with the result's fields
    miss: str = ""  # appended to the summary line when ok is False
    options: tuple = ()  # (flag names..., add_argument keywords) beyond -i and --format


_INPUT = ("-i", "--input", {"default": "-", "help": "input file (default stdin)"})
_FORMAT = ("--format", {"choices": ["json", "summary"], "default": "json"})


def _positive_int(text):
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


_BUDGET = ("--budget", {"type": _positive_int, "default": DEFAULT_NODE_BUDGET,
                        "help": "search node budget"})


def _searched(res, witness):
    return {"optimum": res.optimum, "witness": witness, "nodes": res.nodes_explored}


def _nu(args, H):
    res = max_matching_size(H, node_budget=args.budget)
    return _searched(res, [list(e) for e in res.witness]), True


def _rainbow(args, F):
    res = find_rainbow_matching(F, target=args.target, node_budget=args.budget)
    ok = args.target is None or res.optimum >= args.target
    return _searched(res, [[i, list(e)] for i, e in res.witness]), ok


def _diagonal(args, L):
    res = find_bounded_diagonal(L, args.bound, node_budget=args.budget)
    full = res.optimum == L.order  # a full diagonal prints as its columns
    witness = [col for _, col in res.witness] if full else [list(c) for c in res.witness]
    return _searched(res, witness), full


def _transversal(args, P):
    res = find_independent_transversal(P, deficiency=args.deficiency,
                                       node_budget=args.budget)
    return _searched(res, list(res.witness)), res.optimum >= len(P.parts) - args.deficiency


VERBS = {
    "nu": _Verb("maximum matching size of a tripartite hypergraph", hypergraph_from_json,
                _nu, "nu = {optimum}", options=(_BUDGET,)),
    "rainbow": _Verb("rainbow matching in a matching family", family_from_json,
                     _rainbow, "rainbow optimum = {optimum}", " (target missed)",
                     (_BUDGET, ("--target", {"type": int, "default": None}))),
    "diagonal": _Verb("bounded-multiplicity diagonal of a square", square_from_json,
                      _diagonal, "diagonal size = {optimum}", " (no full diagonal)",
                      (_BUDGET, ("--bound", {"type": int, "required": True}))),
    "transversal": _Verb("partial independent transversal", partitioned_graph_from_json,
                         _transversal, "parts covered = {optimum}", " (deficiency missed)",
                         (_BUDGET, ("--deficiency", {"type": int, "default": 0}))),
    "psi": _Verb("deletion/explosion game value of a graph", graph_from_json,
                 lambda args, G: ({"psi": _value_to_json(psi(G))}, True), "psi = {psi}"),
    "psi-line": _Verb("game value on the line graph of a bipartite graph",
                      bipartite_graph_from_json,
                      lambda args, G: ({"psi": _value_to_json(psi(line_graph(G)))}, True),
                      "psi = {psi}"),
    "eta": _Verb("homological connectivity of the independence complex", graph_from_json,
                 lambda args, G: ({"eta": _value_to_json(graph_eta(G.adj, (1 << G.n) - 1))},
                                  True),
                 "eta = {eta}"),
    "betti": _Verb("reduced Betti numbers of the independence complex", graph_from_json,
                   lambda args, G: ({"betti": list(betti(independence_complex(G)).values),
                                     "from_dimension": -1}, True),
                   "betti = {betti}"),
}


def _cmd_verb(args, manifest):
    """The one driver of the per-line verbs."""
    verb = VERBS[args.command]
    exit_code = 0
    count = 0
    for _, obj in _read_input(args, manifest, verb.parse):
        result, ok = verb.solve(args, obj)
        manifest.emit_output(result, args.format)
        if args.format == "summary":
            print(verb.summary.format(**result) + ("" if ok else verb.miss))
        if not ok:
            exit_code = 1
        count += 1
    print(f"{count} instance(s) processed", file=sys.stderr)
    return exit_code


# ---------------------------------------------------------------------------
# gen: each construction maps (args, manifest) to the JSON objects it emits.


@dataclass(frozen=True)
class _Construction:
    """One `gen` construction: the objects it emits and the flags it reads."""

    build: Callable  # (args, manifest) -> the JSON objects to emit
    options: tuple  # (flag names..., add_argument keywords)


def _int_list(text):
    """An argparse type: a comma-separated list of integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


_N = ("--n", {"type": int, "default": 3})
_COUNT = ("--count", {"type": int, "default": None})
# --seed is read only by --mode random, and the library rejects it elsewhere
_SQUARE = (_N, ("--mode", {"choices": ["cyclic", "random", "exhaustive"],
                           "default": "cyclic"}),
           ("--seed", {"type": int, "default": None}), _COUNT)

GENERATORS = {
    "drisko": _Construction(
        lambda args, manifest: [family_to_json(cons.gen_drisko_extremal(args.n))], (_N,)),
    "accommodating": _Construction(
        lambda args, manifest: [family_to_json(cons.gen_accommodating_counterexample(
            args.sizes, args.n))],
        (_N, ("--sizes", {"type": _int_list, "required": True,
                          "help": "comma-separated size sequence"}))),
    "p3": _Construction(
        lambda args, manifest: [family_to_json(cons.gen_p3_family(args.k))],
        (("--k", {"type": int, "default": 2}),)),
    "fracd-sharp": _Construction(
        lambda args, manifest: [hypergraph_to_json(cons.gen_fracd_sharp(args.n))], (_N,)),
    "double-a": _Construction(
        lambda args, manifest: (hypergraph_to_json(cons.double_side_A(H))
                                for _, H in _read_input(args, manifest, hypergraph_from_json)),
        (_INPUT,)),
    "latin": _Construction(
        lambda args, manifest: map(square_to_json, cons.gen_latin(
            args.n, args.mode, seed=args.seed, count=args.count)), _SQUARE),
    "row-latin": _Construction(
        lambda args, manifest: map(square_to_json, cons.gen_row_latin(
            args.n, args.mode, seed=args.seed, count=args.count)), _SQUARE),
    "theorem19": _Construction(
        lambda args, manifest: map(hypergraph_to_json, cons.gen_theorem19(
            args.n, args.seed, args.count)),
        (_N, ("--seed", {"type": int, "required": True}), _COUNT)),
}


def _cmd_gen(args, manifest):
    manifest.seed = getattr(args, "seed", None)  # None for a construction that draws nothing
    emitted = 0
    for obj in GENERATORS[args.construction].build(args, manifest):
        manifest.emit_output(obj, "json")  # generated objects are the output
        emitted += 1
    print(f"{emitted} object(s) generated", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify, hunt and suite


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
        f"hits={report.hypothesis_hits} judged={report.judged} "
        f"violations={len(report.violations)} disagreements={report.disagreements}",
        file=sys.stderr,
    )


def _cmd_verify(args, manifest):
    mode = "stdin" if args.stdin else "exhaustive" if args.exhaustive else "randomized"
    scope = verifier.Scope(mode, args.random, args.seed, _parse_params(args.param))
    manifest.seed = args.seed
    instances = None
    if args.stdin:
        parse = functools.partial(verifier.deserialize_instance, args.statement)
        instances = (inst for _, inst in _read_input(args, manifest, parse))
    report = verifier.verify(args.statement, scope, cert_dir=args.cert_dir,
                             instances=instances)
    _report_out(report, args, manifest)
    if report.disagreements:
        return DISAGREEMENT
    if verifier.statement_kind(args.statement) == "theorem" and report.violations:
        return 1
    return 0


def _cmd_hunt(args, manifest):
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
    reports, clean = verifier.run_theorem_suite(
        cert_dir=args.cert_dir, progress=lambda report: _report_out(report, args, manifest))
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

    def add_options(p, options):
        for *flags, keywords in options:
            p.add_argument(*flags, **keywords)

    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        add_options(p, (_INPUT, _FORMAT) + verb.options)
        p.set_defaults(func=_cmd_verb)

    p = sub.add_parser("gen", help="emit constructions as JSON lines")
    constructions = p.add_subparsers(dest="construction", required=True)
    for name, construction in GENERATORS.items():
        add_options(constructions.add_parser(name), construction.options)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="sweep a statement over a scope")
    p.add_argument("statement", choices=list(verifier.ALL_STATEMENT_IDS))
    scope = p.add_mutually_exclusive_group(required=True)
    scope.add_argument("--exhaustive", action="store_true")
    scope.add_argument("--random", type=int, default=None, metavar="TRIALS")
    scope.add_argument("--stdin", action="store_true",
                       help="judge serialized instances from stdin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--cert-dir", default=None)
    add_options(p, (_FORMAT,))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt", help="randomized counterexample hunt for a conjecture")
    p.add_argument("statement", choices=list(verifier.CONJECTURE_IDS))
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--cert-dir", default=None)
    add_options(p, (_FORMAT,))
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("suite", help="run the zero-violation theorem catalog")
    p.add_argument("--theorems", action="store_true", required=True)
    p.add_argument("--cert-dir", default=None)
    add_options(p, (_FORMAT,))
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
    except (_UsageError, ValueError, ConstructionError, InfeasibleScopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_EXCEEDED
    manifest.finish(args.manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())

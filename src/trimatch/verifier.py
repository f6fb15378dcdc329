"""Theorem and conjecture harness.

Every catalogued statement is one `Statement` record in `STATEMENTS`: its
instance kind, a hypothesis predicate, a conclusion predicate, a random
draw and, for some, an exhaustive stream.  A draw, `draw(rng, *, params)`,
makes one instance; a stream builder, `stream(*, params)`, yields every
instance its parameters name, once `verify` has held them to the
statement's cap.  `verify` sweeps a scope (exhaustive at tiny
sizes, seeded randomized at small sizes, or instances read from stdin) and
records every hypothesis-true, conclusion-false instance as a violation;
`hunt` does the same for conjectures with a trial budget.  A `Scope`
checks its own fields when it is built; a randomized sweep then checks
its parameters once, seeds one rng and calls the draw once per trial.
Vacuous instances (hypothesis false) are counted but never judged, so a
sweep can never "confirm" a statement it never actually tested.

Each instance kind has one `_Codec`: its JSON writer and reader (which owns
the object's keys), the exact solver for the optimum its conclusions are
stated in, and the brute-force oracle for the same optimum.  Each statement
declares its own parameters, so a payload is the object plus exactly those.
A conclusion is written once as a function of that optimum, so a candidate
violation is re-judged from its serialized form by the solver and, when
the instance is small enough, by the oracle, through the same predicate.
"""

import functools
import itertools
import json
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

from . import constructions as cons
from . import oracle
from .canonical import graph_classes
from .errors import InfeasibleScopeError
from .game import line_graph, psi
from .homology import graph_eta, topological_hall_subsets
from .solver import (
    find_bounded_diagonal,
    find_independent_transversal,
    find_rainbow_matching,
    max_matching_size,
)
from .structures import (
    INFINITY,
    _fields,
    _is_int,
    bipartite_graph_from_json,
    bipartite_graph_to_json,
    family_from_json,
    family_to_json,
    graph_from_json,
    graph_from_masks,
    graph_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    is_p_simple,
    is_regular,
    latin_to_hypergraph,
    max_degree,
    min_degree,
    partitioned_graph_from_json,
    partitioned_graph_to_json,
    square_from_json,
    square_to_json,
)

MAX_RANDOM_TRIALS = 1_000_000

# psi_oracle recomputes every subgame: its time grows about 8x per edge and
# reaches 0.06 s at 8 edges (4 s at 10), so it re-checks no larger game
PSI_ORACLE_EDGE_LIMIT = 8


# the fields each scope mode reads; a scope that sets any other is rejected
_SCOPE_FIELDS = {"exhaustive": ("params",), "randomized": ("trials", "seed", "params"),
                 "stdin": ()}


@dataclass(frozen=True)
class Scope:
    """What `verify` sweeps: exhaustive(params), randomized(trials, seed,
    params), or stdin, the instances handed to `verify` by its caller.

    A scope checks its own fields when it is built, with a ValueError that
    names the field: a mode takes only the fields it reads, and a
    randomized scope needs a seed and a trial count of at least 0.  More
    than MAX_RANDOM_TRIALS trials raise InfeasibleScopeError.  `params` are
    keyword arguments of the statement's stream builder or draw, checked
    against the statement by `_stream`.
    """

    mode: str  # "exhaustive" | "randomized" | "stdin"
    trials: int = None
    seed: int = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _SCOPE_FIELDS:
            raise ValueError(f"unknown scope mode {self.mode!r}")
        for name in ("trials", "seed", "params"):
            value = getattr(self, name)
            if value not in (None, {}) and name not in _SCOPE_FIELDS[self.mode]:
                raise ValueError(f"{self.mode} scope takes no {name}, got {value!r}")
        if self.mode != "randomized":
            return
        if self.seed is None:
            raise ValueError("randomized scope requires a seed")
        if self.trials is None:
            raise ValueError("randomized scope requires a trial count")
        if self.trials < 0:
            raise ValueError(f"trial count must not be negative, got {self.trials}")
        if self.trials > MAX_RANDOM_TRIALS:
            raise InfeasibleScopeError("trial budget beyond the cap table")

    def describe(self):
        keep = ("mode",) + _SCOPE_FIELDS[self.mode]
        return {name: value for name, value in asdict(self).items() if name in keep}


@dataclass
class VerificationReport:
    statement: str
    scope: dict
    instances_checked: int = 0
    hypothesis_hits: int = 0
    violations: list = field(default_factory=list)
    # violations whose re-check contradicts the sweep: a fault of the
    # solver or of the shared psi table, not a counterexample
    disagreements: int = 0
    seed: int = None
    # conclusions computed: the hits whose verdict was not read from the
    # verdict table.  It goes to the stderr report line only, so to_json
    # (the stdout form) leaves it out
    judged: int = 0

    def to_json(self):
        data = asdict(self)
        del data["judged"]
        return data


# ---------------------------------------------------------------------------
# Instance kinds


@dataclass(frozen=True)
class _Codec:
    """One instance kind: its object, under `key` in a payload, written by
    `to_json` and read by `from_json`, which accepts exactly the keys
    `to_json` writes.  The parameters that go with it are the statement's.

    `solve(inst, target=None)` returns the optimum the kind's conclusions
    are stated in, whether or not a target is given; given one it may stop
    at any value that is at least the target exactly when the optimum is.
    The two kinds solved by psi, a graph and (for `LEMMA_3_1`) the line
    graph of a bipartite graph, share one solve, min(psi, target), and set
    `psi_memo`: their `solve` also takes `memo`, the sweep's psi table, and
    uses a fresh one when it is None.  `oracle(inst)` returns the same
    optimum by brute force, or None when the instance is beyond its reach.

    `canonical(inst)`, when set, maps an instance to a hashable key such that
    two instances with equal keys get the same verdict from every conclusion
    stated on the kind; `verify` then computes one conclusion per key.  The
    key must be sound but need not be complete: instances that share a
    verdict may still get different keys.  None judges every instance.
    """

    key: str
    to_json: object
    from_json: object
    solve: object
    oracle: object
    psi_memo: bool = False
    canonical: object = None


# `verify` clears its sweep's psi table, and its verdict table, before an
# instance once the table holds this many entries.  The psi table has one
# entry per canonical state searched at a cap of 3 or more, exact or a lower
# bound, whatever caps the sweep asks at.  ETA_GE_PSI_2_5 within its cap
# needs at most 12 112 (the connected graphs on 2 to 8 vertices).  Every
# state has an exact key of about 210 bytes with its entry, and random
# LEMMA_3_1 instances share most of their states: a 10**6-trial run at the
# default parameters and seed 190047 fills 882 entries (17 MiB peak for the
# whole process; 1 206 entries while cap-2 states were keyed too).  The
# limit holds a psi table to roughly 40 MiB.  A verdict entry is a packed int and a bool, about 63
# bytes at order 5, so a full verdict table stays near 13 MiB.
SWEEP_TABLE_LIMIT = 200_000


def _family_oracle(inst):
    fam = inst["family"]
    if sum(len(m) for m in fam.members) <= 14:
        return oracle.rainbow_oracle(fam)
    return None


def _hyper_oracle(inst):
    H = inst["hyper"]
    if len(H.support()) <= oracle.ORACLE_EDGE_LIMIT:
        return oracle.matching_number_oracle(H)
    return None


def _square_oracle(inst):
    L = inst["square"]
    return oracle.diagonal_oracle(L, 2) if L.order <= 6 else None


def _square_key(inst):
    """The square's rows in sorted order, packed into one int.

    A row permutation maps full diagonals to full diagonals with the same
    symbol counts, so squares with the same sorted rows have the same
    bounded-diagonal optima.  Each symbol takes the bit width of the order,
    behind a leading 1 bit.  The key's bit length, 1 + n * n * width, grows
    with the order n, so squares of different orders never share a key.
    """
    L = inst["square"]
    width = L.order.bit_length()
    key = 1
    for row in sorted(L.cells):
        for x in row:
            key = key << width | x
    return key


def _partition_oracle(inst):
    P = inst["pgraph"]
    return oracle.transversal_oracle(P) if P.graph.n <= 16 else None


def _psi_graph(inst):
    """The graph the game is played on: its own, or its bipartite graph's line graph."""
    return inst["graph"] if "graph" in inst else line_graph(inst["bipartite"])


def _psi_oracle(inst):
    G = _psi_graph(inst)
    if G.n <= oracle.PSI_ORACLE_VERTEX_LIMIT and len(G.edges) <= PSI_ORACLE_EDGE_LIMIT:
        return oracle.psi_oracle(G)
    return None


def _solve_psi(inst, target=None, memo=None):
    return psi(_psi_graph(inst), cap=INFINITY if target is None else target, memo=memo)


# Solver, game and homology functions are reached through this module's
# global names at call time (a lambda or function, never a stored
# reference), so that wrapping a module attribute reaches every call.
_FAMILY = _Codec(
    "family", family_to_json, family_from_json,
    # the solver rejects a target above the member count, which no rainbow matching reaches
    solve=lambda inst, target=None: find_rainbow_matching(
        inst["family"], target=target and min(target, len(inst["family"].members))).optimum,
    oracle=_family_oracle,
)
_HYPER = _Codec(
    "hyper", hypergraph_to_json, hypergraph_from_json,
    solve=lambda inst, target=None: max_matching_size(inst["hyper"], target=target).optimum,
    oracle=_hyper_oracle,
)
_SQUARE = _Codec(
    "square", square_to_json, square_from_json,
    solve=lambda inst, target=None: find_bounded_diagonal(inst["square"], 2).optimum,
    oracle=_square_oracle,
    canonical=_square_key,
)
_GRAPH = _Codec(
    "graph", graph_to_json, graph_from_json,
    solve=_solve_psi,
    oracle=_psi_oracle,
    psi_memo=True,
)
_PARTITION = _Codec(
    "pgraph", partitioned_graph_to_json, partitioned_graph_from_json,
    solve=lambda inst, target=None: find_independent_transversal(
        inst["pgraph"], deficiency=inst["deficiency"]).optimum,
    oracle=_partition_oracle,
)
_LEMMA = _Codec(
    "bipartite", bipartite_graph_to_json, bipartite_graph_from_json,
    solve=_solve_psi,
    oracle=_psi_oracle,
    psi_memo=True,
)


# ---------------------------------------------------------------------------
# Hypothesis predicates


def _always(inst):
    return True


def _hyp_drisko(inst):
    n = inst["n"]
    fam = inst["family"]
    return len(fam.members) >= 2 * n - 1 and all(len(m) >= n for m in fam.members)


def _hyp_improved(inst):
    n = inst["n"]
    sizes = inst["family"].sizes()
    if len(sizes) != 2 * n - 1:
        return False
    for i, s in enumerate(sizes, start=1):
        if i < n and s < i:
            return False
        if i >= n and s != n:
            return False
    return True


def _hyp_accommodating(inst):
    # the theorem speaks of 2n - 1 members; sufficiency is judged on
    # accommodating-shaped families, necessity on the others, and `expect`
    # says which direction an instance stands for
    n = inst["n"]
    sizes = inst["family"].sizes()
    if len(sizes) != 2 * n - 1:
        return False
    return is_accommodating_shaped(sorted(sizes), n) == inst["expect"]


def _hyp_ab(inst):
    n = inst["n"]
    fam = inst["family"]
    return len(fam.members) >= n and all(len(m) >= n for m in fam.members)


def _hyp_almost_drisko(inst):
    H = inst["hyper"]
    n = inst["n"]
    a, b, c = H.side_sizes
    if a < 2 * n - 1 or b != n or c != n:
        return False
    if not min_degree(H, "A") == max_degree(H, "A") == n:
        return False
    return is_p_simple(H, ("A", "C"), 1) and is_p_simple(H, ("B", "C"), 2)


def _hyp_camwan(inst):
    return inst["square"].is_latin()


def _hyp_strong_camwan(inst):
    return inst["square"].is_row_latin()


def _hyp_tophall(inst):
    return all(ok for _, _, ok in topological_hall_subsets(inst["pgraph"], inst["deficiency"]))


def lemma31_hypothesis_holds(G, ell):
    """Greedy check that 2*ell-1 left vertices can meet deg >= min(i, ell)."""
    degs = sorted(G.left_degrees(), reverse=True)[: 2 * ell - 1]
    if len(degs) < 2 * ell - 1:
        return False
    degs.reverse()
    return all(d >= min(i, ell) for i, d in enumerate(degs, start=1))


def _hyp_lemma31(inst):
    return lemma31_hypothesis_holds(inst["bipartite"], inst["ell"])


def _hyp_rbs(inst):
    H = inst["hyper"]
    n = inst["n"]
    return (
        H.side_sizes == (n, n, n)
        and is_regular(H, n)
        and all(is_p_simple(H, pair, 1) for pair in (("A", "B"), ("A", "C"), ("B", "C")))
    )


def _hyp_stein(inst):
    H = inst["hyper"]
    n = inst["n"]
    return H.side_sizes == (n, n, n) and is_regular(H, n) and is_p_simple(H, ("A", "B"), 1)


def _hyp_sym(inst):
    H = inst["hyper"]
    n = inst["n"]
    return H.side_sizes == (n, n, n) and is_regular(H, n) and H.is_simple()


def _hyp_conj_drisko(inst):
    H = inst["hyper"]
    n = inst["n"]
    a = H.side_sizes[0]
    if a < 2 * n - 1:
        return False
    if min_degree(H, "A") < n:
        return False
    return max_degree(H, "B") <= 2 * n - 1 and max_degree(H, "C") <= 2 * n - 1


def _hyp_conj_gen(inst):
    H = inst["hyper"]
    n = inst["n"]
    return H.is_simple() and H.side_sizes[0] == 2 * n - 1 and _hyp_conj_drisko(inst)


def _hyp_fracd(inst):
    H = inst["hyper"]
    n, d = inst["n"], inst["d"]
    if H.side_sizes != (n, n, n) or not H.is_simple() or not is_regular(H, d):
        return False
    if n and d < 1:
        # no edges on nonempty sides: the bound (d - 1) / d * n means
        # nothing at d = 0, and _hyp_asym asks d >= 1 likewise
        return False
    return d <= n or d >= 2 * n - 1  # one of the two clauses must apply


def _hyp_asym(inst):
    H = inst["hyper"]
    if not H.is_simple() or H.side_sizes[0] == 0:
        return False
    d = min_degree(H, "A")
    return d >= 1 and d >= max(max_degree(H, "B"), max_degree(H, "C"))


def _hyp_double_delta(inst):
    H = inst["hyper"]
    if not H.is_simple() or H.side_sizes[0] == 0:
        return False
    d = min_degree(H, "A")
    big = max(max_degree(H, "B"), max_degree(H, "C"))
    # d >= 1 excludes the degenerate edgeless case, where the bound
    # 2*max-1 = -1 would hold vacuously while no transversal can exist
    return d >= 1 and d >= 2 * big - 1


# ---------------------------------------------------------------------------
# Conclusion predicates: (inst, optimum) -> bool, where optimum(inst,
# target=None) is the codec's solve or the oracle's value (see _Codec)


def _reaches(param, slack=0):
    """The optimum is at least inst[param] - slack."""

    def conclusion(inst, optimum):
        target = inst[param] - slack
        return optimum(inst, target) >= target

    return conclusion


def _con_accommodating(inst, optimum):
    return (optimum(inst, inst["n"]) >= inst["n"]) == inst["expect"]


def _con_full_diagonal(inst, optimum):
    return optimum(inst) == inst["square"].order


def _con_transversal(inst, optimum):
    target = len(inst["pgraph"].parts) - inst["deficiency"]
    return optimum(inst, target) >= target


def _con_eta_psi(inst, optimum):
    # eta >= psi iff min(psi, eta + 1) <= eta, so psi is searched only up to
    # eta + 1; with eta = INFINITY the cap is INFINITY, the full value
    G = inst["graph"]
    eta = graph_eta(G.adj, (1 << G.n) - 1)
    return optimum(inst, eta + 1) <= eta


def _fractional_nu(nu, size, d, full_from):
    """nu = size once d >= full_from, else nu >= (d - 1) / d * size."""
    if d >= full_from:
        return nu == size
    return Fraction(nu) >= Fraction(d - 1, d) * size


def _con_fracd(inst, optimum):
    n = inst["n"]
    return _fractional_nu(optimum(inst), n, inst["d"], 2 * n - 1)


def _con_asym(inst, optimum):
    H = inst["hyper"]
    a = H.side_sizes[0]
    return _fractional_nu(optimum(inst), a, min_degree(H, "A"), max(2 * a - 1, 1))


def _con_nu_equals_a(inst, optimum):
    return optimum(inst) == inst["hyper"].side_sizes[0]


# ---------------------------------------------------------------------------
# Instance streams


def enumerate_graphs_up_to_iso(n):
    """All graphs on exactly n labelled vertices, one per isomorphism class,
    in the order of `canonical.graph_classes`; none for a negative n."""
    return [graph_from_masks(adj) for adj in graph_classes(n) if len(adj) == n]


def ascending_sequences(n):
    """All ascending sequences of length 2n-1 with entries in [0, n], in
    lexicographic order; there are comb(3n - 1, 2n - 1) of them."""
    return itertools.combinations_with_replacement(range(n + 1), 2 * n - 1)


def _ascending_sequence(n, index):
    """The sequence at `index` of `ascending_sequences(n)`, built alone.

    With r entries still to follow, the comb(n - v + r, r) sequences whose
    next entry is v come before those whose next entry is v + 1, so each
    entry skips whole blocks of the index until it lands in one."""
    seq = []
    v = 0
    for r in range(2 * n - 2, -1, -1):
        while index >= (block := math.comb(n - v + r, r)):
            index -= block
            v += 1
        seq.append(v)
    return tuple(seq)


def is_accommodating_shaped(a, n):
    return all(a[i - 1] >= min(i, n) for i in range(1, len(a) + 1))


def _family_meeting_profile(a, n, rng):
    sizes = [min(x + rng.randrange(0, 2), n) if x < n else n for x in a]
    sizes = [max(s, x) for s, x in zip(sizes, a)]
    return cons.random_family(sizes, rng)


def _check_kind(name, value, default):
    """Raise a ValueError unless `value` is of the kind of `default`: a bool,
    an int, a list or tuple of ints, or null or an int when the default is
    None.  Every parameter but a bool is a count, so a negative int or an
    empty list is rejected too."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "a bool"
    elif isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and all(map(_is_int, value))
        kind = "a list of ints"
    elif default is None:
        ok, kind = value is None or _is_int(value), "null or an int"
    else:
        ok, kind = _is_int(value), "an int"
    if not ok:
        raise ValueError(f"parameter {name!r} expects {kind}, got {value!r}")
    counts = value if isinstance(default, tuple) else [value]
    if not counts:
        raise ValueError(f"parameter {name!r} must not be empty")
    if any(c is not None and c < 0 for c in counts):
        raise ValueError(f"parameter {name!r} must not be negative, got {value!r}")


def _check_params(builder, params, what):
    """`params` over the defaults of a stream builder or a draw, or a
    ValueError unless `params` fits it.

    Both declare their parameters, each with its default, as keyword-only
    arguments.  A key that the builder does not declare is named with the
    accepted ones and the scope `what`, instead of being silently ignored,
    and so is a value not of its default's kind, a negative count or an
    empty list.
    """
    defaults = builder.__kwdefaults__
    given = {**defaults, **params}
    _fields(given, tuple(defaults), what, "parameter")
    for name, value in params.items():
        _check_kind(name, value, defaults[name])
    return given


# exhaustive stream builders: stream(*, params) -> iterator of instances;
# `_stream` holds each parameter to the statement's cap before it calls one


def _ex_eta_psi(*, max_vertices=6):
    for adj in graph_classes(max_vertices):
        yield {"graph": graph_from_masks(adj)}


def _ex_squares(squares):
    def stream(*, max_order=4):
        for n in range(1, max_order + 1):
            for L in squares(n):
                yield {"square": L}

    return stream


def _ex_accommodating(*, n=2):
    # necessity direction only: each non-accommodating sequence yields its
    # constructed counterexample, expected to lack a rainbow n-matching
    for a in ascending_sequences(n):
        if is_accommodating_shaped(a, n):
            continue
        fam = cons.gen_accommodating_counterexample(a, n)
        yield {"family": fam, "n": n, "expect": False}


def _ex_fracd(*, n=3, d=2):
    for H in cons.enumerate_regular_simple(n, d):
        yield {"hyper": H, "n": n, "d": d}


# randomized draws: draw(rng, *, params) -> one instance


def _draw_family_profile(profile_fn):
    def draw(rng, *, n_values=(2, 3)):
        n = n_values[rng.randrange(len(n_values))]
        return {"family": cons.random_family(profile_fn(n, rng), rng), "n": n}

    return draw


def _drisko_sizes(n, rng):
    return [n + rng.randrange(0, 2) for _ in range(2 * n - 1)]


def _improved_sizes(n, rng):
    return cons.drisko_profile(n)


def _ab_sizes(n, rng):
    return [n for _ in range(n)]


def _draw_accommodating(rng, *, n=2):
    a = _ascending_sequence(n, rng.randrange(math.comb(3 * n - 1, 2 * n - 1)))
    if is_accommodating_shaped(a, n):
        return {"family": _family_meeting_profile(a, n, rng), "n": n, "expect": True}
    return {"family": cons.gen_accommodating_counterexample(a, n), "n": n, "expect": False}


def _draw_almost_drisko(rng, *, n_values=(2, 3)):
    n = n_values[rng.randrange(len(n_values))]
    return {"hyper": cons.gen_theorem19_instance(n, rng.getrandbits(48)), "n": n}


def _draw_square(random_square):
    def draw(rng, *, n=4):
        return {"square": random_square(n, rng)}

    return draw


def _draw_tophall(deficiency_choices):
    def draw(rng, *, max_vertices=7, max_parts=4):
        P = cons.random_partition_system(rng, max_vertices=max_vertices, max_parts=max_parts)
        d = deficiency_choices[rng.randrange(len(deficiency_choices))]
        return {"pgraph": P, "deficiency": min(d, len(P.parts))}

    return draw


def _draw_eta_psi(rng, *, vertices=7):
    cap = STATEMENTS["ETA_GE_PSI_2_5"].cap["max_vertices"]
    if vertices > cap:
        raise InfeasibleScopeError(f"random eta/psi capped at {cap} vertices")
    return {"graph": cons.random_graph(vertices, rng)}


def _draw_lemma31(rng, *, ells=(2, 3), max_edges=12):
    ell = ells[rng.randrange(len(ells))]
    return {"bipartite": cons.random_lemma31_graph(ell, rng, max_edges), "ell": ell}


def _draw_rbs(rng, *, n=3):
    return {"hyper": latin_to_hypergraph(cons.random_latin(n, rng)), "n": n}


def _draw_stein(rng, *, n=3):
    return {"hyper": cons.random_stein_instance(n, rng), "n": n}


def _draw_sym(rng, *, n=3):
    return {"hyper": cons.random_regular_simple(n, n, rng), "n": n}


def _draw_conj_drisko(rng, *, n=2):
    return {"hyper": cons.random_conj_drisko_instance(n, rng), "n": n}


def _draw_fracd(rng, *, n=3, d=2):
    return {"hyper": cons.random_regular_simple(n, d, rng), "n": n, "d": d}


def _draw_asym(rng, *, a_size=3, deg_a=3, bc_size=None):
    bc = 2 * deg_a if bc_size is None else bc_size
    return {"hyper": cons.random_bounded_tri(rng, a_size, bc, deg_a, deg_a)}


def _draw_double_delta(rng, *, a_size=3, deg_a=5, bc_size=None):
    cap = (deg_a + 1) // 2
    # deg_a = 0 leaves no cap to divide by: the draw is edgeless, so vacuous
    need = (a_size * deg_a + cap - 1) // cap if cap else 0
    bc = max(2 * deg_a, need) if bc_size is None else bc_size
    return {"hyper": cons.random_bounded_tri(rng, a_size, bc, deg_a, cap)}


# ---------------------------------------------------------------------------
# The statement registry


@dataclass(frozen=True)
class Statement:
    """One catalogued statement and everything needed to sweep it.

    `randomized` is the draw, `exhaustive` the stream builder (None when
    the statement has no finite domain).  `shipped` is the theorem-suite
    scope, which must report zero violations.  `cap` maps keywords of the
    stream builder to the largest value an exhaustive scope may ask for;
    `_stream` checks it, the builder does not.

    `params` declares the parameters that the hypothesis and conclusion
    read, each as (kind, raw): `kind` is a value of its kind for
    `_check_kind` (0 a count, True a bool), and `raw(obj)` derives it from
    the object of a raw `gen` object.  An instance, a payload and a raw
    object's decoding hold exactly the codec's key and these parameters.
    """

    theorem: bool
    codec: _Codec
    hypothesis: object
    conclusion: object
    randomized: object
    exhaustive: object = None
    cap: dict = None
    shipped: Scope = None
    params: dict = field(default_factory=dict)

    def encode(self, inst):
        key = self.codec.key
        return {key: self.codec.to_json(inst[key]), **{name: inst[name] for name in self.params}}

    def decode(self, data, statement=None):
        """The instance of a payload, or of a raw `gen` object, decoded once.

        A payload that holds the codec's key must hold exactly that key and
        the statement's parameters, each of its kind.  Any other object is
        read as a raw object by the codec's reader, and its parameters are
        derived from the decoded object (n from the side sizes, say), so
        generator output pipes straight into the verifier.  A ValueError
        names the field at fault, and `statement` the payload.
        """
        codec = self.codec
        if codec.key not in data:
            obj = codec.from_json(data)
            return {codec.key: obj, **{name: raw(obj) for name, (_, raw) in self.params.items()}}
        _fields(data, (codec.key, *self.params), f"{statement or codec.key} payload")
        for name, (kind, _) in self.params.items():
            _check_kind(name, data[name], kind)
        return {**data, codec.key: codec.from_json(data[codec.key])}


def _theorem(codec, hypothesis, conclusion, randomized, shipped, **more):
    return Statement(True, codec, hypothesis, conclusion, randomized, shipped=shipped, **more)


def _conjecture(codec, hypothesis, conclusion, randomized, **more):
    return Statement(False, codec, hypothesis, conclusion, randomized, **more)


def _randomized(trials, seed, **params):
    return Scope("randomized", trials=trials, seed=seed, params=params)


def _count(raw):
    """The declaration of a parameter that is a count, derived by `raw`."""
    return 0, raw


def _half_the_members(F):
    return (len(F.members) + 1) // 2


def _a_side(H):
    return H.side_sizes[0]


def _half_the_a_side(H):
    return (H.side_sizes[0] + 1) // 2


STATEMENTS = {
    "DRISKO_1_5": _theorem(
        _FAMILY, _hyp_drisko, _reaches("n"), _draw_family_profile(_drisko_sizes),
        _randomized(300, 190041, n_values=[2, 3]), params={"n": _count(_half_the_members)}),
    "IMPROVED_1_7": _theorem(
        _FAMILY, _hyp_improved, _reaches("n"), _draw_family_profile(_improved_sizes),
        _randomized(300, 190042, n_values=[2, 3]), params={"n": _count(_half_the_members)}),
    "ACCOMMODATING_1_8": _theorem(
        _FAMILY, _hyp_accommodating, _con_accommodating, _draw_accommodating,
        _randomized(120, 190043, n=2), exhaustive=_ex_accommodating, cap={"n": 6},
        params={"n": _count(_half_the_members), "expect": (True, lambda F: True)}),
    "ALMOST_DRISKO_1_9": _theorem(
        _HYPER, _hyp_almost_drisko, _reaches("n"), _draw_almost_drisko,
        _randomized(300, 190044, n_values=[2, 3]),
        params={"n": _count(lambda H: H.side_sizes[1])}),
    "CAMWAN_1_10": _theorem(
        _SQUARE, _hyp_camwan, _con_full_diagonal, _draw_square(cons.random_latin),
        Scope("exhaustive", params={"max_order": 4}),
        exhaustive=_ex_squares(cons.latin_squares),
        cap={"max_order": cons.EXHAUSTIVE_LATIN_CAP}),
    "STRONG_CAMWAN_1_12": _theorem(
        _SQUARE, _hyp_strong_camwan, _con_full_diagonal,
        _draw_square(cons.random_row_latin),
        Scope("exhaustive", params={"max_order": 4}),
        exhaustive=_ex_squares(cons.row_latin_squares),
        cap={"max_order": cons.EXHAUSTIVE_ROW_LATIN_CAP}),
    "TOPHALL_2_3": _theorem(
        _PARTITION, _hyp_tophall, _con_transversal, _draw_tophall([0]),
        _randomized(120, 190045), params={"deficiency": _count(lambda P: 0)}),
    "TOPHALL_DEF_2_4": _theorem(
        _PARTITION, _hyp_tophall, _con_transversal, _draw_tophall([1, 2]),
        _randomized(120, 190046), params={"deficiency": _count(lambda P: 0)}),
    "ETA_GE_PSI_2_5": _theorem(
        _GRAPH, _always, _con_eta_psi, _draw_eta_psi,
        Scope("exhaustive", params={"max_vertices": 6}),
        exhaustive=_ex_eta_psi, cap={"max_vertices": 8}),
    "LEMMA_3_1": _theorem(
        _LEMMA, _hyp_lemma31, _reaches("ell"), _draw_lemma31,
        _randomized(200, 190047, ells=[2, 3]), params={"ell": _count(lambda G: 2)}),
    "CONJ_RBS_1_1": _conjecture(_HYPER, _hyp_rbs, _reaches("n", 1), _draw_rbs,
                                params={"n": _count(_a_side)}),
    "CONJ_STEIN_1_2": _conjecture(_HYPER, _hyp_stein, _reaches("n", 1), _draw_stein,
                                  params={"n": _count(_a_side)}),
    "CONJ_SYM_1_3": _conjecture(_HYPER, _hyp_sym, _reaches("n", 1), _draw_sym,
                                params={"n": _count(_a_side)}),
    "CONJ_AB_1_4": _conjecture(
        _FAMILY, _hyp_ab, _reaches("n", 1), _draw_family_profile(_ab_sizes),
        params={"n": _count(lambda F: len(F.members))}),
    "CONJ_DRISKO_1_6": _conjecture(
        _HYPER, _hyp_conj_drisko, _reaches("n"), _draw_conj_drisko,
        params={"n": _count(_half_the_a_side)}),
    "CONJ_FRACD_5_1": _conjecture(
        _HYPER, _hyp_fracd, _con_fracd, _draw_fracd,
        exhaustive=_ex_fracd, cap={"n": 3, "d": 9},
        params={"n": _count(_a_side), "d": _count(lambda H: min_degree(H, "A"))}),
    "CONJ_ASYM_5_2": _conjecture(_HYPER, _hyp_asym, _con_asym, _draw_asym),
    "CONJ_GEN_5_3": _conjecture(
        _HYPER, _hyp_conj_gen, _reaches("n"), _draw_conj_drisko,
        params={"n": _count(_half_the_a_side)}),
    "REMARK_5_DOUBLE_DELTA": _conjecture(
        _HYPER, _hyp_double_delta, _con_nu_equals_a, _draw_double_delta),
}

THEOREM_IDS = tuple(sid for sid, s in STATEMENTS.items() if s.theorem)
CONJECTURE_IDS = tuple(sid for sid, s in STATEMENTS.items() if not s.theorem)
ALL_STATEMENT_IDS = THEOREM_IDS + CONJECTURE_IDS

# Shipped theorem-suite scopes: every id here must report zero violations.
SHIPPED_SCOPES = {sid: s.shipped for sid, s in STATEMENTS.items() if s.shipped}


def _record(statement):
    try:
        return STATEMENTS[statement]
    except KeyError:
        raise KeyError(f"unknown statement {statement!r}") from None


def statement_kind(statement):
    return "theorem" if _record(statement).theorem else "conjecture"


def feasibility_caps():
    """Per-statement exhaustive caps, keyed by the stream builder's
    parameter names, plus the randomized trial cap."""
    caps = {sid: dict(s.cap) for sid, s in STATEMENTS.items() if s.cap}
    caps["MAX_RANDOM_TRIALS"] = MAX_RANDOM_TRIALS
    return caps


def serialize_instance(statement, inst):
    """The payload of an instance: its object and the statement's parameters."""
    return _record(statement).encode(inst)


def deserialize_instance(statement, data):
    """The instance of a payload or of a raw `gen` object (`Statement.decode`)."""
    return _record(statement).decode(data, statement)


# ---------------------------------------------------------------------------
# The harness


def _revalidate(rec, payload):
    """Re-judge a candidate violation from its serialized form.  The solver
    gets a fresh psi table, so no entry of the sweep's table is trusted."""
    inst = rec.decode(payload)
    hyp = rec.hypothesis(inst)
    con = rec.conclusion(inst, rec.codec.solve)
    result = {"hypothesis": hyp, "conclusion": con}
    best = rec.codec.oracle(inst)
    if best is not None:
        result["oracle_agrees"] = rec.conclusion(inst, lambda _inst, _target=None: best) == con
    return result


def _record_violation(statement, rec, inst, report, cert_dir):
    # kept even when the re-check disagrees, and then counted as a disagreement
    payload = rec.encode(inst)
    record = {"instance": payload, "recheck": _revalidate(rec, payload)}
    report.violations.append(record)
    if record["recheck"]["conclusion"] or record["recheck"].get("oracle_agrees") is False:
        report.disagreements += 1
    if cert_dir is not None:
        path = Path(cert_dir)
        path.mkdir(parents=True, exist_ok=True)
        name = f"{statement}_{len(report.violations):04d}.json"
        (path / name).write_text(json.dumps(record, indent=2))


def _stream(statement, rec, scope):
    """The instances of a scope, after one eager check of its parameters
    against the statement; the scope has checked its own fields.

    An exhaustive scope holds each parameter that the statement's `cap`
    names, given or default, to its cap and then calls the stream builder.
    A randomized scope seeds one rng and calls the statement's draw once
    per trial.  The first draw is made at once, so a draw's own check (the
    random eta/psi cap, say) rejects the scope even when it asks for no
    trials.  A stdin scope has no stream: its caller passes the instances.
    """
    what = f"{statement} {scope.mode} scope"
    if scope.mode == "exhaustive":
        if rec.exhaustive is None:
            raise InfeasibleScopeError(
                f"{statement} has no exhaustive instance domain; use a randomized scope"
            )
        params = _check_params(rec.exhaustive, scope.params, what)
        for name, cap in rec.cap.items():
            if params[name] > cap:
                raise InfeasibleScopeError(
                    f"{statement}: exhaustive {name} is capped at {cap}, "
                    f"asked for {params[name]}")
        return rec.exhaustive(**scope.params)
    if scope.mode == "randomized":
        _check_params(rec.randomized, scope.params, what)
        draw = functools.partial(rec.randomized, **scope.params)
        rng = random.Random(scope.seed)
        first = draw(rng)
        return itertools.islice(
            itertools.chain([first], map(draw, itertools.repeat(rng))), scope.trials)
    raise ValueError("a stdin scope judges the instances its caller passes to verify")


def verify(statement, scope, *, cert_dir=None, instances=None):
    """Sweep a scope (or the given instances) and report hypothesis hits and
    re-validated violations.  The instances are solved against one psi
    table, owned by this call: they share most of their subgames, and a
    call counts only the entries it adds against its own budget, so
    sharing never fails an instance that passes alone.

    When the codec has a `canonical` key, the call also keeps one verdict
    table: the conclusion is computed once per key, and `report.judged`
    counts the conclusions computed.  The hypothesis is still evaluated for
    every instance, and every instance whose key's verdict is false is
    recorded as a violation with its own re-check."""
    rec = _record(statement)
    if instances is None:
        instances = _stream(statement, rec, scope)
    report = VerificationReport(statement=statement, scope=scope.describe(), seed=scope.seed)
    hypothesis, conclusion, canonical = rec.hypothesis, rec.conclusion, rec.codec.canonical
    memo, verdicts = {}, {}
    solve = functools.partial(rec.codec.solve, memo=memo) if rec.codec.psi_memo else rec.codec.solve
    for inst in instances:
        report.instances_checked += 1
        if not hypothesis(inst):
            continue
        report.hypothesis_hits += 1
        if len(memo) >= SWEEP_TABLE_LIMIT:
            memo.clear()
        if len(verdicts) >= SWEEP_TABLE_LIMIT:
            verdicts.clear()
        if canonical is None:
            holds = conclusion(inst, solve)
            report.judged += 1
        else:
            key = canonical(inst)
            holds = verdicts.get(key)
            if holds is None:
                holds = verdicts[key] = conclusion(inst, solve)
                report.judged += 1
        if not holds:
            _record_violation(statement, rec, inst, report, cert_dir)
    return report


def hunt(statement, budget, seed, *, params=None, cert_dir=None):
    """Randomized counterexample hunt for a conjecture.

    Absence of violations means only "none found within the budget".
    """
    if statement not in CONJECTURE_IDS:
        raise ValueError(f"{statement} is not a conjecture id")
    scope = Scope("randomized", trials=budget, seed=seed, params=params or {})
    return verify(statement, scope, cert_dir=cert_dir)


def run_theorem_suite(*, cert_dir=None, progress=None):
    """Run every theorem at its shipped scope; returns (reports, all_clean)."""
    reports = []
    clean = True
    for statement in THEOREM_IDS:
        report = verify(statement, SHIPPED_SCOPES[statement], cert_dir=cert_dir)
        reports.append(report)
        if report.violations:
            clean = False
        if progress is not None:
            progress(report)
    return reports, clean

"""The benchmark's four workloads: seeded inputs, one timed pass, checks.

The instances each workload judges are drawn once from the library's own
generators with BASE_SEED.  The benchmark's --seed shuffles the order in
which they are judged.  No instance shares state with another, so every
seed asks for exactly the same work: runs at different seeds are repeat
measurements, and the expected answers in expected.json hold at every seed.
(Relabelling vertices by seed was tried and dropped: it moved the time of
single psi calls by +-12 % and widened the run-to-run spread of the
slowest item to 0.35.)
`suite` runs the shipped scopes, which take no inputs; the seed does not
change it.
"""

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from trimatch import constructions, homology, oracle, solver, structures, verifier

BASE_SEED = 0

# Passes and items are timed in CPU seconds of this process.  The workloads
# are single-threaded, CPU-bound and do no I/O, so on an idle core this equals
# wall time; on a shared virtual machine the wall clock also counts the time
# the hypervisor gives to other guests (steal), which came in bursts of
# seconds and moved single passes by up to 2x.  CPU time still moves with
# contention for the shared core, which is what reference_s() tracks.
CLOCK = time.process_time
REFERENCE_REPEATS = 3
# reference_s() on the machine the benchmark was sized on, in its fast state;
# setup_s is stated in seconds at this reference speed
REFERENCE_NOMINAL_S = 0.02
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# OEIS A000088: graphs on n unlabelled vertices, n = 0..7
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044)

# rational_rank_oracle is plain Fraction elimination; keep the sample cheap
ORACLE_FACE_LIMIT = 400
ORACLE_SAMPLE = 2

SIZES = {
    "graph": {
        "full": {"graphs": 20, "lemma": 60, "enumerate": 7},
        "tiny": {"graphs": 4, "lemma": 10, "enumerate": 5},
    },
    "extremal": {
        "full": {"drisko": (4, 5, 6, 7, 8), "latin": (4, 6, 8, 10)},
        "tiny": {"drisko": (4, 5), "latin": (4, 6)},
    },
    "homology": {
        "full": {"graphs": 12, "tophall": 200},
        "tiny": {"graphs": 2, "tophall": 20},
    },
}


@dataclass
class Pass:
    """What one pass over a workload's inputs did."""

    cpu_s: float = 0.0  # see CLOCK
    elapsed_s: float = 0.0  # wall-clock seconds, for the record
    ref_s: float = 0.0  # reference_s() around the pass
    items: list = field(default_factory=list)  # (item key, seconds)
    answers: dict = field(default_factory=dict)
    instances: int = 0  # judged or solved, for instances_per_s
    attempted: int = 0
    failed: int = 0  # raised, or reported a theorem violation
    errors: list = field(default_factory=list)


def _reference_work():
    memo = {}

    def best(mask, depth):
        key = (mask, depth)
        if key in memo:
            return memo[key]
        value = bin(mask).count("1")
        if depth:
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                value = max(value, best(mask & ~bit, depth - 1) + (bit.bit_length() & 3))
        memo[key] = value
        return value

    total = 0
    for start in range(100):
        memo.clear()
        total += best((1 << 11) - 1 - start, 3)
    return total + len(sorted(((i * 7919) % 1009, frozenset((i, i >> 1))) for i in range(3000)))


def reference_s():
    """CPU seconds of a fixed pure-Python computation that uses no trimatch.

    It mixes what the library spends its time on: memoized recursion over
    int bitmasks, tuple keys, frozensets and sorting.  Taken right before and
    after a pass, it measures how fast this machine runs Python at that
    moment, so a pass's time can be stated in multiples of it.
    """
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = CLOCK()
        _reference_work()
        times.append(CLOCK() - start)
    return statistics.median(times)


def _json_value(value):
    return "inf" if value == float("inf") else value


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def _verify_part(p, statement, keyed_instances, on_item):
    """Judge instances through the public verify, stamping every pull.

    An item's time runs from the pull of its instance to the next pull (or
    to the end of the stream), which is when verify has judged it.  If
    verify raises, the instance it was judging and every instance it never
    pulled count as failed, and the pass goes on with its next part.
    """
    stamps, keys = [], []

    def stream():
        for key, inst in keyed_instances:
            stamps.append(CLOCK())
            keys.append(key)
            on_item(key)
            yield inst
        stamps.append(CLOCK())

    p.attempted += len(keyed_instances)
    try:
        report = verifier.verify(statement, verifier.Scope("stdin"), instances=stream())
    except Exception as exc:
        judged = max(len(stamps) - 1, 0)
        p.failed += len(keyed_instances) - judged
        p.errors.append(f"{statement}: {type(exc).__name__}: {exc}")
        p.answers[statement] = f"raised {type(exc).__name__}"
    else:
        judged = len(keyed_instances)
        p.failed += len(report.violations)
        p.instances += report.instances_checked
        p.answers[statement] = {
            "instances_checked": report.instances_checked,
            "hypothesis_hits": report.hypothesis_hits,
            "violations": len(report.violations),
        }
    p.items.extend((keys[i], stamps[i + 1] - stamps[i]) for i in range(judged))


def _call(p, key, fn, on_item, item=True):
    """Time one direct call; an exception fails the item, not the pass."""
    on_item(key)
    p.attempted += 1
    start = CLOCK()
    try:
        value = fn()
    except Exception as exc:
        p.failed += 1
        p.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        value = f"raised {type(exc).__name__}"
    else:
        p.instances += item
    if item:
        p.items.append((key, CLOCK() - start))
    p.answers[key] = _json_value(value)


class Suite:
    """run_theorem_suite() at the shipped scopes; an item is one statement."""

    name = "suite"

    def __init__(self, seed, size):
        self.statements = verifier.THEOREM_IDS

    def run_pass(self, p, on_item):
        stamps = [CLOCK()]
        on_item(self.statements[0])

        def progress(report):
            stamps.append(CLOCK())
            p.failed += len(report.violations)
            p.instances += report.instances_checked
            p.answers[report.statement] = {
                "instances_checked": report.instances_checked,
                "hypothesis_hits": report.hypothesis_hits,
                "violations": len(report.violations),
            }
            if len(stamps) <= len(self.statements):
                on_item(self.statements[len(stamps) - 1])

        p.attempted += len(self.statements)
        try:
            verifier.run_theorem_suite(progress=progress)
        except Exception as exc:
            p.failed += len(self.statements) - (len(stamps) - 1)
            p.errors.append(f"suite: {type(exc).__name__}: {exc}")
        p.items.extend(
            (self.statements[i], stamps[i + 1] - stamps[i]) for i in range(len(stamps) - 1)
        )

    def payload(self, key):
        scope = verifier.SHIPPED_SCOPES[key]
        args = ["verify", key]
        if scope.mode == "exhaustive":
            args.append("--exhaustive")
        else:
            args += ["--random", str(scope.trials), "--seed", str(scope.seed)]
        for name, value in sorted(scope.params.items()):
            args += ["--param", f"{name}={json.dumps(value, separators=(',', ':'))}"]
        return {"statement": key, "scope": scope.describe()}, args, False

    def checks(self, answers, rng):
        return []


class GraphWorkload:
    """psi against eta on G(7, 1/2), LEMMA_3_1 at ell = 3, and the 7-vertex
    isomorph-free enumeration."""

    name = "graph"

    def __init__(self, seed, size):
        cfg = SIZES["graph"][size]
        base = random.Random(BASE_SEED)
        graphs = [constructions.random_graph(7, base) for _ in range(cfg["graphs"])]
        lemma = [constructions.random_lemma31_graph(3, base, max_edges=16)
                 for _ in range(cfg["lemma"])]
        rng = random.Random(seed)
        self.eta_psi = _shuffled(
            ((f"eta_psi:{i}", {"graph": G}) for i, G in enumerate(graphs)), rng)
        self.lemma = _shuffled(
            ((f"lemma:{i}", {"bipartite": B, "ell": 3}) for i, B in enumerate(lemma)), rng)
        self.enumerate_n = cfg["enumerate"]
        self.instances = dict(self.eta_psi + self.lemma)

    def run_pass(self, p, on_item):
        _verify_part(p, "ETA_GE_PSI_2_5", self.eta_psi, on_item)
        _verify_part(p, "LEMMA_3_1", self.lemma, on_item)
        # one call, timed in wall_s but not an instance: slowest_item_s
        # stays the slowest judged graph
        _call(p, "classes", lambda: len(verifier.enumerate_graphs_up_to_iso(self.enumerate_n)),
              on_item, item=False)

    def payload(self, key):
        statement = "ETA_GE_PSI_2_5" if key.startswith("eta_psi") else "LEMMA_3_1"
        data = verifier.serialize_instance(statement, self.instances[key])
        return data, ["verify", statement, "--stdin"], True

    def checks(self, answers, rng):
        return [("classes", answers["classes"], GRAPH_CLASSES[self.enumerate_n])]


class Extremal:
    """Exact proofs that the extremal constructions miss their target."""

    name = "extremal"

    def __init__(self, seed, size):
        cfg = SIZES["extremal"][size]
        items = [(f"drisko:{n}", n, constructions.gen_drisko_extremal(n)) for n in cfg["drisko"]]
        items += [(f"latin:{n}", n, structures.latin_to_hypergraph(constructions.cyclic_latin(n)))
                  for n in cfg["latin"]]
        self.items = _shuffled(items, random.Random(seed))
        self.by_key = {key: (n, obj) for key, n, obj in self.items}

    def run_pass(self, p, on_item):
        for key, n, obj in self.items:
            if key.startswith("drisko"):
                _call(p, key, lambda: solver.find_rainbow_matching(obj, target=n).optimum, on_item)
            else:
                _call(p, key, lambda: solver.max_matching_size(obj).optimum, on_item)

    def payload(self, key):
        n, obj = self.by_key[key]
        if key.startswith("drisko"):
            return structures.family_to_json(obj), ["rainbow", "--target", str(n)], True
        return structures.hypergraph_to_json(obj), ["nu"], True

    def checks(self, answers, rng):
        # closed form: both constructions have optimum n - 1
        return [(key, answers[key], n - 1) for key, (n, _) in sorted(self.by_key.items())]


class HomologyWorkload:
    """eta of independence complexes on 14-19 vertices, and TOPHALL_DEF_2_4."""

    name = "homology"

    def __init__(self, seed, size):
        cfg = SIZES["homology"][size]
        base = random.Random(BASE_SEED)
        graphs = []
        for _ in range(cfg["graphs"]):
            n = base.randrange(14, 20)
            graphs.append(constructions.random_graph(n, base, p=0.35))
        systems = []
        for _ in range(cfg["tophall"]):
            P = constructions.random_partition_system(base, max_vertices=10, max_parts=5)
            systems.append((P, min(base.choice((1, 2)), len(P.parts))))
        rng = random.Random(seed)
        self.graphs = _shuffled(((f"eta:{i}", G) for i, G in enumerate(graphs)), rng)
        self.tophall = _shuffled(
            ((f"tophall:{i}", {"pgraph": P, "deficiency": d}) for i, (P, d) in enumerate(systems)),
            rng)
        self.by_key = dict(self.graphs + self.tophall)

    def run_pass(self, p, on_item):
        for key, G in self.graphs:
            _call(p, key,
                  lambda: homology.eta_homological(homology.independence_complex(G)), on_item)
        _verify_part(p, "TOPHALL_DEF_2_4", self.tophall, on_item)

    def payload(self, key):
        if key.startswith("eta"):
            return structures.graph_to_json(self.by_key[key]), ["eta"], True
        data = verifier.serialize_instance("TOPHALL_DEF_2_4", self.by_key[key])
        return data, ["verify", "TOPHALL_DEF_2_4", "--stdin"], True

    def checks(self, answers, rng):
        """Euler characteristic and oracle ranks on a seeded sample of complexes.

        Each sampled complex gets its Betti numbers twice: from the library's
        betti, and from rational_rank_oracle on every boundary matrix.
        """
        complexes = []
        for key, G in sorted(self.graphs):
            C = homology.independence_complex(G)
            if sum(C.face_counts()) <= ORACLE_FACE_LIMIT:
                complexes.append((key, C))
        results = []
        for key, C in rng.sample(complexes, min(ORACLE_SAMPLE, len(complexes))):
            bv = homology.betti(C)
            results.append((f"euler:{key}", homology.euler_characteristic_check(C, bv), True))
            ranks = [oracle.rational_rank_oracle(homology.boundary_matrix(C, j))
                     for j in range(C.dimension + 1)] + [0]
            counts = C.face_counts()
            # reduced Betti b_j = n_j - rank d_j - rank d_(j+1); d_(-1) is zero
            oracle_betti = [counts[0] - ranks[0]] + [
                counts[j + 1] - ranks[j] - ranks[j + 1] for j in range(C.dimension + 1)
            ]
            results.append((f"oracle_betti:{key}", oracle_betti, list(bv.values)))
        return results


WORKLOADS = {w.name: w for w in (Suite, GraphWorkload, Extremal, HomologyWorkload)}


def build(name, seed, size):
    return WORKLOADS[name](seed, size)


def load_expected(name, size):
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[name][size]

"""Per-layer tracing of trimatch from outside the library.

Every public function defined in one of the measured modules is wrapped,
and the wrapper is swapped into each `trimatch` module that holds the name
(the package itself, `cli`, and modules that imported it with `from ...
import`).  Calls between layers therefore pass through the wrappers too.
Nothing under `src/` changes; `uninstall` puts the originals back, so
untraced passes run the library exactly as shipped.

A span records name, start, end, parent span and instance id.  Spans stay
in memory and are written out by the caller at the end of a run.
"""

import inspect
import sys
from collections import Counter

MEASURED_LAYERS = ("verifier", "game", "homology", "solver", "constructions")

UNMEASURED_LAYERS = {
    "structures": "dataclass validation is spread inside every layer",
    "oracle": "runs only when a violation is re-validated",
    "cli": "outside the timed path; its import cost falls under setup_s",
}

PSI_NAMES = ("game.psi", "game.psi_at_least")
ENUMERATE = "verifier.enumerate_graphs_up_to_iso"
CANONICAL_KEY = "game.canonical_graph_key"


def _nodes(tracer, name, result):
    tracer.counts[name + ".nodes"] += result.nodes_explored


def _faces(tracer, name, result):
    tracer.counts[name + ".faces"] += sum(result.face_counts())


def _cells(tracer, name, result):
    # rows x cols of the dense matrix, computed from its shape
    tracer.counts[name + ".cells"] += len(result) * (len(result[0]) if result else 0)


def _classes(tracer, name, result):
    if not tracer.open_calls[name]:  # recursion: count the outermost call only
        tracer.counts[name + ".classes"] += len(result)


# work counts read from the value a function returns
RESULT_COUNTERS = {
    "solver.max_matching_size": _nodes,
    "solver.find_rainbow_matching": _nodes,
    "solver.find_bounded_diagonal": _nodes,
    "solver.find_independent_transversal": _nodes,
    "homology.independence_complex": _faces,
    "homology.boundary_matrix": _cells,
    ENUMERATE: _classes,
}


class Tracer:
    """Wraps the measured layers while installed; spans are timed with `clock`."""

    def __init__(self, clock):
        self.clock = clock
        self.instance = None
        self.keep_spans = False
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._swapped = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total_s = Counter()  # outermost spans only, so recursion is not double counted
        self.self_s = Counter()
        self.counts = Counter()
        self.open_calls = Counter()

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in MEASURED_LAYERS:
            module = sys.modules[f"trimatch.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name != "trimatch" and not mod_name.startswith("trimatch."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._swapped):
            setattr(module, attr, value)
        self._swapped = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans --------------------------------------------------------------

    def _enter(self, name, first_call=True):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        if first_call:
            self.calls[name] += 1
        if name == CANONICAL_KEY:
            if any(self.open_calls[p] for p in PSI_NAMES):
                self.counts["keys_in_psi"] += 1
            if self.open_calls[ENUMERATE]:
                self.counts["keys_in_enumerate"] += 1
        layer = name.split(".", 1)[0]
        self.open_calls[name] += 1
        self.open_calls[layer] += 1
        self._stack.append([name, self.clock(), 0.0, self._next_id, parent])

    def _exit(self):
        end = self.clock()
        name, start, child_s, span_id, parent = self._stack.pop()
        duration = end - start
        layer = name.split(".", 1)[0]
        self.open_calls[name] -= 1
        self.open_calls[layer] -= 1
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += duration - child_s
        if not self.open_calls[name]:
            self.total_s[name] += duration
        if not self.open_calls[layer]:
            self.total_s[layer] += duration
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end, self.instance))

    def _wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    # each resumption is a span; calls are counted once
                    self._enter(name, first)
                    first = False
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._exit()
                        return
                    except BaseException:
                        self._exit()
                        raise
                    self._exit()
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                counter(self, name, result)
            return result

        return traced

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self):
        """Metrics of everything traced since the last `reset`."""
        c, s, own, n = self.calls, self.total_s, self.self_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        mm, rb = "solver.max_matching_size", "solver.find_rainbow_matching"
        bd, it = "solver.find_bounded_diagonal", "solver.find_independent_transversal"
        ic, bm = "homology.independence_complex", "homology.boundary_matrix"
        psi_calls = c["game.psi"] + c["game.psi_at_least"]
        classes = n[ENUMERATE + ".classes"]
        return {
            "verifier.verify.calls": (c["verifier.verify"], "count"),
            "verifier.verify.self_s": (own["verifier.verify"], "s"),
            "verifier.enumerate_graphs_up_to_iso.s": (s[ENUMERATE], "s"),
            "verifier.enumerate_graphs_up_to_iso.classes": (classes, "count"),
            "verifier.enumerate_graphs_up_to_iso.keys_per_class":
                (ratio(n["keys_in_enumerate"], classes), "ratio"),
            "game.psi.calls": (c["game.psi"], "count"),
            "game.psi.s": (s["game.psi"], "s"),
            "game.psi.self_s": (own["game.psi"], "s"),
            "game.psi_at_least.calls": (c["game.psi_at_least"], "count"),
            "game.psi_at_least.s": (s["game.psi_at_least"], "s"),
            "game.psi_at_least.self_s": (own["game.psi_at_least"], "s"),
            "game.canonical_graph_key.calls": (c[CANONICAL_KEY], "count"),
            "game.canonical_graph_key.s": (s[CANONICAL_KEY], "s"),
            "game.canonical_graph_key.calls_per_psi":
                (ratio(n["keys_in_psi"], psi_calls), "ratio"),
            mm + ".calls": (c[mm], "count"),
            mm + ".s": (s[mm], "s"),
            mm + ".nodes": (n[mm + ".nodes"], "count"),
            mm + ".nodes_per_s": (ratio(n[mm + ".nodes"], s[mm]), "1/s"),
            rb + ".calls": (c[rb], "count"),
            rb + ".s": (s[rb], "s"),
            rb + ".nodes": (n[rb + ".nodes"], "count"),
            bd + ".calls": (c[bd], "count"),
            bd + ".s": (s[bd], "s"),
            bd + ".nodes": (n[bd + ".nodes"], "count"),
            it + ".calls": (c[it], "count"),
            it + ".s": (s[it], "s"),
            it + ".nodes": (n[it + ".nodes"], "count"),
            ic + ".calls": (c[ic], "count"),
            ic + ".s": (s[ic], "s"),
            ic + ".faces": (n[ic + ".faces"], "count"),
            "homology.betti.calls": (c["homology.betti"], "count"),
            "homology.betti.s": (s["homology.betti"], "s"),
            bm + ".calls": (c[bm], "count"),
            bm + ".cells": (n[bm + ".cells"], "count"),
            "homology.eta_homological.calls": (c["homology.eta_homological"], "count"),
            "homology.eta_homological.s": (s["homology.eta_homological"], "s"),
            "homology.check_topological_hall.calls":
                (c["homology.check_topological_hall"], "count"),
            "homology.check_topological_hall.s": (s["homology.check_topological_hall"], "s"),
            "constructions.calls":
                (sum(v for k, v in c.items() if k.startswith("constructions.")), "count"),
            "constructions.s": (s["constructions"], "s"),
        }

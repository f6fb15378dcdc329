import dataclasses
import hashlib
import inspect
import io
import itertools
import gc
import json
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest

from trimatch import cli
from trimatch import constructions as cons
from trimatch import game
from trimatch import verifier
from trimatch.canonical import graph_classes
from trimatch.errors import BudgetExceededError, InfeasibleScopeError
from trimatch.game import line_graph, psi
from trimatch.solver import SolveResult, find_bounded_diagonal
from trimatch.structures import (
    Graph,
    LatinSquare,
    PartitionedGraph,
    TriHypergraph,
    family_to_json,
    hypergraph_to_json,
    is_p_simple,
    max_degree,
)
from trimatch.verifier import (
    ALL_STATEMENT_IDS,
    CONJECTURE_IDS,
    THEOREM_IDS,
    Scope,
    deserialize_instance,
    enumerate_graphs_up_to_iso,
    hunt,
    serialize_instance,
    verify,
)


def plant_conclusion(monkeypatch, sid, conclusion):
    rec = dataclasses.replace(verifier.STATEMENTS[sid], conclusion=conclusion)
    monkeypatch.setitem(verifier.STATEMENTS, sid, rec)


class TestCatalog:
    def test_every_id_has_predicates_and_streams(self):
        assert tuple(verifier.STATEMENTS) == ALL_STATEMENT_IDS
        for sid in ALL_STATEMENT_IDS:
            rec = verifier.STATEMENTS[sid]
            assert callable(rec.hypothesis)
            assert callable(rec.conclusion)
            assert callable(rec.randomized)
            assert rec.codec is not None

    def test_ids_scopes_and_caps_derive_from_the_registry(self):
        assert THEOREM_IDS[0] == "DRISKO_1_5" and len(THEOREM_IDS) == 10
        assert CONJECTURE_IDS[0] == "CONJ_RBS_1_1" and len(CONJECTURE_IDS) == 9
        assert tuple(verifier.SHIPPED_SCOPES) == THEOREM_IDS
        assert verifier.feasibility_caps() == {
            "ETA_GE_PSI_2_5": {"max_vertices": 8},
            "CAMWAN_1_10": {"max_order": 5},
            "STRONG_CAMWAN_1_12": {"max_order": 4},
            "ACCOMMODATING_1_8": {"n": 6},
            "CONJ_FRACD_5_1": {"n": 3, "d": 9},
            "MAX_RANDOM_TRIALS": 1_000_000,
        }

    def test_square_caps_are_the_gen_caps(self):
        caps = verifier.feasibility_caps()
        assert caps["CAMWAN_1_10"] == {"max_order": cons.EXHAUSTIVE_LATIN_CAP}
        assert caps["STRONG_CAMWAN_1_12"] == {"max_order": cons.EXHAUSTIVE_ROW_LATIN_CAP}

    def test_caps_are_keywords_of_the_exhaustive_builder(self):
        # _stream checks every cap; a builder takes only keyword parameters
        for sid, rec in verifier.STATEMENTS.items():
            if rec.exhaustive is None:
                assert rec.cap is None, sid
                continue
            kinds = {p.kind for p in inspect.signature(rec.exhaustive).parameters.values()}
            assert kinds == {inspect.Parameter.KEYWORD_ONLY}, sid
            assert rec.cap and set(rec.cap) <= set(rec.exhaustive.__kwdefaults__), sid

    def test_kinds_partition(self):
        assert set(THEOREM_IDS) & set(CONJECTURE_IDS) == set()
        assert verifier.statement_kind("DRISKO_1_5") == "theorem"
        assert verifier.statement_kind("CONJ_RBS_1_1") == "conjecture"
        with pytest.raises(KeyError):
            verifier.statement_kind("NOPE")


class TestGraphEnumeration:
    def test_counts_match_known_sequence(self):
        # OEIS A000088: graphs on n unlabelled vertices, n = 0..8
        expected = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
        sizes = [len(adj) for adj in graph_classes(8)]
        assert sizes == sorted(sizes)
        assert [sizes.count(n) for n in range(9)] == expected
        assert len(enumerate_graphs_up_to_iso(5)) == 34


class TestVerify:
    def test_exhaustive_eta_psi_small(self):
        report = verify("ETA_GE_PSI_2_5", Scope("exhaustive", params={"max_vertices": 4}))
        assert report.instances_checked == 19  # 1 + 1 + 2 + 4 + 11
        assert report.violations == []

    def test_exhaustive_latin(self):
        report = verify("CAMWAN_1_10", Scope("exhaustive", params={"max_order": 3}))
        assert report.instances_checked == 15  # 1 + 2 + 12
        assert report.violations == []

    def test_randomized_requires_seed(self):
        with pytest.raises(ValueError):
            verify("DRISKO_1_5", Scope("randomized", trials=5))

    @pytest.mark.parametrize("fields,message", [
        (("exhaustive", 5), "exhaustive scope takes no trials, got 5"),
        (("exhaustive", None, 0), "exhaustive scope takes no seed, got 0"),
        (("stdin", 0), "stdin scope takes no trials, got 0"),
        (("stdin", None, 4), "stdin scope takes no seed, got 4"),
        (("stdin", None, None, {"max_order": 3}),
         "stdin scope takes no params, got {'max_order': 3}"),
        (("randomized", 5), "randomized scope requires a seed"),
        (("randomized", None, 1), "randomized scope requires a trial count"),
        (("randomized", -1, 1), "trial count must not be negative, got -1"),
        (("sampled", 5, 1), "unknown scope mode 'sampled'"),
    ])
    def test_a_scope_rejects_the_fields_its_mode_does_not_read(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scope(*fields)

    def test_a_scope_checks_its_trial_cap_when_built(self):
        assert Scope("randomized", verifier.MAX_RANDOM_TRIALS, 1).trials == \
            verifier.MAX_RANDOM_TRIALS
        with pytest.raises(InfeasibleScopeError, match="trial budget"):
            Scope("randomized", verifier.MAX_RANDOM_TRIALS + 1, 1)

    def test_a_stdin_scope_has_no_stream_of_its_own(self):
        with pytest.raises(ValueError, match="instances its caller passes"):
            verify("CAMWAN_1_10", Scope("stdin"))

    def test_randomized_deterministic_reports(self):
        scope = Scope("randomized", trials=20, seed=77, params={"n_values": [2]})
        a = verify("DRISKO_1_5", scope)
        b = verify("DRISKO_1_5", scope)
        assert (a.instances_checked, a.hypothesis_hits) == (b.instances_checked, b.hypothesis_hits)
        assert a.violations == b.violations == []

    def test_random_eta_psi_shares_the_exhaustive_cap(self):
        report = verify("ETA_GE_PSI_2_5",
                        Scope("randomized", trials=5, seed=3, params={"vertices": 8}))
        assert report.instances_checked == 5 and report.violations == []
        for trials in (0, 1):  # the cap holds even before the first trial
            with pytest.raises(InfeasibleScopeError):
                verify("ETA_GE_PSI_2_5",
                       Scope("randomized", trials=trials, seed=3, params={"vertices": 9}))

    def test_scope_beyond_caps_rejected(self):
        with pytest.raises(InfeasibleScopeError):
            verify("ETA_GE_PSI_2_5", Scope("exhaustive", params={"max_vertices": 9}))
        with pytest.raises(InfeasibleScopeError):
            verify("STRONG_CAMWAN_1_12", Scope("exhaustive", params={"max_order": 6}))

    @pytest.mark.parametrize("sid,params,name,cap,asked", [
        ("ETA_GE_PSI_2_5", {"max_vertices": 9}, "max_vertices", 8, 9),
        ("CAMWAN_1_10", {"max_order": 6}, "max_order", 5, 6),
        ("STRONG_CAMWAN_1_12", {"max_order": 5}, "max_order", 4, 5),
        ("ACCOMMODATING_1_8", {"n": 7}, "n", 6, 7),
        ("CONJ_FRACD_5_1", {"n": 4}, "n", 3, 4),
        ("CONJ_FRACD_5_1", {"d": 10}, "d", 9, 10),
    ])
    def test_over_cap_scope_is_rejected_before_the_stream_is_returned(self, sid, params, name,
                                                                      cap, asked):
        message = f"{sid}: exhaustive {name} is capped at {cap}, asked for {asked}"
        with pytest.raises(InfeasibleScopeError, match=f"^{re.escape(message)}$"):
            verifier._stream(sid, verifier.STATEMENTS[sid], Scope("exhaustive", params=params))

    def test_the_registry_cap_alone_bounds_a_square_sweep(self):
        sid = "STRONG_CAMWAN_1_12"
        rec = dataclasses.replace(verifier.STATEMENTS[sid], cap={"max_order": 5})
        stream = verifier._stream(sid, rec, Scope("exhaustive", params={"max_order": 5}))
        square = next(inst["square"] for inst in stream if inst["square"].order == 5)
        assert square.cells[0] == (0, 1, 2, 3, 4) and square.is_row_latin()

    def test_exhaustive_unavailable_statements_rejected(self):
        with pytest.raises(InfeasibleScopeError):
            verify("DRISKO_1_5", Scope("exhaustive"))

    def test_vacuous_instances_are_counted_not_judged(self):
        report = verify(
            "TOPHALL_2_3",
            Scope("randomized", trials=30, seed=5, params={}),
        )
        assert report.instances_checked == 30
        assert report.hypothesis_hits <= 30
        assert report.violations == []

    def test_fracd_exhaustive(self):
        report = verify("CONJ_FRACD_5_1", Scope("exhaustive", params={"n": 2, "d": 2}))
        assert report.violations == []
        assert report.hypothesis_hits > 0

    def test_fracd_exhaustive_at_its_cap(self):
        report = verify("CONJ_FRACD_5_1", Scope("exhaustive"))
        assert (report.instances_checked, report.hypothesis_hits) == (900, 900)
        assert report.violations == []


def _a_degrees_by_recount(H):
    return [sum(1 for e in H.edges if e[0] == v) for v in range(H.side_sizes[0])]


# hypergraphs for the A-degree hypotheses, with an empty side A among them
A_DEGREE_CASES = [
    TriHypergraph((0, 0, 0), ()),
    TriHypergraph((0, 2, 2), ()),
    TriHypergraph((3, 2, 2), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 0, 0), (2, 1, 1))),
    TriHypergraph((3, 2, 2), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (2, 0, 0), (2, 1, 1), (2, 1, 0))),
    TriHypergraph((3, 2, 2), ((0, 0, 0), (0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0), (2, 1, 1))),
] + [cons.random_conj_drisko_instance(2, random.Random(seed)) for seed in range(8)]


class TestADegreeHypotheses:
    """The A-degree tests read min and max degree; verdicts match a recount
    of every A-vertex's degree over all edges."""

    @pytest.mark.parametrize("H", A_DEGREE_CASES)
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_almost_drisko(self, H, n):
        a, b, c = H.side_sizes
        expected = (a >= 2 * n - 1 and b == n and c == n
                    and all(deg == n for deg in _a_degrees_by_recount(H))
                    and is_p_simple(H, ("A", "C"), 1) and is_p_simple(H, ("B", "C"), 2))
        assert verifier._hyp_almost_drisko({"hyper": H, "n": n}) == expected

    @pytest.mark.parametrize("H", A_DEGREE_CASES)
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_conj_drisko(self, H, n):
        expected = (H.side_sizes[0] >= 2 * n - 1
                    and all(deg >= n for deg in _a_degrees_by_recount(H))
                    and max_degree(H, "B") <= 2 * n - 1 and max_degree(H, "C") <= 2 * n - 1)
        assert verifier._hyp_conj_drisko({"hyper": H, "n": n}) == expected


def _small(**params):
    return Scope("randomized", trials=3, seed=1, params=params)


# one small randomized scope per statement; the first six keep their
# original order, and with it their test ids
ROUND_TRIP_SCOPES = [
    ("DRISKO_1_5", _small(n_values=[2])),
    ("ALMOST_DRISKO_1_9", _small(n_values=[2])),
    ("CAMWAN_1_10", _small(n=3)),
    ("TOPHALL_2_3", _small()),
    ("ETA_GE_PSI_2_5", _small(vertices=5)),
    ("LEMMA_3_1", _small(ells=[2])),
    ("IMPROVED_1_7", _small(n_values=[2])),
    ("ACCOMMODATING_1_8", _small(n=2)),
    ("STRONG_CAMWAN_1_12", _small(n=3)),
    ("TOPHALL_DEF_2_4", _small()),
    ("CONJ_RBS_1_1", _small(n=3)),
    ("CONJ_STEIN_1_2", _small(n=3)),
    ("CONJ_SYM_1_3", _small(n=3)),
    ("CONJ_AB_1_4", _small(n_values=[2])),
    ("CONJ_DRISKO_1_6", _small(n=2)),
    ("CONJ_FRACD_5_1", _small(n=3, d=2)),
    ("CONJ_ASYM_5_2", _small()),
    ("CONJ_GEN_5_3", _small(n=2)),
    ("REMARK_5_DOUBLE_DELTA", _small()),
]


# SHA-256 of the sorted-key JSON list of each ROUND_TRIP_SCOPES stream's
# serialized instances.  All but STRONG_CAMWAN_1_12 were recorded when each
# statement still ran its own trial loop; they check that the one loop over
# draws consumes the rng as those loops did.  STRONG_CAMWAN_1_12 is recorded
# from the draw loop: its rows used to come from a second rng seeded by 48
# bits of the sweep's, and now come from the sweep's rng itself, so a seed
# names other squares (every one row-Latin, as before).
STREAM_DIGESTS = {
    "DRISKO_1_5": "8dbbc11433f45efb0a1e379f0a97d9f60d99b07e0f092824640165f307774cac",
    "ALMOST_DRISKO_1_9": "f43ee5374c53d61efb69fa2e06c88ac130e8b00750f630186627df7fe64b3b8c",
    "CAMWAN_1_10": "3d85413b6db5a70c04a8729f1ecb2b051fbe7f08c4dd2c0ceaddb123b8b649a8",
    "TOPHALL_2_3": "d57e524716cf1d489f9034b4da07ba039efca3a13a53b4d9dc3c18ac52c7c3f1",
    "ETA_GE_PSI_2_5": "0fb04a8c717905958a1d95511448125321e01428cac6412f532f7932a1c148f4",
    "LEMMA_3_1": "5afffc5177b1ad4ebfee6efa2a8353465e1d3e610d42684848ee5839fe776847",
    "IMPROVED_1_7": "fed035bd3872121d6d551da8a6df03f41381c51139fba7b007057db527665ac9",
    "ACCOMMODATING_1_8": "01c33ccee47bad914e2e941a3394a7c705cf099f8bdc449645ab3175f53164a1",
    "STRONG_CAMWAN_1_12": "0ace9d5466f4776993742861a288383cb92809611f1c40dbb39923ab2e432768",
    "TOPHALL_DEF_2_4": "b5081974d7c6132eac51fd2f7e05f7c7f37cbca342a590f4f021dbe1439f9d17",
    "CONJ_RBS_1_1": "564f0369bb497e685779554e3e764bb57cd59ed6542dc6bce8fb23751f16f5f8",
    "CONJ_STEIN_1_2": "a69e12f2c71df7cdbd4e73b613e5260b1fee75074092889d2e490ff4ac1edf1c",
    "CONJ_SYM_1_3": "a3804b0a9a3f1a21456179599442e960bbc09ea00138b55d71aab968362d1b63",
    "CONJ_AB_1_4": "b525b424ff83e63ed90d1842a3fdc39368c07c0e912ea8c8f5a66c52f9c8105c",
    "CONJ_DRISKO_1_6": "2903cd43700170814e5d16656f0dccab094de0d37c436d112690449c211ee4f4",
    "CONJ_FRACD_5_1": "4898d32ac45e16d7334f6e8cfaf70d3a945cf36fc6beacfb09d2364bb976c0af",
    "CONJ_ASYM_5_2": "686ef139bef54bcc1ce39eb99bd724cd5eaf582ab13e3b59a406cbffc7a6e08c",
    "CONJ_GEN_5_3": "2903cd43700170814e5d16656f0dccab094de0d37c436d112690449c211ee4f4",
    "REMARK_5_DOUBLE_DELTA": "b8ce1fd83d67bd062e5b892d03ea14f0ec324519663cc99c90a0c745dcabe51e",
}


# The 11 digests above that moved when payloads came to hold exactly their
# statement's parameters, as they were before: every family payload then
# also carried "expect" (default true) and every hypergraph payload "n" and
# "d" (default null), whether its statement read them or not.  Putting those
# fields back reproduces each one, so only the payload bytes moved, not the
# instances the streams draw.
DROPPED_DEFAULTS = {"family": {"expect": True}, "hyper": {"n": None, "d": None}}
DIGESTS_WITH_DROPPED_DEFAULTS = {
    "DRISKO_1_5": "ce02a6af736b3859111754ea3363d88801e7729844b35708d176607c5d6ca1fe",
    "ALMOST_DRISKO_1_9": "c6d5c59954292205961e7aea68e659de09c0de692d029e9cb4bb85e8958fd226",
    "IMPROVED_1_7": "5b8ba3bdb87fa401babf4873fa1744d306a4a7c9436fe4000fd97881e846d2ac",
    "CONJ_RBS_1_1": "912afc3482ff7fc3a04d743c98d465f870d89b05a297229d71be1d16d0d9b66c",
    "CONJ_STEIN_1_2": "1ac4b892f5178204604f113d2c342f15cecbfedbc198e26263c865f202dbacc1",
    "CONJ_SYM_1_3": "b908f844baccb02932559ccec8c5ff55eae311b2621c4130d15285a1709bf6e3",
    "CONJ_AB_1_4": "5b1bea3b1141267d9d1de27d8cd8ace3b7ab56fb78e4d5e0d9be5a7967c4b9c2",
    "CONJ_DRISKO_1_6": "04c1d1e1c635675ab3d3791032152b45148224ff56d6dd56a1e2dc2aa7a765ee",
    "CONJ_ASYM_5_2": "9b47408e51ca3d388354900b64022b5259871c7b83cefbd7067cb2a4b70700ed",
    "CONJ_GEN_5_3": "04c1d1e1c635675ab3d3791032152b45148224ff56d6dd56a1e2dc2aa7a765ee",
    "REMARK_5_DOUBLE_DELTA": "b478a5c17c62a8a56fe129cd1de6f9f33d82b49bf97e6e8a40a6c48a6b3d4f53",
}


class TestSerialization:
    def test_round_trip_scopes_cover_every_statement(self):
        assert sorted(sid for sid, _ in ROUND_TRIP_SCOPES) == sorted(ALL_STATEMENT_IDS)
        assert sorted(STREAM_DIGESTS) == sorted(ALL_STATEMENT_IDS)

    @pytest.mark.parametrize("sid,scope", ROUND_TRIP_SCOPES)
    def test_stream_is_pinned(self, sid, scope):
        instances = verifier._stream(sid, verifier.STATEMENTS[sid], scope)
        data = json.dumps([serialize_instance(sid, inst) for inst in instances], sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == STREAM_DIGESTS[sid]

    @pytest.mark.parametrize("sid,scope", [(sid, scope) for sid, scope in ROUND_TRIP_SCOPES
                                           if sid in DIGESTS_WITH_DROPPED_DEFAULTS])
    def test_dropped_default_fields_restore_the_old_digest(self, sid, scope):
        rec = verifier.STATEMENTS[sid]
        payloads = [{**DROPPED_DEFAULTS[rec.codec.key], **serialize_instance(sid, inst)}
                    for inst in verifier._stream(sid, rec, scope)]
        data = json.dumps(payloads, sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == DIGESTS_WITH_DROPPED_DEFAULTS[sid]

    @pytest.mark.parametrize("sid,scope", ROUND_TRIP_SCOPES)
    def test_instances_hold_the_codec_key_and_the_declared_parameters(self, sid, scope):
        # the draws and streams cannot drift from the declaration: every
        # instance holds exactly what a payload of its statement holds
        rec = verifier.STATEMENTS[sid]
        streams = [verifier._stream(sid, rec, scope)]
        if rec.exhaustive is not None:
            streams.append(itertools.islice(rec.exhaustive(), 5))
        for inst in itertools.chain(*streams):
            assert set(inst) == {rec.codec.key, *rec.params}

    @pytest.mark.parametrize("sid,scope", ROUND_TRIP_SCOPES)
    def test_round_trip_preserves_judgement(self, sid, scope):
        rec = verifier.STATEMENTS[sid]
        for inst in verifier._stream(sid, rec, scope):
            payload = serialize_instance(sid, inst)
            payload2 = json.loads(json.dumps(payload))
            inst2 = deserialize_instance(sid, payload2)
            assert serialize_instance(sid, inst2) == payload2
            hyp = rec.hypothesis(inst)
            assert hyp == rec.hypothesis(inst2)
            if hyp:
                solve = rec.codec.solve
                assert rec.conclusion(inst, solve) == rec.conclusion(inst2, solve)

    @pytest.mark.parametrize("sid,scope", ROUND_TRIP_SCOPES)
    def test_violation_certificates_decode(self, sid, scope, tmp_path, monkeypatch):
        # every instance planted as a violation: the recheck decodes each
        # payload once, and the certificate on disk decodes again
        rec = dataclasses.replace(verifier.STATEMENTS[sid], hypothesis=lambda inst: True,
                                  conclusion=lambda inst, optimum: False)
        monkeypatch.setitem(verifier.STATEMENTS, sid, rec)
        instances = list(itertools.islice(verifier._stream(sid, rec, scope), 2))
        report = verify(sid, Scope("stdin"), instances=instances, cert_dir=tmp_path)
        files = sorted(tmp_path.glob("*.json"))
        assert len(report.violations) == len(files) == len(instances)
        for inst, path in zip(instances, files):
            payload = json.loads(path.read_text())["instance"]
            assert payload == json.loads(json.dumps(serialize_instance(sid, inst)))
            assert serialize_instance(sid, deserialize_instance(sid, payload)) == payload


DRISKO_3 = family_to_json(cons.gen_drisko_extremal(3))


class TestStdinStream:
    """`verify --stdin` decodes each line once, through the CLI's one reader."""

    @staticmethod
    def run(statement, lines, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
        code = cli.main(["verify", statement, "--stdin"])
        out, err = capsys.readouterr()
        return code, out, err

    def test_judges_serialized_instances(self, monkeypatch, capsys):
        scope = Scope("randomized", trials=4, seed=2, params={"n_values": [2]})
        rec = verifier.STATEMENTS["DRISKO_1_5"]
        lines = [json.dumps(serialize_instance("DRISKO_1_5", inst))
                 for inst in verifier._stream("DRISKO_1_5", rec, scope)]
        # a raw family straight out of `gen` is accepted next to them
        lines.append(json.dumps(family_to_json(cons.gen_drisko_extremal(2))))
        code, out, _ = self.run("DRISKO_1_5", lines, monkeypatch, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["instances_checked"] == 5
        assert report["violations"] == []

    def test_undecodable_payload_names_its_line(self, monkeypatch, capsys):
        lines = ['{"graph": {"vertices": 2, "edges": [[0, 1]]}}', "", '{"edges": []}']
        code, out, err = self.run("ETA_GE_PSI_2_5", lines, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert "error: input line 3: missing field 'vertices' in graph" in err

    def test_raw_hypergraph_without_edges_is_undecodable(self, monkeypatch, capsys):
        # CONJ_FRACD_5_1 derives d from the edges of a raw hypergraph
        code, _, err = self.run("CONJ_FRACD_5_1", ['{"sides": [2, 2, 2]}'], monkeypatch, capsys)
        assert code == 2
        assert "error: input line 1: missing field 'edges' in hypergraph" in err

    @pytest.mark.parametrize("data", [[1, 2], 5, "graph", None])
    def test_payload_that_is_not_an_object_is_rejected(self, data, monkeypatch, capsys):
        lines = ['{"vertices": 2, "edges": []}', "", "", json.dumps(data)]
        code, out, err = self.run("ETA_GE_PSI_2_5", lines, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: input line 4: expected a JSON object\n")

    @pytest.mark.parametrize("sid,line,message", [
        # the raw object's parameters come from the decoded object, so its
        # constructor rejects it first
        ("CONJ_DRISKO_1_6", '{"sides": [], "edges": []}',
         "side_sizes must be three non-negative counts"),
        ("CONJ_FRACD_5_1", '{"sides": [1, 1, 1], "edges": [[5, 0, 0]]}',
         "edge (5, 0, 0) out of bounds for sides (1, 1, 1)"),
        ("CONJ_AB_1_4", '{"graph": {"left": 1, "right": 1, "edges": []}, "members": [[[0, 0]]]}',
         "member 0 uses edge (0, 0) outside the host"),
        ("CAMWAN_1_10", '{"square": {"n": 2, "cells": [[0, 1]]}}',
         "cells must form an n x n grid"),
        # a payload parameter must be of its kind, and a count not negative;
        # n = 2.5 was read as is, and the family was reported a violation
        ("DRISKO_1_5", json.dumps({"family": DRISKO_3, "n": 2.5}),
         "parameter 'n' expects an int, got 2.5"),
        ("DRISKO_1_5", json.dumps({"family": DRISKO_3, "n": "3"}),
         "parameter 'n' expects an int, got '3'"),
        ("DRISKO_1_5", json.dumps({"family": DRISKO_3, "n": True}),
         "parameter 'n' expects an int, got True"),
        ("DRISKO_1_5", json.dumps({"family": DRISKO_3, "n": -1}),
         "parameter 'n' must not be negative, got -1"),
        ("ACCOMMODATING_1_8", json.dumps({"family": DRISKO_3, "n": 3, "expect": "no"}),
         "parameter 'expect' expects a bool, got 'no'"),
        ("ACCOMMODATING_1_8", json.dumps({"family": DRISKO_3, "n": 3, "expect": 0}),
         "parameter 'expect' expects a bool, got 0"),
        ("LEMMA_3_1", '{"bipartite": {"left": 1, "right": 1, "edges": [[0, 0]]}, "ell": 2.5}',
         "parameter 'ell' expects an int, got 2.5"),
        ("TOPHALL_2_3", '{"pgraph": {"graph": {"vertices": 1, "edges": []}, "parts": [[0]]}, '
                        '"deficiency": -1}',
         "parameter 'deficiency' must not be negative, got -1"),
        ("CONJ_FRACD_5_1", '{"hyper": {"sides": [1, 1, 1], "edges": []}, "n": 1, "d": 1.5}',
         "parameter 'd' expects an int, got 1.5"),
        ("ALMOST_DRISKO_1_9", '{"hyper": {"sides": [1, 1, 1], "edges": []}, "d": false}',
         "ALMOST_DRISKO_1_9 payload has unknown field 'd'; accepted: hyper, n"),
    ])
    def test_out_of_range_value_names_its_line(self, sid, line, message, monkeypatch, capsys):
        code, out, err = self.run(sid, [line], monkeypatch, capsys)
        assert code == 2 and out == ""
        assert f"error: input line 1: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sid,line,unknown,accepted", [
        # a misspelt optional parameter was ignored and took its default:
        # judged with expect True, this family was reported a violation
        ("ACCOMMODATING_1_8", json.dumps({"family": DRISKO_3, "n": 3, "expekt": False}),
         "'expekt'", "family, n, expect"),
        ("ETA_GE_PSI_2_5", '{"graph": {"vertices": 2, "edges": [[0, 1]]}, "n": 2}',
         "'n'", "graph"),
        ("CONJ_FRACD_5_1", '{"hyper": {"sides": [1, 1, 1], "edges": []}, "m": 1, "D": 1}',
         "'D', 'm'", "hyper, n, d"),
    ])
    def test_unknown_payload_field_names_its_line(self, sid, line, unknown, accepted,
                                                  monkeypatch, capsys):
        code, out, err = self.run(sid, [line], monkeypatch, capsys)
        assert code == 2 and out == ""
        assert (f"error: input line 1: {sid} payload has unknown field {unknown}; "
                f"accepted: {accepted}") in err

    @pytest.mark.parametrize("sid,line,kind,unknown,accepted", [
        # "n" was dropped and derived from the family: judged at n = 2, exit 0
        ("DRISKO_1_5", json.dumps({**DRISKO_3, "n": 5}), "family", "'n'", "graph, members"),
        ("ETA_GE_PSI_2_5", '{"vertices": 3, "edges": [[0, 1]], "extra": 1}',
         "graph", "'extra'", "vertices, edges"),
        ("ALMOST_DRISKO_1_9", '{"sides": [1, 1, 1], "edges": [], "n": 1, "d": 1}',
         "hypergraph", "'d', 'n'", "sides, edges"),
    ])
    def test_unknown_raw_object_field_names_its_line(self, sid, line, kind, unknown, accepted,
                                                     monkeypatch, capsys):
        code, out, err = self.run(sid, [line], monkeypatch, capsys)
        assert code == 2 and out == ""
        assert (f"error: input line 1: {kind} has unknown field {unknown}; "
                f"accepted: {accepted}") in err

    def test_raw_graph_needs_its_edges(self, monkeypatch, capsys):
        code, out, err = self.run("ETA_GE_PSI_2_5", ['{"vertices": 3}'], monkeypatch, capsys)
        assert code == 2 and out == ""
        assert "input line 1: missing field 'edges' in graph" in err

    @pytest.mark.parametrize("sid", ["CONJ_DRISKO_1_6", "CONJ_GEN_5_3"])
    def test_raw_theorem19_hypergraph_reads_n_off_its_a_side(self, sid, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert cli.main(["gen", "theorem19", "--n", "3", "--seed", "1"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        inst = deserialize_instance(sid, json.loads(line))
        assert inst["hyper"].side_sizes == (5, 3, 3)  # |A| = 2n - 1
        assert inst["n"] == 3

    def test_each_raw_line_is_decoded_once(self, monkeypatch, capsys):
        calls = []
        real = verifier.hypergraph_from_json

        def counting(data):
            calls.append(data)
            return real(data)

        # both the codec's decoder and the module name, which a parameter
        # derivation from the raw JSON would have to call again
        monkeypatch.setattr(verifier, "hypergraph_from_json", counting)
        monkeypatch.setitem(verifier.STATEMENTS, "CONJ_FRACD_5_1", dataclasses.replace(
            verifier.STATEMENTS["CONJ_FRACD_5_1"],
            codec=dataclasses.replace(verifier._HYPER, from_json=counting)))
        H = hypergraph_to_json(next(cons.enumerate_regular_simple(3, 2)))
        code, out, _ = self.run("CONJ_FRACD_5_1", [json.dumps(H)] * 2, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["hypothesis_hits"] == 2
        assert calls == [H, H]


def _scope(mode, trials, seed, params):
    """A scope of the given mode that keeps only the fields the mode reads."""
    if mode == "exhaustive":
        return Scope(mode, params=params)
    return Scope(mode, trials=trials, seed=seed, params=params)


class TestStreamParams:
    def test_unknown_key_names_it_and_the_accepted_ones(self):
        scope = Scope("randomized", trials=2, seed=0, params={"ell": 2, "max_edges": 5})
        with pytest.raises(ValueError,
                           match=r"unknown parameter 'ell'; accepted: ells, max_edges"):
            verify("LEMMA_3_1", scope)
        with pytest.raises(ValueError, match=r"unknown parameter 'foo'; accepted: max_order"):
            verify("CAMWAN_1_10", Scope("exhaustive", params={"foo": 1}))
        with pytest.raises(ValueError, match=r"unknown parameter 'x', 'y'; accepted: n$"):
            hunt("CONJ_SYM_1_3", 2, 0, params={"x": 1, "y": 2})

    def test_given_and_default_values_agree(self):
        # a parameter passed at its default value asks for the same stream
        for sid, params in [("LEMMA_3_1", {"ells": [2, 3], "max_edges": 12}),
                            ("CONJ_SYM_1_3", {"n": 3}),
                            ("CONJ_ASYM_5_2", {"a_size": 3, "deg_a": 3, "bc_size": 6}),
                            ("CONJ_ASYM_5_2", {"bc_size": None}),
                            ("REMARK_5_DOUBLE_DELTA",
                             {"a_size": 3, "deg_a": 5, "bc_size": 10})]:
            rec = verifier.STATEMENTS[sid]
            given = list(verifier._stream(sid, rec, Scope("randomized", 5, 4, params)))
            default = list(verifier._stream(sid, rec, Scope("randomized", 5, 4)))
            assert [serialize_instance(sid, i) for i in given] == \
                [serialize_instance(sid, i) for i in default]

    @pytest.mark.parametrize("sid,scope,name,kind,value", [
        ("STRONG_CAMWAN_1_12", "exhaustive", "max_order", "an int", 2.5),
        ("ETA_GE_PSI_2_5", "exhaustive", "max_vertices", "an int", "x"),
        ("CAMWAN_1_10", "randomized", "n", "an int", "x"),
        ("CAMWAN_1_10", "randomized", "n", "an int", True),
        ("DRISKO_1_5", "randomized", "n_values", "a list of ints", 5),
        ("DRISKO_1_5", "randomized", "n_values", "a list of ints", [2, "3"]),
        ("CONJ_ASYM_5_2", "randomized", "bc_size", "null or an int", [3]),
    ])
    def test_value_of_the_wrong_kind_names_the_parameter(self, sid, scope, name, kind,
                                                         value):
        scope = _scope(scope, 2, 0, {name: value})
        message = f"parameter '{name}' expects {kind}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify(sid, scope)

    @pytest.mark.parametrize("sid,scope,name,value,message", [
        ("CAMWAN_1_10", "randomized", "n", -1, "must not be negative, got -1"),
        ("CONJ_RBS_1_1", "hunt", "n", -1, "must not be negative, got -1"),
        ("DRISKO_1_5", "randomized", "n_values", [], "must not be empty"),
        ("DRISKO_1_5", "randomized", "n_values", [2, -3], "must not be negative, got [2, -3]"),
        ("LEMMA_3_1", "randomized", "ells", [], "must not be empty"),
        ("STRONG_CAMWAN_1_12", "exhaustive", "max_order", -1, "must not be negative, got -1"),
        ("CONJ_ASYM_5_2", "randomized", "bc_size", -2, "must not be negative, got -2"),
    ])
    def test_negative_count_or_empty_list_names_the_parameter(self, sid, scope, name, value,
                                                             message):
        message = f"parameter '{name}' {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if scope == "hunt":
                hunt(sid, 3, 1, params={name: value})
            else:
                verify(sid, _scope(scope, 3, 1, {name: value}))

    def test_values_of_each_kind_are_accepted(self):
        for sid, params in [("DRISKO_1_5", {"n_values": (2,)}),
                            ("CONJ_ASYM_5_2", {"bc_size": None}),
                            ("CONJ_ASYM_5_2", {"bc_size": 6}),
                            ("CAMWAN_1_10", {"n": 0})]:
            assert verify(sid, Scope("randomized", trials=2, seed=0,
                                     params=params)).instances_checked == 2


class TestCheckAccommodating:
    """Both directions of Theorem 1.8 for one sequence, through `verify`."""

    @staticmethod
    def meeting(a, n, trials, seed):
        rng = random.Random(seed)
        return [{"family": verifier._family_meeting_profile(a, n, rng), "n": n, "expect": True}
                for _ in range(trials)]

    def test_accommodating_sequence_no_violations(self):
        report = verify("ACCOMMODATING_1_8", Scope("stdin"),
                        instances=self.meeting((1, 2, 2), 2, 40, 8))
        assert report.hypothesis_hits == 40
        assert report.violations == []

    def test_non_accommodating_constructed_witness(self):
        fam = cons.gen_accommodating_counterexample((0, 2, 2), 2)
        report = verify("ACCOMMODATING_1_8", Scope("stdin"),
                        instances=[{"family": fam, "n": 2, "expect": False}])
        assert report.instances_checked == report.hypothesis_hits == 1
        assert report.violations == []  # construction confirmed: no rainbow

    @pytest.mark.parametrize("expect", [True, False])
    def test_family_without_2n_minus_1_members_is_no_hit(self, expect):
        # 4 members at n = 3: neither direction of the theorem speaks of it;
        # it was judged accommodating-shaped and reported a violation
        fam = cons.gen_drisko_extremal(3)
        assert len(fam.members) == 4
        for n in (2, 3):
            report = verify("ACCOMMODATING_1_8", Scope("stdin"),
                            instances=[{"family": fam, "n": n, "expect": expect}])
            assert report.instances_checked == 1
            assert report.hypothesis_hits == 0 and report.violations == []

    def test_equality_threshold_case(self):
        report = verify("ACCOMMODATING_1_8", Scope("stdin"),
                        instances=self.meeting((1, 2, 3, 3, 3), 3, 15, 8))
        assert report.hypothesis_hits == 15
        assert report.violations == []

    def test_malformed_sequence(self):
        for a in ((2, 1, 1), (0, 1)):
            with pytest.raises(ValueError):
                cons.gen_accommodating_counterexample(a, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unranking_follows_the_table(self, n):
        table = list(verifier.ascending_sequences(n))
        assert len(table) == math.comb(3 * n - 1, 2 * n - 1)
        assert [verifier._ascending_sequence(n, i) for i in range(len(table))] == table

    @pytest.mark.parametrize("n, count", [(2, 8), (3, 51)])
    def test_exhaustive_stream_confirms_each_counterexample(self, n, count):
        # one constructed family per non-accommodating sequence, each
        # expected to lack a rainbow n-matching
        scope = Scope("exhaustive", params={"n": n})
        instances = list(verifier._stream(
            "ACCOMMODATING_1_8", verifier.STATEMENTS["ACCOMMODATING_1_8"], scope))
        assert len(instances) == count
        assert all(inst["n"] == n and inst["expect"] is False for inst in instances)
        report = verify("ACCOMMODATING_1_8", scope)
        assert report.instances_checked == report.hypothesis_hits == count
        assert report.violations == []

    def test_draws_build_no_table(self):
        # the table at n = 12 would hold comb(35, 23) = 834 451 800 sequences
        scope = Scope("randomized", trials=100, seed=1, params={"n": 12})
        tracemalloc.start()
        try:
            stream = verifier._stream("ACCOMMODATING_1_8",
                                      verifier.STATEMENTS["ACCOMMODATING_1_8"], scope)
            assert sum(1 for _ in stream) == 100
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestHunt:
    def test_hunt_only_accepts_conjectures(self):
        with pytest.raises(ValueError):
            hunt("DRISKO_1_5", 10, 1)

    def test_hunt_runs_clean_at_small_sizes(self):
        report = hunt("CONJ_SYM_1_3", 50, 13, params={"n": 3})
        assert report.hypothesis_hits == 50
        assert report.violations == []

    def test_planted_violation_detected(self, monkeypatch):
        # simulate a solver bug: the matching number reads 0 on every instance
        monkeypatch.setattr(verifier, "max_matching_size",
                            lambda H, **kw: SolveResult(0, None, 0))
        report = hunt("CONJ_SYM_1_3", 5, 13, params={"n": 2})
        assert len(report.violations) == 5
        for record in report.violations:
            assert record["recheck"]["hypothesis"] is True
            assert record["recheck"]["conclusion"] is False
            # the independent oracle flags the mutation as a solver bug
            assert record["recheck"]["oracle_agrees"] is False
        assert report.disagreements == 5

    def test_certificates_written(self, tmp_path, monkeypatch):
        plant_conclusion(monkeypatch, "CONJ_SYM_1_3", lambda inst, optimum: False)
        hunt("CONJ_SYM_1_3", 2, 13, params={"n": 2}, cert_dir=tmp_path)
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 2
        data = json.loads(files[0].read_text())
        assert "instance" in data and "recheck" in data

    def test_candidate_kept_when_recheck_disagrees(self, monkeypatch):
        calls = []

        def flaky(inst, optimum):
            calls.append(inst)
            return len(calls) > 1  # False on the first call only

        plant_conclusion(monkeypatch, "CONJ_SYM_1_3", flaky)
        report = hunt("CONJ_SYM_1_3", 3, 13, params={"n": 2})
        assert report.hypothesis_hits == 3
        (record,) = report.violations
        assert record["recheck"]["hypothesis"] is True
        assert record["recheck"]["conclusion"] is True
        assert report.disagreements == 1

    def test_violation_confirmed_by_recheck_and_oracle_is_no_disagreement(self, monkeypatch):
        plant_conclusion(monkeypatch, "CONJ_SYM_1_3", lambda inst, optimum: False)
        report = hunt("CONJ_SYM_1_3", 4, 13, params={"n": 2})
        assert len(report.violations) == 4
        assert all(r["recheck"]["oracle_agrees"] is True for r in report.violations)
        assert report.disagreements == 0
        assert report.to_json()["disagreements"] == 0


CODEC_KEYS = sorted({rec.codec.key for rec in verifier.STATEMENTS.values()})


class TestCodecContract:
    """Each codec's solve keeps the `_Codec` contract on small draws of its
    statements: the optimum without a target, and the threshold with one."""

    def test_there_are_six_codecs(self):
        assert CODEC_KEYS == ["bipartite", "family", "graph", "hyper", "pgraph", "square"]

    @pytest.mark.parametrize("key", CODEC_KEYS)
    def test_solve_agrees_with_the_oracle(self, key):
        shared = {}
        reached = 0
        for sid, scope in ROUND_TRIP_SCOPES:
            rec = verifier.STATEMENTS[sid]
            codec = rec.codec
            if codec.key != key:
                continue
            # the psi kinds are solved with a fresh table and with one shared
            # by every instance
            solves = [codec.solve]
            if codec.psi_memo:
                solves.append(lambda inst, target=None: codec.solve(inst, target, memo=shared))
            for inst in verifier._stream(sid, rec, scope):
                best = codec.oracle(inst)
                if best is None:
                    continue
                reached += 1
                for solve in solves:
                    assert solve(inst) == best, (sid, inst)
                    for t in range(min(best, 8) + 2):
                        assert (solve(inst, t) >= t) == (best >= t), (sid, inst, t)
        assert reached > 0


class TestGraphOracleViews:
    def test_planted_eta_psi_violation_disagrees_with_oracle(self, monkeypatch):
        monkeypatch.setattr(verifier, "psi", lambda G, **kw: 99)
        report = verify("ETA_GE_PSI_2_5", Scope("exhaustive", params={"max_vertices": 5}))
        assert report.violations
        viewed = 0
        for record in report.violations:
            edges = record["instance"]["graph"]["edges"]
            if len(edges) <= verifier.PSI_ORACLE_EDGE_LIMIT:
                assert record["recheck"]["oracle_agrees"] is False
                viewed += 1
            else:  # beyond the gate the oracle gives no view
                assert "oracle_agrees" not in record["recheck"]
        assert viewed > 0

    def test_planted_lemma31_violation_disagrees_with_oracle(self, monkeypatch):
        monkeypatch.setattr(verifier, "psi", lambda G, **kw: 0)
        scope = Scope("randomized", trials=6, seed=3, params={"ells": [2], "max_edges": 5})
        report = verify("LEMMA_3_1", scope)
        assert len(report.violations) == report.hypothesis_hits == 6
        for record in report.violations:
            assert record["recheck"]["oracle_agrees"] is False

    def test_oracle_gate_skips_graphs_beyond_its_vertex_limit(self, monkeypatch):
        # 7 disjoint edges pass the edge gate, but psi_oracle takes at most
        # 12 vertices: the candidate is kept with no oracle view
        G = Graph(14, frozenset((2 * i, 2 * i + 1) for i in range(7)))
        assert len(G.edges) <= verifier.PSI_ORACLE_EDGE_LIMIT
        assert G.n > verifier.oracle.PSI_ORACLE_VERTEX_LIMIT
        plant_conclusion(monkeypatch, "ETA_GE_PSI_2_5", lambda inst, optimum: False)
        report = verify("ETA_GE_PSI_2_5", Scope("stdin"), instances=[{"graph": G}])
        (record,) = report.violations
        assert record["recheck"] == {"hypothesis": True, "conclusion": False}
        assert report.disagreements == 0

    def test_passing_instances_agree_with_oracle(self):
        # TOPHALL_2_3: the edge 01 and a loose vertex 2; the unions of parts
        # {0, 2}, {1} and {0, 1, 2} have simplices and a cone over 2 as their
        # independence complexes, and {1, 2} meets both parts
        for sid, inst in [
            ("ETA_GE_PSI_2_5", {"graph": enumerate_graphs_up_to_iso(4)[-1]}),
            ("LEMMA_3_1", next(verifier._stream(
                "LEMMA_3_1", verifier.STATEMENTS["LEMMA_3_1"],
                Scope("randomized", 1, 3, {"ells": [2], "max_edges": 5})))),
            ("DRISKO_1_5", {"family": cons.random_family([2, 3, 2], random.Random(4)), "n": 2}),
            ("TOPHALL_2_3", {"pgraph": PartitionedGraph(
                Graph(3, frozenset({(0, 1)})), (frozenset({0, 2}), frozenset({1}))),
                "deficiency": 0}),
        ]:
            recheck = verifier._revalidate(verifier.STATEMENTS[sid],
                                           serialize_instance(sid, inst))
            assert recheck == {"hypothesis": True, "conclusion": True,
                               "oracle_agrees": True}


class TestSweepTables:
    """verify solves one sweep's instances against shared psi tables."""

    SWEEPS = [
        ("ETA_GE_PSI_2_5", Scope("exhaustive", params={"max_vertices": 6})),
        ("LEMMA_3_1", verifier.SHIPPED_SCOPES["LEMMA_3_1"]),
    ]

    @staticmethod
    def alone_entries(sid, inst):
        memo = {}
        if sid == "ETA_GE_PSI_2_5":
            psi(inst["graph"], memo=memo)
        else:
            psi(line_graph(inst["bipartite"]), cap=inst["ell"], memo=memo)
        return len(memo)

    @pytest.mark.parametrize("sid,scope", SWEEPS)
    def test_report_equals_fresh_tables_per_instance(self, sid, scope, monkeypatch):
        shared = verify(sid, scope).to_json()
        monkeypatch.setattr(verifier, "SWEEP_TABLE_LIMIT", 0)  # a fresh table per instance
        assert verify(sid, scope).to_json() == shared

    @pytest.mark.parametrize("sid,scope", SWEEPS)
    def test_tiny_table_limit_fails_no_instance_that_passes_alone(
            self, sid, scope, monkeypatch):
        rec = verifier.STATEMENTS[sid]
        instances = list(verifier._stream(sid, rec, scope))
        limit = max(self.alone_entries(sid, inst) for inst in instances)
        expected = verify(sid, scope).to_json()
        real = verifier.psi
        sizes = []

        def recording(*args, memo=None, **kw):
            sizes.append(len(memo))
            return real(*args, memo=memo, **kw)

        # a per-call budget each instance just fits in when alone
        monkeypatch.setattr(game, "MEMO_LIMIT", limit)
        monkeypatch.setattr(verifier, "SWEEP_TABLE_LIMIT", limit)
        monkeypatch.setattr(verifier, "psi", recording)
        assert verify(sid, scope).to_json() == expected
        # the table was shared, and started over whenever it reached the limit
        assert 0 < max(sizes) < limit
        assert any(after < before for before, after in zip(sizes, sizes[1:]))

    def test_single_call_beyond_its_budget_still_raises(self, monkeypatch):
        # against the shared table no call of this sweep adds more than one
        # entry, so a budget of none is the one a call goes beyond
        monkeypatch.setattr(game, "MEMO_LIMIT", 0)
        with pytest.raises(BudgetExceededError):
            verify("ETA_GE_PSI_2_5", Scope("exhaustive", params={"max_vertices": 5}))

    def test_wrong_table_entry_caught_by_recheck(self, monkeypatch, graph_key):
        real = verifier.psi
        planted = []

        def planting(G, *, memo=None, **kw):
            if not planted:  # the first call gets the sweep's table
                # an exact entry of 50, but psi(K2) is 1
                memo[graph_key(2, [(0, 1)])] = (50, True)
                planted.append(memo)
            return real(G, memo=memo, **kw)

        monkeypatch.setattr(verifier, "psi", planting)
        report = verify("ETA_GE_PSI_2_5", Scope("exhaustive", params={"max_vertices": 4}))
        assert report.violations
        for record in report.violations:
            assert record["recheck"]["conclusion"] is True
        assert report.disagreements == len(report.violations)

    def test_every_psi_call_passes_through_the_module_names(self, monkeypatch):
        # a tracer that wraps verifier.psi must see one call per judged
        # instance
        calls = {"psi": 0}
        real = verifier.psi

        def counting(*args, **kw):
            calls["psi"] += 1
            return real(*args, **kw)

        monkeypatch.setattr(verifier, "psi", counting)
        for sid in ("ETA_GE_PSI_2_5", "LEMMA_3_1"):
            verify(sid, verifier.SHIPPED_SCOPES[sid])
        assert calls == {"psi": 409}


def row_latin_squares(n):
    """Every row-Latin square of order n."""
    rows = list(itertools.permutations(range(n)))
    return [LatinSquare(n, cells) for cells in itertools.product(rows, repeat=n)]


class TestVerdictTable:
    """verify judges each key of the square codec's `canonical` once."""

    SID = "STRONG_CAMWAN_1_12"
    SCOPE = Scope("exhaustive", params={"max_order": 3})

    @staticmethod
    def key(L):
        return verifier._SQUARE.canonical({"square": L})

    def test_row_permutations_share_key_and_optimum(self):
        rng = random.Random(16)
        squares = [L for n in range(4) for L in row_latin_squares(n)]
        squares += cons.gen_row_latin(4, "random", seed=16, count=40)
        for L in squares:
            optimum = find_bounded_diagonal(L, 2).optimum
            assert optimum == verifier._square_oracle({"square": L})
            perms = list(itertools.permutations(L.cells))
            if L.order == 4:
                perms = rng.sample(perms, 8)
            for cells in perms:
                M = LatinSquare(L.order, cells)
                assert self.key(M) == self.key(L)
                assert find_bounded_diagonal(M, 2).optimum == optimum

    def test_equal_keys_only_for_equal_sorted_rows(self):
        # soundness: a key never joins squares that are not row permutations
        # of each other, of the same order or not
        squares = [L for n in range(4) for L in row_latin_squares(n)]
        squares += cons.gen_row_latin(4, "exhaustive")
        squares += cons.gen_latin(5, "random", seed=16, count=200)
        keys = {self.key(L) for L in squares}
        assert len(keys) == len({(L.order, tuple(sorted(L.cells))) for L in squares})

    def test_shipped_sweep_judges_each_row_order_class_once(self):
        report = verify(self.SID, verifier.SHIPPED_SCOPES[self.SID])
        assert report.instances_checked == report.hypothesis_hits == 13_863
        assert report.violations == []
        assert report.judged == 2_624
        assert "judged" not in report.to_json()

    def test_codecs_without_a_key_judge_every_hit(self):
        report = verify("LEMMA_3_1", verifier.SHIPPED_SCOPES["LEMMA_3_1"])
        assert report.judged == report.hypothesis_hits == 200

    def plant_false_verdict(self, monkeypatch):
        """Make the codec's solve miss a full diagonal on the most common key
        of SCOPE; returns the serialized instances that have that key."""
        rec = verifier.STATEMENTS[self.SID]
        instances = list(verifier._stream(self.SID, rec, self.SCOPE))
        chosen, count = Counter(self.key(inst["square"]) for inst in instances).most_common(1)[0]
        assert count > 1
        real = rec.codec.solve

        def solve(inst, target=None):
            if self.key(inst["square"]) == chosen:
                return inst["square"].order - 1
            return real(inst, target)

        codec = dataclasses.replace(rec.codec, solve=solve)
        monkeypatch.setitem(verifier.STATEMENTS, self.SID, dataclasses.replace(rec, codec=codec))
        return [serialize_instance(self.SID, inst) for inst in instances
                if self.key(inst["square"]) == chosen]

    def test_false_verdict_records_every_instance_with_its_key(self, monkeypatch, tmp_path):
        with_key = self.plant_false_verdict(monkeypatch)
        report = verify(self.SID, self.SCOPE, cert_dir=tmp_path)
        assert [record["instance"] for record in report.violations] == with_key
        for record in report.violations:
            # each its own re-check: the planted solve, contradicted by the oracle
            assert record["recheck"] == {"hypothesis": True, "conclusion": False,
                                         "oracle_agrees": False}
        assert report.disagreements == len(with_key)
        assert len(list(tmp_path.glob("*.json"))) == len(with_key)
        assert report.instances_checked == report.hypothesis_hits == 39
        assert report.judged == 24

    @pytest.mark.parametrize("limit", [0, 1, 10])
    def test_small_limit_clears_verdicts_without_changing_answers(self, limit, monkeypatch):
        self.plant_false_verdict(monkeypatch)
        expected = verify(self.SID, self.SCOPE)
        monkeypatch.setattr(verifier, "SWEEP_TABLE_LIMIT", limit)
        report = verify(self.SID, self.SCOPE)
        assert report.to_json() == expected.to_json()
        # a cleared table judges again a key it had judged
        assert expected.judged < report.judged <= report.hypothesis_hits
        if limit <= 1:
            assert report.judged == report.hypothesis_hits


class TestTheoremSuite:
    def test_zero_violations_at_shipped_scopes(self):
        reports, clean = verifier.run_theorem_suite()
        assert clean
        assert {r.statement for r in reports} == set(THEOREM_IDS)
        for r in reports:
            assert r.violations == []
            assert r.hypothesis_hits > 0

    def test_suite_leaves_little_for_the_collector(self):
        # the solver searches unbind themselves, so a pass leaves only the
        # two square streams' generator cycles (about 74 objects); it left
        # about 130 000 when every search call left its closure cycle
        gc.collect()
        gc.disable()
        try:
            verifier.run_theorem_suite()
            left = gc.collect()
        finally:
            gc.enable()
        assert left < 1000

"""Self-tests of the benchmark harness (not part of the library's test suite).

Run from the root of a checkout:  python3 bench/selftest.py
Takes about two minutes: it makes short real runs of every workload.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]] + list(run.EXTRA_WORKLOADS)


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory under bench/_work, which run.py may remove."""
    run.WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc.returncode, result


class TinyRuns(unittest.TestCase):
    def test_end_to_end(self):
        names = [m["name"] for m in CONFIG["end_to_end"]]
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, result = bench(name, 3, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                expected = 0
                if name == "cli":
                    # Only the known-defect inputs fail, once per pass.
                    with scratch_dir() as tmp:
                        specs = run.cli_commands(3, Path(tmp))
                    known = sum(s["known_defect"] for s in specs)
                    self.assertGreater(known, 0)
                    expected = result["attempted"] // len(specs) * known
                self.assertEqual(result["failed"], expected)

    def test_traced_counts_repeat(self):
        names = [m["name"] for m in CONFIG["per_layer"]]
        for name in WORKLOADS:
            with self.subTest(workload=name):
                runs = [bench(name, 5, 1) for _ in range(2)]
                for code, result in runs:
                    self.assertEqual(code, 0)
                    self.assertEqual(list(result["metrics"]), names)
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if k.endswith((".calls", ".repeat_ratio"))} for _, r in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(sum(counts[0].values()), 0)

    def test_fails_without_the_program(self):
        with scratch_dir() as tmp:
            stripped = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", stripped)
            for path in CONFIG["paths"]:
                shutil.copytree(ROOT / path, stripped / path,
                                ignore=shutil.ignore_patterns("__pycache__", "_work"))
            code, result = bench("factor", 1, 0, cwd=stripped)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


class Oracles(unittest.TestCase):
    def test_corrupted_factorization(self):
        n = 999_983 * 1_000_003
        self.assertEqual(oracle.check_factors(n, [[999_983, 1], [1_000_003, 1]]), [])
        self.assertTrue(oracle.check_factors(n, [[999_983, 1], [1_000_033, 1]]))
        self.assertTrue(oracle.check_factors(n, [[n, 1]]))
        self.assertTrue(oracle.check_factors(12, [[3, 1], [2, 2]]))

    def test_corrupted_graph_verdicts(self):
        from chargraph.classify import check_palfy, check_solvable_shape
        from chargraph.graphs import CharGraph, are_isomorphic, is_kn_free
        from chargraph.shapes import eval_shape, parse_shape

        def outputs(pair):
            a = CharGraph(pair[0]["vertices"], pair[0]["edges"])
            b = CharGraph(pair[1]["vertices"], pair[1]["edges"])
            mapping = are_isomorphic(a, b)
            checks = [is_kn_free(a, 4), check_palfy(a), check_solvable_shape(a)]
            return [sorted(mapping.items()) if mapping else None, checks]

        item = inputs.graph_set(1, 1)[0]
        good = {"pos": outputs(item["pos"]), "neg": outputs(item["neg"]),
                "shape": eval_shape(parse_shape(item["shape"])).to_json()}
        self.assertEqual(oracle.check_graph_item(item, good), [])
        corruptions = (
            lambda o: o["pos"].__setitem__(0, None),
            lambda o: o["neg"].__setitem__(0, good["pos"][0]),
            lambda o: o["pos"][1].__setitem__(1, not o["pos"][1][1]),
            lambda o: o["shape"]["vertices"].append(101),
        )
        for corrupt in corruptions:
            bad = copy.deepcopy(good)
            corrupt(bad)
            self.assertTrue(oracle.check_graph_item(item, bad))

    def test_corrupted_results_count_as_failures(self):
        clock = run.Clock()
        w = run.Workload("factor", 1, clock, ROOT)
        items = [{"n": 15, "factors": [[3, 1], [5, 1]], "ms": 1.0},
                 {"n": 21, "factors": [[3, 1], [5, 1]], "ms": 1.0}]
        verdict = run.check_all(w, [{"wall_s": 0.1, "items": items}])
        self.assertEqual((verdict["attempted"], verdict["failed"], verdict["correct"]), (2, 1, False))
        # A round that repeats an output reuses its verdict; one that
        # changes it is judged afresh.
        fixed = [items[0], {**items[1], "factors": [[3, 1], [7, 1]]}]
        verdict = run.check_all(w, [{"wall_s": 0.1, "items": items}, {"wall_s": 0.1, "items": fixed},
                                    {"wall_s": 0.1, "items": items}])
        self.assertEqual((verdict["attempted"], verdict["failed"]), (6, 2))

    def test_corrupted_paper_claims(self):
        good = {"kind": "classify", "key": 6, "sizes": [2, 2], "case": "II", "ms": 1.0}
        self.assertEqual(oracle.check_paper_item(good), [])
        self.assertTrue(oracle.check_paper_item({**good, "case": None}))
        scan = {"kind": "oddfour", "key": 100_000, "ms": 1.0, "counterexamples": 0,
                "hits": [{"q": q, "p": p, "f": f, "clause": c}
                         for q, p, f, c in oracle.paper_expected()["oddfour"]]}
        self.assertEqual(oracle.check_paper_item(scan), [])
        self.assertTrue(oracle.check_paper_item({**scan, "hits": scan["hits"][1:]}))

    def test_cli_exit_codes(self):
        spec = {"argv": ["factor", "0"], "exit": 2, "check": None, "known_defect": False, "args": {}}
        self.assertEqual(oracle.check_cli(spec, {"exit": 2, "stdout": "", "stderr": "error: x"}), [])
        self.assertTrue(oracle.check_cli(spec, {"exit": 1, "stdout": "", "stderr": ""}))
        self.assertTrue(oracle.check_cli(spec, {"exit": 2, "stdout": "", "stderr": "Traceback (most"}))

    def test_frozen_paper_results(self):
        self.assertEqual(oracle.derive_paper_expected(), oracle.paper_expected())


class Tracing(unittest.TestCase):
    def test_spans_cross_layer_calls_only(self):
        import chargraph.classify as classify
        from chargraph.graphs import CharGraph

        tracer = Tracer()
        tracer.install()
        try:
            api = tracer.wrap("classify.classify_f", classify.classify_f)
            report = api(6)
            g = CharGraph.from_json({"vertices": [2, 3], "edges": [[2, 3]]})
            self.assertIsInstance(g, CharGraph)
            self.assertIsInstance(report.socle_graph, CharGraph)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        calls = summary["calls"]
        self.assertEqual(calls["classify.classify_f"], 1)
        self.assertEqual(calls["degrees.graph_psl2"], 1)
        # from_json constructs inside graphs: an intra-layer call, not spanned.
        self.assertEqual(calls.get("graphs.CharGraph"), 1)
        # CharGraph.__init__ checks its vertices with is_prime, a call into
        # arith, so those spans appear with no graphs span around them.
        roots = [s for s in tracer.spans if s[3] == -1]
        self.assertEqual({s[0] for s in roots}, {"classify.classify_f", "arith.is_prime"})
        # Parents cover their children, so self times add up to the roots.
        self.assertAlmostEqual(sum(summary["self_ms"].values()),
                               sum(end - start for _, start, end, _ in roots) * 1e3, places=6)
        import chargraph.degrees as degrees

        self.assertIs(classify.graph_psl2, degrees.graph_psl2)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        if run.WORK.exists() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

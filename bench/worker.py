"""Benchmark worker: runs one round of a workload in a fresh process.

Reads a job as JSON on stdin and writes one JSON line on stdout: the
round's timed wall time, every item's time and raw output, the import
time, peak RSS and trace summary.  The runner (run.py) starts it with
PYTHONPATH pointing at the checkout's src/ and builds the round's inputs
itself, from the seed; outputs are returned unchecked, because the oracles
run in run.py.

A round is one pass over the job's inputs: the paper's claims, a set of
factor inputs, a set of graph items, or the CLI command sequence.  Every
round of a run does the same work from the same fresh state.

Job keys: workload, trace, and inputs (factor: [class, n] pairs; graphs:
items with pos, neg and shape) or commands and env (cli).
"""

from __future__ import annotations

import importlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import TRACE_MARK, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_SHIM = Path(__file__).resolve().parent / "cli_shim.py"

# Below 2^40 and free of small factors, so factoring it builds the trial
# sieve: the first factorize call pays that once, before timing starts.
WARMUP_N = 999_983 * 1_000_003

# Longest a single CLI invocation may run before it counts as a failure.
CLI_TIMEOUT_S = 60

# The library functions the benchmark calls, by layer.
API = {
    "arith": ("factorize",),
    "graphs": ("CharGraph", "are_isomorphic", "is_kn_free"),
    "shapes": ("parse_shape", "eval_shape"),
    "classify": (
        "classify_f", "verify_main", "synthetic_radical", "scan_lemma_interest",
        "scan_lemma_evenfive", "scan_lemma_oddfour", "scan_counterexamples",
        "check_palfy", "check_solvable_shape",
    ),
}


def bind_api(tracer: Tracer | None) -> SimpleNamespace:
    """The functions the workloads call; spanned when tracing."""
    api = {}
    for layer, names in API.items():
        module = importlib.import_module(f"chargraph.{layer}")
        for name in names:
            value = getattr(module, name)
            if tracer is not None and not isinstance(value, type):
                value = tracer.wrap(f"{layer}.{name}", value)
            api[name] = value
    return SimpleNamespace(**api)


# ---------------------------------------------------------------- paper

def timed(thunk) -> tuple[object, float]:
    """(thunk's value, or the exception it raised, and the seconds taken).

    A raised exception is an output like any other: run.py counts it
    as a failed item.
    """
    start = time.perf_counter()
    try:
        value = thunk()
    except Exception as exc:
        value = exc
    return value, time.perf_counter() - start


def describe(value, fields) -> dict:
    return {"error": repr(value)} if isinstance(value, Exception) else fields(value)


def run_paper(api, job: dict) -> dict:
    """Every claim of the paper, each timed as one item."""
    def scan(name: str, bound: int):
        hits = getattr(api, f"scan_lemma_{name}")(bound)
        return hits, api.scan_counterexamples(hits)

    def scan_fields(value) -> dict:
        hits, bad = value
        return {"hits": [h.to_json() for h in hits], "counterexamples": len(bad)}

    claims = []
    for f in range(2, 64):
        claims.append(("classify", f, *timed(lambda: api.classify_f(f))))
    for f in [key for _, key, report, _ in claims if getattr(report, "case", None)]:
        claims.append(("verify", f, *timed(lambda: api.verify_main(f, api.synthetic_radical(f)))))
    for name, bound in (("interest", 63), ("evenfive", 63), ("oddfour", 100_000)):
        claims.append((name, bound, *timed(lambda: scan(name, bound))))

    fields = {
        "classify": lambda r: {"sizes": list(r.sizes), "case": r.case},
        "verify": lambda r: {"case": r.case, "verified": r.verified, "graph": r.product_graph.to_json()},
    }
    items = [
        {"kind": kind, "key": key, "ms": seconds * 1e3, **describe(value, fields.get(kind, scan_fields))}
        for kind, key, value, seconds in claims
    ]
    return {"wall_s": sum(c[3] for c in claims), "items": items}


# ---------------------------------------------------------------- factor

def run_factor(api, job: dict) -> dict:
    """Distinct u64 inputs, one factorize call per item, each new to the
    process's caches."""
    timed(lambda: api.factorize(WARMUP_N))
    items, wall = [], 0.0
    for kind, n in job["inputs"]:
        fac, seconds = timed(lambda: api.factorize(n))
        wall += seconds
        items.append({"kind": kind, "n": n, "ms": seconds * 1e3,
                      **describe(fac, lambda f: {"factors": [list(pe) for pe in f.factors]})})
    return {"wall_s": wall, "items": items}


# ---------------------------------------------------------------- graphs

def run_graphs(api, job: dict) -> dict:
    """Isomorphic and non-isomorphic pairs, clique and solvability checks on
    each pair's first graph, and one shape expression per item.  The first
    job["warmup"] items run once untimed first, so that the code paths of
    every size stratum are warm when timing starts."""
    def check_pair(pair):
        a = api.CharGraph(pair[0]["vertices"], pair[0]["edges"])
        b = api.CharGraph(pair[1]["vertices"], pair[1]["edges"])
        mapping = api.are_isomorphic(a, b)
        checks = [api.is_kn_free(a, 4), api.check_palfy(a), api.check_solvable_shape(a)]
        return [sorted(mapping.items()) if mapping is not None else None, checks]

    def one_item(item: dict):
        pos = check_pair(item["pos"])
        neg = check_pair(item["neg"])
        return pos, neg, api.eval_shape(api.parse_shape(item["shape"]))

    for item in job["inputs"][:job["warmup"]]:
        timed(lambda: one_item(item))
    items, wall = [], 0.0
    for item in job["inputs"]:
        out, seconds = timed(lambda: one_item(item))
        wall += seconds
        items.append({"ms": seconds * 1e3,
                      **describe(out, lambda o: {"pos": o[0], "neg": o[1], "shape": o[2].to_json()})})
    return {"wall_s": wall, "items": items}


# ---------------------------------------------------------------- cli

def merge_traces(summaries: list[dict]) -> dict:
    """One summary for a pass of CLI processes: counts and self times add
    up; the first-factorize time is the median over processes that factor."""
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    firsts = sorted(s["first_factorize_ms"] for s in summaries if s["first_factorize_ms"] is not None)
    for s in summaries:
        for name, n in s["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, ms in s["self_ms"].items():
            self_ms[name] = self_ms.get(name, 0.0) + ms
    return {
        "calls": calls,
        "self_ms": self_ms,
        "first_factorize_ms": firsts[len(firsts) // 2] if firsts else None,
        "factoring_calls": sum(s["factoring_calls"] for s in summaries),
        "factoring_repeats": sum(s["factoring_repeats"] for s in summaries),
    }


def run_cli(job: dict) -> dict:
    """The command sequence, one fresh interpreter per command."""
    if job["trace"]:
        prefix = [sys.executable, str(CLI_SHIM)]
    else:
        prefix = [sys.executable, "-m", "chargraph.cli"]
    traces: list[dict] = []

    items, wall = [], 0.0
    for index, argv in enumerate(job["commands"]):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                prefix + argv, capture_output=True, text=True, env=job["env"],
                cwd=ROOT, timeout=CLI_TIMEOUT_S,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = None, "", f"timed out after {CLI_TIMEOUT_S} s"
        seconds = time.perf_counter() - start
        wall += seconds
        if job["trace"] and stderr:
            lines = stderr.splitlines(keepends=True)
            if lines[-1].startswith(TRACE_MARK):
                traces.append(json.loads(lines[-1][len(TRACE_MARK):]))
                stderr = "".join(lines[:-1])
        items.append({"index": index, "exit": code, "stdout": stdout, "stderr": stderr, "ms": seconds * 1e3})
    result = {"wall_s": wall, "items": items}
    result["trace"] = merge_traces(traces) if job["trace"] else None
    return result


# ---------------------------------------------------------------- main

def main() -> int:
    job = json.load(sys.stdin)
    if job["workload"] == "cli":
        result = run_cli(job)
        # The largest CLI process this worker waited for.
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        start = time.perf_counter()
        import chargraph
        import_s = time.perf_counter() - start
        if not Path(chargraph.__file__).resolve().is_relative_to(SRC):
            print(f"chargraph imported from {chargraph.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tracer = Tracer() if job["trace"] else None
        api = bind_api(tracer)
        if tracer is not None:
            tracer.install()
        runner = {"paper": run_paper, "factor": run_factor, "graphs": run_graphs}[job["workload"]]
        result = runner(api, job)
        result["import_s"] = import_s
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["trace"] = tracer.summary() if tracer is not None else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

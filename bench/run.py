"""Benchmark runner for chargraph.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {paper,cli,factor,graphs} --seed N \
        --seconds S --trace {0,1}

paper and cli are the workloads of BENCHMARK.json.  factor and graphs run
the same way but are not part of it (see EXTRA_WORKLOADS).

Each run builds one set of inputs from the seed, outside the timed
sections, and then runs rounds over that same set until --seconds of timed
work are done: every round in a fresh worker process, one at a time.  After
timing it checks every output against an independent oracle (sympy,
networkx, frozen paper results).  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json, where a time is the fastest over the rounds;
with --trace 1 it alternates untraced and traced rounds over a fixed slice
of the set and reports the per-layer metrics.  Metric lines, then a
context line, then the result object are printed on stdout; the result is
the last line.  Exit status: 0 when every output is correct, 1 on an oracle
mismatch, 2 when the benchmark cannot run (for example, no src/chargraph).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# Workloads that run like those of BENCHMARK.json but are not listed there,
# for studies of large-n arith and of the graphs and shapes layers (see
# README.md, "Extra workloads").
EXTRA_WORKLOADS = ("factor", "graphs")

# Whole run, including set-up and checks, stays inside this many seconds.
RUN_BUDGET_S = 170

# Fresh-process probes per run, each reported as a median.  The import
# probes for setup_s run one before each round, so that they sample the
# whole run, and then as many more as needed to make SETUP_PROBES.
SETUP_PROBES = 15
CLI_PROBES = 7

# Pure-Python reference loop timed in every run, to tell machine drift from
# program change.
REF_LOOP_N = 10**6
REF_REPEATS = 5

# Items item_tail_ms must leave beyond it.
TAIL_BEYOND = 10

# The fixed slice one traced (and one untraced) round runs in --trace 1:
# this many items from the start of the set; the whole paper and the whole
# cli sequence.
TRACE_ITEMS = {"factor": 100, "graphs": 60}
MIN_TRACE_PAIRS = 2


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Clock:
    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S} s budget")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached as for an installed package, whatever the caller's
    # setting; the first import of a run writes it and is not timed.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CHARGRAPH_SEED", None)
    return env


def run_python(args: list[str], clock: Clock, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=clock.remaining(),
    )


def timed_import(module: str, clock: Clock) -> float:
    """Seconds to import module in a fresh interpreter, timed inside it."""
    code = (
        "import json, time\n"
        "start = time.perf_counter()\n"
        f"import {module} as m\n"
        "print(json.dumps([time.perf_counter() - start, m.__file__]))\n"
    )
    proc = run_python(["-c", code], clock)
    if proc.returncode != 0:
        raise BenchError(f"cannot import {module} from {SRC}: {proc.stderr.strip()[-500:]}")
    seconds, path = json.loads(proc.stdout)
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"{module} was imported from {path}, not from {SRC}")
    return seconds


def interpreter_seconds(clock: Clock) -> float:
    start = time.perf_counter()
    proc = run_python(["-c", "pass"], clock)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError("the interpreter does not start")
    return seconds


def run_worker(job: dict, clock: Clock) -> dict:
    proc = run_python([str(BENCH / "worker.py")], clock, stdin=json.dumps(job))
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def nearest_rank(pct: float, n: int) -> int:
    """Index of the nearest-rank pct-th percentile among n sorted values."""
    return max(0, math.ceil(pct / 100 * n) - 1)


def percentile(values: list[float], pct: float) -> float:
    return sorted(values)[nearest_rank(pct, len(values))]


def tail_percentile(n: int) -> int:
    """The highest whole percentile, from 50 up, that leaves TAIL_BEYOND of
    n values beyond it; 50 when none does."""
    return max([pct for pct in range(50, 100) if n - 1 - nearest_rank(pct, n) >= TAIL_BEYOND], default=50)


def reference_loop() -> list[float]:
    out = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP_N):
            total += i
        out.append(time.perf_counter() - start)
    return out


def machine_context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------- cli sequence

def case_fs() -> list[int]:
    rows = json.loads((BENCH / "paper_expected.json").read_text())["classify"]
    return [row[0] for row in rows if row[3]]


def cli_commands(seed: int, workdir: Path) -> list[dict]:
    """The cli workload: every verb, malformed inputs that must exit 2, and
    the inputs known to end in a traceback instead.  Numbers, shapes and
    graphs come from the seed; files go to workdir."""
    rng = inputs.rng_for("cli", seed)
    specs: list[dict] = []

    # exit None: the oracle derives it from the verdict (iso, check-solvable).
    def add(argv, exit=0, check=None, known_defect=False, **args):
        specs.append({"argv": [str(a) for a in argv], "exit": exit, "check": check,
                      "known_defect": known_defect, "args": args})

    def write(name: str, data) -> str:
        path = workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    n = rng.randrange(2, 10**9)
    add(["factor", n], check="factor-table", n=n)
    n = inputs.random_prime(rng, 1 << 24, 1 << 25) * inputs.random_prime(rng, 1 << 27, 1 << 28)
    add(["factor", n, "--format", "json"], check="factor", n=n)
    n = rng.randrange(2, 1 << 40)
    add(["pi", n, "--format", "json"], check="pi", n=n)
    base = rng.randint(2, 10)
    k = rng.randint(1, int(63 / math.log2(base)))
    add(["zsigmondy", base, k, "--format", "json"], check="zsigmondy", base=base, n=k)
    q = 2 ** rng.randint(2, 40) if rng.random() < 0.5 else inputs.random_prime(rng, 5, 10**6)
    add(["psl2-graph", q, "--format", "json"], check="psl2", q=q)
    tree = inputs.shape_tree(rng)
    add(["parse-shape", inputs.shape_text(tree), "--format", "json"], check="shape", tree=tree)
    a, b = inputs.positive_pair(rng)
    add(["iso", json.dumps(a), json.dumps(b), "--format", "json"], exit=None, check="iso", a=a, b=b)
    a, b = inputs.negative_pair(rng)
    add(["iso", json.dumps(a), json.dumps(b), "--format", "json"], exit=None, check="iso", a=a, b=b)
    f = rng.randint(2, 63)
    add(["classify-f", f, "--format", "json"], check="classify", f=f)
    f = rng.choice(case_fs())
    add(["verify-main", "--f", f, "--format", "json"], check="verify", f=f)
    for which, bound in (("interest", 63), ("evenfive", 63), ("oddfour", 10_000)):
        add(["scan", which, "--max", bound, "--format", "json"], check="scan", which=which, max=bound)
    add(["scan", "oddfour", "--max", 10_000], check="scan-table", which="oddfour", max=10_000)
    primes = list(inputs.LABEL_PRIMES[:8])
    degrees = [1] + [math.prod(rng.sample(primes, rng.randint(1, 3))) for _ in range(rng.randint(2, 5))]
    add(["check-solvable", write("cd.json", {"degrees": degrees}), "--format", "json"],
        exit=None, check="solvable", degrees=degrees)

    for argv in (
        ["factor", 0], ["factor", 2**64], ["classify-f", 64], ["parse-shape", "K3 +"],
        ["psl2-graph", 6], ["verify-main", "--f", 4], ["frobnicate"],
        ["check-solvable", str(workdir / "missing.json")],
    ):
        add(argv, exit=2)

    # Known defects: these end in a traceback with exit 1 instead of exit 2.
    add(["iso", '{"vertices": 5, "edges": []}', "K1"], exit=2, known_defect=True)
    add(["check-solvable", write("bad_cd.json", {"degrees": [1, 2.5]})], exit=2, known_defect=True)
    return specs


# ---------------------------------------------------------------- workloads

class Workload:
    """Runs rounds of one workload and checks what they return."""

    def __init__(self, name: str, seed: int, clock: Clock, workdir: Path) -> None:
        self.name, self.seed, self.clock = name, seed, clock
        self.specs = cli_commands(seed, workdir) if name == "cli" else None
        self.inputs = {"factor": inputs.factor_set, "graphs": inputs.graph_set}.get(name, lambda _: None)(seed)
        # Oracle verdicts by (item index, output): rounds repeat outputs.
        self.verdicts: dict[tuple[int, str], list[str]] = {}

    def round(self, trace: bool, limit: int | None = None) -> dict:
        """One round in a fresh worker, over the first limit inputs or all."""
        job: dict = {"workload": self.name, "trace": trace}
        if self.name == "factor":
            job["inputs"] = self.inputs[:limit]
        elif self.name == "graphs":
            job["inputs"] = [{k: item[k] for k in ("pos", "neg", "shape")} for item in self.inputs[:limit]]
            job["warmup"] = len(inputs.GRAPH_STRATA)
        elif self.name == "cli":
            job.update(commands=[s["argv"] for s in self.specs], env=child_env())
        return run_worker(job, self.clock)

    def _judge(self, index: int, item: dict, check) -> list[str]:
        if "error" in item:
            return [f"raised {item['error']}"]
        key = (index, json.dumps({k: v for k, v in item.items() if k != "ms"}, sort_keys=True))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = check()
            except (KeyError, TypeError, ValueError) as exc:
                self.verdicts[key] = [f"unexpected output: {exc!r}"]
        return self.verdicts[key]

    def check(self, rnd: dict) -> list[tuple[bool, list[str]]]:
        """(known defect, failures) for each item of a round."""
        # Imported only once the workers are done: a child's ru_maxrss starts
        # at its parent's peak, so sympy and networkx loaded in this process
        # would inflate every worker's peak_rss_mb.
        import oracle

        items = rnd["items"]
        if self.name == "paper":
            out = [(False, list(self._judge(i, item, lambda: oracle.check_paper_item(item))))
                   for i, item in enumerate(items)]
            out[-1][1].extend(oracle.check_paper_pass(items))
            return out
        if self.name == "factor":
            return [(False, self._judge(i, item, lambda: oracle.check_factors(item["n"], item["factors"])))
                    for i, item in enumerate(items)]
        if self.name == "graphs":
            return [(False, self._judge(i, item, lambda: oracle.check_graph_item(self.inputs[i], item)))
                    for i, item in enumerate(items)]
        return [(self.specs[item["index"]]["known_defect"],
                 self._judge(i, item, lambda: oracle.check_cli(self.specs[item["index"]], item)))
                for i, item in enumerate(items)]


def check_all(workload: Workload, rounds: list[dict]) -> dict:
    attempted = failed = unexpected = 0
    messages: list[str] = []
    for rnd in rounds:
        for known, failures in workload.check(rnd):
            attempted += 1
            if failures:
                failed += 1
                unexpected += not known
                if len(messages) < 10:
                    messages.append(("known defect: " if known else "") + "; ".join(failures))
    return {"attempted": attempted, "failed": failed, "correct": unexpected == 0, "failures": messages}


def end_to_end(workload: Workload, seconds: float, context: dict) -> tuple[dict, list[dict]]:
    clock = workload.clock
    timed_import("chargraph", clock)  # compiles bytecode; not counted
    setup, rounds, timed = [], [], 0.0
    while not rounds or timed < seconds:
        setup.append(timed_import("chargraph", clock))
        rounds.append(workload.round(trace=False))
        timed += rounds[-1]["wall_s"]
    while len(setup) < SETUP_PROBES:
        setup.append(timed_import("chargraph", clock))
    walls = [r["wall_s"] for r in rounds]
    # Every round runs the same items from the same fresh state, so an
    # item's time is its fastest round: the slower ones measured, besides
    # the item, whatever else the machine was doing then.
    items = [min(times) for times in zip(*([item["ms"] for item in r["items"]] for r in rounds))]
    pct = tail_percentile(len(items))
    context.update(
        setup_s_samples=setup,
        wall_s_samples=walls,
        rounds=len(rounds),
        items=len(items),
        tail_percentile=pct,
        items_beyond_tail=len(items) - 1 - nearest_rank(pct, len(items)),
        worker_import_s=[r["import_s"] for r in rounds if "import_s" in r],
    )
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": min(walls),
        "item_p50_ms": percentile(items, 50),
        "item_tail_ms": percentile(items, pct),
        "peak_rss_mb": max(r["maxrss_kb"] for r in rounds) / 1024,
    }
    return metrics, rounds


def per_layer(workload: Workload, seconds: float, names: list[str], context: dict) -> tuple[dict, list[dict]]:
    clock = workload.clock
    interp = [interpreter_seconds(clock) * 1e3 for _ in range(CLI_PROBES)]
    imports = [timed_import("chargraph.cli", clock) * 1e3 for _ in range(CLI_PROBES)]
    plain, traced, timed = [], [], 0.0
    limit = TRACE_ITEMS.get(workload.name)
    while timed < seconds or len(traced) < MIN_TRACE_PAIRS:
        for side in (plain, traced):
            side.append(workload.round(trace=side is traced, limit=limit))
            timed += side[-1]["wall_s"]
    summaries = [r["trace"] for r in traced]
    counts_repeat = all(
        s["calls"] == summaries[0]["calls"] and s["factoring_calls"] == summaries[0]["factoring_calls"]
        and s["factoring_repeats"] == summaries[0]["factoring_repeats"] for s in summaries
    )
    context.update(trace_pairs=len(traced), counts_repeat=counts_repeat,
                   spans=sorted(summaries[0]["calls"]))
    first = summaries[0]
    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            value = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain)
        elif name == "cli.interpreter_ms":
            value = statistics.median(interp)
        elif name == "cli.import_ms":
            value = statistics.median(imports)
        elif name == "arith.first_factorize_ms":
            value = statistics.median(s["first_factorize_ms"] or 0.0 for s in summaries)
        elif name == "arith.factorize.repeat_ratio":
            calls = first["factoring_calls"]
            value = first["factoring_repeats"] / calls if calls else 0.0
        else:
            span, field = name.rsplit(".", 1)
            if field == "calls":
                value = first["calls"].get(span, 0)
            elif field == "self_ms":
                value = statistics.median(s["self_ms"].get(span, 0.0) for s in summaries)
            else:
                raise BenchError(f"no rule for per-layer metric {name}")
        metrics[name] = value
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]] + list(EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    specs = config["per_layer"] if args.trace else config["end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, **machine_context()}
    clock = Clock()
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            workload = Workload(args.workload, args.seed, clock, Path(workdir))
            if args.trace:
                metrics, results = per_layer(workload, args.seconds, list(units), context)
            else:
                metrics, results = end_to_end(workload, args.seconds, context)
        verdict = check_all(workload, results)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    context["reference_loop_s"] = reference_loop()
    context["fail_ratio"] = verdict["failed"] / verdict["attempted"]
    context["failures"] = verdict["failures"]

    for name, value in metrics.items():
        print(f"{name:<42} {value:>14.6g} {units[name]}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point for quadorder.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (perfbench/worker.py), one after another: a closed loop with
one caller and one thread.  Repetitions go on until --seconds have passed
(at least MIN_REPS of them).  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 every repetition is run once plain
and once with the layer wrappers of tracer.py installed, and the last
line holds the per-layer metrics.  Outputs are checked against the
digests in expected.json and, for deep, against certificates; a wrong
output prints no numbers and exits 1.  Details go to .perfbench_out/.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("grid", "grid-oracle", "deep", "identities")
TRIAL_BOUND_ENV = "QUADORDER_TRIAL_BOUND"
SETUP_SAMPLES = 7
# deep needs 5 chunks (1,000 queries) so that its tail is always p99
MIN_REPS = {"deep": 5}
MIN_REPS_DEFAULT = 3
RUN_BUDGET_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
ERROR_TYPES = ("ValueError", "RuntimeError", "AssertionError")


class BenchError(Exception):
    pass


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


class Workers:
    """Starts worker.py once per repetition and waits for it to end."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def __call__(self, **kwargs) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"the run exceeded its {RUN_BUDGET_S:.0f} s budget")
        argv = [sys.executable, str(HERE / "worker.py"), f"root={ROOT}"]
        argv += [f"{k}={v}" for k, v in kwargs.items()]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=remaining, env=self.env
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {kwargs} did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {kwargs} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"measured {result['package']}, not the checkout's src/")
        return result


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    Below 20 samples not even the median has 10 beyond, and the median is used.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def check(workload: str, seed: int, reps: list[dict], expected: dict) -> list[str]:
    """Problems found: failed certificates, and digests that differ or are wrong."""
    problems = [p for rep in reps for p in rep["problems"]]
    if workload != "deep":
        want = {0: expected[workload]}
    else:
        want = {0: expected["deep"]} if seed == expected["deep_seed"] else {}
    digests: dict[int, set[str]] = {}
    for rep in reps:
        digests.setdefault(rep["chunk"], set()).add(rep["digest"])
    for chunk, found in digests.items():
        if len(found) > 1:
            problems.append(f"chunk {chunk}: answers differ between repetitions")
        elif chunk in want and found != {want[chunk]}:
            problems.append(f"chunk {chunk}: output digest {found.pop()} != {want[chunk]}")
    return problems


def scaled_latencies(rep: dict) -> list[float]:
    """The repetition's latencies in ms at the reference machine speed."""
    return [x * k for x, k in zip(rep["latencies_ms"], rep["scales"])]


def wall(rep: dict) -> float:
    """Scaled wall time: the workload call, or the sum of deep's query times."""
    return sum(scaled_latencies(rep)) / 1e3


def scale(rep: dict) -> float:
    return wall(rep) * 1e3 / sum(rep["latencies_ms"])


def end_to_end(reps: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    latencies = [x for rep in reps for x in scaled_latencies(rep)]
    pct, tail_ms = tail(latencies)
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] * s["setup_scale"] for s in setups), "s"),
        "wall_s": (statistics.median(wall(rep) for rep in reps), "s"),
        "ops_per_s": (statistics.median(rep["ops"] / wall(rep) for rep in reps), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (max(rep["rss_kb"] for rep in reps) / 1024, "MB"),
    }
    notes = {
        "latency_tail_percentile": pct,
        "latency_samples": len(latencies),
        "fail_frac": failed / attempted,
        "repetitions": len(reps),
        "raw_wall_s": [sum(rep["latencies_ms"]) / 1e3 for rep in reps],
        "scale": [scale(rep) for rep in reps],
        "raw_setup_s": [s["setup_s"] for s in setups],
    }
    return metrics, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    traced = [t for _, t in pairs]

    def med(get) -> float:
        return statistics.median(get(rep) for rep in traced)

    metrics: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str) -> None:
        for field in fields:
            if field == "calls":
                metrics[f"{name}.calls"] = (med(lambda r: r["spans"][name]["calls"]), "count")
            else:
                metrics[f"{name}.{field}"] = (
                    med(lambda r: r["spans"][name][field] * scale(r)), "s")

    def count(metric: str, get) -> None:
        metrics[metric] = (med(get), "count")

    span("cli.main", "self_s")
    metrics["cli.self_s"] = metrics.pop("cli.main.self_s")
    count("cli.sweep.skipped", lambda r: r.get("sweep_skipped", 0))
    span("ordersolver.analyze", "calls", "self_s")
    span("ordersolver.chain", "calls", "self_s")
    span("ordersolver.q_of_p", "calls", "self_s")
    metrics["ordersolver.q_of_p.cache_hit_ratio"] = (
        med(lambda r: r["cache_hit_ratio"]["ordersolver.q_of_p"]), "ratio")
    span("ordersolver.divisor_bound", "self_s")
    span("conductor.bound_full", "calls", "self_s")
    span("conductor.n_of_f", "self_s")
    metrics["conductor.entry_index.cache_hit_ratio"] = (
        med(lambda r: r["cache_hit_ratio"]["conductor.entry_index"]), "ratio")
    for layer, fn in (("ordersolver", "analyze"), ("conductor", "bound_full")):
        for etype in ERROR_TYPES:
            count(f"{layer}.errors.{etype}", lambda r: r["errors"].get(f"{layer}.{fn}:{etype}", 0))
        count(f"{layer}.errors.other", lambda r: sum(
            v for k, v in r["errors"].items()
            if k.startswith(f"{layer}.{fn}:") and k.split(":")[1] not in ERROR_TYPES))
    span("cheby.eval_fast", "calls", "self_s")
    span("cheby.exact", "calls", "self_s")
    span("modarith.is_prime", "calls", "self_s")
    count("modarith.legendre.calls", lambda r: r["counts"]["modarith.legendre"])
    count("modarith.sqrt_mod.calls", lambda r: r["counts"]["modarith.sqrt_mod"])
    span("modarith.factorize", "calls", "self_s")
    count("modarith.factorize.refused", lambda r: r["errors"].get("modarith.factorize:ValueError", 0))
    span("units.fundamental_unit", "calls", "self_s")
    span("oracle.order_mod_p", "self_s")
    span("oracle.n_of_f", "self_s")
    count("oracle.steps", lambda r: r["oracle_steps"])
    count("quadint.construct.calls", lambda r: r["counts"]["quadint.construct"])
    count("quadint.mul.calls", lambda r: r["counts"]["quadint.mul"])
    metrics["quadint.check_radicand.cache_hit_ratio"] = (
        med(lambda r: r["cache_hit_ratio"]["quadint.check_radicand"]), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(wall(t) / wall(u) for u, t in pairs), "ratio")
    errors: dict[str, int] = {}
    for rep in traced:
        for k, v in rep["errors"].items():
            errors[k] = errors.get(k, 0) + v
    return metrics, {"repetitions": len(pairs), "errors_by_type_total": errors}


def run(args: argparse.Namespace) -> int:
    if os.environ.get(TRIAL_BOUND_ENV) is not None:
        print(f"refusing to run: {TRIAL_BOUND_ENV} is set and changes factorize", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "quadorder" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'quadorder'}", file=sys.stderr)
        return 1
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    env = environment()
    print("env " + json.dumps(env))
    worker = Workers(time.monotonic() + RUN_BUDGET_S)
    worker(mode="setup")  # writes the bytecode caches; not measured
    setups = [] if args.trace else [worker(mode="setup") for _ in range(SETUP_SAMPLES)]
    min_reps = MIN_REPS.get(args.workload, MIN_REPS_DEFAULT)
    pairs: list[tuple[dict, dict | None]] = []
    start = time.monotonic()
    while len(pairs) < min_reps or time.monotonic() - start < args.seconds:
        # deep moves on to the next chunk of its query stream; the others repeat
        chunk = len(pairs) if args.workload == "deep" else 0
        base = dict(mode="run", workload=args.workload, seed=args.seed, chunk=chunk)
        plain = worker(**base, trace=0, oracle=int(not pairs))
        traced = worker(**base, trace=1, oracle=0) if args.trace else None
        for rep in (plain, traced):
            if rep is not None:
                rep["chunk"] = chunk
        pairs.append((plain, traced))
    reps = [r for pair in pairs for r in pair if r is not None]
    problems = check(args.workload, args.seed, reps, expected)
    if args.trace:
        metrics, notes = per_layer(pairs)
    else:
        metrics, notes = end_to_end([p for p, _ in pairs], setups)
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"args": vars(args), "env": env, "notes": notes, "problems": problems, **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if problems:
        for p in problems:
            print(f"WRONG OUTPUT: {p}", file=sys.stderr)
        result["metrics"] = {}
        print(json.dumps(result))
        return 1
    for k, (v, u) in metrics.items():
        print(f"{k:42s} {v:14.6g} {u}")
    print("notes " + json.dumps(notes))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

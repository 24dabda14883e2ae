"""One repetition of one workload, in a fresh interpreter.

Run by run.py, never by hand:  worker.py root=<checkout> mode=setup
or  worker.py root=<checkout> mode=run workload=<name> seed=<n> chunk=<i>
trace=<0|1> oracle=<0|1>.  Prints one JSON object on stdout.

Nothing but sys and time is imported before the package, so setup_s is
the package import plus the parser build as a fresh CLI process pays it.
"""

import sys
import time


def _args() -> dict:
    return dict(arg.split("=", 1) for arg in sys.argv[1:])


ARGS = _args()
sys.path.insert(0, ARGS["root"] + "/src")
sys.path.insert(1, ARGS["root"] + "/perfbench")
_t0 = time.perf_counter()
import quadorder.cli  # noqa: E402

quadorder.cli.build_parser()
SETUP_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import deep  # noqa: E402
import numtheory  # noqa: E402
from reference import EDGE_READINGS, SpeedSampler  # noqa: E402
from tracer import Tracer, cache_hit_ratios  # noqa: E402

# sweep grids as (d_set, coeff_bound, p_max, f_max, oracle).  grid is the
# CLI's default sweep, spelled out so that a change of defaults cannot move
# it; grid-oracle cuts it down to |a|, |b| <= 2 and f <= 20 so that one
# oracle sweep takes about a second.
SWEEPS = {
    "grid": ((2, 3, 5), 6, 100, 60, False),
    "grid-oracle": ((2, 3, 5), 2, 100, 20, True),
}


def cli_argv(workload: str, seed: int) -> list[str]:
    if workload == "identities":
        return ["identities", "--trials", "2000", "--seed", "5", "--json"]
    d_set, bound, p_max, f_max, oracle = SWEEPS[workload]
    # the sweep seed only picks alternate chain roots; rows do not depend on it
    argv = ["sweep", "--d-set", ",".join(map(str, d_set)), "--coeff-bound", str(bound),
            "--p-max", str(p_max), "--f-max", str(f_max), "--seed", str(seed)]
    return argv + ["--oracle"] if oracle else argv


def grid_cases(workload: str) -> int:
    """Grid points a sweep attempts: every (d, a, b != 0) times every p and f."""
    d_set, bound, p_max, f_max, _ = SWEEPS[workload]
    primes = sum(1 for p in range(3, p_max) if numtheory.is_prime(p))
    return len(d_set) * (2 * bound + 1) * (2 * bound) * (primes + f_max)


def run_cli(workload: str, seed: int, out: dict) -> None:
    argv = cli_argv(workload, seed)
    stdout, stderr = io.StringIO(), io.StringIO()
    with SpeedSampler() as sampler, redirect_stdout(stdout), redirect_stderr(stderr):
        paused = sampler.paused_s
        t0 = time.perf_counter()
        code = quadorder.cli.main(argv)
        t1 = time.perf_counter()
        paused = sampler.paused_s - paused
    text = stdout.getvalue()
    out["latencies_ms"] = [(t1 - t0 - paused) * 1e3]
    out["scales"] = [sampler.scale(t0, t1)]
    out["digest"] = hashlib.sha256(text.encode()).hexdigest()
    if code != 0:
        out["problems"].append(f"exit code {code}: {stderr.getvalue()[-300:]}")
    if workload == "identities":
        payload = json.loads(text)
        out["ops"] = payload["inputs"]["trials"]
        out["failed"] = max(r["total"] - r["passed"] for r in payload["results"])
    else:
        lines = text.splitlines()[1:]
        out["ops"] = len(lines)
        out["failed"] = sum(1 for line in lines if line.endswith(",false"))
        out["sweep_skipped"] = grid_cases(workload) - len(lines)


def run_deep(seed: int, chunk: int, out: dict):
    """Time each query; return what check_deep needs to check the answers later."""
    queries = deep.make_queries(seed, chunk)
    answers, errors, latencies, spans = [], [], [], []
    clock = time.perf_counter
    with SpeedSampler() as sampler:
        for query in queries:
            paused = sampler.paused_s
            start = clock()
            try:
                answer, error = deep.run(query), None
            except Exception as exc:  # a refusal or a crash is an outcome to check
                answer, error = None, exc
            end = clock()
            latencies.append((end - start - (sampler.paused_s - paused)) * 1e3)
            spans.append((start, end))
            answers.append(answer)
            errors.append(error)
    out["latencies_ms"] = latencies
    out["scales"] = [sampler.scale(t0, t1) for t0, t1 in spans]
    out["ops"] = len(queries)
    return queries, answers, errors


def check_deep(queries, answers, errors, seed: int, oracle: bool, out: dict) -> None:
    record = [
        [q, a if e is None else ["error", type(e).__name__, str(e)]]
        for q, a, e in zip(queries, answers, errors)
    ]
    out["digest"] = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    failed = 0
    for q, a, e in zip(queries, answers, errors):
        if deep.outcome_ok(q, a, e):
            continue
        failed += 1
        if not q[0].startswith("probe_") and e is None:
            out["problems"].append(f"certificate failed: {q} -> {a}")
    out["failed"] = failed
    if oracle:
        out["problems"].extend(deep.oracle_mismatches(queries, answers, seed))


def main() -> None:
    sampler = SpeedSampler()
    sampler.read_now(2 * EDGE_READINGS)
    now = time.perf_counter()
    out = {"setup_s": SETUP_S, "setup_scale": sampler.scale(now, now), "package": quadorder.cli.__file__}
    if ARGS["mode"] == "run":
        workload, seed = ARGS["workload"], int(ARGS["seed"])
        traced = ARGS["trace"] == "1"
        out.update(workload=workload, seed=seed, traced=traced, problems=[])
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            if workload == "deep":
                deep_run = run_deep(seed, int(ARGS["chunk"]), out)
            else:
                run_cli(workload, seed, out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workload == "deep":
            check_deep(*deep_run, seed, ARGS["oracle"] == "1", out)
        if tracer is not None:
            out["spans"] = tracer.span_totals()
            out["counts"] = tracer.take_counts()
            out["errors"] = {f"{k[0]}:{k[1]}": v for k, v in tracer.errors.items()}
            out["oracle_steps"] = tracer.oracle_steps
            out["cache_hit_ratio"] = cache_hit_ratios(sys.modules["quadorder"])
            out_dir = os.path.join(ARGS["root"], ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write_spans(os.path.join(out_dir, f"spans-{workload}.tsv"))
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

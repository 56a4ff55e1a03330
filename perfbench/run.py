"""Wall-clock serving benchmark: one workload, one seed, one result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload serve-shared --seed 2009 \
        --seconds 36 --trace 0

A run serves ``K`` independent request streams of the workload, each in a
fresh single-threaded process (``worker.py``).  Stream 0 is generated
from ``--seed`` and stream ``i`` from a seed derived from it, so one seed
names one fixed set of inputs.  ``K = round(--seconds / stream_s)``, with
the nominal per-stream cost ``stream_s`` fixed in ``workloads.json``, so
a run does the same work on every commit and lasts about ``--seconds``.
Pooling ``K`` streams is what keeps the figures steady across seeds: one
200-request stream alone swings its virtual p50 by a quarter from seed
to seed.

* ``--trace 0`` serves streams ``0 .. K-1`` once each, untraced, and
  reports the end-to-end metrics (``BENCHMARK.json`` ``end_to_end``).
* ``--trace 1`` serves stream 0 alternately traced and untraced (at
  least twice traced) and reports the per-layer metrics (``per_layer``)
  of stream 0, so their counts are one seed's exact counts.

Every run checks its answers: sampled sessions of every served stream
are replayed alone through the single-user engine (no scheduler, no
caches) and must give the same per-request digests; repetitions of one
stream must agree on every digest and every count; at a seed recorded
in ``workloads.json`` stream 0 must give the recorded combined digest.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Set-up samples per run (served streams contribute theirs; set-up-only
#: processes make up the rest).
SETUP_SAMPLES = 7
#: Sessions per served stream replayed through the single-user engine.
ORACLE_SESSIONS = 2
#: Per-process limit; a run must end well within 180 s.
CHILD_TIMEOUT_S = 120
#: p95 needs at least ten samples beyond it.
MIN_CPU_SAMPLES = 200
#: Largest tolerated |sum of layer self times - serve wall| / wall.
MAX_SUM_ERROR = 1e-3


class BenchError(Exception):
    """The benchmark could not run or its outputs are wrong."""


def load_config() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def run_worker(*args: str) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            config: dict) -> dict:
    """Serve the run's streams; returns the raw per-process outputs."""
    base = ("--workload", workload, "--seed", str(seed))
    untraced: list[dict] = []
    traced: list[dict] = []
    if trace:
        # Stream 0 only: T, U, T, then U/T pairs while the budget lasts.
        begin = time.perf_counter()
        durations: dict[bool, list[float]] = {False: [], True: []}
        plan = [True, False, True]
        while plan:
            with_trace = plan.pop(0)
            start = time.perf_counter()
            out = run_worker(*base, "--trace", "1" if with_trace else "0")
            durations[with_trace].append(time.perf_counter() - start)
            (traced if with_trace else untraced).append(out)
            if not plan:
                pair = median(durations[False]) + median(durations[True])
                if time.perf_counter() - begin + pair / 2 <= seconds:
                    plan = [False, True]
        streams = 1
    else:
        streams = max(1, round(seconds / config["workloads"][workload]["stream_s"]))
        for index in range(streams):
            untraced.append(run_worker(*base, "--stream", str(index)))
    setups = [out["setup_s"] for out in untraced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(*base, "--mode", "setup")["setup_s"])
    oracle = run_worker(*base, "--mode", "oracle", "--streams", str(streams),
                        "--sample", str(ORACLE_SESSIONS))["digests"]
    return {"untraced": untraced, "traced": traced, "setups": setups,
            "oracle": oracle, "trace": trace}


def check(
    workload: str, seed: int, raw: dict, config: dict
) -> tuple[int, int, list[str]]:
    """Answer and determinism checks; returns (attempted, failed, errors)."""
    errors: list[str] = []
    # In a traced run every process served stream 0; otherwise process i
    # served stream i.
    reps = raw["untraced"] + raw["traced"]
    streams = [0] * len(reps) if raw["trace"] else list(range(len(reps)))
    recorded = config["recorded"].get(workload, {}).get(str(seed))
    attempted = failed = 0
    replayed = set()
    for index, (stream, out) in enumerate(zip(streams, reps)):
        attempted += out["attempted"]
        bad = out["attempted"] - out["by_status"].get("completed", 0)
        mismatched = set()
        for rid, digest in out["digests"].items():
            expected = raw["oracle"].get(f"{stream}:{rid}")
            if expected is not None:
                replayed.add(f"{stream}:{rid}")
            if expected not in (None, digest):
                mismatched.add(rid)
        if raw["trace"] and out["digests"] != reps[0]["digests"]:
            mismatched |= {rid for rid, digest in out["digests"].items()
                           if reps[0]["digests"].get(rid) != digest}
        if (recorded is not None and stream == 0
                and out["combined_digest"] != recorded):
            mismatched = set(out["digests"])
        failed += bad + len(mismatched)
        if bad or mismatched:
            errors.append(f"process {index} (stream {stream}): {bad} requests "
                          f"not completed, {len(mismatched)} digests wrong")
        if out["leaked_wrappers"]:
            errors.append(f"process {index}: wrappers left installed: "
                          f"{out['leaked_wrappers']}")
        if raw["trace"] and out["counts"] != reps[0]["counts"]:
            errors.append(f"process {index}: counts drifted: "
                          f"{out['counts']} != {reps[0]['counts']}")
    if replayed != set(raw["oracle"]):
        errors.append("a replayed request was not served")
    if not raw["oracle"]:
        errors.append("the engine replay checked no request")
    samples = sum(len(out["request_cpu_ms"]) for out in raw["untraced"])
    if samples < MIN_CPU_SAMPLES:
        errors.append(f"only {samples} completed untraced requests")
    for index, out in enumerate(raw["traced"]):
        trace = out["trace"]
        if trace["sum_error"] > MAX_SUM_ERROR:
            errors.append(f"traced process {index}: layer self times miss "
                          f"the wall by {trace['sum_error']:.2e} of it")
        if trace["counts"] != raw["traced"][0]["trace"]["counts"]:
            errors.append(f"traced process {index}: layer counts drifted")
    return attempted, failed, errors


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(raw: dict, attempted: int, failed: int) -> dict:
    reps = raw["untraced"]
    cpu_ms = [ms for out in reps for ms in out["request_cpu_ms"]]
    latency = [s for out in reps for s in out["virtual_latency_s"]]
    values = {
        "throughput_rps": ("req/s", ratio(
            len(cpu_ms), sum(out["run_wall_s"] for out in reps))),
        "request_cpu_ms_p50": ("ms", nearest_rank(cpu_ms, 0.50)),
        "request_cpu_ms_p95": ("ms", nearest_rank(cpu_ms, 0.95)),
        "setup_s": ("s", median(raw["setups"])),
        "peak_rss_mb": ("MB", median(out["peak_rss_mb"] for out in reps)),
        "virtual_p50_s": ("s", nearest_rank(latency, 0.50)),
        "virtual_p95_s": ("s", nearest_rank(latency, 0.95)),
        "round_trips_per_request": ("calls", ratio(
            sum(out["counts"]["round_trips"] for out in reps), len(latency))),
        "requests_ok_ratio": ("ratio", ratio(attempted - failed, attempted)),
    }
    return {name: {"value": value, "unit": unit}
            for name, (unit, value) in values.items()}


def per_layer(raw: dict) -> dict:
    traced = raw["traced"]
    first = traced[0]
    counts = first["trace"]["counts"]
    report_counts = first["counts"]

    def self_s(layer: str) -> float:
        return median(o["trace"]["self_s"].get(layer, 0.0) for o in traced)

    def inclusive(name: str) -> float:
        return median(o["trace"]["inclusive_s"].get(name, 0.0) for o in traced)

    def count(name: str) -> int:
        return counts.get(name, 0)

    plan_hits = report_counts["plancache.hits"]
    plan_misses = report_counts["plancache.misses"]
    inv_hits, inv_misses = count("invcache.hits"), count("invcache.misses")
    entries = first["serve"]["invcache_entries"] or count("invcache.puts")
    traced_wall = median(o["run_wall_s"] for o in traced)
    untraced_wall = median(o["run_wall_s"] for o in raw["untraced"])
    values = {
        "core.optimize_calls": ("count", count("core.optimize.calls")),
        "core.optimize_s": ("s", self_s("core")),
        "core.states_expanded": ("count", count("core.states_expanded")),
        "plancache.hits": ("count", plan_hits),
        "plancache.misses": ("count", plan_misses),
        "plancache.hit_ratio": ("ratio", ratio(plan_hits, plan_hits + plan_misses)),
        "plancache.busy_s": ("s", self_s("plancache")),
        "query.compile_calls": ("count", count("query.compile_query.calls")),
        "query.compile_s": ("s", self_s("query")),
        "predicates.calls": ("count", count("predicates.satisfies.calls")),
        "predicates.self_s": ("s", self_s("predicates")),
        "predicates.pass_ratio": ("ratio", ratio(
            count("predicates.passed"), count("predicates.satisfies.calls"))),
        "services.invocations": ("count", count("services.invoke.calls")),
        "services.self_s": ("s", self_s("services")),
        "datagen.calls": ("count", count("datagen.generate.calls")),
        "datagen.self_s": ("s", self_s("datagen")),
        "datagen.tuples": ("count", count("datagen.tuples")),
        "datagen.constraint_checks": ("count", count("datagen.constraint_checks")),
        "datagen.constraint_pass_ratio": ("ratio", ratio(
            count("datagen.constraint_passed"), count("datagen.constraint_checks"))),
        "invcache.hits": ("count", inv_hits),
        "invcache.misses": ("count", inv_misses),
        "invcache.hit_ratio": ("ratio", ratio(inv_hits, inv_hits + inv_misses)),
        "invcache.entries": ("count", entries),
        "invcache.busy_s": ("s", self_s("invcache")),
        "engine.executions": ("count", count("engine.steps.calls")),
        "engine.self_s": ("s", self_s("engine")),
        "joins.candidates": ("count", count("joins.candidates")),
        "joins.pairs_probed": ("count", count("joins.pairs_probed")),
        "joins.pairs_probed_per_candidate": ("ratio", ratio(
            count("joins.pairs_probed"), count("joins.candidates"))),
        "scoring.calls": ("count", count("scoring.entries")),
        "scoring.self_s": ("s", self_s("scoring")),
        "digest.calls": ("count", count("digest.result_digest.calls")),
        "digest.rows": ("count", count("digest.rows")),
        "digest.self_s": ("s", self_s("digest")),
        "sessions.self_s": ("s", self_s("sessions")),
        "sessions.open_s": ("s", inclusive("sessions.open")),
        "sessions.steps": ("count", count("sessions.steps")),
        **{
            f"sessions.cpu_s.{kind}": ("s", inclusive(f"sessions.cpu_s.{kind}"))
            for kind in ("run", "more", "rerank", "resubmit")
        },
        "serve.self_s": ("s", self_s("serve")),
        "serve.steals": ("count", report_counts["serve.steals"]),
        "serve.admission_peak": ("count", first["serve"]["admission_peak"]),
        "serve.queue_wait_virtual_p95_s": (
            "s", first["serve"]["queue_wait_virtual_p95_s"]),
        "trace.wall_s": ("s", traced_wall),
        "trace.overhead_ratio": ("ratio", traced_wall / untraced_wall - 1.0),
    }
    return {name: {"value": value, "unit": unit}
            for name, (unit, value) in values.items()}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, raw repetition outputs)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    config = load_config()
    if workload not in config["workloads"]:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"expected one of {sorted(config['workloads'])}")
    raw = measure(workload, seed, seconds, trace, config)
    attempted, failed, errors = check(workload, seed, raw, config)
    for error in errors:
        print(f"CHECK FAILED [{workload} seed {seed}]: {error}", file=sys.stderr)
    metrics = per_layer(raw) if trace else end_to_end(raw, attempted, failed)
    reps = raw["untraced"]
    print(f"{workload} seed {seed}: {len(reps)} untraced and "
          f"{len(raw['traced'])} traced processes; unscaled serve wall "
          f"{sum(o['run_wall_raw_s'] for o in reps):.3f} s, scaled "
          f"{sum(o['run_wall_s'] for o in reps):.3f} s")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, raw


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, _ = bench(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

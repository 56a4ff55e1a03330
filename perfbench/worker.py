"""One benchmark process: serve a workload's request stream once.

Run by ``run.py``, one fresh single-threaded process per repetition, from
the root of a source checkout (``src/`` holds the program).  Modes:

* ``serve``  — generate the seeded stream, serve it through
  ``serve_workload_sharded``, print timings, counts, and digests;
* ``setup``  — the same up to the first dispatch, then stop;
* ``oracle`` — replay a seeded sample of sessions one at a time through the
  single-user engine path (no scheduler, no caches) and print the
  per-request digests that the served run must reproduce.

The last stdout line is one JSON object.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Calibrator, Hooks, StopAtDispatch  # noqa: E402

#: Snippets per set-up checkpoint (process start, after the import, after
#: workload generation); their time is taken out of the set-up time.
SETUP_SNIPPETS = 7
SETUP_CALIBRATOR = Calibrator()
SETUP_CALIBRATOR.sample(SETUP_SNIPPETS)


def load_spec(name: str) -> tuple[dict, dict]:
    config = json.loads((HERE / "workloads.json").read_text())
    return config["stream"], config["workloads"][name]


def stream_seed(seed: int, index: int) -> int:
    """Seed of the run's ``index``-th stream; stream 0 uses the run seed."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def make_workload(stream: dict, spec: dict, seed: int):
    from repro.serve import WorkloadConfig, default_templates, generate_workload

    templates = default_templates(stream["param_scale"])
    config = WorkloadConfig(
        num_requests=stream["num_requests"],
        rate=stream["rate"],
        skew=stream["skew"],
        seed=seed,
        followup_fraction=spec["followup_fraction"],
        followup_mix=spec["followup_mix"],
    )
    return templates, generate_workload(templates, config)


def serve(args, stream: dict, spec: dict) -> dict:
    import repro.serve as serve_api

    SETUP_CALIBRATOR.sample(SETUP_SNIPPETS)
    templates, workload = make_workload(stream, spec, args.seed)
    SETUP_CALIBRATOR.sample(SETUP_SNIPPETS)

    hooks = Hooks(layers=args.trace == 1, stop_at_dispatch=args.mode == "setup")
    hooks.install()
    try:
        report, digests = serve_api.serve_workload_sharded(
            rate=stream["rate"],
            num_requests=stream["num_requests"],
            seed=args.seed,
            num_shards=stream["num_shards"],
            cache_mode=spec["cache_mode"],
            max_concurrency=stream["max_concurrency"],
            templates=templates,
            workload=workload,
            # Looked up after install(), so the digest layer is traced.
            digest_fn=serve_api.result_digest,
        )
    except StopAtDispatch:
        report = None
    finally:
        leaked = hooks.uninstall()
    setup_raw = hooks.dispatch_at - START - SETUP_CALIBRATOR.total_s
    out = {
        "setup_s": setup_raw * SETUP_CALIBRATOR.scale(),
        "leaked_wrappers": leaked,
    }
    if report is None:
        return out
    scaled = hooks.scaled()

    completed = report.completed()
    plan = report.plan_cache_stats or {}
    inv = report.invocation_cache_stats or {}
    steals = report.metrics.counters.get("serve.steals")
    out.update(
        attempted=len(workload),
        by_status=report.by_status(),
        run_wall_s=scaled["run_wall_s"],
        run_wall_raw_s=hooks.run_wall_s - hooks.calibrator.total_s,
        digests={str(k): v for k, v in sorted(digests.items())},
        combined_digest=serve_api.combined_digest(digests),
        # Per completed request: scaled ms the server spent on it, and
        # its latency on the virtual clock.
        request_cpu_ms=[
            hooks.request_s[o.request.request_id] * 1000.0 for o in completed
        ],
        virtual_latency_s=[o.latency for o in completed],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Counts that must repeat exactly for one seed, traced or not.
        counts={
            "round_trips": report.total_round_trips,
            "plancache.hits": int(plan.get("hits", 0)),
            "plancache.misses": int(plan.get("misses", 0)),
            "invcache.shared_hits": int(inv.get("hits", 0)),
            "invcache.shared_misses": int(inv.get("misses", 0)),
            "serve.steals": int(steals.value) if steals is not None else 0,
        },
        serve={
            "admission_peak": report.admission_peak,
            "queue_wait_virtual_p95_s": report.metrics.histogram(
                "serve.queue_wait"
            ).summary().get("p95", 0.0),
            "invcache_entries": int(inv.get("entries", 0)),
        },
    )
    if hooks.layers:
        out["trace"] = {
            "self_s": scaled["self_s"],
            "inclusive_s": scaled["inclusive_s"],
            "counts": dict(hooks.counts),
            "sum_error": hooks.sum_error(),
        }
    return out


def oracle(args, stream: dict, spec: dict) -> dict:
    """Replay sampled sessions alone, in arrival order, on the engine path.

    Streams ``0 .. args.streams - 1`` are sampled, ``args.sample``
    sessions from each.  Keys are ``"<stream>:<request id>"``.
    """
    from repro import (
        LiquidQuerySession,
        ServicePool,
        compile_query,
        optimize_query,
        parse_query,
    )
    from repro.serve import result_digest

    digests: dict[str, str] = {}
    for index in range(args.streams):
        seed = stream_seed(args.seed, index)
        templates, workload = make_workload(stream, spec, seed)
        by_name = {template.name: template for template in templates}
        runs = [r.request_id for r in workload if r.kind == "run"]
        roots = set(random.Random(seed).sample(runs, min(args.sample, len(runs))))
        sessions: dict[int, LiquidQuerySession] = {}
        for request in workload:
            root = request.request_id if request.kind == "run" else request.target
            if root not in roots:
                continue
            if request.kind == "run":
                template = by_name[request.template]
                registry = template.registry_factory()
                query = compile_query(parse_query(template.query_text), registry)
                session = sessions[root] = LiquidQuerySession(
                    candidate=optimize_query(query),
                    query=query,
                    pool=ServicePool(registry, global_seed=seed),
                    inputs=dict(request.inputs or {}),
                )
                results = session.run(request.k)
            elif request.kind == "more":
                results = sessions[root].more(request.k)
            elif request.kind == "rerank":
                results = sessions[root].rerank(
                    dict(request.weights or {}), request.k
                )
            else:
                results = sessions[root].resubmit(
                    dict(request.inputs or {}), request.k
                )
            digests[f"{index}:{request.request_id}"] = result_digest(results)
    return {"digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, default=0,
                        help="which of the run's streams to serve")
    parser.add_argument("--streams", type=int, default=1,
                        help="oracle: sample streams 0 .. N-1")
    parser.add_argument("--mode", choices=("serve", "setup", "oracle"), default="serve")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sample", type=int, default=2,
                        help="sessions the oracle replays per stream")
    args = parser.parse_args()
    stream, spec = load_spec(args.workload)
    if args.mode == "oracle":
        out = oracle(args, stream, spec)
    else:
        args.seed = stream_seed(args.seed, args.stream)
        out = serve(args, stream, spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the whole benchmark as tables: one command, every workload.

Usage (from the root of a source checkout)::

    python3 perfbench/report.py --seed 2009 --seconds 10

For each workload it makes one untraced and one traced run (as
``run.py --trace 0`` and ``--trace 1``), then prints every end-to-end
metric by name with its unit, the per-layer table of each workload, and
the requests attempted, completed, failed and rejected.  Exits non-zero
when any run's checks fail.
"""

from __future__ import annotations

import argparse
import sys

from run import BenchError, bench, load_config


def requests_line(raw: dict) -> dict:
    totals = {"attempted": 0, "completed": 0, "failed": 0, "rejected": 0}
    for out in raw["untraced"] + raw["traced"]:
        totals["attempted"] += out["attempted"]
        for status in ("completed", "failed", "rejected"):
            totals[status] += out["by_status"].get(status, 0)
    return totals


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args()
    workloads = args.workload or list(load_config()["workloads"])
    e2e: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    requests: dict[str, dict] = {}
    correct = True
    try:
        for name in workloads:
            result, raw = bench(name, args.seed, args.seconds, trace=False)
            traced, traced_raw = bench(name, args.seed, args.seconds, trace=True)
            correct = correct and result["correct"] and traced["correct"]
            e2e[name], layers[name] = result["metrics"], traced["metrics"]
            requests[name] = requests_line(raw)
            for status, count in requests_line(traced_raw).items():
                requests[name][status] += count
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print(f"End-to-end metrics (untraced, seed {args.seed}, "
          f"{args.seconds:g} s per run)")
    names = list(next(iter(e2e.values())))
    width = max(len(n) for n in names) + 2
    print(f"{'metric':{width}}{'unit':8}" + "".join(f"{w:>18}" for w in workloads))
    for metric in names:
        unit = e2e[workloads[0]][metric]["unit"]
        print(f"{metric:{width}}{unit:8}" + "".join(
            f"{fmt(e2e[w][metric]['value']):>18}" for w in workloads))

    for name in workloads:
        print(f"\nPer-layer metrics: {name} (traced)")
        for metric, entry in layers[name].items():
            print(f"  {metric:36}{entry['unit']:8}{fmt(entry['value']):>16}")

    print("\nRequests")
    print(f"{'workload':18}" + "".join(f"{s:>12}" for s in requests[workloads[0]]))
    for name in workloads:
        print(f"{name:18}" + "".join(f"{c:>12}" for c in requests[name].values()))
    print("\nchecks: " + ("passed" if correct else "FAILED (see stderr)"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

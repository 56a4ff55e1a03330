"""Record each workload's stream-0 combined result digest at given seeds.

Usage (from the root of a source checkout)::

    python3 perfbench/record.py 2009 4099

Serves stream 0 of every workload once per seed and writes the combined
digests into ``workloads.json`` (``recorded``), which every later run at
that seed must reproduce.  Refuses to record when ``serve-shared`` and
``serve-isolated``, which serve the same stream, disagree: sharing must
never change an answer.
"""

from __future__ import annotations

import json
import sys

from run import HERE, load_config, run_worker


def main() -> int:
    seeds = [int(arg) for arg in sys.argv[1:]] or [2009]
    config = load_config()
    recorded = config.setdefault("recorded", {})
    for seed in seeds:
        digests = {
            name: run_worker("--workload", name, "--seed", str(seed))[
                "combined_digest"
            ]
            for name in config["workloads"]
        }
        if digests["serve-shared"] != digests["serve-isolated"]:
            print(f"seed {seed}: shared and isolated digests differ: {digests}",
                  file=sys.stderr)
            return 1
        for name, digest in digests.items():
            recorded.setdefault(name, {})[str(seed)] = digest
        print(f"seed {seed}: {digests}")
    (HERE / "workloads.json").write_text(json.dumps(config, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

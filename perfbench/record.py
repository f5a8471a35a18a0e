"""Record the reference digests in expected.json.

    python3 perfbench/record.py

Runs one pass of every workload on the reference seed and writes, per
workload, the generated configs, the ``link,metric,class`` keys the CSV
emits, and per mission the stats digest and the full CSV SHA-256. Rerun it
only for a change that alters the simulator's output on purpose.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import swarmbench as sb


def main() -> None:
    recorded = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=sb.ROOT) as tmp:
        for workload in sb.WORKLOADS:
            configs = sb.missions(workload, sb.REFERENCE_SEED)
            checker = sb.Checker()
            runs = sb.run_pass(configs, Path(tmp), checker, "record")
            if checker.failed:
                raise SystemExit(f"{workload}: {checker.problems}")
            keys = sorted(set().union(*(sb.csv_keys(r.csv) for r in runs)))
            recorded[workload] = {
                "seed": sb.REFERENCE_SEED,
                "configs": configs,
                "keys": keys,
                "stats_sha256": [sb.stats_digest(r.csv, keys) for r in runs],
                "csv_sha256": [hashlib.sha256(r.csv).hexdigest() for r in runs],
            }
            print(f"{workload}: {len(runs)} missions, {len(keys)} keys")
    sb.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

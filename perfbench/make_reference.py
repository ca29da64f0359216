#!/usr/bin/env python3
"""Write the reference digests the benchmark checks its outputs against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/make_reference.py --seed 9 --seed 8

For each workload and seed this runs the trial list through the program's
own runner (`run_trials`, one worker) and `emit_all`, and stores each
trial's summary digest, the total tree count and the digests of the
emitted analysis tables in perfbench/reference/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from forestscope import emit_all, run_trials  # noqa: E402

from checks import summary_digest, table_digests  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402


def reference(name: str, seed: int) -> dict:
    config = config_for(name, seed)
    results = run_trials(config)
    (leg,) = results
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        emit_all(config, results, out_dir)
        tables = table_digests(out_dir)
    finally:
        shutil.rmtree(out_dir)
    return {
        "workload": name,
        "seed": seed,
        "trial_digests": [summary_digest(r.summary) for r in leg.records],
        "trees_counted": sum(r.summary.total_trees for r in leg.records),
        "tables": tables,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    out = BENCH_DIR / "reference"
    out.mkdir(exist_ok=True)
    for name in args.workload or WORKLOADS:
        for seed in args.seed:
            ref = reference(name, seed)
            path = out / f"{name}-seed{seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=0, sort_keys=True)
                fh.write("\n")
            print(f"{path.relative_to(ROOT)}: {len(ref['trial_digests'])} trials, "
                  f"{ref['trees_counted']} trees, {len(ref['tables'])} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""forestscope benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload xyz-pairwise --seed 9 --seconds 20 --trace 0

Workloads and why each exists are described in perfbench/workloads.py;
metrics and the layers they belong to in perfbench/README.md.

The run imports forestscope from ./src, so it measures the checkout it sits
in.  One worker in this process runs the workload's fixed trial list as a
closed loop, one trial at a time, for at least --seconds and at least one
full pass.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` also runs a traced pass that records spans around each call
into the program and reports the per-layer metrics.  Every metric measured
is printed by name with its unit; the last line of standard output is one
JSON object.  The exit status is 1 when any trial failed or any output
check failed, and 2 when the program cannot be imported.

Full results (environment, quartiles, deterministic counts, spans) are
written under .perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def source_fingerprint() -> str:
    """Digest of the program and benchmark sources, to key stored counts."""
    h = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_fingerprint": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def changed_counts(run, fingerprint: str) -> list[str]:
    """Counts must repeat exactly for the same sources, workload and seed."""
    path = OUT / "counts" / f"{fingerprint}-{run.name}-seed{run.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    previous = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    changed = [
        f"{key}: {previous[key]} before, {value} now"
        for key, value in run.counts.items()
        if key in previous and previous[key] != value
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**previous, **run.counts}, fh, sort_keys=True)
    return changed


def print_metrics(title: str, names: list[str], metrics: dict) -> None:
    print(title)
    for name in names:
        m = metrics[name]
        line = f"  {name:34s} {m['value']:16.6f} {m['unit']}"
        if "n" in m:
            line += f"   q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "forestscope" / "__init__.py").is_file():
        print(f"error: no forestscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import forestscope

    if Path(forestscope.__file__).resolve().parent != SRC / "forestscope":
        print(f"error: imported forestscope from {forestscope.__file__}", file=sys.stderr)
        return 2
    from harness import Run
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]

    env = environment()
    run = Run(args.workload, args.seed, args.seconds)
    run.measure_setup()
    run.end_to_end()
    tracer = None
    if args.trace:
        tracer = Tracer()
        run.traced(tracer)
    env["loadavg_end"] = os.getloadavg()
    changed = changed_counts(run, env["source_fingerprint"])
    run.output_errors += [f"deterministic count changed ({c}); the input changed" for c in changed]
    correct = run.failed == 0 and not run.output_errors

    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = runs_dir / f"{run.name}-seed{run.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    with open(f"{base}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": run.name,
                "seed": run.seed,
                "seconds": args.seconds,
                "environment": env,
                "metrics": run.metrics,
                "counts": run.counts,
                "peak_rss_mb": run.peak_rss_mb,
                "valid": not changed,
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "failures": {str(t): r for t, r in run.failures.items()},
                "output_errors": run.output_errors,
                "reference": run.reference is not None,
            },
            fh,
            indent=1,
        )
    if tracer is not None:
        tracer.write(f"{base}.spans.json")

    for t, reasons in list(run.failures.items())[:5]:
        print(f"trial {t} failed: {reasons[0]}", file=sys.stderr)
    for err in run.output_errors:
        print(f"output check failed: {err}", file=sys.stderr)
    print(
        f"workload {run.name}  seed {run.seed}  reference {'yes' if run.reference else 'no'}  "
        f"nproc {env['nproc']}  load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}"
        f"  slowdown {run.metrics['machine.slowdown']['value']:.2f}x (times below are scaled by it)"
    )
    print_metrics("end-to-end:", end_to_end, run.metrics)
    if args.trace:
        print_metrics("per-layer (traced):", per_layer, run.metrics)
    print(f"counts: {json.dumps(run.counts, sort_keys=True)}")
    print(f"trials attempted {run.attempted}, failed {run.failed}; outputs {'ok' if correct else 'WRONG'}")
    print(f"details: {base.relative_to(ROOT)}.json")
    reported = per_layer if args.trace else end_to_end
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    k: {"value": run.metrics[k]["value"], "unit": run.metrics[k]["unit"]}
                    for k in reported
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

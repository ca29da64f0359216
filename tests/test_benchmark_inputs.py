"""The benchmark's inputs still run, and still give their reference digests.

`perfbench/` drives the library through the public API and pins the digest
of every trial's summary.  Its workloads and checks are loaded here by path,
as they are, so that a library change which drifts a summary, or which drops
a name or an option the harness passes, fails here and not only in a
benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from forestscope import forest_summary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workloads_keep_their_reference_digests(name):
    reference = json.loads((PERFBENCH / "reference" / f"{name}-seed9.json").read_text())
    inputs = workloads.TrialInputs(workloads.config_for(name, 9))
    got = [
        checks.summary_digest(forest_summary(*inputs.draw(t), *inputs.summary_args()))
        for t in range(5)
    ]
    assert got == reference["trial_digests"][:5]

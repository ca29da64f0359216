"""The determinism contract across interpreters: every output byte of a
handful of cheap presets is the same under each other Python 3.10+ found.

The other interpreters come from FORESTSCOPE_PYTHONS (interpreter paths,
separated like PATH) or else from `pyenv versions --bare`.  They need no
third-party package: the command line runs on the standard library alone.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import forestscope

pytestmark = pytest.mark.acceptance

SOURCE_ROOT = Path(forestscope.__file__).resolve().parents[1]
# each preset's extra flags; fig10 is cut to 50 trials to keep the check short
PRESETS = {"fig1": (), "fig8": (), "fig9": (), "fig14": (), "fig10": ("--trials", "50")}


def _pyenv_pythons() -> list[str]:
    try:
        root = subprocess.run(["pyenv", "root"], capture_output=True, text=True, check=True)
        names = subprocess.run(
            ["pyenv", "versions", "--bare"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return []
    found = []
    for name in names.stdout.split():
        version = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", name)
        if version is None:
            continue
        version = tuple(map(int, version.groups()))
        python = os.path.join(root.stdout.strip(), "versions", name, "bin", "python")
        if version >= (3, 10) and version != sys.version_info[:3] and os.path.isfile(python):
            found.append(python)
    return found


def _other_pythons() -> list[str]:
    listed = os.environ.get("FORESTSCOPE_PYTHONS")
    if listed is not None:
        return [p for p in listed.split(os.pathsep) if p]
    return _pyenv_pythons()


def _run_presets(python: str, out: Path) -> None:
    """Runs every preset at seed 9 under `python`, all at once, into `out`/<preset>."""
    env = {**os.environ, "PYTHONPATH": str(SOURCE_ROOT), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = [
        subprocess.Popen(
            [
                python, "-m", "forestscope.cli", "experiment", "--preset", name,
                "--seed", "9", "--threads", "1", "--quiet", "--charts", "--out", str(out / name),
                *flags,
            ],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for name, flags in PRESETS.items()
    ]
    for name, run in zip(PRESETS, runs):
        _, err = run.communicate()
        assert run.returncode == 0, f"{python} {name}: {err.decode(errors='replace')}"


def _outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_outputs_are_byte_identical_under_every_other_interpreter(tmp_path):
    others = _other_pythons()
    if not others:
        pytest.skip(
            "no other Python 3.10+ found; set FORESTSCOPE_PYTHONS or install one with pyenv"
        )
    _run_presets(sys.executable, tmp_path / "this")
    want = _outputs(tmp_path / "this")
    # three files and one chart each; fig9 adds path_length.csv and its chart
    assert len(want) == 4 * len(PRESETS) + 2
    for i, python in enumerate(others):
        _run_presets(python, tmp_path / f"other{i}")
        got = _outputs(tmp_path / f"other{i}")
        assert sorted(got) == sorted(want), python
        differ = [name for name in want if got[name] != want[name]]
        assert not differ, f"{python} changes the bytes of {differ}"

"""Command-line surface: flags, output shapes, exit codes."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import forestscope
from forestscope.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PRESET,
    EXIT_USAGE,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = Path(forestscope.__file__).resolve().parents[1]


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """The environment for a child interpreter that runs the source these
    tests imported, whatever its working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p
    )
    return env


def test_datasets_lists_concepts_and_bundled(capsys):
    code, out, _ = run_main(capsys, "datasets")
    assert code == EXIT_OK
    assert "concept xyz-or-ab: 5 features, space 32" in out
    assert "bundled lenses: 24 examples" in out


def test_datasets_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "ok.csv"
    good.write_text("a=0|1,class=n|y\n0,n\n1,y\n", encoding="utf-8")
    code, out, _ = run_main(capsys, "datasets", "--validate", str(good))
    assert code == EXIT_OK and "2 examples" in out

    bad = tmp_path / "bad.csv"
    bad.write_text("a=0|1,class=n|y\n0,maybe\n", encoding="utf-8")
    code, _, err = run_main(capsys, "datasets", "--validate", str(bad))
    assert code == EXIT_DATA and "error: data:" in err

    code, _, err = run_main(capsys, "datasets", "--validate", str(tmp_path / "gone.csv"))
    assert code == EXIT_DATA


def test_enumerate_profile_lines(capsys):
    code, out, _ = run_main(capsys, "enumerate", "--concept", "xyz-or-ab", "--max-nodes", "8")
    assert code == EXIT_OK
    assert out.splitlines() == ["8,72"]


def test_enumerate_emit_trees_streams_then_counts(capsys):
    code, out, _ = run_main(capsys, "enumerate", "--concept", "ab", "--max-nodes", "2", "--emit-trees")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0].startswith("(") and lines[-1] == "2,2"
    assert len(lines) == 3


def test_enumerate_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run_main(capsys, "enumerate")
    assert code == EXIT_CONFIG and "exactly one" in err
    p = tmp_path / "d.csv"
    p.write_text("a=0|1,class=n|y\n0,n\n", encoding="utf-8")
    code, _, err = run_main(capsys, "enumerate", "--concept", "ab", "--data", str(p))
    assert code == EXIT_CONFIG


def test_enumerate_truncation_exits_nonzero(capsys, monkeypatch):
    # the cap guards the tree walk of --emit-trees; counting walks no trees
    code, _, err = run_main(
        capsys, "enumerate", "--concept", "xyz-or-ab", "--emit-trees", "--max-trees", "10"
    )
    assert code == EXIT_FAILURE
    assert "enumeration exceeded the safety cap of 10 trees" in err
    code, capped, _ = run_main(capsys, "enumerate", "--concept", "xyz-or-ab", "--max-trees", "10")
    assert code == EXIT_OK
    code, uncapped, _ = run_main(capsys, "enumerate", "--concept", "xyz-or-ab", "--max-trees", "0")
    assert code == EXIT_OK
    assert capped == uncapped
    assert sum(int(line.split(",")[1]) for line in capped.splitlines()) > 10
    monkeypatch.setenv("COLUMNS", "200")  # no line breaks inside the flags
    with pytest.raises(SystemExit) as exit_info:
        main(["enumerate", "--help"])
    assert exit_info.value.code == EXIT_OK
    usage = " ".join(capsys.readouterr().out.split())
    assert "--max-trees caps only the --emit-trees walk" in usage


def test_parity5_tree_walk_prints_its_cap_then_stops(tmp_path):
    # parity5's trees all have 31 splits; the walk searches no smaller size
    proc = subprocess.run(
        [sys.executable, "-m", "forestscope.cli", "enumerate", "--concept", "parity5",
         "--emit-trees", "--max-trees", "5"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == EXIT_FAILURE
    lines = proc.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("(P1 ") for line in lines)
    assert proc.stderr == "error: enumeration: enumeration exceeded the safety cap of 5 trees\n"


def test_mux6_counts_and_runs_past_the_tree_cap(tmp_path, capsys):
    code, out, err = run_main(capsys, "enumerate", "--concept", "mux6")
    assert code == EXIT_OK and err == ""
    assert sum(int(line.split(",")[1]) for line in out.splitlines()) > 50_000_000
    written = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        code, _, err = run_main(
            capsys,
            "experiment", "--concept", "mux6", "--n-train", "20", "--trials", "3",
            "--seed", "1", "--threads", threads, "--out", str(out_dir), "--quiet",
        )
        assert code == EXIT_OK, err
        written.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert written[0] == written[1]


def test_enumerate_data_file(tmp_path, capsys):
    p = tmp_path / "xor.csv"
    p.write_text(
        "p=0|1,q=0|1,class=n|y\n0,0,n\n0,1,y\n1,0,y\n1,1,n\n", encoding="utf-8"
    )
    code, out, _ = run_main(capsys, "enumerate", "--data", str(p))
    assert code == EXIT_OK
    assert out.splitlines() == ["3,2"]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["enumerate", "--max-nodes", "not-a-number"])
    assert e.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, want",
    [
        (["enumerate", "--concept", "ab", "--max-nodes", "-1"], EXIT_USAGE),
        (["enumerate", "--concept", "ab", "--max-trees", "-1"], EXIT_USAGE),
        (["oracle-check", "--max-nodes", "-2"], EXIT_USAGE),
        (["experiment", "--concept", "ab", "--n-train", "10", "--max-nodes", "-1"], EXIT_USAGE),
        (
            ["experiment", "--concept", "ab", "--split", "with_replacement",
             "--n-train", "5", "--test-size", "0"],
            EXIT_USAGE,
        ),
        (
            ["experiment", "--concept", "ab", "--split", "with_replacement",
             "--n-train", "5", "--test-size", "-3"],
            EXIT_USAGE,
        ),
        (["enumerate", "--data", "HEADER_ONLY"], EXIT_DATA),
        (["datasets", "--validate", "NOT_UTF8"], EXIT_DATA),
        (["enumerate", "--data", "NOT_UTF8"], EXIT_DATA),
        (["experiment", "--data", "NOT_UTF8", "--n-train", "1"], EXIT_DATA),
        (["experiment", "--preset", "fig15", "--data", "NOT_UTF8"], EXIT_DATA),
        (["policy", "--records", "NOT_UTF8"], EXIT_DATA),
        (["policy", "--records", "NEGATIVE_COUNT"], EXIT_DATA),
        (["policy", "--records", "LEAF_HIST"], EXIT_DATA),
    ],
)
def test_bad_integers_and_empty_data_exit_without_a_traceback(tmp_path, capsys, argv, want):
    header_only = tmp_path / "header.csv"
    header_only.write_text("a=0|1,class=n|y\n", encoding="utf-8")
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes("a=0|1,class=n|y\n0,n\n1,\u00e9\n".encode("latin-1"))
    negative = tmp_path / "records.jsonl"
    negative.write_text('{"buckets": {"2": {"tree_count": -5}}}\n', encoding="utf-8")
    leaves = tmp_path / "leaves.jsonl"
    leaves.write_text('{"buckets": {"2": {"leaf_hist": {"3": 1}}}}\n', encoding="utf-8")
    files = {
        "HEADER_ONLY": str(header_only),
        "NOT_UTF8": str(not_utf8),
        "NEGATIVE_COUNT": str(negative),
        "LEAF_HIST": str(leaves),
    }
    argv = [files.get(a, a) for a in argv]
    if argv[0] == "experiment":
        argv += ["--out", str(tmp_path / "run"), "--threads", "1", "--quiet"]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects usage errors by exiting
        code = e.code
    err = capsys.readouterr().err
    assert code == want
    assert "Traceback" not in err
    assert "error:" in err


# Each subcommand's integer options with the largest value drawn.  --threads
# stops at 1 so that no example starts a worker pool.  The options in
# _ALWAYS are always passed, because their defaults start a pool or a
# multi-second oracle run.
_ALWAYS = ("--threads", "--features", "--labelings")
_INT_OPTIONS = {
    "enumerate": {"--max-nodes": 2, "--max-trees": 2},
    "experiment": {
        "--seed": 2, "--trials": 2, "--threads": 1,
        "--n-train": 2, "--test-size": 2, "--max-nodes": 2,
    },
    "oracle-check": {"--features": 2, "--labelings": 2, "--seed": 2, "--max-nodes": 2},
    "policy": {"--seed": 2},
}


@st.composite
def boundary_argv(draw):
    command = draw(st.sampled_from(sorted(_INT_OPTIONS)))
    argv = [command]
    if command == "enumerate":
        argv += ["--concept", "ab"]
    if command == "experiment":
        splits = ("disjoint", "with_replacement", "leave_one_out")
        argv += ["--concept", "ab", "--split", draw(st.sampled_from(splits))]
    for option, top in _INT_OPTIONS[command].items():
        value = draw(st.integers(-1, top))
        if option in _ALWAYS or draw(st.booleans()):
            argv += [option, str(value)]
    return argv


@pytest.fixture(scope="module")
def small_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("records")
    code = main(
        ["experiment", "--concept", "ab", "--n-train", "4", "--trials", "3",
         "--threads", "1", "--quiet", "--out", str(out)]
    )
    assert code == EXIT_OK
    return str(out / "trial_records.jsonl")


@pytest.mark.property_based
@given(argv=boundary_argv())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_boundary_integers_exit_with_a_documented_code(small_records, tmp_path, capsys, argv):
    if argv[0] == "experiment":
        argv += ["--out", str(tmp_path / "run"), "--quiet"]
    if argv[0] == "policy":
        argv += ["--records", small_records]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects usage errors by exiting
        code = e.code
    err = capsys.readouterr().err
    assert code in range(EXIT_CONFIG + 1), argv
    assert "Traceback" not in err


def loaded_by_import(tmp_path, modules):
    """Which of `modules` a fresh interpreter holds after `import forestscope`."""
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, forestscope; print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout.strip()


def test_import_pulls_in_no_numpy(tmp_path):
    assert loaded_by_import(tmp_path, ("numpy",)) == "[]"


def test_import_pulls_in_no_pool_xml_or_network_modules(tmp_path):
    heavy = ("multiprocessing", "xml.sax", "ssl", "urllib.request")
    assert loaded_by_import(tmp_path, heavy) == "[]"


def test_import_leaves_importlib_resources_unloaded(tmp_path):
    # -S: no site hook loads it first; only `bundled_dataset` needs it
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, forestscope; print('importlib.resources' in sys.modules)"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.strip() == "False"


def test_experiment_writes_run_directory(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_main(
        capsys,
        "experiment", "--preset", "fig14", "--seed", "9",
        "--out", str(out_dir), "--threads", "1",
    )
    assert code == EXIT_OK
    assert (out_dir / "cardinality_stats.csv").is_file()
    assert (out_dir / "run_manifest.csv").is_file()
    assert "wrote" in out
    assert "trial" in err  # progress lines go to stderr


@pytest.mark.parametrize("trials", ["1", "2"])
def test_charts_of_tables_without_rows_draw_an_empty_frame(tmp_path, trials):
    # fig12's min-size conditions 5, 6 and 7 match no trial among so few,
    # so its pairwise table has a header and no rows
    import xml.etree.ElementTree as ET

    out_dir = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "forestscope.cli", "experiment", "--preset", "fig12",
         "--trials", trials, "--seed", "9", "--charts", "--threads", "1", "--quiet",
         "--out", str(out_dir)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len((out_dir / "pairwise.csv").read_text().splitlines()) == 1
    svg = ET.parse(out_dir / "pairwise.svg").getroot()
    assert svg.tag == "{http://www.w3.org/2000/svg}svg"
    texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "pairwise outcome shares"
    assert "cardinality difference" in texts and "probability" in texts
    assert not list(svg.iter("{http://www.w3.org/2000/svg}polyline"))


def test_experiment_quiet_silences_progress(tmp_path, capsys):
    code, _, err = run_main(
        capsys,
        "experiment", "--preset", "fig14", "--seed", "9",
        "--out", str(tmp_path / "q"), "--quiet",
    )
    assert code == EXIT_OK and err == ""


def test_experiment_unknown_preset(capsys):
    code, _, err = run_main(capsys, "experiment", "--preset", "fig99")
    assert code == EXIT_PRESET
    assert "fig1" in err  # the message lists what exists


def test_experiment_custom_protocol(tmp_path, capsys):
    out_dir = tmp_path / "custom"
    code, _, _ = run_main(
        capsys,
        "experiment", "--concept", "ab", "--n-train", "20", "--trials", "4",
        "--max-nodes", "6", "--seed", "3", "--out", str(out_dir), "--quiet",
    )
    assert code == EXIT_OK
    lines = (out_dir / "run_manifest.csv").read_text().splitlines()
    assert len(lines) == 5


def test_experiment_rejects_zero_trials(tmp_path, capsys):
    # an explicit 0 must not fall back to the default trial count
    code, _, err = run_main(
        capsys,
        "experiment", "--concept", "ab", "--n-train", "12", "--trials", "0",
        "--out", str(tmp_path / "x"), "--quiet",
    )
    assert code == EXIT_CONFIG
    assert "trial_count" in err


def test_experiment_rejects_trial_override_for_loo(tmp_path, capsys):
    code, _, err = run_main(
        capsys,
        "experiment", "--preset", "fig5", "--trials", "7",
        "--out", str(tmp_path / "x"), "--quiet",
    )
    assert code == EXIT_CONFIG


def test_experiment_fig15_needs_data(tmp_path, capsys):
    code, _, err = run_main(
        capsys, "experiment", "--preset", "fig15", "--out", str(tmp_path / "x"), "--quiet"
    )
    assert code == EXIT_CONFIG
    assert "data" in err


def test_experiment_fig15_runs_on_a_supplied_file(tmp_path, capsys):
    from forestscope import Dataset, FeatureSchema, LabeledExample, instance_space, save_dataset
    from forestscope.rng import SplitMix64

    schema = FeatureSchema(
        features=(
            ("stable", ("no", "yes")),
            ("error", ("no", "yes")),
            ("sign", ("neg", "pos")),
            ("wind", ("head", "tail")),
            ("magnitude", ("low", "medium", "strong", "outof")),
            ("visibility", ("none", "poor", "fair", "good")),
        ),
        classes=("noauto", "auto"),
    )
    rows = list(instance_space(schema))
    picked = sorted(SplitMix64(20260817).sample_indices(len(rows), 140))

    def label(x):
        if x[1] == 1 or x[4] == 3:
            return 0
        return int(x[0] == 1 or x[5] >= 2)

    data = Dataset(schema, tuple(LabeledExample(rows[i], label(rows[i])) for i in picked))
    src = tmp_path / "flight.csv"
    save_dataset(data, str(src))

    out_dir = tmp_path / "run"
    code, _, _ = run_main(
        capsys,
        "experiment", "--preset", "fig15", "--data", str(src),
        "--seed", "9", "--out", str(out_dir), "--quiet",
    )
    assert code == EXIT_OK
    table = (out_dir / "cardinality_stats.csv").read_text().splitlines()
    labels = {line.split(",")[0] for line in table[1:]}
    assert labels == {"fig15:n20cap7", "fig15:n50cap9", "fig15:n100cap11"}


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FORESTSCOPE_THREADS", "2")
    code, _, _ = run_main(
        capsys,
        "experiment", "--preset", "fig14", "--seed", "9",
        "--out", str(tmp_path / "env"), "--quiet",
    )
    assert code == EXIT_OK
    monkeypatch.setenv("FORESTSCOPE_THREADS", "zero?")
    code, _, err = run_main(
        capsys,
        "experiment", "--preset", "fig14", "--seed", "9",
        "--out", str(tmp_path / "env2"), "--quiet",
    )
    assert code == EXIT_CONFIG


def test_oracle_check_reports_matches(capsys):
    code, out, _ = run_main(
        capsys, "oracle-check", "--features", "3", "--labelings", "4", "--seed", "0"
    )
    assert code == EXIT_OK
    assert out.strip() == "4/4 match"


def test_oracle_check_bounds_features(capsys):
    code, _, err = run_main(capsys, "oracle-check", "--features", "9")
    assert code == EXIT_CONFIG
    assert "1..4" in err


def test_policy_command_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_main(
        capsys,
        "experiment", "--concept", "xyz-or-ab", "--n-train", "20",
        "--trials", "6", "--max-nodes", "8", "--seed", "5",
        "--out", str(out_dir), "--quiet",
    )
    assert code == EXIT_OK
    policy_dir = tmp_path / "tables"
    code, out, _ = run_main(
        capsys,
        "policy", "--records", str(out_dir / "trial_records.jsonl"),
        "--out", str(policy_dir), "--seed", "5",
    )
    assert code == EXIT_OK
    assert (policy_dir / "policy.csv").is_file()
    rows = [l for l in out.splitlines() if "," in l]
    assert rows
    for line in rows:
        label, min_size, preferred, count = line.split(",")
        assert int(min_size) <= int(preferred)


def test_policy_missing_records_file(tmp_path, capsys):
    code, _, err = run_main(capsys, "policy", "--records", str(tmp_path / "gone.jsonl"))
    assert code == EXIT_DATA


# What the wrapper script generated for a [project.scripts] entry does.
CONSOLE_WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
target = getattr(importlib.import_module(module), attr)
sys.argv = ["forestscope"] + sys.argv[2:]
sys.exit(target())
"""


def test_console_script_entry_point(tmp_path):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "forestscope.cli", "datasets"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == EXIT_OK
    assert "concept xyz-or-ab" in proc.stdout

    toml = tomllib or pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        scripts = toml.load(f)["project"]["scripts"]
    assert "forestscope" in scripts
    spec = scripts["forestscope"]
    module, _, attr = spec.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    def run_script(*argv):
        return subprocess.run(
            [sys.executable, "-c", CONSOLE_WRAPPER, spec, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    script = run_script("--help")
    assert script.returncode == EXIT_OK
    assert script.stdout.startswith("usage: forestscope")
    assert "enumerate" in script.stdout
    # --help exits inside argparse; a real command shows main's return code.
    script = run_script("datasets")
    assert script.returncode == EXIT_OK
    assert "concept xyz-or-ab" in script.stdout


@pytest.mark.skipif(
    shutil.which("forestscope") is None, reason="forestscope is not installed on PATH"
)
def test_installed_console_script():
    script = subprocess.run(
        ["forestscope", "--help"], capture_output=True, text=True
    )
    assert script.returncode == EXIT_OK
    assert "enumerate" in script.stdout

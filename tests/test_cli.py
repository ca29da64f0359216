"""Command-line surface: flags, output shapes, exit codes."""

import contextlib
import importlib
import itertools
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import forestscope
from forestscope import experiments
from forestscope.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
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


@contextlib.contextmanager
def cli_child(tmp_path, *argv, **popen):
    """The CLI in a child process, killed after 60 s or, still running, on leaving."""
    with subprocess.Popen(
        [sys.executable, "-m", "forestscope.cli", *argv],
        env=child_env(), cwd=tmp_path, **popen,
    ) as proc:
        watchdog = threading.Timer(60, proc.kill)  # a hung child fails the test, not the suite
        watchdog.start()
        try:
            yield proc
        finally:
            watchdog.cancel()
            proc.kill()


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
        (["policy", "--records", "RECORDS", "--out", "A_FILE"], EXIT_DATA),
    ],
)
def test_bad_integers_and_empty_data_exit_without_a_traceback(
    tmp_path, capsys, small_records, argv, want
):
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
        "RECORDS": small_records,
        "A_FILE": str(header_only),
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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "argv, want, category",
    [
        (
            ["--data", "EMPTY", "--n-train", "3", "--split", "with_replacement",
             "--test-size", "2"],
            EXIT_DATA, "data",
        ),
        (["--preset", "fig8", "--data", "EMPTY"], EXIT_DATA, "data"),
        # every minimum tree of 4-bit parity has 16 leaves of 2 rows, so
        # covering each leaf twice takes all 32 rows, more than fig4's 20
        (["--preset", "fig4", "--data", "PARITY4"], EXIT_CONFIG, "config"),
    ],
)
def test_sources_no_trial_can_draw_from_are_refused_before_the_trials(
    tmp_path, capsys, argv, want, category, threads
):
    empty = tmp_path / "empty.csv"
    empty.write_text("a=0|1,class=n|y\n", encoding="utf-8")
    parity = tmp_path / "parity4.csv"
    rows = [",".join(f"{c}=0|1" for c in "abcde") + ",class=n|y"]
    rows += [
        ",".join(map(str, x)) + "," + "ny"[sum(x[:4]) % 2]
        for x in itertools.product((0, 1), repeat=5)
    ]
    parity.write_text("\n".join(rows) + "\n", encoding="utf-8")
    files = {"EMPTY": str(empty), "PARITY4": str(parity)}
    argv = ["experiment"] + [files.get(a, a) for a in argv]
    code = main(argv + ["--out", str(tmp_path / "run"), "--threads", threads, "--quiet"])
    err = capsys.readouterr().err
    assert code == want
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {category}: ")


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


def test_progress_lines_count_each_legs_trials_in_order(tmp_path, capsys):
    code, _, err = run_main(
        capsys,
        "experiment", "--preset", "fig14", "--seed", "9", "--trials", "3",
        "--threads", "2", "--out", str(tmp_path / "p"),
    )
    assert code == EXIT_OK
    numbered: dict[str, list[str]] = {}
    for line in err.splitlines():
        tag, word, count = line.split()[:3]
        assert word == "trial"
        numbered.setdefault(tag, []).append(count)
    assert list(numbered) == ["fig14:n8", "fig14:n12", "fig14:n18"]
    assert all(counts == ["1/3", "2/3", "3/3"] for counts in numbered.values())


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
    # a leave-one-out leg runs one trial per row of its 32-row source
    code, _, err = run_main(
        capsys,
        "experiment", "--preset", "fig5", "--trials", "7",
        "--out", str(tmp_path / "x"), "--quiet",
    )
    assert code == EXIT_CONFIG
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: ")
    assert "trial_count=32" in lines[0]
    assert not (tmp_path / "x").exists()


def test_experiment_accepts_the_trial_count_loo_needs(tmp_path, capsys):
    code, _, err = run_main(
        capsys,
        "experiment", "--preset", "fig5", "--trials", "32",
        "--out", str(tmp_path / "x"), "--quiet",
    )
    assert code == EXIT_OK, err
    assert len((tmp_path / "x" / "run_manifest.csv").read_text().splitlines()) == 1 + 32


def test_experiment_fig15_needs_data(tmp_path, capsys):
    code, _, err = run_main(
        capsys, "experiment", "--preset", "fig15", "--out", str(tmp_path / "x" / "y"), "--quiet"
    )
    assert code == EXIT_CONFIG
    assert "data" in err
    assert not (tmp_path / "x" / "y").exists()  # a refused run leaves no --out


def test_a_failed_run_keeps_what_other_runs_wrote_beside_it(tmp_path, capsys, monkeypatch):
    # this run makes runs/ for its --out; another run writes into runs/ meanwhile
    runs = tmp_path / "runs"
    other = runs / "fig1-seed0" / "run_manifest.csv"

    def interrupted(*args, **kw):
        other.parent.mkdir()
        other.write_text("trial\n", encoding="utf-8")
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "forest_summary", interrupted)
    code, _, _ = run_main(
        capsys, "experiment", "--preset", "fig14", "--threads", "1",
        "--out", str(runs / "fig14-seed0"), "--quiet",
    )
    assert code == EXIT_INTERRUPTED
    assert not (runs / "fig14-seed0").exists()
    assert other.read_text(encoding="utf-8") == "trial\n"


def test_a_failed_write_leaves_the_earlier_runs_files(tmp_path, capsys):
    # a directory where this run's manifest goes: the run exits 3 and moves
    # none of its files in, so --out holds the earlier run's files alone
    out_dir = tmp_path / "run"
    argv = ["experiment", "--preset", "fig1", "--threads", "1", "--out", str(out_dir), "--quiet"]
    assert run_main(capsys, *argv, "--seed", "1")[0] == EXIT_OK
    earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    os.remove(out_dir / "run_manifest.csv")
    (out_dir / "run_manifest.csv").mkdir()
    code, out, err = run_main(capsys, *argv, "--seed", "2")
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith("error: data: ") and "run_manifest.csv" in err
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(earlier)
    for p in out_dir.iterdir():
        assert p.is_dir() if p.name == "run_manifest.csv" else p.read_bytes() == earlier[p.name]


def test_an_unusable_out_is_refused_before_the_first_trial(tmp_path, capsys, monkeypatch):
    calls = []
    real = experiments.forest_summary

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(experiments, "forest_summary", counted)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, _, err = run_main(
        capsys, "experiment", "--preset", "fig13", "--threads", "1", "--out", str(taken)
    )
    assert code == EXIT_DATA
    assert err.startswith("error: data: ") and len(err.splitlines()) == 1
    assert calls == []


def test_enumerate_and_experiment_refuse_an_empty_source_alike(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("a=0|1,class=n|y\n", encoding="utf-8")
    want = f"error: data: file:{empty}: no examples\n"
    assert run_main(capsys, "enumerate", "--data", str(empty)) == (EXIT_DATA, "", want)
    code, _, err = run_main(
        capsys, "experiment", "--data", str(empty), "--n-train", "1",
        "--out", str(tmp_path / "run"), "--quiet",
    )
    assert (code, err) == (EXIT_DATA, want)
    assert not (tmp_path / "run").exists()


def test_ctrl_c_in_process_ends_in_one_line(tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kw):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "forest_summary", interrupted)
    code, out, err = run_main(
        capsys, "experiment", "--preset", "fig14", "--threads", "1",
        "--out", str(tmp_path / "run"),
    )
    assert code == EXIT_INTERRUPTED and out == ""
    assert err.splitlines() == ["error: interrupted: stopped before the run finished"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sigint_ends_in_one_line_under_any_worker_count(tmp_path, threads):
    # its own session, so the signal reaches the child and its workers only
    out_dir = tmp_path / "run"
    with cli_child(
        tmp_path, "experiment", "--preset", "fig13", "--threads", threads, "--out", str(out_dir),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        first = proc.stderr.readline()
        assert " trial 1/340 " in first, first
        os.killpg(proc.pid, signal.SIGINT)
        rest = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == EXIT_INTERRUPTED
    assert "Traceback" not in rest
    errors = [line for line in rest.splitlines() if line.startswith("error:")]
    assert errors == ["error: interrupted: stopped before the run finished"], rest
    assert not out_dir.exists()


def test_a_closed_stdout_exits_1_silently(tmp_path):
    with cli_child(
        tmp_path, "enumerate", "--concept", "mux6", "--emit-trees",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"(")
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert (code, err) == (EXIT_FAILURE, b"")


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


def test_policy_refuses_a_record_no_run_could_write(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_main(
        capsys,
        "experiment", "--concept", "xyz-or-ab", "--n-train", "20",
        "--trials", "2", "--max-nodes", "8", "--out", str(out_dir), "--quiet",
    )
    assert code == EXIT_OK
    dump = out_dir / "trial_records.jsonl"
    first, second = dump.read_bytes().splitlines(keepends=True)
    # a trial that draws once, edited to have been rejected five times
    dump.write_bytes(first + second.replace(b'"rejections": 0', b'"rejections": 5'))
    code, out, err = run_main(capsys, "policy", "--records", str(dump))
    assert code == EXIT_DATA
    assert out == ""
    assert err.splitlines() == [
        f"error: data: {dump}: line 2: 5 rejections in a trial that draws once"
    ]


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

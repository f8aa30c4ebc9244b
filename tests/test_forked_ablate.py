"""``jcmspl ablate`` on forked workers gives the serial run's files, stdout,
stderr, warnings and exit code, and leaves no child behind."""

import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import jcmspl
from forked import forked_ablate
from jcmspl import cli
from jcmspl.cli import ABLATION_ORDER, main
from jcmspl.dataset import block_partition, load_manifest, save_manifest


@pytest.fixture(scope="module")
def default_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert main(["synth", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    # the data of test_cli's ablate tests: 4 seen classes, so k = 3 fails
    # full and jcmspl0
    out = tmp_path_factory.mktemp("small")
    assert main(["synth", "--out", str(out), "--m", "16", "--d", "8", "--k", "12",
                 "--cs", "4", "--cu", "2", "--spc", "8", "--seed", "1"]) == 0
    return out


def outcome(capsys, argv, out, action="default"):
    """Exit code, stdout, stderr, shown warnings and output files of an
    in-process ``jcmspl ablate`` into ``out``, its path written as OUT."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        rc = main([*argv, "--out", str(out)])
    std = capsys.readouterr()
    files = {path.name: path.read_bytes().replace(str(out).encode(), b"OUT")
             for path in sorted(out.iterdir()) if path.is_file()}
    shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    return (rc, std.out.replace(str(out), "OUT"), std.err.replace(str(out), "OUT"),
            shown, files)


def serial_and_forked(capsys, tmp_path, argv, workers, action="default", before=None):
    """``outcome`` of the serial run and of one on ``workers`` processes,
    each in a fresh directory that ``before`` may prepare."""
    results = []
    for name, count in (("serial", 1), ("forked", workers)):
        out = tmp_path / name
        out.mkdir()
        if before is not None:
            before(out)
        with forked_ablate(count) as forks:
            results.append(outcome(capsys, argv, out, action))
        assert forks == ["_ablate_child"] * (count - 1)
    return results


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_forked_ablate_is_the_serial_run(default_dir, capsys, tmp_path, workers):
    argv = ["ablate", "--manifest", str(default_dir / "manifest.json"), "--k", "40"]
    serial, forked = serial_and_forked(capsys, tmp_path, argv, workers)
    assert serial == forked
    rc, out, err, shown, files = forked
    assert rc == 0 and err == "" and shown == []
    assert sorted(files) == sorted(["ablation.csv", "ablation.json"]
                                   + [f"model_{variant}.bin" for variant in ABLATION_ORDER])


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_a_warning_free_forked_ablate_fits_only_its_own_range_in_the_caller(
        default_dir, tmp_path, monkeypatch, workers):
    # a child that records a warning has its range run again in the caller;
    # on the default synth none does, so the caller fits only its own range
    parent, fit, fitted = os.getpid(), cli.fit, []

    def recording_fit(dataset, hyper):
        if os.getpid() == parent:
            fitted.append(hyper.variant)
        return fit(dataset, hyper)

    monkeypatch.setattr(cli, "fit", recording_fit)
    argv = ["ablate", "--manifest", str(default_dir / "manifest.json"), "--k", "40",
            "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught, forked_ablate(workers) as forks:
        warnings.simplefilter("default")
        assert main(argv) == 0
    assert caught == []
    assert len(forks) == workers - 1
    start, stop = block_partition(len(ABLATION_ORDER), workers)[0]
    assert fitted == list(ABLATION_ORDER[start:stop])


@pytest.mark.parametrize("workers", [2, 5])
def test_forked_ablate_reports_failing_variants_as_the_serial_run(small_dir, capsys,
                                                                  tmp_path, workers):
    argv = ["ablate", "--manifest", str(small_dir / "manifest.json"), "--k", "3",
            "--t-max", "5"]
    serial, forked = serial_and_forked(capsys, tmp_path, argv, workers)
    assert serial == forked
    rc, _, err, _, _ = forked
    assert rc == 4
    assert err.splitlines() == [
        f"jcmspl ablate: {variant}: k (3) must be >= number of seen classes (4)"
        for variant in ("jcmspl0", "full")
    ]


@pytest.mark.parametrize("action", ["default", "always"])
@pytest.mark.parametrize("workers", [2, 5])
def test_forked_ablate_relays_warnings_as_the_serial_run_shows_them(small_dir, capsys,
                                                                    tmp_path, action,
                                                                    workers):
    # a zero unseen prototype: distance_matrix warns in every v2s and s2v
    # scoring, once per location under "default" and every time under
    # "always"; with 5 workers ipl's first s2v warning comes from a child,
    # which sends no reply, so that the caller fits its range again
    dataset = load_manifest(small_dir / "manifest.json")
    dataset.prototypes[:, dataset.unseen_classes[0]] = 0.0
    manifest = save_manifest(dataset, tmp_path / "data" / "manifest.json")
    argv = ["ablate", "--manifest", str(manifest), "--k", "6", "--t-max", "5"]
    serial, forked = serial_and_forked(capsys, tmp_path, argv, workers, action)
    assert serial == forked
    shown = forked[3]
    assert {message for message, *_ in shown} == {"1 zero-norm candidate column(s) skipped"}
    assert len(shown) == (2 if action == "default" else 9)


@pytest.mark.parametrize("failure", ["killed", "short_reply"])
def test_a_failed_child_is_rerun_serially(small_dir, capsys, tmp_path, monkeypatch, failure):
    parent = os.getpid()
    fit, dumps = cli.fit, cli.json.dumps

    def fit_dying_in_children(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(*args, **kwargs)

    def dumps_cut_in_children(*args, **kwargs):
        text = dumps(*args, **kwargs)
        return text[:-1] if os.getpid() != parent else text

    if failure == "killed":
        monkeypatch.setattr(cli, "fit", fit_dying_in_children)
    else:
        monkeypatch.setattr(cli.json, "dumps", dumps_cut_in_children)
    argv = ["ablate", "--manifest", str(small_dir / "manifest.json"), "--k", "3",
            "--t-max", "5"]
    serial, forked = serial_and_forked(capsys, tmp_path, argv, 3)
    assert serial == forked
    assert forked[0] == 4


def test_an_unwritable_model_in_a_child_is_the_serial_error(small_dir, capsys, tmp_path):
    # full, the last variant, runs in the child; a directory holds its path
    argv = ["ablate", "--manifest", str(small_dir / "manifest.json"), "--k", "6",
            "--t-max", "5"]
    serial, forked = serial_and_forked(capsys, tmp_path, argv, 2,
                                       before=lambda out: (out / "model_full.bin").mkdir())
    assert serial == forked
    rc, _, err, _, files = forked
    assert rc == 3
    assert err == "jcmspl ablate: full: [Errno 21] Is a directory: 'OUT/model_full.bin'\n"
    row = json.loads(files["ablation.json"])["rows"][-1]
    assert row["variant"] == "full" and row["error"] in err


def test_an_error_without_an_exit_code_propagates_and_leaves_no_child(small_dir, tmp_path,
                                                                       monkeypatch):
    # raised in the parent's own range while the children run; the
    # autouse fixture checks that they were killed and reaped
    parent, fit = os.getpid(), cli.fit

    def fit_failing_in_the_parent(dataset, hyper):
        if os.getpid() == parent and hyper.variant == "ipl":
            raise ZeroDivisionError("not an error ablate records")
        return fit(dataset, hyper)

    monkeypatch.setattr(cli, "fit", fit_failing_in_the_parent)
    for workers in (1, 3):
        argv = ["ablate", "--manifest", str(small_dir / "manifest.json"), "--k", "6",
                "--t-max", "5", "--out", str(tmp_path / str(workers))]
        with forked_ablate(workers) as forks, pytest.raises(ZeroDivisionError):
            main(argv)
        assert len(forks) == workers - 1

SCRIPT = """
import json, os, sys
os.sched_getaffinity = lambda pid: set(range({workers}))
from jcmspl import cli, workers
fork, forks = workers._fork, []

def recording_fork(*args, **kwargs):
    forks.append("scipy.linalg" in sys.modules)
    return fork(*args, **kwargs)

workers._fork = recording_fork
code = cli.main(sys.argv[1:])
with open({record!r}, "w") as fh:
    json.dump(forks, fh)
sys.exit(code)
"""


def fresh_ablates(default_dir, tmp_path, blas_threads):
    """The exit code, stdout, stderr and files of ``jcmspl ablate`` on the
    default synth in a fresh interpreter, serial and on two patched cores,
    each with whether scipy was loaded at each of its forks."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(jcmspl.__file__).parents[1]))
    runs = []
    for workers in (1, 2):
        out, record = tmp_path / "out", tmp_path / f"forks{workers}.json"
        script = SCRIPT.format(workers=workers, record=str(record))
        proc = subprocess.run(
            [sys.executable, "-c", script, "ablate", "--manifest",
             str(default_dir / "manifest.json"), "--k", "40", "--out", str(out)],
            capture_output=True, env=env, timeout=300,
        )
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append(((proc.returncode, proc.stdout, proc.stderr, files),
                     json.loads(record.read_text())))
        out.rename(tmp_path / f"workers{workers}")
    return runs


def test_forked_ablate_with_two_blas_threads_is_the_serial_run(default_dir, tmp_path):
    # each child starts OpenBLAS's threads again after the fork
    (serial, serial_forks), (forked, forks) = fresh_ablates(default_dir, tmp_path, 2)
    assert (len(serial_forks), len(forks)) == (0, 1)
    assert serial == forked
    assert serial[0] == 0 and serial[2] == b""
    assert len(serial[3]) == 2 + len(ABLATION_ORDER)


def test_forked_ablate_children_inherit_scipy(default_dir, tmp_path):
    # scipy is imported on first use; ablate loads it before it forks, so
    # no child spends the import again or relays its warnings
    (serial, serial_forks), (forked, forks) = fresh_ablates(default_dir, tmp_path, 1)
    assert (serial_forks, forks) == ([], [True])
    assert serial == forked
    assert serial[0] == 0 and serial[2] == b""

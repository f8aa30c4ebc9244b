import json
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcmspl import errors
from jcmspl.archive import load_model, save_model
from jcmspl.cli import ABLATION_ORDER, exit_code, main
from jcmspl.dataset import FILE_KEYS
from malformed import (
    ARCHIVE_HOLES,
    CSV_HOLES,
    ID_RANGE_HOLES,
    MANIFEST_HOLES,
    with_first_seen_class_id,
)


def run(argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = run(["synth", "--out", str(out), "--m", "16", "--d", "8", "--k", "12",
              "--cs", "4", "--cu", "2", "--spc", "8", "--noise", "0.05",
              "--seed", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def noiseless_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("noiseless")
    rc = run(["synth", "--out", str(out), "--m", "16", "--d", "8", "--k", "12",
              "--cs", "4", "--cu", "2", "--spc", "8", "--noise", "0.0",
              "--seed", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = run(["train", "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(out), "--k", "6", "--t-max", "15"])
    assert rc == 0
    return out


def test_synth_writes_manifest_and_planted_model(synth_dir):
    assert (synth_dir / "manifest.json").exists()
    assert (synth_dir / "planted_model.bin").exists()
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    for key in ("visual_seen", "labels_seen", "visual_unseen", "labels_unseen",
                "prototypes", "seen_classes", "unseen_classes"):
        assert key in manifest


def test_train_outputs_and_summary(trained_dir):
    for name in ("model.bin", "trace.csv", "summary.json"):
        assert (trained_dir / name).exists()
    summary = json.loads((trained_dir / "summary.json").read_text())
    assert summary["variant"] == "full"
    assert summary["final_loss"] <= summary["initial_loss"]
    assert summary["iterations"] >= 1
    assert summary["dataset"]["m"] == 16 and summary["dataset"]["d"] == 8
    assert set(summary["effective_lambdas"]) == {
        "lambda1", "lambda2", "lambda3", "lambda4"}


def test_train_is_byte_deterministic(synth_dir, tmp_path):
    argv = ["train", "--manifest", str(synth_dir / "manifest.json"),
            "--k", "6", "--t-max", "15"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    for name in ("model.bin", "trace.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_eval_standard_report(synth_dir, trained_dir, tmp_path):
    rc = run(["eval", "--model", str(trained_dir / "model.bin"),
              "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["protocol"] == "standard"
    assert payload["holdout_fraction"] is None
    report = payload["report"]
    assert 0.0 <= report["overall_accuracy"] <= 1.0
    assert report["direction"] == "v2s" and report["distance"] == "cosine"
    assert report["hm"] is None


def test_eval_hit_k_report(synth_dir, trained_dir, tmp_path):
    rc = run(["eval", "--model", str(trained_dir / "model.bin"),
              "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--hit-k", "2"])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["hit_at_k"]["k"] == 2
    # two unseen classes, so the top-2 hit rate saturates
    assert report["hit_at_k"]["fraction"] == 1.0


def test_eval_gzsl_report_and_determinism(synth_dir, trained_dir, tmp_path):
    argv = ["eval", "--model", str(trained_dir / "model.bin"),
            "--manifest", str(synth_dir / "manifest.json"),
            "--gzsl", "--holdout", "0.25", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    payload = json.loads((a / "report.json").read_text())
    assert payload["protocol"] == "generalized"
    assert payload["holdout_fraction"] == 0.25 and payload["split_seed"] == 3
    report = payload["report"]
    for key in ("acc_s", "acc_u", "hm"):
        assert 0.0 <= report[key] <= 1.0


def test_eval_planted_model_is_perfect(noiseless_dir, tmp_path):
    rc = run(["eval", "--model", str(noiseless_dir / "planted_model.bin"),
              "--manifest", str(noiseless_dir / "manifest.json"),
              "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["overall_accuracy"] == 1.0
    assert report["per_class_mean_accuracy"] == 1.0


def test_eval_rejects_gzsl_flag_conflicts(synth_dir, trained_dir, tmp_path):
    base = ["eval", "--model", str(trained_dir / "model.bin"),
            "--manifest", str(synth_dir / "manifest.json"),
            "--out", str(tmp_path), "--gzsl"]
    assert run(base + ["--direction", "s2v"]) == 2
    assert run(base + ["--hit-k", "1"]) == 2


def test_eval_s2v_on_fpl_archive(synth_dir, tmp_path, capsys):
    fpl_dir = tmp_path / "fpl"
    rc = run(["train", "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(fpl_dir), "--variant", "fpl"])
    assert rc == 0
    rc = run(["eval", "--model", str(fpl_dir / "model.bin"),
              "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--direction", "s2v"])
    assert rc == 5


def test_eval_dimension_mismatch(synth_dir, trained_dir, tmp_path):
    other = tmp_path / "other"
    rc = run(["synth", "--out", str(other), "--m", "18", "--d", "8",
              "--k", "12", "--cs", "4", "--cu", "2", "--spc", "8"])
    assert rc == 0
    rc = run(["eval", "--model", str(trained_dir / "model.bin"),
              "--manifest", str(other / "manifest.json"),
              "--out", str(tmp_path)])
    assert rc == 5


def test_eval_overflowing_embedding_exits_5(synth_dir, trained_dir, tmp_path, capsys):
    # finite, but B^T A x overflows the cosine norms: NaN distances that
    # argmin would rank as the first candidate
    archive = load_model(trained_dir / "model.bin")
    archive.model.A[0, 0] = 1e300
    model = save_model(tmp_path / "model.bin", archive.model, archive.fingerprint)
    rc = eval_rc(model, synth_dir / "manifest.json", tmp_path / "out")
    err = capsys.readouterr().err
    assert rc == 5, err
    assert err.startswith("jcmspl eval: error: ") and err.count("\n") == 1, err
    assert "not finite" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_missing_manifest_is_a_data_error(tmp_path):
    rc = run(["train", "--manifest", str(tmp_path / "nope.json"),
              "--out", str(tmp_path), "--k", "4"])
    assert rc == 3


def test_config_errors(synth_dir, tmp_path):
    manifest = str(synth_dir / "manifest.json")
    # --k is mandatory for iterative variants
    assert run(["train", "--manifest", manifest, "--out", str(tmp_path)]) == 2
    assert run(["train", "--manifest", manifest, "--out", str(tmp_path),
                "--k", "6", "--lambda1", "-1.0"]) == 2
    assert run(["synth", "--out", str(tmp_path / "bad"), "--m", "4",
                "--d", "8", "--k", "12", "--cs", "4", "--cu", "2",
                "--spc", "8"]) == 2


def assert_config_error(rc, capsys, command):
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"jcmspl {command}: error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("flag,value", [
    ("--seed", "-1"), ("--seed", str(10**20)), ("--t-max", str(10**20)), ("--k", str(10**20)),
])
def test_train_flags_outside_int64_exit_2(synth_dir, tmp_path, capsys, flag, value):
    argv = ["train", "--manifest", str(synth_dir / "manifest.json"),
            "--out", str(tmp_path / "out"), "--k", "6", "--t-max", "2"]
    rc = run(argv + [flag, value])
    assert flag.lstrip("-").replace("-", "_") in assert_config_error(rc, capsys, "train")
    assert not (tmp_path / "out" / "model.bin").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**63)])
def test_synth_seed_outside_int64_exits_2(tmp_path, capsys, seed):
    rc = run(["synth", "--out", str(tmp_path / "out"), "--seed", seed])
    assert "seed" in assert_config_error(rc, capsys, "synth")
    assert not (tmp_path / "out").exists()


def test_eval_gzsl_negative_seed_exits_2(synth_dir, trained_dir, tmp_path, capsys):
    rc = run(["eval", "--model", str(trained_dir / "model.bin"),
              "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--gzsl", "--seed", "-1"])
    assert "seed" in assert_config_error(rc, capsys, "eval")
    assert not (tmp_path / "report.json").exists()


def test_preset_sets_lambdas_and_flags_override(synth_dir, tmp_path):
    rc = run(["train", "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--k", "6", "--t-max", "3",
              "--preset", "sun", "--lambda2", "7.0"])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    eff = summary["effective_lambdas"]
    assert eff["lambda1"] == 1e-4 and eff["lambda2"] == 7.0
    assert eff["lambda3"] == 1e-4 and eff["lambda4"] == 1e-4


def test_ablate_outputs(synth_dir, tmp_path):
    rc = run(["ablate", "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--k", "6", "--t-max", "10"])
    assert rc == 0
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,loss,iters,acc_v2s,acc_s2v"
    variants = [line.split(",")[0] for line in lines[1:]]
    assert tuple(variants) == ABLATION_ORDER
    fpl_row = lines[1].split(",")
    assert fpl_row[0] == "fpl" and fpl_row[4] == ""  # no s2v column for fpl
    for variant in ABLATION_ORDER:
        assert (tmp_path / f"model_{variant}.bin").exists()
    payload = json.loads((tmp_path / "ablation.json").read_text())
    assert [row["variant"] for row in payload["rows"]] == list(ABLATION_ORDER)
    assert all(row["error"] is None for row in payload["rows"])


def test_console_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "jcmspl.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("jcmspl ")


def test_argparse_rejects_unknown_direction(synth_dir, trained_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--model", str(trained_dir / "model.bin"),
             "--manifest", str(synth_dir / "manifest.json"),
             "--out", str(tmp_path), "--direction", "sideways"])
    assert exc.value.code == 2


def test_every_package_error_has_an_exit_code():
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert errors.JcmsplError in classes and errors.ArchiveError in classes
    for cls in classes:
        assert exit_code(cls("x")) in {2, 3, 4, 5}, cls
    # the most specific class along the __mro__ wins
    assert exit_code(errors.InvalidSpecError("x")) == 2  # a DatasetError
    assert exit_code(errors.InvalidHyperparamsError("x")) == 2  # a TrainerError
    assert exit_code(errors.InvalidKError("x")) == 2  # a RecognizerError
    assert exit_code(errors.MissingFileError("x")) == 3
    assert exit_code(errors.TooFewRowsError("x")) == 4
    assert exit_code(errors.NotPositiveDefiniteError("x")) == 4
    assert exit_code(errors.DimensionMismatchError("x")) == 5  # a LinalgError
    assert exit_code(errors.UnsupportedVariantError("x")) == 5
    assert exit_code(IsADirectoryError("x")) == 3


def assert_data_error(rc, capsys, command):
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith(f"jcmspl {command}: error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("case", sorted(ARCHIVE_HOLES))
def test_malformed_archive_exits_3(synth_dir, trained_dir, tmp_path, capsys, case):
    model = tmp_path / "model.bin"
    model.write_bytes(ARCHIVE_HOLES[case]((trained_dir / "model.bin").read_bytes()))
    rc = run(["eval", "--model", str(model),
              "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path)])
    assert_data_error(rc, capsys, "eval")


@pytest.mark.parametrize("case", sorted(CSV_HOLES) + sorted(MANIFEST_HOLES))
def test_malformed_dataset_exits_3(synth_dir, tmp_path, capsys, case):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    manifest = data / "manifest.json"
    if case in CSV_HOLES:
        name, corrupt = CSV_HOLES[case]
        (data / name).write_text(corrupt((data / name).read_text()))
    else:
        manifest.write_bytes(MANIFEST_HOLES[case](json.loads(manifest.read_text())))
    rc = run(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
              "--k", "6", "--t-max", "2"])
    assert_data_error(rc, capsys, "train")


@pytest.mark.parametrize("case", sorted(ID_RANGE_HOLES))
def test_class_id_beyond_int64_exits_3_naming_it(synth_dir, tmp_path, capsys, case):
    text, shown = ID_RANGE_HOLES[case]
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    manifest = data / "manifest.json"
    manifest.write_bytes(with_first_seen_class_id(json.loads(manifest.read_text()), text))
    rc = run(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
              "--k", "6", "--t-max", "2"])
    err = assert_data_error(rc, capsys, "train")
    assert f"seen_classes holds {shown}, outside" in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_out_path_blocked_by_a_file_exits_3(synth_dir, trained_dir, tmp_path, capsys,
                                            command, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    manifest = str(synth_dir / "manifest.json")
    argv = {
        "train": ["train", "--manifest", manifest, "--k", "6", "--t-max", "2"],
        "eval": ["eval", "--model", str(trained_dir / "model.bin"), "--manifest", manifest],
        "ablate": ["ablate", "--manifest", manifest, "--k", "6", "--t-max", "2"],
    }[command]
    rc = run(argv + ["--out", str(out)])
    assert_data_error(rc, capsys, command)


# derandomized, so every run of the suite draws the same examples
FUZZ = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def eval_rc(model, manifest, out):
    return run(["eval", "--model", str(model), "--manifest", str(manifest),
                "--out", str(out)])


@FUZZ
@given(edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_fuzzed_archive_exits_0_3_or_5(synth_dir, trained_dir, fuzz_dir, edits):
    raw = bytearray((trained_dir / "model.bin").read_bytes())
    for pos, value in edits:
        raw[pos % len(raw)] = value
    model = fuzz_dir / "edited.bin"
    model.write_bytes(bytes(raw))
    assert eval_rc(model, synth_dir / "manifest.json", fuzz_dir) in {0, 3, 5}


@FUZZ
@given(cut=st.integers(min_value=0))
def test_truncated_archive_exits_3(synth_dir, trained_dir, fuzz_dir, cut):
    raw = (trained_dir / "model.bin").read_bytes()
    model = fuzz_dir / "cut.bin"
    model.write_bytes(raw[:cut % len(raw)])
    assert eval_rc(model, synth_dir / "manifest.json", fuzz_dir) == 3


CSV_TOKENS = [b"", b"0", b"7", b".", b",", b"-", b"e", b"\n", b" ", b"nan", b"1e999", b"\xff"]


@FUZZ
@given(key=st.sampled_from(FILE_KEYS),
       edits=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(CSV_TOKENS)),
                      min_size=1, max_size=4))
def test_fuzzed_csv_exits_0_3_or_5(synth_dir, fuzz_dir, key, edits):
    data = fuzz_dir / "data"
    shutil.copytree(synth_dir, data, dirs_exist_ok=True)  # undoes the last example
    raw = (data / f"{key}.csv").read_bytes()
    for pos, token in edits:
        pos %= len(raw)
        raw = raw[:pos] + token + raw[pos + 1:]
    (data / f"{key}.csv").write_bytes(raw)
    rc = eval_rc(synth_dir / "planted_model.bin", data / "manifest.json", fuzz_dir)
    assert rc in {0, 3, 5}

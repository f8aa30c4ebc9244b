import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcmspl
from forked import drop_sidecars, forked_io
from jcmspl import cli, errors, recognizer
from jcmspl.archive import fingerprint_dataset, load_model, save_model
from jcmspl.cli import ABLATION_ORDER, exit_code, main
from jcmspl.dataset import (
    FILE_KEYS,
    NORMALIZE_MODES,
    SynthSpec,
    load_manifest,
    normalize,
    save_manifest,
    synth_generate,
)
from jcmspl.recognizer import eval_generalized, eval_hit_at_k, eval_standard
from jcmspl.trainer import Hyperparams, fit
from malformed import (
    ARCHIVE_HOLES,
    COMPRESSED_HOLES,
    CSV_HOLES,
    ID_RANGE_HOLES,
    MANIFEST_HOLES,
    with_compressed_prototypes,
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


def test_eval_warns_when_query_embeddings_are_roundoff(noiseless_dir, tmp_path, capsys):
    # trained on the seen classes' own concept blocks, the model maps every
    # unseen sample to roundoff; the planted model does not
    manifest = str(noiseless_dir / "manifest.json")
    assert run(["train", "--manifest", manifest, "--out", str(tmp_path), "--k", "12"]) == 0
    for model, degenerate in (tmp_path / "model.bin", 16), \
            (noiseless_dir / "planted_model.bin", 0):
        capsys.readouterr()
        assert run(["eval", "--model", str(model), "--manifest", manifest,
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["degenerate_queries"] == degenerate
        assert ("warning: 16 query embedding(s)" in capsys.readouterr().err) == bool(degenerate)


def test_eval_rejects_gzsl_flag_conflicts(synth_dir, trained_dir, tmp_path):
    base = ["eval", "--model", str(trained_dir / "model.bin"),
            "--manifest", str(synth_dir / "manifest.json"),
            "--out", str(tmp_path), "--gzsl"]
    assert run(base + ["--direction", "s2v"]) == 2
    assert run(base + ["--hit-k", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "MISSING/model.bin", "--manifest", "MISSING/manifest.json",
     "--gzsl", "--direction", "s2v"],
    ["eval", "--model", "MISSING/model.bin", "--manifest", "MISSING/manifest.json",
     "--gzsl", "--hit-k", "1"],
    ["eval", "--model", "MISSING/model.bin", "--manifest", "MISSING/manifest.json",
     "--gzsl", "--seed", "-1"],
    ["eval", "--model", "MISSING/model.bin", "--manifest", "MISSING/manifest.json",
     "--gzsl", "--holdout", "1.5"],
    ["eval", "--model", "MISSING/model.bin", "--manifest", "MISSING/manifest.json",
     "--hit-k", "0"],
    ["ablate", "--manifest", "MISSING/manifest.json"],
    ["ablate", "--manifest", "SYNTH/manifest.json"],
], ids=["gzsl_s2v", "gzsl_hit_k", "gzsl_negative_seed", "gzsl_holdout_above_1", "hit_k_0",
        "ablate_without_k", "ablate_without_k_on_data"])
def test_flag_errors_exit_2_before_any_file_is_read(synth_dir, tmp_path, capsys, argv):
    # a usage error is reported as such, even when the inputs are missing
    argv = [a.replace("MISSING", str(tmp_path / "missing")).replace("SYNTH", str(synth_dir))
            for a in argv]
    rc = run(argv + ["--out", str(tmp_path / "out")])
    assert_config_error(rc, capsys, argv[0])
    assert not (tmp_path / "out").exists()


def test_eval_s2v_on_fpl_archive(synth_dir, tmp_path, capsys):
    fpl_dir = tmp_path / "fpl"
    rc = run(["train", "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(fpl_dir), "--variant", "fpl"])
    assert rc == 0
    rc = run(["eval", "--model", str(fpl_dir / "model.bin"),
              "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--direction", "s2v"])
    assert rc == 5
    # K above the unseen class count is a flag error, reported before the
    # fpl model meets a direction it has no map for
    capsys.readouterr()
    rc = run(["eval", "--model", str(fpl_dir / "model.bin"),
              "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--direction", "s2v", "--hit-k", "99"])
    assert rc == 2
    assert "error: K must satisfy 1 <= K <= 2, got 99" in capsys.readouterr().err


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


def test_unset_flags_keep_the_library_defaults(synth_dir, tmp_path):
    # the CLI declares no default of its own for a Hyperparams or SynthSpec field
    rc = run(["train", "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path / "train"), "--k", "6"])
    assert rc == 0
    summary = json.loads((tmp_path / "train" / "summary.json").read_text())
    assert summary["hyperparams"] == dataclasses.asdict(Hyperparams(k=6))
    assert run(["synth", "--out", str(tmp_path / "synth")]) == 0
    direct = tmp_path / "direct"
    save_manifest(synth_generate(SynthSpec())[0], direct / "manifest.json")
    for path in direct.iterdir():
        assert (tmp_path / "synth" / path.name).read_bytes() == path.read_bytes(), path.name


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


def test_ablate_reports_each_failing_variant(synth_dir, tmp_path, capsys):
    # k = 3 < 4 seen classes: the variants with class blocks (full and
    # jcmspl0) cannot build them; the others train and score as usual
    rc = run(["ablate", "--manifest", str(synth_dir / "manifest.json"),
              "--out", str(tmp_path), "--k", "3", "--t-max", "5"])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "Traceback" not in err
    failed = {"full", "jcmspl0"}
    for variant in ABLATION_ORDER:
        assert (f"jcmspl ablate: {variant}: " in err) == (variant in failed), err
        assert (tmp_path / f"model_{variant}.bin").exists() == (variant not in failed)
    rows = json.loads((tmp_path / "ablation.json").read_text())["rows"]
    for row in rows:
        cells = [row[key] for key in ("loss", "iters", "acc_v2s", "acc_s2v")]
        if row["variant"] in failed:
            assert cells == [None] * 4, row
            assert row["error"] == "k (3) must be >= number of seen classes (4)", row
        else:
            assert row["error"] is None, row
            assert (cells[3] is None) == (row["variant"] == "fpl"), row
            assert all(v is not None for v in cells[:3]), row
    lines = (tmp_path / "ablation.csv").read_text().splitlines()[1:]
    assert [line for line in lines if line.endswith(",,,,")] == ["jcmspl0,,,,", "full,,,,"]


def test_every_text_file_ends_its_lines_in_newline_and_json_is_canonical(tmp_path):
    # each CSV and JSON file of synth, train, eval (both protocols) and
    # ablate: no carriage return, a final newline, and JSON as write_json
    # writes it
    data, train = tmp_path / "data", tmp_path / "train"
    manifest, model = str(data / "manifest.json"), str(train / "model.bin")
    fit_flags = ["--k", "6", "--t-max", "5"]
    for argv in (
        ["synth", "--out", str(data), "--m", "16", "--d", "8", "--k", "12", "--cs", "4",
         "--cu", "2", "--spc", "8"],
        ["train", "--manifest", manifest, "--out", str(train), *fit_flags],
        ["eval", "--model", model, "--manifest", manifest, "--out", str(tmp_path / "eval"),
         "--hit-k", "2"],
        ["eval", "--model", model, "--manifest", manifest, "--out", str(tmp_path / "gzsl"),
         "--gzsl"],
        ["ablate", "--manifest", manifest, "--out", str(tmp_path / "ablate"), *fit_flags],
    ):
        assert run(argv) == 0, argv
    texts = sorted(path for path in tmp_path.rglob("*")
                   if path.suffix in (".csv", ".json") and not path.name.startswith("."))
    assert [path.relative_to(tmp_path).as_posix() for path in texts] == sorted(
        ["ablate/ablation.csv", "ablate/ablation.json", "data/manifest.json",
         *(f"data/{key}.csv" for key in FILE_KEYS), "eval/report.json", "gzsl/report.json",
         "train/summary.json", "train/trace.csv"])
    for path in texts:
        text = path.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n"), path
        if path.suffix == ".json":
            with open(path) as fh:
                assert text == json.dumps(json.load(fh), indent=2, sort_keys=True) + "\n", path


def test_console_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "jcmspl.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("jcmspl ")


NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from jcmspl.cli import main
out = sys.argv[1]
manifest, model = out + "/data/manifest.json", out + "/data/planted_model.bin"
scored = ["--model", model, "--manifest", manifest]
codes = [
    main(["synth", "--out", out + "/data"]),
    main(["train", "--manifest", manifest, "--out", out + "/run", "--k", "40", "--t-max", "5"]),
    main(["eval", *scored, "--out", out + "/eval"]),
    main(["eval", *scored, "--out", out + "/gzsl", "--gzsl"]),
    main(["ablate", "--manifest", manifest, "--out", out + "/ablate", "--k", "40",
          "--t-max", "5"]),
]
del sys.modules["scipy"]
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("scipy"))]))
"""


def test_no_command_imports_scipy(tmp_path):
    # the numerics are numpy only; a fresh interpreter in which importing
    # scipy fails runs every subcommand (the test session may have it)
    env = dict(os.environ, PYTHONPATH=str(Path(jcmspl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    assert loaded == []


def test_argparse_rejects_unknown_direction(synth_dir, trained_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--model", str(trained_dir / "model.bin"),
             "--manifest", str(synth_dir / "manifest.json"),
             "--out", str(tmp_path), "--direction", "sideways"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_left_as_built(synth_dir, trained_dir, tmp_path):
    # main parses every command line with one parser; no command, flag or
    # argparse error changes what it parses next
    parser = cli.build_parser()
    argv = ["eval", "--model", "m.bin", "--manifest", "x.json"]
    before = vars(parser.parse_args(argv))
    assert run(["eval", "--model", str(trained_dir / "model.bin"),
                "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path),
                "--gzsl", "--holdout", "0.5", "--seed", "3", "--normalize", "none"]) == 0
    with pytest.raises(SystemExit):
        run(["eval", "--model", "m.bin", "--manifest", "x.json", "--direction", "sideways"])
    assert cli.build_parser() is parser
    assert vars(parser.parse_args(argv)) == before


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
    # the bare trainer and linear-algebra errors take JcmsplError's code
    assert exit_code(errors.TrainerError("x")) == 4
    assert exit_code(errors.LinalgError("x")) == 4
    assert exit_code(errors.UnsupportedVariantError("x")) == 5
    assert exit_code(IsADirectoryError("x")) == 3


def test_train_with_an_unallocatable_k_exits_4(tmp_path, capsys):
    # k = 10**15 is inside the archive's int64 range, but the k x c block
    # indicators alone would take 71 PiB: numpy refuses the request at
    # once, allocating nothing
    assert run(["synth", "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    rc = run(["train", "--manifest", str(tmp_path / "data" / "manifest.json"),
              "--out", str(tmp_path / "out"), "--k", "1000000000000000"])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("jcmspl train: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "model.bin").exists()


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
    drop_sidecars(data)
    if case in CSV_HOLES:
        name, corrupt = CSV_HOLES[case]
        (data / name).write_text(corrupt((data / name).read_text()))
    else:
        manifest.write_bytes(MANIFEST_HOLES[case](json.loads(manifest.read_text())))
    rc = run(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
              "--k", "6", "--t-max", "2"])
    err = assert_data_error(rc, capsys, "train")
    if case in CSV_HOLES:  # named, and not kept
        assert str(data / name) in err
        assert not (data / f".{name}.parsed").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", sorted(COMPRESSED_HOLES))
def test_broken_compressed_file_exits_3_naming_it(synth_dir, trained_dir, tmp_path, capsys,
                                                  case, command):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    name = with_compressed_prototypes(data / "manifest.json", case)
    argv = {"train": ["train", "--k", "6", "--t-max", "2"],
            "eval": ["eval", "--model", str(trained_dir / "model.bin")]}[command]
    rc = run(argv + ["--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "out")])
    err = assert_data_error(rc, capsys, command)
    assert str(data / name) in err


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


def unloadable_archive(case, trained, path):
    """Write the ``case`` of an archive ``load_model`` refuses to ``path``."""
    archive = load_model(trained)
    model = archive.model
    if case == "no_a":
        model = dataclasses.replace(model, A=None)
    elif case == "variant_disagrees":
        model = dataclasses.replace(model, hyper=dataclasses.replace(model.hyper, variant="ipl"))
    elif case == "fpl_with_b":  # an fpl archive holds A only
        fp = archive.fingerprint
        model = dataclasses.replace(
            model, A=np.ones((fp.d, fp.m)), variant="fpl",
            hyper=dataclasses.replace(model.hyper, variant="fpl"),
        )
    if case != "missing":
        save_model(path, model, archive.fingerprint)


@pytest.mark.parametrize("case", ["missing", "no_a", "variant_disagrees", "fpl_with_b"])
def test_unloadable_model_exits_3(synth_dir, trained_dir, tmp_path, capsys, case):
    model = tmp_path / "model.bin"
    unloadable_archive(case, trained_dir / "model.bin", model)
    rc = run(["eval", "--model", str(model),
              "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path)])
    assert_data_error(rc, capsys, "eval")
    assert not (tmp_path / "report.json").exists()


def test_planted_model_carries_no_c(synth_dir):
    archive = load_model(synth_dir / "planted_model.bin")
    assert archive.model.C is None and archive.model.B is not None


def test_train_without_normalization_matches_fit_on_the_raw_manifest(synth_dir, tmp_path):
    manifest = synth_dir / "manifest.json"
    assert run(["train", "--manifest", str(manifest), "--out", str(tmp_path),
                "--k", "6", "--t-max", "15", "--normalize", "none"]) == 0
    model, _ = fit(load_manifest(manifest), Hyperparams(k=6, t_max=15))
    saved = load_model(tmp_path / "model.bin").model
    for name in ("A", "B"):
        assert np.array_equal(getattr(saved, name), getattr(model, name)), name
    assert json.loads((tmp_path / "summary.json").read_text())["normalize"] == "none"


@pytest.mark.parametrize("mode", NORMALIZE_MODES)
def test_cli_fingerprints_the_raw_arrays_and_normalizes_as_normalize_does(
        synth_dir, tmp_path, capsys, mode):
    # train and eval normalize the loaded features in place, after the
    # fingerprint is taken
    manifest = synth_dir / "manifest.json"
    raw = load_manifest(manifest)
    prepared = raw if mode == "none" else dataclasses.replace(
        raw, visual_seen=normalize(raw.visual_seen), visual_unseen=normalize(raw.visual_unseen))
    assert run(["train", "--manifest", str(manifest), "--out", str(tmp_path / "train"),
                "--k", "6", "--t-max", "15", "--normalize", mode]) == 0
    summary = json.loads((tmp_path / "train" / "summary.json").read_text())
    assert summary["dataset"] == fingerprint_dataset(raw).to_dict()
    saved = load_model(tmp_path / "train" / "model.bin")
    assert saved.fingerprint == fingerprint_dataset(raw)
    model, _ = fit(prepared, Hyperparams(k=6, t_max=15))
    for name in ("A", "B"):
        assert np.array_equal(getattr(saved.model, name), getattr(model, name)), name
    standard = eval_standard(model, prepared)
    expected = {
        "standard": standard,
        "hit_k": dataclasses.replace(standard, hit_at_k=(2, eval_hit_at_k(model, prepared, 2))),
        "gzsl": eval_generalized(model, prepared),
    }
    flags = {"standard": [], "hit_k": ["--hit-k", "2"], "gzsl": ["--gzsl"]}
    for protocol, library in expected.items():
        capsys.readouterr()
        assert run(["eval", "--model", str(tmp_path / "train" / "model.bin"), "--manifest",
                    str(manifest), "--out", str(tmp_path / protocol), "--normalize", mode,
                    *flags[protocol]]) == 0
        assert "checksum differs" not in capsys.readouterr().err
        report = json.loads((tmp_path / protocol / "report.json").read_text())["report"]
        assert report == json.loads(json.dumps(library.to_dict())), protocol


def test_cli_holds_each_feature_matrix_about_once(tmp_path):
    # synth fills preallocated feature matrices, the fingerprint hashes
    # each array's own buffer, eval normalizes the features in place, and
    # every pass over a whole feature matrix (the finiteness check, the
    # column norms, the --gzsl holdout's ranking) takes a narrow block of
    # columns at a time: no step holds a second m x n copy or an m x n
    # temporary (the code before peaked at about 2.5x the dataset's array
    # bytes in synth and 3.4x in eval, and at 1.41x with whole-matrix
    # checks and a copied holdout)
    data = tmp_path / "data"
    model, manifest = data / "planted_model.bin", data / "manifest.json"
    steps = {
        "synth": ["synth", "--out", data, "--m", "128", "--d", "16", "--k", "24",
                  "--cs", "10", "--cu", "4", "--spc", "200"],
        "eval": ["eval", "--model", model, "--manifest", manifest, "--out", tmp_path / "eval"],
        "eval --gzsl": ["eval", "--model", model, "--manifest", manifest,
                        "--out", tmp_path / "gzsl", "--gzsl"],
    }
    peaks = {}
    for name, argv in steps.items():
        argv = [str(a) for a in argv]
        # an untraced run first: a process's first savetxt or loadtxt imports
        # numpy.ma, gzip and more, which is no part of a command's peak
        assert run(argv) == 0
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    dataset = load_manifest(manifest)
    assert dataset.n_seen == 2000
    nbytes = sum(getattr(dataset, f.name).nbytes for f in dataclasses.fields(dataset))
    ratios = {name: peak / nbytes for name, peak in peaks.items()}
    print(", ".join(f"{name}: peak {ratio:.2f}x the arrays" for name, ratio in ratios.items()))
    # measured: synth 1.11x, eval 1.08x, eval --gzsl 1.09x; margin 0.04x
    assert max(ratios.values()) < 1.15, ratios


@pytest.mark.parametrize("flags", [[], ["--hit-k", "2"], ["--gzsl"]])
def test_eval_embeds_at_most_one_narrow_block_of_visual_columns(synth_dir, trained_dir, tmp_path,
                                                                monkeypatch, flags):
    # every scored set (the unseen split, its top-K ranking, the --gzsl
    # holdout) is embedded a block of NARROW columns at a time, so no
    # embedding is wider than one block beside the dataset
    widths = []

    def embed(model, inputs, direction):
        widths.append(inputs.shape[1])
        return original(model, inputs, direction)

    original = recognizer._embed
    monkeypatch.setattr(recognizer, "_embed", embed)
    # blocks of 3 columns split the 16 unseen columns into 6 blocks
    monkeypatch.setattr(recognizer, "NARROW", 3)
    assert run(["eval", "--model", str(trained_dir / "model.bin"), "--manifest",
                str(synth_dir / "manifest.json"), "--out", str(tmp_path), *flags]) == 0
    n_unseen = load_manifest(synth_dir / "manifest.json").n_unseen
    # --gzsl also holds out 2 of each seen class's 8 samples (--holdout 0.2)
    assert sum(widths) == n_unseen + (8 if "--gzsl" in flags else 0), widths
    assert max(widths) == 3, widths


@pytest.mark.parametrize("flags, scorer", [
    ([], "eval_standard"), (["--hit-k", "3"], "eval_standard"),
    (["--direction", "s2v"], "eval_standard"), (["--gzsl"], "eval_generalized"),
], ids=["standard", "hit_k", "s2v", "gzsl"])
def test_eval_scores_through_one_name_of_the_cli_module(tmp_path, monkeypatch, flags, scorer):
    # a benchmark that rebinds jcmspl.cli.eval_standard or eval_generalized
    # sees every protocol of eval score once
    assert run(["synth", "--out", str(tmp_path), "--m", "16", "--d", "8", "--k", "12",
                "--cs", "4", "--cu", "3", "--spc", "8", "--seed", "1"]) == 0
    calls = []
    for name in ("eval_standard", "eval_generalized"):
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert run(["eval", "--model", str(tmp_path / "planted_model.bin"), "--manifest",
                str(tmp_path / "manifest.json"), "--out", str(tmp_path), *flags]) == 0
    assert calls == [scorer]


@pytest.mark.parametrize("flags, shown", [
    ([], [1]), (["--hit-k", "2"], [1]), (["--gzsl"], [2, 1]),
], ids=["standard", "hit_k", "gzsl"])
def test_eval_normalizes_only_the_features_its_protocol_scores(synth_dir, trained_dir, tmp_path,
                                                               flags, shown):
    # two zero seen columns and one zero unseen column: standard and top-K
    # scoring read no seen sample and leave the seen features as loaded, so
    # only --gzsl warns of the seen ones
    dataset = load_manifest(synth_dir / "manifest.json")
    dataset.visual_seen[:, [0, 3]] = 0.0
    dataset.visual_unseen[:, 1] = 0.0
    manifest = save_manifest(dataset, tmp_path / "data" / "manifest.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["eval", "--model", str(trained_dir / "model.bin"), "--manifest",
                    str(manifest), "--out", str(tmp_path), *flags]) == 0
    assert [str(w.message) for w in caught] == [
        f"{count} zero-norm column(s) left unnormalized" for count in shown]


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
    manifest = fuzzed_copy(synth_dir, fuzz_dir / "data", key, edits)
    rc = eval_rc(synth_dir / "planted_model.bin", manifest, fuzz_dir)
    assert rc in {0, 3, 5}


def fuzzed_copy(synth_dir, data, key, edits):
    """A copy of ``synth_dir`` in ``data`` (undoing the last example) whose
    ``key`` file has ``edits`` applied; returns its manifest."""
    shutil.copytree(synth_dir, data, dirs_exist_ok=True)
    raw = (data / f"{key}.csv").read_bytes()
    for pos, token in edits:
        pos %= len(raw)
        raw = raw[:pos] + token + raw[pos + 1:]
    (data / f"{key}.csv").write_bytes(raw)
    return data / "manifest.json"


def load_outcome(manifest):
    """The loaded dataset's arrays (shapes and bits), or the error."""
    try:
        dataset = load_manifest(manifest)
    except errors.JcmsplError as exc:
        return type(exc), str(exc)
    return [(a.shape, a.tobytes()) for a in dataclasses.astuple(dataset)]


@FUZZ
@given(key=st.sampled_from(FILE_KEYS),
       edits=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(CSV_TOKENS)),
                      min_size=1, max_size=4))
def test_fuzzed_csv_on_forked_workers_loads_and_exits_as_serial(synth_dir, fuzz_dir, key,
                                                                edits):
    # the edits of the test above; every matrix file is split across
    # workers, and every load parses: none finds a sidecar of the one before
    manifest = fuzzed_copy(synth_dir, fuzz_dir / "forked", key, edits)
    model, data = synth_dir / "planted_model.bin", manifest.parent
    drop_sidecars(data)
    serial = load_outcome(manifest)
    drop_sidecars(data)
    rc = eval_rc(model, manifest, fuzz_dir)
    with forked_io(3) as forks:
        drop_sidecars(data)
        assert load_outcome(manifest) == serial
        drop_sidecars(data)
        assert eval_rc(model, manifest, fuzz_dir) == rc
    assert forks and rc in {0, 3, 5}

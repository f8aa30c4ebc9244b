"""The benchmark's workloads: seeded inputs, one operation, output checks.

A workload object is built from the run's seed and offers

- ``setup()``: generate the inputs (this is what ``setup_s`` times);
- ``run(i, out)``: operation number ``i``, writing into the fresh
  directory ``out``; returns ``({step: seconds}, [problems])``;
- ``check(i, out)``: the output checks of that operation, as a list of
  problems (empty when every check holds).

Operations use the library from outside, through public calls only: the
CLI workloads call ``jcmspl.cli.main`` in-process with its output
captured, and ``large_train`` calls ``jcmspl.fit``.  Both are looked up
at call time, so the tracer can rebind them.

Operation ``i`` works on sub-seed ``seed * pool + i % pool``, which feeds
both the synth seed and the training seed.  Cycling through ``pool``
inputs makes one run measure several datasets, so that the iteration
count of a single dataset does not decide the run's median.  Two
operations on the same sub-seed must give byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from pathlib import Path

import jcmspl
import jcmspl.cli
from jcmspl.archive import fingerprint_dataset, load_model
from jcmspl.dataset import (
    SynthSpec,
    expand_prototypes,
    load_manifest,
    normalize,
    synth_generate,
)
from jcmspl.trainer import Hyperparams, build_class_matrix, loss

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_losses.json"
# reference_losses.json holds the large_train inputs of run seeds
# 0 .. REFERENCE_SEEDS - 1
REFERENCE_SEEDS = 24

# a loss may rise by this share of (1 + first-iteration loss): the
# acceptance suite's monotonicity slack
MONOTONE_SLACK = 1e-9
# final trace loss against the loss recomputed at the returned model
RECOMPUTE_RTOL = 1e-10
# final trace loss against the value stored in reference_losses.json
REFERENCE_RTOL = 1e-9

SMALL_K = 40
LARGE_K = 64
# synth flags of the large shape: m=256, d=64, 40 seen and 10 unseen
# classes with 200 samples each (n_seen = 8000)
LARGE_SYNTH = ["--m", "256", "--d", "64", "--k", "64",
               "--cs", "40", "--cu", "10", "--spc", "200"]
LARGE_INPUTS = {"m": 256, "d": 64, "k": LARGE_K, "seen_classes": 40,
                "unseen_classes": 10, "samples_per_class": 200,
                "n_seen": 8000, "n_unseen": 2000}
ABLATION_ORDER = ("fpl", "ipl", "jcmspl0", "jcmspl1", "full")


def large_spec(seed: int) -> SynthSpec:
    return SynthSpec(m=256, d=64, k=64, num_seen_classes=40,
                     num_unseen_classes=10, samples_per_class=200, seed=seed)


def l2_normalized(dataset):
    """The dataset as ``jcmspl train`` sees it (``--normalize l2_columns``)."""
    return dataclasses.replace(
        dataset,
        visual_seen=normalize(dataset.visual_seen),
        visual_unseen=normalize(dataset.visual_unseen),
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def loss_problems(losses) -> list[str]:
    """Losses must not rise by more than the acceptance suite's slack."""
    if len(losses) < 2:
        return []
    slack = MONOTONE_SLACK * (1.0 + losses[1])
    rise = max(b - a for a, b in zip(losses, losses[1:]))
    return [f"loss rose by {rise:.3e} (slack {slack:.3e})"] if rise > slack else []


def recompute_loss(model, dataset, hyper: Hyperparams) -> float:
    """The objective at the model's (A, B, C), computed from scratch."""
    X = dataset.visual_seen
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
    H = build_class_matrix(dataset.labels_seen, hyper.k, dataset.seen_classes).H
    return loss(model.A, model.B, model.C, X, Y, H, hyper.effective())


def cli(argv) -> tuple[int, str]:
    """``jcmspl <argv>`` in-process; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = jcmspl.cli.main([str(a) for a in argv])
    return code, err.getvalue()


def run_steps(steps) -> tuple[dict, list[str]]:
    """Run CLI steps in order, timing each; stop at the first failure."""
    times, problems = {}, []
    for name, argv in steps:
        start = time.perf_counter()
        code, err = cli(argv)
        times[name] = time.perf_counter() - start
        if code != 0:
            problems.append(f"{argv[0]} exited {code}: {err.strip()[-300:]}")
            break
        if "checksum differs" in err:
            problems.append(f"{argv[0]}: {err.strip()}")
    return times, problems


def digests(out: Path, names) -> dict:
    result = {}
    for name in names:
        digest = hashlib.sha256()
        with open(out / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        result[name] = digest.hexdigest()
    return result


class Workload:
    name = ""
    pool = 1
    steps = ()  # the CLI subcommands it times, as metric names
    outputs = ()  # files compared byte for byte across operations

    def __init__(self, seed: int):
        self.seed = seed
        # sub-seed -> (output digests, problems) of its first operation
        self._first: dict[int, tuple[dict, list[str]]] = {}

    def subseed(self, i: int) -> int:
        return self.seed * self.pool + i % self.pool

    def inputs(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def run(self, i: int, out: Path) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def check(self, i: int, out: Path) -> list[str]:
        """Compare with the first operation on the same sub-seed; check
        that first one in full."""
        sub = self.subseed(i)
        got = digests(out, self.outputs)
        if sub not in self._first:
            self._first[sub] = (got, self.check_first(sub, out))
        first, problems = self._first[sub]
        changed = sorted(n for n in got if got[n] != first[n])
        if changed:
            problems = problems + [f"not byte-identical to the first run "
                                   f"of sub-seed {sub}: {changed}"]
        return list(problems)

    def check_first(self, sub: int, out: Path) -> list[str]:
        raise NotImplementedError


class SmallCli(Workload):
    name = "small_cli"
    pool = 8
    steps = ("synth_s", "train_s", "eval_s", "eval_gzsl_s", "ablate_s")
    outputs = ("run/summary.json", "run/trace.csv", "run/model.bin",
               "eval/report.json", "gzsl/report.json", "ablate/ablation.csv")

    def inputs(self) -> dict:
        return {"m": 50, "d": 20, "k": SMALL_K, "seen_classes": 10,
                "unseen_classes": 5, "samples_per_class": 50,
                "n_seen": 500, "n_unseen": 250,
                "subseeds": [self.subseed(i) for i in range(self.pool)]}

    def run(self, i, out):
        s = self.subseed(i)
        manifest = out / "data" / "manifest.json"
        common = ["--k", SMALL_K, "--seed", s]
        return run_steps([
            ("synth_s", ["synth", "--out", out / "data", "--seed", s]),
            ("train_s", ["train", "--manifest", manifest, "--out", out / "run", *common]),
            ("eval_s", ["eval", "--model", out / "run" / "model.bin",
                        "--manifest", manifest, "--out", out / "eval", "--hit-k", 3]),
            ("eval_gzsl_s", ["eval", "--model", out / "run" / "model.bin",
                             "--manifest", manifest, "--out", out / "gzsl", "--gzsl"]),
            ("ablate_s", ["ablate", "--manifest", manifest, "--out", out / "ablate",
                          *common]),
        ])

    def check_first(self, sub, out):
        problems = []
        with open(out / "run" / "trace.csv") as fh:
            rows = list(fh)[1:]
        losses = [float(row.split(",")[1]) for row in rows]
        problems += loss_problems(losses)

        summary = json.loads((out / "run" / "summary.json").read_text())
        final = summary["final_loss"]
        if final != losses[-1]:
            problems.append(f"summary final_loss {final!r} != trace {losses[-1]!r}")
        model = load_model(out / "run" / "model.bin").model
        dataset = l2_normalized(load_manifest(out / "data" / "manifest.json"))
        again = recompute_loss(model, dataset, model.hyper)
        if _rel(again, final) > RECOMPUTE_RTOL:
            problems.append(f"final loss {final!r} but the saved model gives {again!r}")

        with open(out / "ablate" / "ablation.csv") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        if [r[0] for r in rows] != list(ABLATION_ORDER) or any("" in r[1:3] for r in rows):
            problems.append(f"ablation.csv rows incomplete: {rows}")
        elif float(rows[-1][1]) != final:
            problems.append(f"ablate full loss {rows[-1][1]} != train {final!r}")

        for name in ("eval", "gzsl"):
            report = json.loads((out / name / "report.json").read_text())["report"]
            if not 0.0 <= report["overall_accuracy"] <= 1.0:
                problems.append(f"{name} accuracy out of range: {report}")
        return problems


class LargeIo(Workload):
    name = "large_io"
    steps = ("synth_s", "eval_s", "eval_gzsl_s")
    outputs = ("data/visual_seen.csv", "data/visual_unseen.csv",
               "data/prototypes.csv", "data/labels_seen.csv",
               "data/labels_unseen.csv", "data/manifest.json",
               "data/planted_model.bin", "eval/report.json", "gzsl/report.json")

    def inputs(self) -> dict:
        return {**LARGE_INPUTS, "subseeds": [self.subseed(0)]}

    def setup(self):
        self.reference, _ = synth_generate(large_spec(self.subseed(0)))

    def run(self, i, out):
        s = self.subseed(i)
        manifest = out / "data" / "manifest.json"
        model = out / "data" / "planted_model.bin"
        return run_steps([
            ("synth_s", ["synth", "--out", out / "data", *LARGE_SYNTH, "--seed", s]),
            ("eval_s", ["eval", "--model", model, "--manifest", manifest,
                        "--out", out / "eval", "--hit-k", 3]),
            ("eval_gzsl_s", ["eval", "--model", model, "--manifest", manifest,
                             "--out", out / "gzsl", "--gzsl"]),
        ])

    def check_first(self, sub, out):
        problems = []
        loaded = load_manifest(out / "data" / "manifest.json")
        for field in dataclasses.fields(loaded):
            a = getattr(loaded, field.name)
            b = getattr(self.reference, field.name)
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                problems.append(f"CSV round trip changed {field.name}")
        archive = load_model(out / "data" / "planted_model.bin")
        if archive.fingerprint.sha256 != fingerprint_dataset(self.reference).sha256:
            problems.append("planted_model.bin fingerprint differs from the inputs")
        for name in ("eval", "gzsl"):
            report = json.loads((out / name / "report.json").read_text())["report"]
            if not 0.0 <= report["overall_accuracy"] <= 1.0:
                problems.append(f"{name} accuracy out of range: {report}")
        return problems


class LargeTrain(Workload):
    name = "large_train"
    pool = 8

    def inputs(self) -> dict:
        return {**LARGE_INPUTS, "subseeds": [self.subseed(i) for i in range(self.pool)]}

    def setup(self):
        self.datasets = [l2_normalized(synth_generate(large_spec(self.subseed(j)))[0])
                         for j in range(self.pool)]
        with open(REFERENCE_FILE) as fh:
            self.reference = {int(k): v for k, v in json.load(fh)[self.name].items()}
        self.reference_checked = 0
        self._last = None

    def run(self, i, out):
        hyper = Hyperparams(k=LARGE_K, seed=self.subseed(i))
        self._last = jcmspl.fit(self.datasets[i % self.pool], hyper)
        return {}, []

    def check(self, i, out):
        model, trace = self._last
        self._last = None
        sub = self.subseed(i)
        problems = loss_problems(trace.losses)
        final = trace.losses[-1]
        again = recompute_loss(model, self.datasets[i % self.pool], model.hyper)
        if _rel(final, again) > RECOMPUTE_RTOL:
            problems.append(f"final loss {final!r} but the returned model gives {again!r}")
        if sub in self.reference:
            self.reference_checked += 1
            if _rel(final, self.reference[sub]) > REFERENCE_RTOL:
                problems.append(f"final loss {final!r}, stored reference "
                                f"{self.reference[sub]!r}")
        got = {"loss": final.hex(), "A": hashlib.sha256(model.A.tobytes()).hexdigest()}
        first = self._first.setdefault(sub, (got, []))[0]
        if got != first:
            problems.append(f"not bit-identical to the first fit of sub-seed {sub}")
        return problems


WORKLOADS = {w.name: w for w in (SmallCli, LargeTrain, LargeIo)}

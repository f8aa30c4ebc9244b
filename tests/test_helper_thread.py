"""``fit``'s pinned helper thread (``jcmspl.workers.beside``): the same bytes
on one core as on two, and no thread outlives a fit, whether it returns or
raises."""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from jcmspl import trainer, workers
from jcmspl.cli import main
from jcmspl.dataset import CHUNK, SynthSpec, expand_prototypes, synth_generate
from jcmspl.trainer import Hyperparams, build_class_matrix, fit, loss, update_C

SRC = Path(__file__).resolve().parents[1] / "src"
LOOP_VARIANTS = ("full", "jcmspl1", "jcmspl0", "ipl")
TWO_CORES = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="fewer than 2 usable cores")

# Trains the variants given and prints, last, how many threads it started.
# BLAS is loaded before the process restricts itself to one core, so both
# runs of a test have the same BLAS thread count, and only the helper differs.
TRAIN_ALL = """
import os, sys, threading
import numpy
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
started, start = [], threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]
from jcmspl.cli import main
manifest, out, *variants = sys.argv[2:]
for variant in variants:
    assert main(["train", "--manifest", manifest, "--out", os.path.join(out, variant),
                 "--k", "16", "--variant", variant]) == 0
print(len(started))
"""


@TWO_CORES
@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_two_core_fit_writes_the_one_core_bytes(tmp_path, blas_threads):
    # n = 10 x 250 = 2500: two whole CHUNK blocks and a short third
    n = 2500
    assert 2 * CHUNK < n < 3 * CHUNK
    assert main(["synth", "--out", str(tmp_path / "data"), "--m", "24", "--d", "8",
                 "--k", "16", "--cs", "10", "--cu", "2", "--spc", "250"]) == 0
    manifest = str(tmp_path / "data" / "manifest.json")
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": blas_threads,
           "OMP_NUM_THREADS": blas_threads}
    runs = {cores: subprocess.Popen(
        [sys.executable, "-c", TRAIN_ALL, cores, manifest, str(tmp_path / cores),
         *LOOP_VARIANTS], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for cores in ("one", "all")}
    replies = {cores: (proc.communicate(), proc.returncode) for cores, proc in runs.items()}
    started = {}
    for cores, ((out, err), code) in replies.items():
        assert code == 0, err
        started[cores] = int(out.split()[-1])
    # the helper ran both n-wide passes of every fit on two cores, none on one
    assert started == {"one": 0, "all": 2 * len(LOOP_VARIANTS)}
    for variant in LOOP_VARIANTS:
        for name in ("model.bin", "trace.csv", "summary.json"):
            one, every = (tmp_path / cores / variant / name for cores in ("one", "all"))
            assert one.read_bytes() == every.read_bytes(), (variant, name)


def two_block_dataset():
    # n = 4 x 300 = 1200: two CHUNK blocks, the fewest that engage the helper
    dataset, _ = synth_generate(SynthSpec(m=16, d=8, k=12, num_seen_classes=4,
                                          num_unseen_classes=2, samples_per_class=300))
    assert CHUNK < dataset.n_seen <= 2 * CHUNK
    return dataset


class StatisticsFailed(Exception):
    pass


def test_an_error_on_the_helper_thread_leaves_fit_with_its_type(monkeypatch):
    ran_on = []

    def failing(*args):
        ran_on.append(threading.current_thread())
        raise StatisticsFailed("X statistics")

    monkeypatch.setattr(trainer, "_x_statistics", failing)
    before = threading.active_count()
    with pytest.raises(StatisticsFailed, match="X statistics"):
        fit(two_block_dataset(), Hyperparams(k=12))
    assert threading.active_count() == before
    assert len(ran_on) == 1
    if workers.count(2) == 2:
        assert ran_on[0] is not threading.main_thread()


def test_the_helper_thread_keeps_the_callers_errstate():
    # X X^T overflows first, on the helper: a fresh thread would only warn
    dataset = two_block_dataset()
    dataset = dataclasses.replace(dataset, visual_seen=1e160 * dataset.visual_seen)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        fit(dataset, Hyperparams(k=12))


def test_fit_leaves_no_thread_behind(monkeypatch):
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (started.append(self), start(self))[1])
    before = threading.active_count()
    fit(two_block_dataset(), Hyperparams(k=12))
    assert threading.active_count() == before
    assert len(started) == (2 if workers.count(2) == 2 else 0)
    assert not any(thread.is_alive() for thread in started)


@TWO_CORES
def test_one_core_fit_starts_no_thread_and_gives_the_same_model(monkeypatch):
    # as in a forked ablate child, which runs on one core
    dataset, hyper = two_block_dataset(), Hyperparams(k=12)
    model, trace = fit(dataset, hyper)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    try:
        one_core = fit(dataset, hyper)
    finally:
        os.sched_setaffinity(0, usable)
    assert started == []
    np.testing.assert_array_equal(one_core[0].A, model.A)
    np.testing.assert_array_equal(one_core[0].B, model.B)
    assert one_core[1].losses == trace.losses


@TWO_CORES
@pytest.mark.parametrize("variant", LOOP_VARIANTS)
def test_loss_and_update_c_give_the_one_core_bits(monkeypatch, variant):
    # n = 5 x 500 = 2500: the caller sweeps two blocks, the helper the third
    dataset, planted = synth_generate(SynthSpec(m=16, d=8, k=12, num_seen_classes=5,
                                                num_unseen_classes=2, samples_per_class=500))
    assert 2 * CHUNK < dataset.n_seen < 3 * CHUNK
    hyper = Hyperparams(k=12, variant=variant).effective()
    A, B = planted.A_true, planted.B_true
    X = dataset.visual_seen
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
    H = build_class_matrix(dataset.labels_seen, 12, dataset.seen_classes).H

    def sweeps():
        C = update_C(A, B, X, Y, H, hyper)
        return C.tobytes(), loss(A, B, None, X, Y, H, hyper), loss(A, B, C, X, Y, H, hyper)

    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (started.append(self), start(self))[1])
    two_cores = sweeps()
    assert len(started) == 3
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    try:
        one_core = sweeps()
    finally:
        os.sched_setaffinity(0, usable)
    assert len(started) == 3
    assert one_core == two_cores


@TWO_CORES
def test_fit_starts_no_thread_while_a_forked_child_is_alive(monkeypatch):
    # the helper would take the core of the child beside it
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    with workers.forked(lambda pipe, item: None, [None]) as children:
        assert len(children) == 1
        fit(two_block_dataset(), Hyperparams(k=12))
        assert children[0].join()
    assert started == []

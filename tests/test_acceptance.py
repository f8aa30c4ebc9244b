"""End-to-end acceptance checks.

One test per headline claim.  Each test measures the quantity it pins,
prints the measured value, then asserts at the stated tolerance, so a
``pytest -v`` run reads as a checklist with one pass/fail line per
claim.
"""

import dataclasses
import importlib
import importlib.util
import json
import statistics
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import jcmspl
from jcmspl.cli import main
from jcmspl.dataset import (
    SynthSpec,
    ZslDataset,
    expand_prototypes,
    synth_generate,
)
from jcmspl.linalg import sylvester_oracle, sylvester_solve
from jcmspl.recognizer import eval_standard, harmonic_mean
from jcmspl.trainer import (
    Hyperparams,
    JcmsplModel,
    a_update_operands,
    b_update_operands,
    build_class_matrix,
    fit,
    loss,
    loss_gradients,
    update_A,
    update_B,
    update_C,
)


@pytest.fixture(scope="module")
def noisy_benchmark():
    return synth_generate(SynthSpec())


@pytest.fixture(scope="module")
def transferable_benchmark():
    """Noiseless synth whose unseen classes mix seen-class concepts.

    The default generator gives every class its own concept block, so
    its unseen features are orthogonal to every seen sample and no model
    fit on seen data can reach them.  Here the seen split, ``A_true`` and
    ``B_true`` are kept, and unseen class ``i`` gets the unit-normalised
    sum of the concept means of seen classes ``2i`` and ``2i + 1``; its
    features are ``A_true^T mean`` and its prototype ``B_true^T mean``.
    """
    base, planted = synth_generate(SynthSpec(noise_sigma=0.0))
    seen_means = planted.concept_means[:, base.seen_classes]
    mixed = seen_means[:, 0::2] + seen_means[:, 1::2]
    mixed /= np.linalg.norm(mixed, axis=0)
    means = np.hstack([seen_means, mixed])
    dataset = ZslDataset(
        visual_seen=base.visual_seen,
        labels_seen=base.labels_seen,
        visual_unseen=planted.A_true.T @ means[:, base.labels_unseen],
        labels_unseen=base.labels_unseen,
        prototypes=planted.B_true.T @ means,
        seen_classes=base.seen_classes,
        unseen_classes=base.unseen_classes,
    )
    return dataset, dataclasses.replace(planted, concept_means=means)


def spd(rng, n):
    G = rng.standard_normal((n + 2, n))
    return G.T @ G


def random_problem(rng):
    k = int(rng.integers(3, 7))
    m = int(rng.integers(3, 8))
    d = int(rng.integers(3, 8))
    classes = [0, 1, 2]
    n = 3 * int(rng.integers(3, 6))
    labels = np.repeat(classes, n // 3)
    hyper = Hyperparams(
        k=k,
        lambda1=float(rng.uniform(0.2, 2.0)),
        lambda2=float(rng.uniform(0.2, 2.0)),
        lambda3=float(rng.uniform(0.2, 2.0)),
        lambda4=float(rng.uniform(0.2, 2.0)),
    )
    X = rng.standard_normal((m, n))
    Y = rng.standard_normal((d, n))
    H = build_class_matrix(labels, k, classes).H
    A = rng.standard_normal((k, m))
    B = rng.standard_normal((k, d))
    C = rng.standard_normal((k, n))
    return A, B, C, X, Y, H, hyper


def test_sylvester_solver_matches_kronecker_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        r = int(rng.integers(1, 11))
        s = int(rng.integers(1, 11))
        M, N = spd(rng, r), spd(rng, s)
        T = rng.standard_normal((r, s))
        Z = sylvester_solve(M, N, T)
        Z_ref = sylvester_oracle(M, N, T)
        rel = np.linalg.norm(Z - Z_ref) / max(1.0, np.linalg.norm(Z_ref))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    print(f"sylvester vs oracle: worst rel err {worst:.3e} over 50 "
          f"instances in {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_block_updates_never_increase_loss_and_reach_stationarity():
    rng = np.random.default_rng(11)
    worst_resid = 0.0
    for _ in range(20):
        A, B, C, X, Y, H, hyper = random_problem(rng)
        g0 = loss_gradients(A, B, C, X, Y, H, hyper)
        f = loss(A, B, C, X, Y, H, hyper)

        A = update_A(C, X, hyper.lambda3)
        f_a = loss(A, B, C, X, Y, H, hyper)
        assert f_a <= f + 1e-12 * (1.0 + f)
        gA = loss_gradients(A, B, C, X, Y, H, hyper)[0]
        resid_a = np.linalg.norm(gA) / (1.0 + np.linalg.norm(g0[0]))

        B = update_B(C, Y, hyper.lambda1, hyper.lambda4)
        f_b = loss(A, B, C, X, Y, H, hyper)
        assert f_b <= f_a + 1e-12 * (1.0 + f_a)
        gB = loss_gradients(A, B, C, X, Y, H, hyper)[1]
        resid_b = np.linalg.norm(gB) / (1.0 + np.linalg.norm(g0[1]))

        C = update_C(A, B, X, Y, H, hyper)
        f_c = loss(A, B, C, X, Y, H, hyper)
        assert f_c <= f_b + 1e-12 * (1.0 + f_b)
        gC = loss_gradients(A, B, C, X, Y, H, hyper)[2]
        resid_c = np.linalg.norm(gC) / (1.0 + np.linalg.norm(g0[2]))

        worst_resid = max(worst_resid, resid_a, resid_b, resid_c)
    print(f"block updates: worst relative stationarity residual "
          f"{worst_resid:.3e} over 20 instances")
    assert worst_resid <= 1e-6


def test_closed_form_c_update_kills_the_finite_difference_gradient():
    rng = np.random.default_rng(13)
    step = 1e-5
    worst = 0.0
    for _ in range(10):
        A, B, _, X, Y, H, hyper = random_problem(rng)
        C = update_C(A, B, X, Y, H, hyper)
        g_fd = np.empty_like(C)
        for i in range(C.shape[0]):
            for j in range(C.shape[1]):
                Cp, Cm = C.copy(), C.copy()
                Cp[i, j] += step
                Cm[i, j] -= step
                g_fd[i, j] = (loss(A, B, Cp, X, Y, H, hyper)
                              - loss(A, B, Cm, X, Y, H, hyper)) / (2 * step)
        rel = np.linalg.norm(g_fd) / (1.0 + loss(A, B, C, X, Y, H, hyper))
        worst = max(worst, rel)
    print(f"closed-form C: worst relative FD gradient {worst:.3e} "
          f"over 10 instances")
    assert worst <= 1e-5


def test_benchmark_training_converges_monotonically(noisy_benchmark):
    dataset, _ = noisy_benchmark
    start = time.perf_counter()
    _, trace = fit(dataset, Hyperparams(k=40))
    elapsed = time.perf_counter() - start
    slack_mono = 1e-9 * (1.0 + trace.losses[1])
    slack_descent = 1e-8 * (1.0 + trace.losses[1])
    worst_rise = max(b - a for a, b in zip(trace.losses, trace.losses[1:]))
    worst_gap = -np.inf
    for t in range(1, len(trace.losses)):
        drop = trace.losses[t - 1] - trace.losses[t]
        da, db, dc = trace.delta_norms[t - 1]
        ma, mb, mc = trace.descent_constants[t - 1]
        bound = 0.5 * (ma * da**2 + mb * db**2 + mc * dc**2)
        worst_gap = max(worst_gap, bound - drop)
    print(f"benchmark fit: converged_at={trace.converged_at} "
          f"iters={trace.iterations} in {elapsed:.2f}s; worst rise "
          f"{worst_rise:.3e}, worst descent-bound gap {worst_gap:.3e}")
    assert worst_rise <= slack_mono
    assert worst_gap <= slack_descent
    assert trace.converged_at is not None and trace.converged_at <= 100
    assert elapsed < 30.0


def test_planted_model_recovery(transferable_benchmark):
    dataset, planted = transferable_benchmark
    coef = np.linalg.lstsq(dataset.visual_seen, dataset.visual_unseen,
                           rcond=None)[0]
    span_resid = (np.linalg.norm(dataset.visual_seen @ coef
                                 - dataset.visual_unseen)
                  / np.linalg.norm(dataset.visual_unseen))
    oracle = JcmsplModel(A=planted.A_true, B=planted.B_true,
                         C=planted.concept_means, variant="full",
                         hyper=Hyperparams(k=planted.A_true.shape[0]))
    oracle_acc = eval_standard(oracle, dataset, "v2s", "cosine").overall_accuracy
    model, _ = fit(dataset, Hyperparams(k=dataset.c_seen + dataset.c_unseen))
    trained_acc = eval_standard(model, dataset, "v2s", "cosine").overall_accuracy
    norm_seen, norm_unseen = (
        float(np.median(np.linalg.norm(model.B.T @ (model.A @ X), axis=0)))
        for X in (dataset.visual_seen, dataset.visual_unseen))
    print(f"planted recovery: unseen-on-seen span residual {span_resid:.3e}, "
          f"oracle v2s accuracy {oracle_acc:.4f}, trained v2s accuracy "
          f"{trained_acc:.4f}, median embedding norm unseen {norm_unseen:.3e} "
          f"vs seen {norm_seen:.3e}")
    assert span_resid <= 1e-10
    assert oracle_acc == 1.0
    assert norm_unseen >= 1e-3 * norm_seen
    assert trained_acc >= 0.90


def test_harmonic_mean_reference_rows():
    # Rows are printed at one decimal, so each accuracy and each mean is
    # known to +/- half a unit.  The harmonic mean increases in both
    # arguments, so a row holds if its printed mean lies within half a
    # unit of the harmonic means of the interval's end points.
    half = 0.05
    rows = [(67.6, 43.3, 52.8), (48.3, 56.4, 52.1), (54.2, 50.7, 52.4)]

    def hm(acc_s, acc_u):
        return 100.0 * harmonic_mean(acc_s / 100.0, acc_u / 100.0)

    results = []
    for acc_s, acc_u, expected in rows:
        low = hm(acc_s - half, acc_u - half) - half
        high = hm(acc_s + half, acc_u + half) + half
        results.append((acc_s, acc_u, expected, hm(acc_s, acc_u), low, high))
    for acc_s, acc_u, expected, exact, low, high in results:
        print(f"harmonic mean ({acc_s}, {acc_u}): got {exact:.4f}, "
              f"admissible [{low:.4f}, {high:.4f}], pinned value {expected}")
    for acc_s, acc_u, expected, exact, low, high in results:
        assert low <= expected <= high, (
            f"({acc_s}, {acc_u}) -> {exact:.4f}, admissible "
            f"[{low:.4f}, {high:.4f}], expected {expected}")


def test_variant_ablation_accuracy_ordering(noisy_benchmark):
    dataset, _ = noisy_benchmark
    k = dataset.c_seen + dataset.c_unseen
    means = {}
    for variant in ("full", "jcmspl0", "ipl"):
        accs = []
        for seed in (1, 2, 3, 4, 5):
            model, _ = fit(dataset, Hyperparams(k=k, seed=seed, variant=variant))
            accs.append(
                eval_standard(model, dataset, "v2s", "cosine").overall_accuracy)
        means[variant] = float(np.mean(accs))
    print("5-seed mean v2s accuracy: " + ", ".join(
        f"{v}={means[v]:.4f}" for v in ("full", "jcmspl0", "ipl")))
    for better in ("full", "jcmspl0"):
        margin = means[better] - means["ipl"]
        if margin < 0.01:
            warnings.warn(
                f"{better} beats ipl by only {100 * margin:.2f} accuracy "
                f"points on the synthetic benchmark", RuntimeWarning)
        assert means[better] >= means["ipl"], (
            f"{better} mean {means[better]:.4f} < ipl mean {means['ipl']:.4f}")


def _solve_times(operands, repeats=20, batches=25):
    """Per-batch mean solve time of each operand set, in this process's
    CPU time, which other processes on a shared host do not add to.

    Batches of the operand sets alternate, so a change in machine speed
    reaches the two batches of one round alike.
    """
    times = [[] for _ in operands]
    for _ in range(batches):
        for i, (M, N, T) in enumerate(operands):
            start = time.process_time()
            for _ in range(repeats):
                sylvester_solve(M, N, T)
            times[i].append((time.process_time() - start) / repeats)
    return times


def test_update_cost_does_not_grow_with_sample_count(noisy_benchmark):
    small, _ = noisy_benchmark
    big, _ = synth_generate(SynthSpec(samples_per_class=100))
    assert (small.n_seen, big.n_seen) == (500, 1000)
    k = 40
    rng = np.random.default_rng(0)
    operands = []
    for dataset in (small, big):
        C = 0.01 * rng.standard_normal((k, dataset.n_seen))
        M, N, T = a_update_operands(C, dataset.visual_seen, 1.0)
        assert M.shape == (k, k)
        assert N.shape == (dataset.m, dataset.m)
        assert T.shape == (k, dataset.m)
        Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
        Mb, Nb, Tb = b_update_operands(C, Y, 1.0, 1.0)
        assert Mb.shape == (k, k)
        assert Nb.shape == (dataset.d, dataset.d)
        assert Tb.shape == (k, dataset.d)
        operands.append((M, N, T))
    small_times, big_times = _solve_times(operands)
    # the median over rounds of the within-round ratio: a round slowed as
    # a whole cancels, and a few batches slowed alone barely move it
    ratio = statistics.median(b / a for a, b in zip(small_times, big_times))
    change = abs(ratio - 1.0)
    print(f"sylvester solve: {statistics.median(small_times) * 1e6:.1f}us at n_s=500, "
          f"{statistics.median(big_times) * 1e6:.1f}us at n_s=1000 "
          f"({100 * change:.1f}% change in the median ratio)")
    assert change < 0.20


def test_train_then_eval_is_reproducible(tmp_path):
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["synth", "--out", str(data)]) == 0
    train_argv = ["train", "--manifest", str(data / "manifest.json"),
                  "--out", str(run), "--k", "15"]
    eval_argv = ["eval", "--model", str(run / "model.bin"),
                 "--manifest", str(data / "manifest.json"),
                 "--out", str(run)]
    outputs = []
    for _ in range(2):
        assert main(train_argv) == 0
        assert main(eval_argv) == 0
        outputs.append({name: (run / name).read_bytes()
                        for name in ("model.bin", "trace.csv",
                                     "summary.json", "report.json")})
    identical = {name: outputs[0][name] == outputs[1][name]
                 for name in outputs[0]}
    print("reproducibility: " + ", ".join(
        f"{name} identical={flag}" for name, flag in identical.items()))
    assert all(identical.values())
    report = json.loads(outputs[0]["report.json"])
    assert 0.0 <= report["report"]["overall_accuracy"] <= 1.0


def test_package_exports_every_public_name():
    # what the package imports is what ``from jcmspl import *`` gives,
    # the README quick start's ``synth_generate`` included
    public = {name for name, value in vars(jcmspl).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    print(f"exports: {len(jcmspl.__all__)} names")
    assert sorted(jcmspl.__all__) == sorted(public | {"__version__"})


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracer.py rebinds each (module, attribute) of WRAPPED in a
    # traced run; a name that the package drops breaks only that run.  The
    # tracer imports only the standard library, so it loads by path here
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    print(f"tracer wraps {len(tracer.WRAPPED)} names")
    assert tracer.WRAPPED and not missing, missing

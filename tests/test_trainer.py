import csv
import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from jcmspl.cli import PRESETS
from jcmspl.dataset import (
    SynthSpec,
    ZslDataset,
    block_partition,
    expand_prototypes,
    synth_generate,
)
from jcmspl.errors import (
    InvalidHyperparamsError,
    NonFiniteError,
    NonUniqueError,
    ShapeMismatchError,
    SingularError,
    TooFewRowsError,
    UnknownClassIdError,
)
from jcmspl.linalg import sylvester_unique_check
from jcmspl.trainer import (
    CHUNK,
    Hyperparams,
    RidgeWarning,
    a_update_operands,
    b_update_operands,
    build_class_matrix,
    descent_constants,
    fit,
    fpl_fit,
    loss,
    loss_gradients,
    update_A,
    update_B,
    update_C,
    write_trace_csv,
)


def random_instance(rng, k=4, m=5, d=3, n=6):
    A = rng.standard_normal((k, m))
    B = rng.standard_normal((k, d))
    C = rng.standard_normal((k, n))
    X = rng.standard_normal((m, n))
    Y = rng.standard_normal((d, n))
    labels = rng.integers(0, 2, size=n)
    H = build_class_matrix(labels, k, [0, 1]).H
    hyper = Hyperparams(
        k=k,
        lambda1=float(rng.uniform(0.1, 2.0)),
        lambda2=float(rng.uniform(0.1, 2.0)),
        lambda3=float(rng.uniform(0.1, 2.0)),
        lambda4=float(rng.uniform(0.1, 2.0)),
    )
    return A, B, C, X, Y, H, hyper


def fd_gradient(f, M, h=1e-5):
    g = np.zeros_like(M)
    for idx in np.ndindex(M.shape):
        up = M.copy()
        up[idx] += h
        down = M.copy()
        down[idx] -= h
        g[idx] = (f(up) - f(down)) / (2.0 * h)
    return g


def test_hyperparams_validation():
    with pytest.raises(InvalidHyperparamsError):
        Hyperparams(k=0)
    with pytest.raises(InvalidHyperparamsError):
        Hyperparams(k=3, variant="bogus")
    with pytest.raises(InvalidHyperparamsError):
        Hyperparams(k=3, lambda2=-1.0)
    with pytest.raises(InvalidHyperparamsError):
        Hyperparams(k=3, tol=0.0)
    with pytest.raises(InvalidHyperparamsError):
        Hyperparams(k=3, t_max=0)


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("seed", 2**63), ("k", 2**63), ("t_max", 10**20),
    ("t_max", 2.5), ("seed", 1.5), ("k", True), ("t_max", True),
])
def test_hyperparams_reject_values_outside_the_archive_range(field, value):
    # seed, k and t_max are written to the archive as signed 64-bit ints,
    # so a float or a bool is refused as well
    with pytest.raises(InvalidHyperparamsError, match=field):
        Hyperparams(**{"k": 3, field: value})
    Hyperparams(**{"k": 3, field: 2**63 - 1})


@pytest.mark.parametrize("field", ["lambda1", "lambda2", "lambda3", "lambda4", "tol", "ridge_eps"])
@pytest.mark.parametrize(
    "value", ["1e-5", None, True, 1j, pytest.param(10**400, id="10**400")]
)
def test_hyperparams_reject_float_settings_that_are_no_real_number(field, value):
    # the archive stores them as float64; a bool is no number either
    with pytest.raises(InvalidHyperparamsError, match=field):
        Hyperparams(**{"k": 3, field: value})
    for accepted in (2, np.float32(0.5), np.int64(3)):
        assert getattr(Hyperparams(**{"k": 3, field: accepted}), field) == accepted


def test_variant_forcing():
    base = Hyperparams(k=3, lambda1=2.0, lambda2=3.0, lambda3=4.0, lambda4=5.0)
    eff = Hyperparams(**{**base.__dict__, "variant": "jcmspl1"}).effective()
    assert (eff.lambda1, eff.lambda2, eff.lambda3, eff.lambda4) == (2.0, 0.0, 4.0, 5.0)
    eff = Hyperparams(**{**base.__dict__, "variant": "jcmspl0"}).effective()
    assert (eff.lambda1, eff.lambda2, eff.lambda3, eff.lambda4) == (2.0, 3.0, 0.0, 0.0)
    eff = Hyperparams(**{**base.__dict__, "variant": "ipl"}).effective()
    assert (eff.lambda1, eff.lambda2, eff.lambda3, eff.lambda4) == (2.0, 0.0, 0.0, 0.0)


def test_build_class_matrix_even_blocks():
    out = build_class_matrix([0, 0, 1], 4, [0, 1])
    expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=float)
    assert np.array_equal(out.H, expected)
    assert out.block_rows == {0: (0, 2), 1: (2, 4)}


def test_build_class_matrix_remainder_to_earliest():
    out = build_class_matrix([0, 1], 3, [0, 1])
    assert np.array_equal(out.H, np.array([[1, 0], [1, 0], [0, 1]], dtype=float))
    assert out.block_rows == {0: (0, 2), 1: (2, 3)}


def test_build_class_matrix_errors():
    with pytest.raises(TooFewRowsError):
        build_class_matrix([0, 1, 2], 2, [0, 1, 2])
    with pytest.raises(UnknownClassIdError):
        build_class_matrix([0, 7], 4, [0, 1])


def class_matrix_by_loop(labels, k, classes):
    """Reference: H built one sample at a time from the block table."""
    block_rows = dict(zip(classes, block_partition(k, len(classes))))
    H = np.zeros((k, len(labels)))
    for i, label in enumerate(labels):
        start, stop = block_rows[label]
        H[start:stop, i] = 1.0
    return H


def test_build_class_matrix_matches_a_per_sample_loop():
    # repeated class ids included: the last repeat owns the label
    rng = np.random.default_rng(18)
    for _ in range(50):
        classes = rng.integers(-5, 20, size=int(rng.integers(1, 8))).tolist()
        k = len(classes) + int(rng.integers(0, 6))
        labels = rng.choice(classes, size=int(rng.integers(0, 30))).tolist()
        out = build_class_matrix(labels, k, classes)
        assert np.array_equal(out.H, class_matrix_by_loop(labels, k, classes))
    with pytest.raises(UnknownClassIdError, match="label 9 is"):
        build_class_matrix([0, 9, 8], 4, [0, 1])


def test_class_matrix_column_structure():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, size=11)
    out = build_class_matrix(labels, 8, [0, 1, 2])
    sizes = {c: stop - start for c, (start, stop) in out.block_rows.items()}
    assert sizes == {0: 3, 1: 3, 2: 2}
    for i, label in enumerate(labels):
        start, stop = out.block_rows[int(label)]
        col = out.H[:, i]
        assert col.sum() == stop - start
        assert np.all(col[start:stop] == 1.0)


def scalar(v):
    return np.array([[float(v)]])


def test_loss_zero_maps():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 6))
    Y = rng.standard_normal((3, 6))
    hyper = Hyperparams(k=2, lambda1=0.7, lambda2=0.3, lambda3=1.4, lambda4=0.9)
    Z = np.zeros
    value = loss(Z((2, 4)), Z((2, 3)), Z((2, 6)), X, Y, Z((2, 6)), hyper)
    expected = 0.5 * 1.4 * np.sum(X * X) + 0.5 * 0.9 * np.sum(Y * Y)
    assert abs(value - expected) <= 1e-12 * (1.0 + expected)


def test_loss_scalar_case():
    hyper = Hyperparams(k=1)
    value = loss(scalar(1), scalar(1), scalar(2), scalar(2), scalar(3), scalar(1), hyper)
    assert abs(value - 1.5) <= 1e-14


def test_loss_term_decomposition():
    rng = np.random.default_rng(8)
    A, B, C, X, Y, H, hyper = random_instance(rng)
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    terms = [
        0.5 * np.linalg.norm(A @ X - C) ** 2,
        0.5 * l1 * np.linalg.norm(B @ Y - C) ** 2,
        0.5 * l2 * np.linalg.norm(C - H) ** 2,
        0.5 * l3 * np.linalg.norm(X - A.T @ C) ** 2,
        0.5 * l4 * np.linalg.norm(Y - B.T @ C) ** 2,
    ]
    assert abs(loss(A, B, C, X, Y, H, hyper) - sum(terms)) <= 1e-9


def test_update_A_identity_design():
    rng = np.random.default_rng(2)
    C = rng.standard_normal((3, 4))
    assert np.allclose(update_A(C, np.eye(4), 0.0), C, atol=1e-10)


def test_update_A_scalar():
    assert np.allclose(update_A(scalar(2), scalar(1), 1.0), [[0.8]], atol=1e-12)


def test_update_B_identity_design():
    rng = np.random.default_rng(3)
    C = rng.standard_normal((3, 4))
    assert np.allclose(update_B(C, np.eye(4), 1.0, 0.0), C, atol=1e-10)


def test_update_B_scalar():
    assert np.allclose(update_B(scalar(2), scalar(1), 1.0, 1.0), [[0.8]], atol=1e-12)


def test_update_C_reduces_to_projection_when_unweighted():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 5))
    B = rng.standard_normal((3, 2))
    X = rng.standard_normal((5, 7))
    Y = rng.standard_normal((2, 7))
    hyper = Hyperparams(k=3, lambda1=0.0, lambda2=0.0, lambda3=0.0, lambda4=0.0)
    assert np.allclose(update_C(A, B, X, Y, None, hyper), A @ X, atol=1e-10)


def test_update_C_scalar():
    hyper = Hyperparams(k=1)
    out = update_C(scalar(1), scalar(1), scalar(2), scalar(3), scalar(1), hyper)
    assert np.allclose(out, [[2.2]], atol=1e-12)


def test_update_C_rejects_operands_that_do_not_fit():
    rng = np.random.default_rng(12)
    A, B, _, X, Y, H, hyper = random_instance(rng)
    # a k x 1 H would broadcast into every column of the right-hand side
    with pytest.raises(ShapeMismatchError):
        update_C(A, B, X, Y, H[:, :1], hyper)
    with pytest.raises(ShapeMismatchError):
        update_C(A, B, X[:-1], Y, H, hyper)
    with pytest.raises(ShapeMismatchError):
        update_C(A, B, X, Y[:, :-1], H, hyper)
    with pytest.raises(ShapeMismatchError):
        update_C(A, B[:-1], X, Y, H, hyper)
    with pytest.raises(ShapeMismatchError):
        update_C(A, B, X, Y, None, hyper)
    # lambda2 = 0 reads no H
    C = update_C(A, B, X, Y, None, dataclasses.replace(hyper, lambda2=0.0))
    assert C.shape == (4, 6)


C_STEP_LAMBDAS = {"unit": {}, **PRESETS}


@pytest.mark.parametrize("n", [7, 3 * CHUNK + 5])
@pytest.mark.parametrize("lambdas", sorted(C_STEP_LAMBDAS))
def test_update_C_solves_its_system_to_working_precision(lambdas, n):
    # one block, and three whole blocks plus a short one, each solved on
    # its own; the presets reach lambda3 = 1e7
    rng = np.random.default_rng(13)
    k, m, d = 6, 9, 4
    A = rng.standard_normal((k, m))
    B = rng.standard_normal((k, d))
    X = rng.standard_normal((m, n))
    Y = rng.standard_normal((d, n))
    H = build_class_matrix(rng.integers(0, 3, size=n), k, [0, 1, 2]).H
    hyper = Hyperparams(k=k, **C_STEP_LAMBDAS[lambdas])
    l1, l2, l3, l4 = hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.lambda4
    C = update_C(A, B, X, Y, H, hyper)
    assert C.flags.c_contiguous
    K = (1.0 + l1 + l2) * np.eye(k) + l3 * (A @ A.T) + l4 * (B @ B.T)
    R = l2 * H + (1.0 + l3) * (A @ X) + (l1 + l4) * (B @ Y)
    residual = np.linalg.norm(K @ C - R)
    assert residual <= 1e-13 * (np.linalg.norm(K, 2) * np.linalg.norm(C) + np.linalg.norm(R))


def test_update_stationarity_residuals():
    rng = np.random.default_rng(6)
    for _ in range(20):
        A, B, C, X, Y, H, hyper = random_instance(rng)
        A_new = update_A(C, X, hyper.lambda3)
        M, N, T = a_update_operands(C, X, hyper.lambda3)
        resid = np.linalg.norm(M @ A_new + A_new @ N - T)
        scale = (np.linalg.norm(T) + np.linalg.norm(M) * np.linalg.norm(A_new)
                 + np.linalg.norm(A_new) * np.linalg.norm(N))
        assert resid <= 1e-8 * scale

        B_new = update_B(C, Y, hyper.lambda1, hyper.lambda4)
        M, N, T = b_update_operands(C, Y, hyper.lambda1, hyper.lambda4)
        resid = np.linalg.norm(M @ B_new + B_new @ N - T)
        scale = (np.linalg.norm(T) + np.linalg.norm(M) * np.linalg.norm(B_new)
                 + np.linalg.norm(B_new) * np.linalg.norm(N))
        assert resid <= 1e-8 * scale


def test_block_updates_never_increase_loss():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A, B, C, X, Y, H, hyper = random_instance(rng)
        before = loss(A, B, C, X, Y, H, hyper)
        A_new = update_A(C, X, hyper.lambda3)
        after_a = loss(A_new, B, C, X, Y, H, hyper)
        assert after_a <= before + 1e-10 * (1.0 + before)
        B_new = update_B(C, Y, hyper.lambda1, hyper.lambda4)
        after_b = loss(A_new, B_new, C, X, Y, H, hyper)
        assert after_b <= after_a + 1e-10 * (1.0 + after_a)
        C_new = update_C(A_new, B_new, X, Y, H, hyper)
        after_c = loss(A_new, B_new, C_new, X, Y, H, hyper)
        assert after_c <= after_b + 1e-10 * (1.0 + after_b)


def test_update_C_is_stationary_by_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(10):
        A, B, C0, X, Y, H, hyper = random_instance(rng)
        C_new = update_C(A, B, X, Y, H, hyper)
        g = fd_gradient(lambda Cv: loss(A, B, Cv, X, Y, H, hyper), C_new)
        assert np.linalg.norm(g) <= 1e-6 * (1.0 + np.linalg.norm(C_new))


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(5):
        A, B, C, X, Y, H, hyper = random_instance(rng, k=3, m=4, d=3, n=5)
        gA, gB, gC = loss_gradients(A, B, C, X, Y, H, hyper)
        fdA = fd_gradient(lambda V: loss(V, B, C, X, Y, H, hyper), A)
        fdB = fd_gradient(lambda V: loss(A, V, C, X, Y, H, hyper), B)
        fdC = fd_gradient(lambda V: loss(A, B, V, X, Y, H, hyper), C)
        assert np.linalg.norm(gA - fdA) <= 1e-5 * (1.0 + np.linalg.norm(gA))
        assert np.linalg.norm(gB - fdB) <= 1e-5 * (1.0 + np.linalg.norm(gB))
        assert np.linalg.norm(gC - fdC) <= 1e-5 * (1.0 + np.linalg.norm(gC))


def test_update_ridge_fallback():
    # lambda3 = 0 kills the left Gram; a wide X kills the right one
    rng = np.random.default_rng(11)
    C = rng.standard_normal((3, 2))
    X = rng.standard_normal((5, 2))
    with pytest.raises(NonUniqueError):
        update_A(C, X, 0.0, ridge_eps=0.0)
    with pytest.warns(RidgeWarning):
        A = update_A(C, X, 0.0, ridge_eps=1e-8)
    assert np.all(np.isfinite(A))


@pytest.mark.parametrize("block", ["A", "B"])
def test_ridge_solve_satisfies_the_shifted_equation(block):
    # default synth: X X^T has rank 40 < m = 50 and Y Y^T rank 10 < d = 20,
    # and lambda3 = lambda4 = 0 zeroes the left Gram, so both pairs are
    # singular and the solve must take the ridge
    dataset, _ = synth_generate(SynthSpec())
    C = np.random.default_rng(5).standard_normal((40, dataset.n_seen))
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
    with pytest.warns(RidgeWarning, match=f"{block}-update Gram pair is singular") as caught:
        if block == "A":
            M, N, T = a_update_operands(C, dataset.visual_seen, 0.0)
            Z = update_A(C, dataset.visual_seen, 0.0, ridge_eps=1e-8)
        else:
            M, N, T = b_update_operands(C, Y, 1.0, 0.0)
            Z = update_B(C, Y, 1.0, 0.0, ridge_eps=1e-8)
    assert caught[0].filename == __file__  # reported at the caller
    assert not sylvester_unique_check(M, N)
    eps = 1e-8 * (np.trace(M) + np.trace(N)) / (M.shape[0] + N.shape[0])
    M_r = M + 0.5 * eps * np.eye(M.shape[0])
    N_r = N + 0.5 * eps * np.eye(N.shape[0])
    residual = np.linalg.norm(M_r @ Z + Z @ N_r - T)
    scale = (np.linalg.norm(M_r, 2) + np.linalg.norm(N_r, 2)) * np.linalg.norm(Z) \
        + np.linalg.norm(T)
    print(f"{block}: eps={eps:.3e}, backward error {residual / scale:.1e}")
    assert residual <= 1e-10 * scale


@pytest.mark.parametrize("variant", ["jcmspl0", "ipl"])
def test_ridge_fit_records_its_events_without_issuing_warnings(variant):
    dataset, _ = synth_generate(SynthSpec())
    hyper = Hyperparams(k=40, variant=variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = fit(dataset, hyper)
    *_, iterations, ridge = direct_fit(dataset, hyper)
    print(f"{variant}: {len(trace.warnings)} ridge events in {trace.iterations} iterations")
    assert trace.iterations == iterations
    assert trace.warnings == ridge
    assert len(ridge) == 2 * iterations  # both blocks, every iteration
    for t, (a, b) in enumerate(zip(ridge[::2], ridge[1::2]), start=1):
        assert re.fullmatch(rf"iteration {t}: A-update Gram pair is singular; "
                            r"applying ridge eps=\d\.\d{3}e[-+]\d\d", a)
        assert b.startswith(f"iteration {t}: B-update Gram pair is singular; ")


@pytest.mark.parametrize("variant", ["full", "jcmspl0"])
def test_fit_decomposes_each_gram_once(monkeypatch, variant):
    # eigh of X X^T and lambda1 Y Y^T once, and of C C^T, whose scalings
    # are the left Grams of both blocks, once per iteration; the ridge
    # (every jcmspl0 iteration) shifts the eigenvalues it already has and
    # decomposes nothing.  The factor's Gram takes one pivoted Cholesky
    # (dpstrf) per fit and no eigh.
    from jcmspl import trainer

    calls, factorizations = [], []
    eigh, dpstrf = np.linalg.eigh, trainer.dpstrf

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def counting_dpstrf(a, *args, **kwargs):
        factorizations.append(a.shape)
        return dpstrf(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(trainer, "dpstrf", counting_dpstrf)
    dataset, _ = synth_generate(SynthSpec())
    _, trace = fit(dataset, Hyperparams(k=40, variant=variant))
    assert bool(trace.warnings) == (variant == "jcmspl0")
    assert len(calls) == 2 + trace.iterations
    assert len(factorizations) == 1


@pytest.mark.parametrize("variant", ["full", "jcmspl1"])
def test_factored_fit_forms_no_n_wide_prototypes(monkeypatch, variant):
    # the Gram takes Y and H from per-class sums and the final pass
    # gathers them one column block at a time
    from jcmspl import trainer

    dataset, _ = synth_generate(
        SynthSpec(m=16, d=8, k=12, num_seen_classes=5, num_unseen_classes=2,
                  samples_per_class=500, seed=3)
    )
    assert dataset.n_seen > 2 * CHUNK
    widths, original = [], trainer.expand_prototypes

    def recording(prototypes, labels):
        widths.append(len(labels))
        return original(prototypes, labels)

    monkeypatch.setattr(trainer, "expand_prototypes", recording)
    fit(dataset, Hyperparams(k=12, variant=variant, t_max=3))
    assert widths and max(widths) <= CHUNK
    assert sum(widths) == dataset.n_seen


def test_fpl_examples():
    rng = np.random.default_rng(12)
    Y = rng.standard_normal((3, 4))
    assert np.allclose(fpl_fit(np.eye(4), Y), Y, atol=1e-10)
    assert np.allclose(fpl_fit(scalar(2), scalar(6)), [[3.0]], atol=1e-12)


def test_fpl_normal_equations():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((5, 20))
    Y = rng.standard_normal((3, 20))
    A = fpl_fit(X, Y)
    resid = np.linalg.norm((A @ X - Y) @ X.T)
    assert resid <= 1e-8 * np.linalg.norm(Y @ X.T)


def test_fpl_singular_gram():
    X = np.array([[1.0, 1.0], [1.0, 1.0]])
    Y = np.array([[1.0, 1.0]])
    with pytest.raises(SingularError):
        fpl_fit(X, Y, ridge_eps=0.0)
    A = fpl_fit(X, Y, ridge_eps=1e-8)
    assert np.all(np.isfinite(A))


def test_descent_constants_examples():
    hyper = Hyperparams(k=2, lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=1.0)
    # C = 0 and orthonormal-column X give an identity A-Hessian
    X = np.eye(3)
    C = np.zeros((2, 3))
    Y = np.zeros((2, 3))
    A = np.zeros((2, 3))
    B = np.zeros((2, 2))
    m_a, _, _ = descent_constants(A, B, C, X, Y, hyper)
    assert abs(m_a - 1.0) <= 1e-12

    zero = Hyperparams(k=2, lambda1=0.0, lambda2=0.0, lambda3=0.0, lambda4=0.0)
    rng = np.random.default_rng(14)
    _, _, m_c = descent_constants(
        rng.standard_normal((2, 3)), rng.standard_normal((2, 2)), C, X, Y, zero
    )
    assert abs(m_c - 1.0) <= 1e-12

    hyper1 = Hyperparams(k=1, lambda3=1.0)
    m_a, _, _ = descent_constants(
        scalar(0), scalar(0), scalar(2), scalar(1), scalar(0), hyper1
    )
    assert abs(m_a - 5.0) <= 1e-12


def hessian_min_eigenvalue(left, right):
    # smallest eigenvalue of the operator Z -> left Z + Z right, built as
    # a dense Kronecker matrix
    r, s = left.shape[0], right.shape[0]
    K = np.kron(np.eye(s), left) + np.kron(right.T, np.eye(r))
    return np.linalg.eigvalsh(K)[0]


def test_descent_constants_are_block_hessian_moduli():
    # more samples than stacked rows, where each block Hessian still has
    # a positive smallest eigenvalue
    rng = np.random.default_rng(15)
    hyper = Hyperparams(k=2, lambda1=0.7, lambda3=1.3, lambda4=0.4)
    C = rng.standard_normal((2, 9))
    X = rng.standard_normal((3, 9))
    Y = rng.standard_normal((2, 9))
    m_a, m_b, m_c = descent_constants(
        rng.standard_normal((2, 3)), rng.standard_normal((2, 2)), C, X, Y, hyper
    )
    expected_a = hessian_min_eigenvalue(hyper.lambda3 * C @ C.T, X @ X.T)
    expected_b = hessian_min_eigenvalue(hyper.lambda4 * C @ C.T,
                                        hyper.lambda1 * Y @ Y.T)
    assert expected_a > 0.1 and expected_b > 0.1
    assert abs(m_a - expected_a) <= 1e-10 * expected_a
    assert abs(m_b - expected_b) <= 1e-10 * expected_b
    assert m_c >= 1.0


def small_benchmark(noise=0.0, seed=1):
    return synth_generate(
        SynthSpec(m=16, d=8, k=12, num_seen_classes=4, num_unseen_classes=2,
                  samples_per_class=8, noise_sigma=noise, seed=seed)
    )


def test_fit_converges_monotonically_on_planted_data():
    dataset, _ = small_benchmark()
    hyper = Hyperparams(k=6, seed=0)
    model, trace = fit(dataset, hyper)
    assert trace.converged_at is not None and trace.converged_at <= 100
    slack = 1e-9 * (1.0 + trace.losses[1])
    diffs = np.diff(trace.losses)
    assert np.all(diffs <= slack)
    assert model.A.shape == (6, 16)
    assert model.B.shape == (6, 8)
    assert model.C.shape == (6, dataset.n_seen)


def test_fit_descent_inequality_from_trace():
    dataset, _ = small_benchmark(noise=0.05)
    hyper = Hyperparams(k=6, seed=3)
    _, trace = fit(dataset, hyper)
    slack = 1e-8 * (1.0 + trace.losses[1])
    for t in range(1, len(trace.losses)):
        dA, dB, dC = trace.delta_norms[t - 1]
        mA, mB, mC = trace.descent_constants[t - 1]
        bound = -0.5 * (mA * dA**2 + mB * dB**2 + mC * dC**2) + slack
        assert trace.losses[t] - trace.losses[t - 1] <= bound


def test_fit_is_deterministic():
    dataset, _ = small_benchmark(noise=0.02)
    hyper = Hyperparams(k=5, seed=11)
    model1, trace1 = fit(dataset, hyper)
    model2, trace2 = fit(dataset, hyper)
    assert np.array_equal(model1.A, model2.A)
    assert np.array_equal(model1.B, model2.B)
    assert np.array_equal(model1.C, model2.C)
    assert trace1.losses == trace2.losses


def test_ipl_equals_full_with_zeroed_lambdas():
    dataset, _ = small_benchmark(noise=0.05)
    ipl = Hyperparams(k=5, variant="ipl", seed=2)
    full = Hyperparams(k=5, variant="full", lambda2=0.0, lambda3=0.0, lambda4=0.0, seed=2)
    model_ipl, trace_ipl = fit(dataset, ipl)
    model_full, trace_full = fit(dataset, full)
    assert np.array_equal(model_ipl.A, model_full.A)
    assert np.array_equal(model_ipl.B, model_full.B)
    assert np.array_equal(model_ipl.C, model_full.C)
    assert trace_ipl.losses == trace_full.losses


def test_fit_stationarity_at_convergence():
    dataset, _ = small_benchmark()
    # block-gradient norms at the stop point scale like sqrt(tol), so the
    # 1e-4-stationarity bound needs a tight stopping tolerance
    hyper = Hyperparams(k=6, seed=0, tol=1e-9, t_max=500)
    model, trace = fit(dataset, hyper)
    assert trace.converged_at is not None
    from jcmspl.dataset import expand_prototypes

    X = dataset.visual_seen
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
    H = build_class_matrix(dataset.labels_seen, hyper.k, dataset.seen_classes).H
    f_final = trace.losses[-1]
    gA = fd_gradient(lambda V: loss(V, model.B, model.C, X, Y, H, hyper), model.A)
    gB = fd_gradient(lambda V: loss(model.A, V, model.C, X, Y, H, hyper), model.B)
    gC = fd_gradient(lambda V: loss(model.A, model.B, V, X, Y, H, hyper), model.C)
    bound = 1e-4 * (1.0 + f_final)
    assert np.linalg.norm(gA) <= bound
    assert np.linalg.norm(gB) <= bound
    assert np.linalg.norm(gC) <= bound


def test_fit_ipl_records_ridge_warnings_on_rank_deficient_features():
    # synthetic features live in a k-dimensional subspace of a larger m,
    # so with lambda3 = 0 the A-step Gram pair is singular
    dataset, _ = small_benchmark(noise=0.05)
    hyper = Hyperparams(k=5, variant="ipl", seed=2)
    _, trace = fit(dataset, hyper)
    assert trace.warnings
    assert "ridge" in trace.warnings[0]


def test_fit_fpl_shape_and_trace():
    dataset, _ = small_benchmark(noise=0.05)
    model, trace = fit(dataset, Hyperparams(k=1, variant="fpl"))
    assert model.A.shape == (dataset.d, dataset.m)
    assert model.B is None and model.C is None
    assert len(trace.losses) == 1 and trace.converged_at == 0


def test_gram_shapes_do_not_depend_on_sample_count():
    rng = np.random.default_rng(16)
    k, m = 3, 4
    for n in (50, 100):
        C = rng.standard_normal((k, n))
        X = rng.standard_normal((m, n))
        M, N, T = a_update_operands(C, X, 0.5)
        assert M.shape == (k, k) and N.shape == (m, m) and T.shape == (k, m)


def test_trace_csv_round_trip(tmp_path):
    dataset, _ = small_benchmark(noise=0.05)
    _, trace = fit(dataset, Hyperparams(k=5, seed=1, t_max=7))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "loss", "dA", "dB", "dC", "mA", "mB", "mC"]
    assert len(rows) == len(trace.losses) + 1
    assert float(rows[1][1]) == trace.losses[0]
    assert float(rows[-1][1]) == trace.losses[-1]


def direct_fit(dataset, hyper):
    """Reference loop: every iteration on the n-wide data, as ``fit`` ran
    before it switched to the Gram factor.  Returns (A, B, C, losses,
    iterations, ridge_warned), where ridge_warned lists the RidgeWarnings
    of the block updates in the ``trace.warnings`` format of ``fit``."""
    X = dataset.visual_seen
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
    eff = hyper.effective()
    H = None
    if hyper.variant in ("full", "jcmspl0"):
        H = build_class_matrix(dataset.labels_seen, hyper.k, dataset.seen_classes).H
    rng = np.random.default_rng(hyper.seed)
    A = 0.01 * rng.standard_normal((hyper.k, dataset.m))
    B = 0.01 * rng.standard_normal((hyper.k, dataset.d))
    C = 0.01 * rng.standard_normal((hyper.k, dataset.n_seen))
    f_prev = loss(A, B, C, X, Y, H, eff)
    losses = [f_prev]
    ridge_warned = []
    for t in range(1, hyper.t_max + 1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            A = update_A(C, X, eff.lambda3, eff.ridge_eps)
            B = update_B(C, Y, eff.lambda1, eff.lambda4, eff.ridge_eps)
        ridge_warned += [f"iteration {t}: {w.message}" for w in caught]
        C = update_C(A, B, X, Y, H, eff)
        f_t = loss(A, B, C, X, Y, H, eff)
        losses.append(f_t)
        if abs(f_t - f_prev) / (1.0 + f_prev) < hyper.tol:
            break
        f_prev = f_t
    return A, B, C, losses, len(losses) - 1, ridge_warned


LOOP_VARIANTS = ("full", "jcmspl1", "jcmspl0", "ipl")


def bit_identity_cases():
    # unit lambda, and the random set of the floor test below, where
    # lambda3 != lambda4 scale the one eigendecomposition of C C^T apart
    for lambdas in ("unit", "random"):
        for variant in LOOP_VARIANTS:
            for noise in (0.05, 0.0):
                suffix = "" if lambdas == "unit" else f"-{lambdas}"
                yield pytest.param(variant, noise, lambdas, id=f"{variant}-{noise}{suffix}")


@pytest.mark.parametrize("variant,noise,lambdas", bit_identity_cases())
def test_fit_is_bit_identical_to_direct_loop_when_n_at_most_p(variant, noise, lambdas):
    # n = 20 samples against the 29 rows of [X; Y; C0] (34 with H):
    # nothing to compress
    dataset, _ = synth_generate(
        SynthSpec(m=16, d=8, k=12, num_seen_classes=4, num_unseen_classes=2,
                  samples_per_class=5, noise_sigma=noise, seed=1)
    )
    hyper = Hyperparams(k=5, seed=2, variant=variant, **NON_UNIT_LAMBDAS.get(lambdas, {}))
    model, trace = fit(dataset, hyper)
    A, B, C, losses, _, _ = direct_fit(dataset, hyper)
    assert np.array_equal(model.A, A)
    assert np.array_equal(model.B, B)
    assert np.array_equal(model.C, C)
    assert trace.losses == losses


@pytest.mark.parametrize("noise", [0.05, 0.0])
@pytest.mark.parametrize("variant", LOOP_VARIANTS)
def test_fit_on_gram_factor_agrees_with_direct_loop(variant, noise):
    # default synth: n = 500 against the 150 rows of [X; Y; H; C0] (110
    # without H)
    dataset, _ = synth_generate(SynthSpec(noise_sigma=noise))
    hyper = Hyperparams(k=40, variant=variant)
    model, trace = fit(dataset, hyper)
    A, B, C, losses, iterations, ridge_warned = direct_fit(dataset, hyper)
    assert trace.iterations == iterations
    for f, f_ref in zip(trace.losses, losses):
        assert abs(f - f_ref) <= 1e-12 * (1.0 + f_ref)
    assert trace.losses[-1] == loss(
        model.A, model.B, model.C, dataset.visual_seen,
        expand_prototypes(dataset.prototypes, dataset.labels_seen),
        build_class_matrix(dataset.labels_seen, hyper.k, dataset.seen_classes).H,
        hyper.effective(),
    )
    # ridge and noiseless runs are too ill-conditioned in A and B for a
    # roundoff-level bound: there a 1-ulp change to X moves the direct
    # loop's A by about 3e-6
    if not ridge_warned and noise > 0:
        assert np.linalg.norm(model.A - A) <= 1e-10 * np.linalg.norm(A)
        assert np.linalg.norm(model.B - B) <= 1e-10 * np.linalg.norm(B)


@pytest.mark.parametrize("variant", ["full", "jcmspl1"])
def test_fit_keeps_a_small_independent_feature_direction(variant):
    # The synth's feature rows are dependent (rank k < m), so scaling one
    # down adds no direction.  An independent 1e-5 component in one row
    # does: its Gram pivot, 1e-10 (full) and 6e-10 (jcmspl1) of the
    # largest diagonal entry, lies above the factor's cut of p eps (2e-14
    # here).  A cut at 1e-9 drops it, and the loss gap (~1e-10) and the
    # A gap (~1e-8) then miss the bounds of the test above.
    dataset, _ = synth_generate(SynthSpec(noise_sigma=0.05))
    X = dataset.visual_seen.copy()
    X[0] += 1e-5 * np.random.default_rng(7).standard_normal(dataset.n_seen)
    dataset = dataclasses.replace(dataset, visual_seen=X)
    hyper = Hyperparams(k=40, variant=variant)
    model, trace = fit(dataset, hyper)
    A, B, _, losses, iterations, ridge_warned = direct_fit(dataset, hyper)
    assert not ridge_warned
    assert trace.iterations == iterations
    for f, f_ref in zip(trace.losses, losses):
        assert abs(f - f_ref) <= 1e-12 * (1.0 + f_ref)
    assert np.linalg.norm(model.A - A) <= 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(model.B - B) <= 1e-10 * np.linalg.norm(B)


def with_ulp_noise(dataset, seed):
    """``dataset`` with every visual feature and prototype entry moved by
    one ulp up or down, the direction drawn from ``seed``."""
    rng = np.random.default_rng(seed)

    def nudge(M):
        up = rng.integers(0, 2, size=M.shape).astype(bool)
        return np.where(up, np.nextafter(M, np.inf), np.nextafter(M, -np.inf))

    return dataclasses.replace(dataset, visual_seen=nudge(dataset.visual_seen),
                               prototypes=nudge(dataset.prototypes))


def fit_distances(losses, A, B, ref):
    """Worst trace-loss gap over ``1 + f`` and the relative A and B gaps
    of a run (losses, A, B) from the ``direct_fit`` result ``ref``."""
    A_ref, B_ref, _, losses_ref, _, _ = ref
    return (
        max(abs(f - f_ref) / (1.0 + f_ref) for f, f_ref in zip(losses, losses_ref)),
        np.linalg.norm(A - A_ref) / np.linalg.norm(A_ref),
        np.linalg.norm(B - B_ref) / np.linalg.norm(B_ref),
    )


NON_UNIT_LAMBDAS = {
    **PRESETS,
    "random": {"lambda1": 0.7, "lambda2": 2.3, "lambda3": 0.31, "lambda4": 3.7},
}
# (lambda set, variant, noise); the jcmspl0 and ipl cases take the ridge
# on every iteration
FLOOR_CASES = [
    ("awa", "jcmspl1", 0.05),
    ("awa", "jcmspl0", 0.05),
    ("cub", "ipl", 0.05),
    ("sun", "jcmspl1", 0.05),
    ("imnet", "full", 0.05),
    ("random", "full", 0.05),
    ("random", "jcmspl0", 0.0),
]


@pytest.mark.parametrize("lambdas,variant,noise", FLOOR_CASES)
def test_fit_agrees_with_direct_loop_within_its_perturbation_floor(lambdas, variant, noise):
    # Beyond unit lambda the fixed bounds of the test above cannot hold:
    # the direct loop itself moves by more under a 1-ulp change to its
    # data.  That spread (the larger of two seeded nudges) is the floor;
    # fit must stay within a small multiple of it, plus the fixed bounds.
    # The nudge covers the prototypes too, since the factor rounds
    # products of Y as well as of X.  t_max = 12 keeps the three direct
    # loops short: the awa and imnet fits run to 100 and 23 iterations.
    dataset, _ = synth_generate(SynthSpec(noise_sigma=noise))
    hyper = Hyperparams(k=40, variant=variant, t_max=12, **NON_UNIT_LAMBDAS[lambdas])
    model, trace = fit(dataset, hyper)
    ref = direct_fit(dataset, hyper)
    iterations, ridge = ref[4:]
    floor = np.zeros(3)
    for seed in (0, 1):
        A, B, _, losses, nudged_iterations, _ = direct_fit(with_ulp_noise(dataset, seed), hyper)
        assert nudged_iterations == iterations
        floor = np.maximum(floor, fit_distances(losses, A, B, ref))
    assert trace.iterations == iterations
    gap = fit_distances(trace.losses, model.A, model.B, ref)
    print(f"{lambdas} {variant} noise={noise}: iterations={iterations} "
          f"ridge={len(ridge)} floor (loss, A, B) = "
          + ", ".join(f"{v:.1e}" for v in floor)
          + "; fit gap = " + ", ".join(f"{v:.1e}" for v in gap))
    for value, floor_value, fixed in zip(gap, floor, (1e-12, 1e-10, 1e-10)):
        assert value <= 10.0 * floor_value + fixed


def test_n_wide_work_happens_a_fixed_number_of_times(monkeypatch):
    from jcmspl import trainer

    dataset, _ = synth_generate(SynthSpec())
    n = dataset.n_seen
    iterations = []
    for t_max in (1, 3, 100):
        calls = {"loss": 0, "update_C": 0, "_final_pass": 0}

        def counting(name, x_position):
            original = getattr(trainer, name)

            def wrapper(*args):
                # loss and update_C count when they get the n-wide X
                calls[name] += x_position is None or args[x_position].shape[1] == n
                return original(*args)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "loss", counting("loss", 3))
            patch.setattr(trainer, "update_C", counting("update_C", 2))
            patch.setattr(trainer, "_final_pass", counting("_final_pass", None))
            _, trace = fit(dataset, Hyperparams(k=40, t_max=t_max))
        iterations.append(trace.iterations)
        assert calls == {"loss": 0, "update_C": 0, "_final_pass": 1}
    assert iterations[0] < iterations[1] < iterations[2]


def unblocked_loss(A, B, C, X, Y, H, hyper):
    """The five-term objective of the module docstring, each residual
    formed over all n columns at once."""
    def fro2(E):
        return float(np.sum(E * E))

    return 0.5 * (fro2(A @ X - C) + hyper.lambda1 * fro2(B @ Y - C)
                  + hyper.lambda2 * fro2(C - H) + hyper.lambda3 * fro2(X - A.T @ C)
                  + hyper.lambda4 * fro2(Y - B.T @ C))


@pytest.mark.parametrize("variant", LOOP_VARIANTS)
def test_final_pass_is_exact_across_column_blocks(variant):
    # n = 2500: two whole column blocks and a short one, whose products
    # round by their own width
    dataset, _ = synth_generate(
        SynthSpec(m=16, d=8, k=12, num_seen_classes=5, num_unseen_classes=2,
                  samples_per_class=500, seed=3)
    )
    assert 2 * CHUNK < dataset.n_seen < 3 * CHUNK
    hyper = Hyperparams(k=12, seed=1, variant=variant, t_max=20)
    eff = hyper.effective()
    model, trace = fit(dataset, hyper)
    A, B = model.A, model.B
    X = dataset.visual_seen
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
    H = build_class_matrix(dataset.labels_seen, hyper.k, dataset.seen_classes).H
    C = update_C(A, B, X, Y, H, eff)
    assert np.array_equal(model.C, C)
    f = loss(A, B, model.C, X, Y, H, eff)
    assert trace.losses[-1] == f
    assert abs(f - unblocked_loss(A, B, C, X, Y, H, eff)) <= 1e-12 * (1.0 + f)
    # the C step solved over all n columns at once
    l1, l2, l3, l4 = eff.lambda1, eff.lambda2, eff.lambda3, eff.lambda4
    M = (1.0 + l1 + l2) * np.eye(hyper.k) + l3 * (A @ A.T) + l4 * (B @ B.T)
    C_ref = np.linalg.solve(M, l2 * H + (1.0 + l3) * (A @ X) + (l1 + l4) * (B @ Y))
    assert np.linalg.norm(C - C_ref) <= 1e-12 * np.linalg.norm(C_ref)


@pytest.mark.parametrize("variant", LOOP_VARIANTS)
def test_fit_allocates_less_than_the_feature_matrix(variant):
    # tall data (m = 128 against d = 8 and k = 12): an m x n temporary
    # alone is X.nbytes, while C, the one n-wide matrix fit returns, is a
    # tenth of it
    dataset, _ = synth_generate(
        SynthSpec(m=128, d=8, k=12, num_seen_classes=8, num_unseen_classes=2,
                  samples_per_class=500)
    )
    tracemalloc.start()
    try:
        fit(dataset, Hyperparams(k=12, variant=variant))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{variant}: peak {peak / dataset.visual_seen.nbytes:.2f} X.nbytes")
    assert peak < dataset.visual_seen.nbytes


@pytest.mark.parametrize("variant", LOOP_VARIANTS)
def test_training_factor_is_rank_wide_and_reproduces_the_gram(monkeypatch, variant):
    dataset, _ = synth_generate(SynthSpec())
    hyper = Hyperparams(k=40, variant=variant, t_max=2)
    factors = capture_factors(monkeypatch)
    fit(dataset, hyper)
    factor, = factors
    check_factor_reproduces_the_gram(factor, dataset, hyper)
    with_h = hyper.effective().lambda2 > 0
    assert factor[0].shape[1] <= dataset.m + dataset.c_seen + (hyper.k if with_h else 0) + hyper.k


def capture_factors(monkeypatch):
    """A list that collects a copy of every ``(Xc, Yc, Hc, Cc)`` that
    ``fit`` gets from ``_gram_factor``: copies, since fit rotates the
    factor's rows in place."""
    from jcmspl import trainer

    factors, original = [], trainer._gram_factor

    def capture(*args):
        out = original(*args)
        factors.append([None if M is None else M.copy() for M in out])
        return out

    monkeypatch.setattr(trainer, "_gram_factor", capture)
    return factors


def check_factor_reproduces_the_gram(factor, dataset, hyper):
    """The factor has no zero column, carries H rows exactly when the fit
    has an H term, and reproduces the Gram of ``[X; Y; (H;) C0]`` formed
    from the n-wide rows within 1e-12."""
    Xc, Yc, Hc, Cc = factor
    Zc = np.vstack([M for M in (Xc, Yc, Hc, Cc) if M is not None])
    with_h = hyper.effective().lambda2 > 0
    assert (Hc is not None) == with_h
    assert np.all(np.linalg.norm(Zc, axis=0) > 0)
    rng = np.random.default_rng(hyper.seed)
    rng.standard_normal((hyper.k, dataset.m))
    rng.standard_normal((hyper.k, dataset.d))
    C0 = 0.01 * rng.standard_normal((hyper.k, dataset.n_seen))
    rows = [dataset.visual_seen, expand_prototypes(dataset.prototypes, dataset.labels_seen)]
    if with_h:
        rows.append(build_class_matrix(dataset.labels_seen, hyper.k, dataset.seen_classes).H)
    Z = np.vstack(rows + [C0])
    G = Z @ Z.T
    assert np.linalg.norm(Zc @ Zc.T - G) <= 1e-12 * np.linalg.norm(G)


@pytest.mark.parametrize("variant", LOOP_VARIANTS)
def test_factored_gram_takes_at_most_c_class_rows(monkeypatch, variant):
    # [Y; H] = Q R E enters the Gram as the min(q, c) rows R E: on the
    # default synth 50 + 10 + 40 rows, against the 150 (110 without H)
    # of [X; Y; H; C0]
    from jcmspl import trainer

    sizes, original = [], trainer._stacked_gram

    def recording(*args):
        G = original(*args)
        sizes.append(G.shape)
        return G

    monkeypatch.setattr(trainer, "_stacked_gram", recording)
    dataset, _ = synth_generate(SynthSpec())
    fit(dataset, Hyperparams(k=40, variant=variant, t_max=2))
    assert sizes == [(dataset.m + dataset.c_seen + 40,) * 2]


def without_class(dataset, cid):
    """``dataset`` with every seen sample of class ``cid`` dropped; the
    class stays seen, with no samples."""
    keep = dataset.labels_seen != cid
    return dataclasses.replace(dataset, visual_seen=dataset.visual_seen[:, keep],
                               labels_seen=dataset.labels_seen[keep])


@pytest.mark.parametrize("emptied", [False, True], ids=["all-classes", "one-class-emptied"])
@pytest.mark.parametrize("noise", [0.05, 0.0])
@pytest.mark.parametrize("variant", ["jcmspl1", "ipl"])
def test_factored_fit_with_fewer_prototype_rows_than_classes(monkeypatch, variant, noise,
                                                             emptied):
    # d = 4 < c = 10 and no H: the prototype rows are not compressed, and
    # R of the QR of the d x c prototypes is wide.  An emptied seen class
    # keeps its prototype column with a zero count.  n = 200 (180) against
    # the 44 rows of [X; Y; C0].
    dataset, _ = synth_generate(
        SynthSpec(m=24, d=4, k=16, num_seen_classes=10, num_unseen_classes=2,
                  samples_per_class=20, noise_sigma=noise, seed=4)
    )
    if emptied:
        dataset = without_class(dataset, 3)
    assert dataset.n_seen > dataset.m + dataset.d + 16
    hyper = Hyperparams(k=16, seed=2, variant=variant)
    factors = capture_factors(monkeypatch)
    model, trace = fit(dataset, hyper)
    factor, = factors
    check_factor_reproduces_the_gram(factor, dataset, hyper)
    A, B, _, losses, iterations, ridge_warned = direct_fit(dataset, hyper)
    assert trace.iterations == iterations
    for f, f_ref in zip(trace.losses, losses):
        assert abs(f - f_ref) <= 1e-12 * (1.0 + f_ref)
    if not ridge_warned and noise > 0:
        assert np.linalg.norm(model.A - A) <= 1e-10 * np.linalg.norm(A)
        assert np.linalg.norm(model.B - B) <= 1e-10 * np.linalg.norm(B)


@pytest.mark.parametrize("variant", ["full", "jcmspl1"])
def test_factored_fit_rejects_a_gram_that_overflows(variant):
    # finite prototypes whose class Gram overflows: the pivoted Cholesky
    # would pass over a NaN pivot, so the non-finite Gram is an error
    dataset, _ = synth_generate(SynthSpec())
    dataset = dataclasses.replace(dataset, prototypes=1e160 * dataset.prototypes)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="Gram of"):
        fit(dataset, Hyperparams(k=40, variant=variant, t_max=2))


def check_first_iteration_moduli(dataset):
    hyper = Hyperparams(k=6, seed=3, lambda1=0.7, lambda3=1.3, lambda4=0.4)
    model, trace = fit(dataset, Hyperparams(**{**hyper.__dict__, "t_max": 1}))
    rng = np.random.default_rng(hyper.seed)
    rng.standard_normal((hyper.k, dataset.m))
    rng.standard_normal((hyper.k, dataset.d))
    C0 = 0.01 * rng.standard_normal((hyper.k, dataset.n_seen))
    Y = expand_prototypes(dataset.prototypes, dataset.labels_seen)
    expected = descent_constants(model.A, model.B, C0, dataset.visual_seen, Y, hyper)
    assert min(expected) > 0
    assert np.allclose(trace.descent_constants[0], expected, rtol=1e-10, atol=0)


def test_fit_records_the_moduli_of_its_first_iteration():
    # n = 32 against the 36 rows of [X; Y; H; C0]: the direct loop
    check_first_iteration_moduli(small_benchmark(noise=0.05)[0])


def test_fit_records_the_moduli_of_its_first_iteration_on_the_factor():
    # n = 48 against the same 36 rows: the loop runs on the factor
    dataset, _ = synth_generate(
        SynthSpec(m=16, d=8, k=12, num_seen_classes=4, num_unseen_classes=2,
                  samples_per_class=12, noise_sigma=0.05, seed=1)
    )
    check_first_iteration_moduli(dataset)


def test_fit_descent_inequality_holds_for_small_sample_counts():
    # n = 4 is below k + m, where the moduli used to be overstated
    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(200):
        dataset = ZslDataset(
            visual_seen=rng.standard_normal((6, 4)),
            labels_seen=np.array([0, 0, 1, 1]),
            visual_unseen=rng.standard_normal((6, 2)),
            labels_unseen=np.array([2, 2]),
            prototypes=rng.standard_normal((5, 3)),
            seen_classes=np.array([0, 1]),
            unseen_classes=np.array([2]),
        )
        hyper = Hyperparams(k=4, seed=int(rng.integers(1 << 30)),
                            lambda1=float(rng.uniform(0.1, 2.0)),
                            lambda2=float(rng.uniform(0.1, 2.0)),
                            lambda3=float(rng.uniform(0.1, 2.0)),
                            lambda4=float(rng.uniform(0.1, 2.0)))
        _, trace = fit(dataset, hyper)
        slack = 1e-8 * (1.0 + trace.losses[1])
        for t in range(1, len(trace.losses)):
            dA, dB, dC = trace.delta_norms[t - 1]
            mA, mB, mC = trace.descent_constants[t - 1]
            bound = -0.5 * (mA * dA**2 + mB * dB**2 + mC * dC**2)
            worst = max(worst, (trace.losses[t] - trace.losses[t - 1] - bound) / slack)
    assert worst <= 1.0

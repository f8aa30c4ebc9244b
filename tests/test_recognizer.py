import warnings

import numpy as np
import pytest

from jcmspl.dataset import SynthSpec, ZslDataset, synth_generate
from jcmspl.errors import (
    AllZeroNormError,
    EmptyCandidatesError,
    InvalidFractionError,
    InvalidKError,
    NonFiniteDistanceError,
    OutOfRangeError,
    UnsupportedVariantError,
)
from jcmspl.recognizer import (
    EvalReport,
    classify,
    distance_matrix,
    eval_generalized,
    eval_hit_at_k,
    eval_standard,
    gzsl_holdout_indices,
    harmonic_mean,
    infer_semantic,
    infer_visual,
)
from jcmspl.trainer import Hyperparams, JcmsplModel, fit


def identity_model(n):
    return JcmsplModel(A=np.eye(n), B=np.eye(n), C=None, variant="full",
                       hyper=Hyperparams(k=n))


def planted_as_model(planted):
    return JcmsplModel(A=planted.A_true, B=planted.B_true, C=planted.concept_means,
                       variant="full", hyper=Hyperparams(k=planted.A_true.shape[0]))


def test_infer_semantic_identity_and_scalar():
    model = identity_model(3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(infer_semantic(model, x), x)
    scalar = JcmsplModel(A=np.array([[2.0]]), B=np.array([[3.0]]), C=None,
                         variant="full", hyper=Hyperparams(k=1))
    assert np.allclose(infer_semantic(scalar, [1.0]), [6.0])
    assert np.allclose(infer_visual(scalar, [1.0]), [6.0])


def test_infer_duality():
    rng = np.random.default_rng(0)
    model = JcmsplModel(A=rng.standard_normal((4, 6)), B=rng.standard_normal((4, 3)),
                        C=None, variant="full", hyper=Hyperparams(k=4))
    for _ in range(10):
        x = rng.standard_normal(6)
        y = rng.standard_normal(3)
        lhs = float(infer_semantic(model, x) @ y)
        rhs = float(x @ infer_visual(model, y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_infer_fpl_direction_support():
    fpl = JcmsplModel(A=np.array([[1.0, 0.0]]), B=None, C=None, variant="fpl",
                      hyper=Hyperparams(k=1, variant="fpl"))
    assert np.allclose(infer_semantic(fpl, [2.0, 5.0]), [2.0])
    with pytest.raises(UnsupportedVariantError):
        infer_visual(fpl, [1.0])


def test_classify_exact_match_and_ties():
    candidates = np.eye(4)
    assert classify(candidates[:, 2], candidates, "euclidean") == 2
    # exact tie between columns 0 and 1 resolves to the lowest index
    tied = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert classify(np.array([1.0, 0.0]), tied, "euclidean") == 0


def test_classify_euclidean_example():
    candidates = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert classify(np.array([0.9, 0.1]), candidates, "euclidean") == 0


def test_classify_cosine_scale_invariance():
    rng = np.random.default_rng(1)
    candidates = rng.standard_normal((5, 7))
    for _ in range(20):
        q = rng.standard_normal(5)
        base = classify(q, candidates, "cosine")
        for alpha in (0.01, 3.0, 250.0):
            assert classify(alpha * q, candidates, "cosine") == base


def test_classify_degenerate_candidates():
    with pytest.raises(EmptyCandidatesError):
        classify(np.ones(2), np.ones((2, 0)))
    with pytest.raises(AllZeroNormError):
        classify(np.ones(2), np.zeros((2, 3)), "cosine")
    with pytest.warns(RuntimeWarning):
        idx = classify(np.array([0.0, 1.0]),
                       np.array([[0.0, 0.0], [0.0, 1.0]]), "cosine")
    assert idx == 1


def test_distance_matrix_shapes_and_zero_query():
    Q = np.array([[0.0, 1.0], [0.0, 0.0]])
    C = np.array([[1.0], [0.0]])
    D = distance_matrix(Q, C, "cosine")
    assert D.shape == (2, 1)
    assert D[0, 0] == 1.0  # zero-norm query scores neutral distance
    assert abs(D[1, 0]) <= 1e-12


@pytest.mark.parametrize("distance", ["cosine", "euclidean"])
@pytest.mark.parametrize("where", ["queries", "candidates"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_distance_matrix_rejects_non_finite_distances(distance, where, value):
    # 1e300 is finite, but its square and the cosine norms overflow
    Q = np.array([[1.0, 0.5], [0.0, 2.0]])
    C = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 1.0]])
    (Q if where == "queries" else C)[0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDistanceError):
            distance_matrix(Q, C, distance)


def test_distance_matrix_rejects_a_norm_product_beyond_float64():
    # each norm is finite, and so is the inner product: only the product
    # of the norms, the cosine's denominator, overflows
    Q = np.array([[1e200], [0.0]])
    C = np.array([[0.0], [1e200]])
    with pytest.raises(NonFiniteDistanceError):
        distance_matrix(Q, C, "cosine")


def unseen_only_dataset(prototypes, X_u, labels_u, unseen, seen_proto_col):
    # one dummy seen class keeps the dataset valid
    m = X_u.shape[0]
    return ZslDataset(
        visual_seen=np.ones((m, 1)),
        labels_seen=[seen_proto_col],
        visual_unseen=X_u,
        labels_unseen=labels_u,
        prototypes=prototypes,
        seen_classes=[seen_proto_col],
        unseen_classes=unseen,
    )


def test_eval_standard_weighting():
    # class 1 has one sample (wrong), class 2 has three (right)
    protos = np.array([
        [9.0, 1.0, 0.0],
        [9.0, 0.0, 1.0],
    ])
    X_u = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
    ])
    ds = unseen_only_dataset(protos, X_u, [1, 2, 2, 2], [1, 2], 0)
    report = eval_standard(identity_model(2), ds, "v2s", "euclidean")
    assert report.overall_accuracy == 0.75
    assert report.per_class_mean_accuracy == 0.5
    assert report.direction == "v2s" and report.distance == "euclidean"
    assert report.hit_at_k is None and report.hm is None


def test_eval_standard_perfect():
    protos = np.array([[9.0, 1.0, 0.0], [9.0, 0.0, 1.0]])
    X_u = np.array([[1.0, 0.0], [0.0, 1.0]])
    ds = unseen_only_dataset(protos, X_u, [1, 2], [1, 2], 0)
    report = eval_standard(identity_model(2), ds, "v2s", "euclidean")
    assert report.overall_accuracy == 1.0
    assert report.per_class_mean_accuracy == 1.0


def test_per_class_mean_invariant_to_class_duplication():
    protos = np.array([[9.0, 1.0, 0.0], [9.0, 0.0, 1.0]])
    # class 1: one wrong sample; class 2: one right sample
    X_base = np.array([[0.0, 0.0], [1.0, 1.0]])
    ds = unseen_only_dataset(protos, X_base, [1, 2], [1, 2], 0)
    base = eval_standard(identity_model(2), ds, "v2s", "euclidean")
    # duplicate class 2's sample three times: overall moves, class mean stays
    X_dup = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    ds_dup = unseen_only_dataset(protos, X_dup, [1, 2, 2, 2], [1, 2], 0)
    dup = eval_standard(identity_model(2), ds_dup, "v2s", "euclidean")
    assert base.per_class_mean_accuracy == dup.per_class_mean_accuracy == 0.5
    assert base.overall_accuracy == 0.5 and dup.overall_accuracy == 0.75


def test_degenerate_queries_count_roundoff_embeddings():
    # each class of the default synth owns its own concept block, so a
    # model fit on the seen classes maps every unseen sample to roundoff,
    # while the planted maps embed every query
    ds, planted = synth_generate(SynthSpec(noise_sigma=0.0))
    trained, _ = fit(ds, Hyperparams(k=40))
    n_unseen = ds.visual_unseen.shape[1]
    assert eval_standard(trained, ds, "v2s").degenerate_queries == n_unseen
    assert eval_generalized(trained, ds).degenerate_queries >= n_unseen
    model = planted_as_model(planted)
    for direction in ("v2s", "s2v"):
        assert eval_standard(model, ds, direction).degenerate_queries == 0, direction
    assert eval_generalized(model, ds).degenerate_queries == 0


def test_degenerate_queries_when_the_map_overflows():
    # B^T A overflows in the column that every query leaves at 0, so the
    # embeddings are finite and scored; the count has no finite bound to
    # judge by, and takes every query
    A = np.array([[1.0, 1e300], [0.0, 1.0]])
    B = np.array([[1e10, 0.0], [0.0, 1.0]])
    model = JcmsplModel(A=A, B=B, C=None, variant="full", hyper=Hyperparams(k=2))
    protos = np.array([[9.0, 1.0, 0.0], [9.0, 0.0, 1.0]])
    ds = unseen_only_dataset(protos, np.array([[1.0, 2.0], [0.0, 0.0]]), [1, 1], [1, 2], 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = eval_standard(model, ds)
    assert report.overall_accuracy == 1.0 and report.degenerate_queries == 2


def test_eval_standard_planted_perfect_both_directions():
    ds, planted = synth_generate(SynthSpec(noise_sigma=0.0))
    model = planted_as_model(planted)
    for direction in ("v2s", "s2v"):
        report = eval_standard(model, ds, direction, "cosine")
        assert report.overall_accuracy == 1.0, direction
        assert report.per_class_mean_accuracy == 1.0, direction


def test_infer_semantic_recovers_prototypes_on_planted_data():
    ds, planted = synth_generate(SynthSpec(noise_sigma=0.0))
    model = planted_as_model(planted)
    for i in range(0, ds.n_seen, 37):
        predicted = infer_semantic(model, ds.visual_seen[:, i])
        target = ds.prototypes[:, ds.labels_seen[i]]
        assert np.linalg.norm(predicted - target) <= 1e-6


def test_eval_s2v_rejects_fpl():
    ds, _ = synth_generate(SynthSpec(m=20, d=8, k=12, num_seen_classes=4,
                                     num_unseen_classes=2, samples_per_class=5))
    fpl = JcmsplModel(A=np.zeros((8, 20)), B=None, C=None, variant="fpl",
                      hyper=Hyperparams(k=1, variant="fpl"))
    with pytest.raises(UnsupportedVariantError):
        eval_standard(fpl, ds, "s2v")


def rank_controlled_dataset():
    # six unseen basis prototypes; query component order sets the rank of
    # the true class (always class 0): ranks 1, 3 and 6
    protos = np.hstack([np.eye(6), np.full((6, 1), 0.5)])
    X_u = np.array([
        [0.6, 0.4, 0.1],
        [0.5, 0.6, 0.6],
        [0.4, 0.5, 0.5],
        [0.3, 0.3, 0.4],
        [0.2, 0.2, 0.3],
        [0.1, 0.1, 0.2],
    ])
    return unseen_only_dataset(protos, X_u, [0, 0, 0], [0, 1, 2, 3, 4, 5], 6)


def test_hit_at_k_rank_counting():
    ds = rank_controlled_dataset()
    model = identity_model(6)
    assert eval_hit_at_k(model, ds, 5, "v2s", "euclidean") == pytest.approx(2 / 3)
    assert eval_hit_at_k(model, ds, 1, "v2s", "euclidean") == pytest.approx(1 / 3)
    assert eval_hit_at_k(model, ds, 6, "v2s", "euclidean") == 1.0


def test_hit_at_k_matches_standard_at_one_and_grows():
    ds, planted = synth_generate(SynthSpec(noise_sigma=0.3, seed=5))
    model = planted_as_model(planted)
    overall = eval_standard(model, ds, "v2s", "cosine").overall_accuracy
    assert eval_hit_at_k(model, ds, 1, "v2s", "cosine") == overall
    rates = [eval_hit_at_k(model, ds, k, "v2s", "cosine")
             for k in range(1, ds.c_unseen + 1)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] == 1.0


def test_hit_at_k_validates_k():
    ds = rank_controlled_dataset()
    model = identity_model(6)
    for bad in (0, 7, -1):
        with pytest.raises(InvalidKError):
            eval_hit_at_k(model, ds, bad, "v2s", "euclidean")


def test_harmonic_mean_reference_and_properties():
    assert abs(harmonic_mean(0.676, 0.433) - 0.528) <= 5e-4
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(0.0, 1.0, size=2)
        hm = harmonic_mean(a, b)
        assert harmonic_mean(a, a) == pytest.approx(a)
        assert harmonic_mean(a, 0.0) == 0.0
        assert hm <= 2.0 * min(a, b) + 1e-15
        assert hm <= 0.5 * (a + b) + 1e-15
    assert harmonic_mean(0.0, 0.0) == 0.0
    with pytest.raises(OutOfRangeError):
        harmonic_mean(1.2, 0.5)
    with pytest.raises(OutOfRangeError):
        harmonic_mean(0.5, -0.1)


def test_gzsl_holdout_is_seeded_and_stratified():
    labels = np.repeat([3, 5, 8], 10)
    idx1 = gzsl_holdout_indices(labels, [3, 5, 8], 0.2, seed=7)
    idx2 = gzsl_holdout_indices(labels, [3, 5, 8], 0.2, seed=7)
    assert np.array_equal(idx1, idx2)
    assert len(idx1) == 6  # two per class
    held = labels[idx1]
    for cid in (3, 5, 8):
        assert np.count_nonzero(held == cid) == 2
    # at least one sample held out even for tiny classes
    small = gzsl_holdout_indices([0, 0, 1, 1], [0, 1], 0.2, seed=0)
    assert len(small) == 2
    with pytest.raises(InvalidFractionError):
        gzsl_holdout_indices(labels, [3, 5, 8], 1.0, seed=0)


def test_gzsl_holdout_rejects_a_negative_seed():
    with pytest.raises(OutOfRangeError, match="seed"):
        gzsl_holdout_indices(np.repeat([3, 5], 10), [3, 5], 0.2, seed=-1)


@pytest.mark.parametrize("seed", [1.5, True])
def test_eval_generalized_rejects_a_seed_that_is_no_integer(seed):
    ds, planted = synth_generate(SynthSpec(m=16, d=8, k=12, num_seen_classes=4,
                                           num_unseen_classes=2, samples_per_class=8))
    model = JcmsplModel(A=planted.A_true, B=planted.B_true, C=None, variant="full",
                        hyper=Hyperparams(k=12))
    with pytest.raises(OutOfRangeError, match="seed"):
        eval_generalized(model, ds, holdout_fraction=0.2, seed=seed)


def test_eval_generalized_perfect_and_deterministic():
    ds, planted = synth_generate(SynthSpec(noise_sigma=0.0))
    model = planted_as_model(planted)
    report = eval_generalized(model, ds, holdout_fraction=0.2, seed=7)
    assert report.acc_s == 1.0 and report.acc_u == 1.0 and report.hm == 1.0
    assert report.overall_accuracy == 1.0
    again = eval_generalized(model, ds, holdout_fraction=0.2, seed=7)
    assert report == again
    other_seed = eval_generalized(model, ds, holdout_fraction=0.2, seed=8)
    assert other_seed.hm == 1.0


def test_eval_generalized_hm_consistency():
    ds, planted = synth_generate(SynthSpec(noise_sigma=0.6, seed=9))
    model = planted_as_model(planted)
    report = eval_generalized(model, ds, holdout_fraction=0.25, seed=1)
    assert report.hm == pytest.approx(harmonic_mean(report.acc_s, report.acc_u))
    assert 0.0 <= report.acc_u <= 1.0 and 0.0 <= report.acc_s <= 1.0


def test_eval_report_serialization_fields():
    report = EvalReport(
        overall_accuracy=0.5,
        per_class_mean_accuracy=0.25,
        direction="v2s",
        distance="cosine",
        hit_at_k=(5, 0.75),
    )
    payload = report.to_dict()
    assert sorted(payload) == [
        "acc_s", "acc_u", "degenerate_queries", "direction", "distance",
        "hit_at_k", "hm", "overall_accuracy", "per_class_mean_accuracy",
    ]
    assert payload["hit_at_k"] == {"k": 5, "fraction": 0.75}
    with pytest.raises(OutOfRangeError):
        EvalReport(overall_accuracy=1.5, per_class_mean_accuracy=0.0,
                   direction="v2s", distance="cosine")
    with pytest.raises(OutOfRangeError):
        EvalReport(overall_accuracy=0.5, per_class_mean_accuracy=0.5,
                   direction="v2s", distance="cosine",
                   acc_s=0.5, acc_u=0.5, hm=0.9)

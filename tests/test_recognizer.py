import warnings

import numpy as np
import pytest

from jcmspl import recognizer
from jcmspl.dataset import NARROW, SynthSpec, ZslDataset, column_norms, synth_generate
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
    check_holdout,
    classify,
    distance_matrix,
    eval_generalized,
    eval_hit_at_k,
    eval_standard,
    gzsl_holdout_indices,
    harmonic_mean,
    infer_semantic,
    infer_visual,
    rank,
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


def test_distance_matrix_zero_query_against_a_zero_and_a_live_candidate():
    # the zero-norm candidate stays out of reach even of a zero-norm query,
    # whose distance to every live candidate is 1
    Q = np.zeros((2, 1))
    C = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="1 zero-norm candidate column"):
        D = distance_matrix(Q, C, "cosine")
    assert D.tolist() == [[np.inf, 1.0]]


def test_a_candidate_whose_norm_underflows_is_skipped_without_error():
    # entries of 1e-200 square to 0: the norm of that column is 0, not its
    # entries, so its distances are finite until they are set to inf
    rng = np.random.default_rng(3)
    C = np.array([[1.0, 1e-200, 0.0], [0.0, 1e-200, 1.0]])
    Q = rng.standard_normal((2, 3 * NARROW))
    labels = rng.choice([0, 2], Q.shape[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        D = distance_matrix(Q, C, "cosine")
        ranked = rank(identity_model(2), C, Q, labels, np.arange(3))  # three blocks
    assert [str(w.message) for w in caught] == ["1 zero-norm candidate column(s) skipped"] * 2
    assert np.all(D[:, 1] == np.inf) and np.all(np.isfinite(D[:, [0, 2]]))
    assert ranked.preds.tolist() == np.argmin(D, axis=1).tolist() and 1 not in ranked.preds


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


@pytest.mark.parametrize("bad", [True, False, 2.0, np.True_])
def test_hit_at_k_rejects_a_k_that_is_no_integer(bad):
    # isinstance(True, int) holds; a bool must not pass as K = 1
    ds = rank_controlled_dataset()
    with pytest.raises(InvalidKError, match=r"^K must satisfy 1 <= K <= 6, got "):
        eval_hit_at_k(identity_model(6), ds, bad, "v2s", "euclidean")


def test_hit_at_k_keeps_its_message_for_integers_out_of_range():
    ds = rank_controlled_dataset()
    for bad in (0, 7, np.int64(-1)):
        with pytest.raises(InvalidKError) as err:
            eval_hit_at_k(identity_model(6), ds, bad, "v2s", "euclidean")
        assert str(err.value) == f"K must satisfy 1 <= K <= 6, got {bad!r}"


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


@pytest.mark.parametrize("fraction", ["0.2", None, True, [0.2], 1j])
def test_check_holdout_rejects_a_fraction_that_is_no_number(fraction):
    with pytest.raises(InvalidFractionError) as err:
        check_holdout(fraction, 0)
    assert str(err.value) == f"fraction must be a real number, got {fraction!r}"


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


def integer_problem(seen_columns=3 * NARROW):
    # integer maps, features and prototypes: every embedding is exact, so a
    # block ranks as the same columns of one product do.  A ignores the last
    # visual row, so every 16th column, which has only that row, embeds to 0
    rng = np.random.default_rng(12)
    m, d, k, seen, unseen = 7, 5, 6, [0, 1, 2], [3, 4]
    A = rng.integers(-3, 4, (k, m)).astype(float)
    A[:, -1] = 0.0
    model = JcmsplModel(A=A, B=rng.integers(-3, 4, (k, d)).astype(float), C=None,
                        variant="full", hyper=Hyperparams(k=k))
    visual = rng.integers(-5, 6, (m, seen_columns)).astype(float)
    visual[:-1, ::16] = 0.0
    labels = rng.choice(seen, seen_columns)
    prototypes = rng.integers(-4, 5, (d, 5)).astype(float)
    return model, prototypes, visual, labels, np.array(seen), np.array(unseen)


def rank_at_once(model, prototypes, visual, holdout, classes, distance):
    # the ranking of a copied holdout in one product: distance_matrix of the
    # whole set's embedding
    inputs = visual[:, holdout]
    embedded = recognizer._embed(model, inputs, "v2s")
    dist = distance_matrix(embedded, prototypes[:, classes], distance)
    degenerate = recognizer._degenerate_count(recognizer._map_norm(model), inputs,
                                              column_norms(embedded))
    return classes[np.argmin(dist, axis=1)], dist, degenerate


@pytest.mark.parametrize("distance", ["cosine", "euclidean"])
@pytest.mark.parametrize("size", [1, NARROW - 1, NARROW, NARROW + 1])
def test_blocked_holdout_ranks_as_a_copied_holdout_at_once(size, distance):
    model, prototypes, visual, labels, seen, unseen = integer_problem()
    holdout = np.sort(np.random.default_rng(size).choice(visual.shape[1], size, replace=False))
    classes = np.concatenate([seen, unseen])
    preds, dist, degenerate = rank_at_once(model, prototypes, visual, holdout, classes, distance)
    embedded = visual[:-1, holdout].any(axis=0)
    nearest = np.sort(dist[embedded], axis=1)
    assert np.all(nearest[:, 0] < nearest[:, 1])  # no ties: one right answer
    assert degenerate == size - np.count_nonzero(embedded)
    held = rank(model, prototypes, visual, labels, classes, "v2s", distance, holdout)
    assert held.preds.tolist() == preds.tolist()
    assert held.labels.tolist() == labels[holdout].tolist()
    assert held.degenerate == degenerate
    assert 0 < np.count_nonzero(preds == labels[holdout]) < size or size == 1
    assert degenerate > 0 or size == 1
    dataset = ZslDataset(visual, labels, visual[:, 1:10], labels[1:10] % 2 + 3, prototypes,
                         seen, unseen)
    report = eval_generalized(model, dataset, 0.2, size, distance)
    drawn = gzsl_holdout_indices(labels, seen, 0.2, size)
    counts = [rank(model, prototypes, visual, labels, classes, "v2s", distance, drawn).degenerate,
              rank(model, prototypes, visual[:, 1:10], labels[1:10] % 2 + 3, classes).degenerate]
    assert report.degenerate_queries == sum(counts)


def test_blocked_holdout_warns_of_a_zero_candidate_once():
    model, prototypes, visual, labels, seen, unseen = integer_problem()
    prototypes[:, 1] = 0.0
    holdout = np.arange(2 * NARROW + 5)  # three blocks
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        held = rank(model, prototypes, visual, labels, np.arange(5), columns=holdout)
    assert [str(w.message) for w in caught] == ["1 zero-norm candidate column(s) skipped"]
    with pytest.warns(RuntimeWarning, match="1 zero-norm candidate"):
        preds, _, degenerate = rank_at_once(model, prototypes, visual, holdout,
                                            np.arange(5), "cosine")
    assert held.preds.tolist() == preds.tolist() and 1 not in preds
    assert held.degenerate == degenerate


@pytest.mark.parametrize("distance", ["cosine", "euclidean"])
def test_blocked_holdout_counts_non_finite_distances_over_the_whole_holdout(distance):
    # a column of 1e200 in each of the three blocks: its embedding's squares
    # overflow, and the error counts the terms of all three, not the first's
    model, prototypes, visual, labels, seen, unseen = integer_problem()
    visual[:, [5, NARROW + 1, 2 * NARROW + 2]] = 1e200
    holdout = np.arange(3 * NARROW)
    with pytest.raises(NonFiniteDistanceError) as whole:
        rank_at_once(model, prototypes, visual, holdout, np.arange(5), distance)
    assert str(whole.value).startswith("15 distance term(s)")
    with pytest.raises(NonFiniteDistanceError) as blocked:
        rank(model, prototypes, visual, labels, np.arange(5), "v2s", distance, holdout)
    assert str(blocked.value) == str(whole.value)


def score_at_once(model, prototypes, visual, labels, classes, direction, distance, k):
    # eval_standard's report from distance_matrix of the whole set at once
    candidates = prototypes[:, classes]
    inputs = visual if direction == "v2s" else candidates
    embedded = recognizer._embed(model, inputs, direction)
    if direction == "v2s":
        dist = distance_matrix(embedded, candidates, distance)
    else:
        dist = distance_matrix(visual, embedded, distance)
    preds = classes[np.argmin(dist, axis=1)]
    ranked = classes[np.argsort(dist, axis=1, kind="stable")[:, :k]]
    per_class = [np.mean(preds[labels == c] == c) for c in classes if np.any(labels == c)]
    return EvalReport(
        overall_accuracy=float(np.mean(preds == labels)),
        per_class_mean_accuracy=float(np.mean(per_class)),
        direction=direction,
        distance=distance,
        hit_at_k=None if k is None else (k, float(np.mean(np.any(ranked == labels[:, None], 1)))),
        degenerate_queries=recognizer._degenerate_count(recognizer._map_norm(model), inputs,
                                                        column_norms(embedded)),
    )


def eval_scored_set(model, prototypes, visual, labels, classes, direction, distance, k):
    # eval_standard of a dataset whose unseen split is the scored set
    other = np.setdiff1d(np.arange(prototypes.shape[1]), classes)[0]
    dataset = unseen_only_dataset(prototypes, visual, labels, classes, other)
    return eval_standard(model, dataset, direction, distance, k)


@pytest.mark.parametrize("distance", ["cosine", "euclidean"])
@pytest.mark.parametrize("direction", ["v2s", "s2v"])
@pytest.mark.parametrize("size", [1, NARROW - 1, NARROW, NARROW + 1, 2 * NARROW + 1])
def test_blocked_standard_scoring_equals_distance_matrix_at_once(size, direction, distance):
    model, prototypes, visual, labels, seen, _ = integer_problem(size)
    for k in [None, *range(1, seen.size + 1)]:
        report = eval_scored_set(model, prototypes, visual, labels, seen, direction, distance, k)
        assert report == score_at_once(model, prototypes, visual, labels, seen, direction,
                                       distance, k), k


@pytest.mark.parametrize("direction, k", [("v2s", None), ("v2s", 2), ("s2v", None), ("s2v", 3)])
def test_blocked_standard_scoring_warns_of_a_zero_candidate_once(direction, k):
    # a zero prototype: a zero-norm candidate for v2s, and for s2v a zero
    # anchor, whose one degenerate embedding is counted once, not per block
    model, prototypes, visual, labels, seen, _ = integer_problem()  # three blocks
    prototypes[:, 1] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = eval_scored_set(model, prototypes, visual, labels, seen, direction, "cosine", k)
    assert [str(w.message) for w in caught] == ["1 zero-norm candidate column(s) skipped"]
    with pytest.warns(RuntimeWarning, match="1 zero-norm candidate"):
        assert report == score_at_once(model, prototypes, visual, labels, seen, direction,
                                       "cosine", k)
    if direction == "s2v":
        assert report.degenerate_queries == 1


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

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcmspl.dataset as dataset_module
from forked import drop_sidecars, forked_io
from jcmspl.archive import fingerprint_dataset
from jcmspl.dataset import (
    CHUNK,
    NARROW,
    SynthSpec,
    ZslDataset,
    column_norms,
    expand_prototypes,
    load_manifest,
    normalize,
    save_manifest,
    synth_generate,
    write_json,
    write_labels,
    write_table,
)
from jcmspl.errors import (
    DatasetError,
    InvalidSpecError,
    ManifestError,
    MissingFileError,
    OverlappingSplitsError,
    ShapeMismatchError,
    UnknownClassIdError,
)
from jcmspl.recognizer import classify
from malformed import (
    COMPRESSED_HOLES,
    CSV_HOLES,
    ID_RANGE_HOLES,
    MANIFEST_HOLES,
    with_compressed_prototypes,
    with_first_seen_class_id,
)


def tiny_dataset():
    rng = np.random.default_rng(0)
    return ZslDataset(
        visual_seen=rng.standard_normal((3, 4)),
        labels_seen=[0, 0, 1, 1],
        visual_unseen=rng.standard_normal((3, 2)),
        labels_unseen=[2, 2],
        prototypes=rng.standard_normal((2, 3)),
        seen_classes=[0, 1],
        unseen_classes=[2],
    )


def test_shape_propagation():
    ds = tiny_dataset()
    assert (ds.m, ds.d, ds.n_seen, ds.n_unseen, ds.c_seen, ds.c_unseen) == (3, 2, 4, 2, 2, 1)


def test_overlapping_splits_rejected():
    ds = tiny_dataset()
    with pytest.raises(OverlappingSplitsError):
        ZslDataset(
            visual_seen=ds.visual_seen,
            labels_seen=ds.labels_seen,
            visual_unseen=ds.visual_unseen,
            labels_unseen=[1, 1],
            prototypes=ds.prototypes,
            seen_classes=[0, 1],
            unseen_classes=[1],
        )


def test_label_count_mismatch_rejected():
    ds = tiny_dataset()
    with pytest.raises(ShapeMismatchError):
        ZslDataset(
            visual_seen=ds.visual_seen,
            labels_seen=[0, 0, 1, 1, 1],
            visual_unseen=ds.visual_unseen,
            labels_unseen=ds.labels_unseen,
            prototypes=ds.prototypes,
            seen_classes=[0, 1],
            unseen_classes=[2],
        )


def test_label_outside_split_rejected():
    ds = tiny_dataset()
    with pytest.raises(UnknownClassIdError):
        ZslDataset(
            visual_seen=ds.visual_seen,
            labels_seen=[0, 0, 2, 1],
            visual_unseen=ds.visual_unseen,
            labels_unseen=ds.labels_unseen,
            prototypes=ds.prototypes,
            seen_classes=[0, 1],
            unseen_classes=[2],
        )


def test_class_without_prototype_rejected():
    ds = tiny_dataset()
    with pytest.raises(UnknownClassIdError):
        ZslDataset(
            visual_seen=ds.visual_seen,
            labels_seen=ds.labels_seen,
            visual_unseen=ds.visual_unseen,
            labels_unseen=[5, 5],
            prototypes=ds.prototypes,
            seen_classes=[0, 1],
            unseen_classes=[5],
        )


def wide_arrays(m, n_seen, n_unseen):
    # one seen and one unseen class; the prototypes have n_seen columns
    rng = np.random.default_rng(n_seen)
    return {
        "visual_seen": rng.standard_normal((m, n_seen)),
        "labels_seen": np.zeros(n_seen, dtype=np.int64),
        "visual_unseen": rng.standard_normal((m, n_unseen)),
        "labels_unseen": np.ones(n_unseen, dtype=np.int64),
        "prototypes": rng.standard_normal((3, n_seen)),
        "seen_classes": np.array([0]),
        "unseen_classes": np.array([1]),
    }


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, NARROW + 3, 2 * NARROW],
                         ids=["first_column", "middle_block", "one_column_last_block"])
@pytest.mark.parametrize("name", ["visual_seen", "visual_unseen", "prototypes"])
def test_a_non_finite_entry_is_found_in_every_narrow_block(name, column, value):
    # 2 NARROW + 1 columns: two blocks and a lone last column
    arrays = wide_arrays(4, 2 * NARROW + 1, 2 * NARROW + 1)
    arrays[name][-1, column] = value
    with pytest.raises(DatasetError, match=f"^{name} contains non-finite entries$"):
        ZslDataset(**arrays)
    with pytest.raises(DatasetError, match="^M contains non-finite entries$"):
        normalize(arrays[name])


def test_the_dataset_checks_hold_one_narrow_block_beyond_the_arrays():
    # the finiteness check takes NARROW columns at a time, with no boolean
    # as large as a feature matrix (2 MB for the 256 x 8,000 one)
    arrays = wide_arrays(256, 8000, 2000)
    ZslDataset(**arrays)
    tracemalloc.start()
    try:
        dataset = ZslDataset(**arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # int64 label vectors and float64 features are kept as given; an array
    # of any other dtype would be cast to a fresh one
    fresh = [getattr(dataset, f.name) for f in dataclasses.fields(dataset)]
    fresh = sum(a.nbytes for a in fresh if not any(a is b for b in arrays.values()))
    block = 256 * NARROW * 8
    print(f"peak {peak} B: {fresh} B of fresh arrays and {peak - fresh} B beside them")
    assert peak - fresh <= block


def test_a_dataset_keeps_the_int64_label_arrays_it_is_given():
    arrays = wide_arrays(4, 10, 5)
    dataset = ZslDataset(**arrays)
    for name in ("labels_seen", "labels_unseen", "seen_classes", "unseen_classes"):
        assert np.shares_memory(getattr(dataset, name), arrays[name]), name
    cast = ZslDataset(**{**arrays, "labels_seen": arrays["labels_seen"].astype(np.int32)})
    assert cast.labels_seen.dtype == np.int64


def test_manifest_round_trip(tmp_path):
    ds = tiny_dataset()
    manifest = save_manifest(ds, tmp_path / "manifest.json")
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["labels_seen.csv", "labels_unseen.csv", "manifest.json",
                       "prototypes.csv", "visual_seen.csv", "visual_unseen.csv"]
    loaded = load_manifest(manifest)
    for field in ("visual_seen", "labels_seen", "visual_unseen", "labels_unseen",
                  "prototypes", "seen_classes", "unseen_classes"):
        assert np.array_equal(getattr(loaded, field), getattr(ds, field)), field
    # the load kept a sidecar of each matrix file, none of a label file, and
    # a second load returns their arrays bit for bit
    kept = sorted(path.name for path in tmp_path.iterdir() if path.name not in written)
    assert kept == [".prototypes.csv.parsed", ".visual_seen.csv.parsed",
                    ".visual_unseen.csv.parsed"]
    again = load_manifest(manifest)
    for field in ("visual_seen", "visual_unseen", "prototypes"):
        assert getattr(again, field).tobytes() == getattr(loaded, field).tobytes(), field
    # a second serialization of the loaded dataset is byte-identical
    second_dir = tmp_path / "again"
    save_manifest(loaded, second_dir / "manifest.json")
    for name in ("manifest.json", "visual_seen.csv", "labels_seen.csv",
                 "visual_unseen.csv", "labels_unseen.csv", "prototypes.csv"):
        assert (second_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_load_manifest_reads_through_the_module_readers_at_call_time(tmp_path, monkeypatch):
    # perfbench's tracer rebinds jcmspl.dataset.read_matrix and read_labels;
    # a reader bound before the rebinding would leave its spans empty
    manifest = save_manifest(tiny_dataset(), tmp_path / "manifest.json")
    calls = {"read_matrix": 0, "read_labels": 0}
    for name in calls:
        reader = getattr(dataset_module, name)

        def counted(path, name=name, reader=reader):
            calls[name] += 1
            return reader(path)

        monkeypatch.setattr(dataset_module, name, counted)
    load_manifest(manifest)
    assert calls == {"read_matrix": 3, "read_labels": 2}


def test_write_table_formats_each_cell_by_its_type(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ("a", "b", "c", "d"), [("fpl", 0.1, 3, None),
                                             (7, np.float64(-0.0), 1e300, np.inf)])
    assert path.read_bytes() == (b"a,b,c,d\nfpl,0.10000000000000001,3,\n"
                                 b"7,-0,1.0000000000000001e+300,inf\n")
    write_table(path, ("a",), [])
    assert path.read_bytes() == b"a\n"


def test_write_json_sorts_keys_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"b": [1, 2.5], "a": None})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'


def test_manifest_class_ids_from_label_files(tmp_path):
    # seen_classes and unseen_classes may name label files instead of
    # listing the ids inline; the loaded dataset is the same
    ds, _ = synth_generate(SynthSpec(m=8, d=4, k=6, num_seen_classes=3,
                                     num_unseen_classes=2, samples_per_class=4))
    manifest = save_manifest(ds, tmp_path / "manifest.json")
    spec = json.loads(manifest.read_text())
    for key in ("seen_classes", "unseen_classes"):
        write_labels(tmp_path / f"{key}.txt", spec[key])
        spec[key] = f"{key}.txt"
    by_file = tmp_path / "by_file.json"
    by_file.write_text(json.dumps(spec))
    assert fingerprint_dataset(load_manifest(by_file)) == fingerprint_dataset(ds)


def test_missing_manifest_and_files(tmp_path):
    with pytest.raises(MissingFileError):
        load_manifest(tmp_path / "nope.json")
    ds = tiny_dataset()
    manifest = save_manifest(ds, tmp_path / "manifest.json")
    (tmp_path / "prototypes.csv").unlink()
    with pytest.raises(MissingFileError):
        load_manifest(manifest)


def test_malformed_manifest(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(bad)
    bad.write_text(json.dumps({"visual_seen": "x.csv"}))
    with pytest.raises(ManifestError):
        load_manifest(bad)


@pytest.mark.parametrize("case", sorted(CSV_HOLES))
def test_malformed_csv_is_a_dataset_error_naming_the_file(tmp_path, case):
    manifest = save_manifest(tiny_dataset(), tmp_path / "manifest.json")
    name, corrupt = CSV_HOLES[case]
    path = tmp_path / name
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(DatasetError, match=name):
        load_manifest(manifest)
    assert not (tmp_path / f".{name}.parsed").exists()


@pytest.mark.parametrize("case", sorted(CSV_HOLES))
def test_malformed_csv_raises_alike_on_forked_workers(tmp_path, case):
    manifest = save_manifest(tiny_dataset(), tmp_path / "manifest.json")
    name, corrupt = CSV_HOLES[case]
    path = tmp_path / name
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(DatasetError, match=name) as serial:
        load_manifest(manifest)
    drop_sidecars(tmp_path)  # kept by the first load of the files that parsed
    with forked_io() as forks, pytest.raises(DatasetError) as forked:
        load_manifest(manifest)
    assert forks  # visual_seen.csv, at least
    assert (type(forked.value), str(forked.value)) == (type(serial.value), str(serial.value))


@pytest.mark.parametrize("case", sorted(COMPRESSED_HOLES))
def test_broken_compressed_file_is_a_dataset_error_naming_the_file(tmp_path, case):
    # EOFError, LZMAError and the codecs' OSErrors would otherwise escape
    manifest = save_manifest(tiny_dataset(), tmp_path / "manifest.json")
    name = with_compressed_prototypes(manifest, case)
    with pytest.raises(DatasetError, match=re.escape(str(tmp_path / name))):
        load_manifest(manifest)


@pytest.mark.parametrize("case", sorted(MANIFEST_HOLES))
def test_malformed_manifest_content(tmp_path, case):
    manifest = save_manifest(tiny_dataset(), tmp_path / "manifest.json")
    manifest.write_bytes(MANIFEST_HOLES[case](json.loads(manifest.read_text())))
    with pytest.raises(ManifestError):
        load_manifest(manifest)


@pytest.mark.parametrize("case", sorted(ID_RANGE_HOLES))
def test_class_id_beyond_int64_is_named(tmp_path, case):
    text, shown = ID_RANGE_HOLES[case]
    manifest = save_manifest(tiny_dataset(), tmp_path / "manifest.json")
    spec = json.loads(manifest.read_text())
    manifest.write_bytes(with_first_seen_class_id(spec, text))
    with pytest.raises(DatasetError, match=f"seen_classes holds {shown}, outside"):
        load_manifest(manifest)


def test_expand_prototypes_takes_integral_float_and_boolean_labels():
    # the int64 range check must leave the other label casts alone
    protos = np.array([[1.0, 10.0]])
    assert np.array_equal(expand_prototypes(protos, [True, False]), [[10.0, 1.0]])
    labels = np.array([1.0, 0.0], dtype=np.float32)
    assert np.array_equal(expand_prototypes(protos, labels), [[10.0, 1.0]])


def test_expand_prototypes_replicates_columns():
    protos = np.array([[1.0, 10.0], [2.0, 20.0]])
    out = expand_prototypes(protos, [0, 0, 1])
    assert np.array_equal(out, np.array([[1.0, 1.0, 10.0], [2.0, 2.0, 20.0]]))
    assert expand_prototypes(protos, np.array([], dtype=np.int64)).shape == (2, 0)
    with pytest.raises(UnknownClassIdError):
        expand_prototypes(protos, [2])


def test_normalize_columns():
    out = normalize(np.array([[3.0], [4.0]]))
    assert np.allclose(out, [[0.6], [0.8]])
    unit = np.array([[0.0], [1.0]])
    assert np.allclose(normalize(unit), unit)
    with pytest.warns(RuntimeWarning):
        out = normalize(np.array([[0.0, 3.0], [0.0, 4.0]]))
    assert np.array_equal(out[:, 0], [0.0, 0.0])
    assert np.allclose(out[:, 1], [0.6, 0.8])
    copied = normalize(unit, mode="none")
    assert np.array_equal(copied, unit) and copied is not unit


def reference_normalize(M):
    # the definition: one np.linalg.norm over the whole matrix
    norms = np.linalg.norm(M, axis=0)
    return M / np.where(norms == 0.0, 1.0, norms)


def feature_matrix(n, layout):
    # 200 rows: enough that a pairwise and a row-by-row sum differ
    rng = np.random.default_rng(n)
    M = rng.standard_normal((200, n)) * rng.uniform(0.0, 5.0, n)
    if layout == "F":
        return np.asfortranarray(M)
    if layout == "column_slice":  # every other column of a wider matrix
        return np.repeat(M, 2, axis=1)[:, ::2]
    return M


@pytest.mark.parametrize("n", [1, 2, 7, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1])
@pytest.mark.parametrize("layout", ["C", "F", "column_slice"])
def test_normalize_in_place_keeps_the_bits_of_a_copy(n, layout):
    # numpy sums a one-column block pairwise, not row by row as it sums the
    # whole matrix: n = CHUNK + 1 and 2 * CHUNK + 1 catch a lone last block
    expected = reference_normalize(feature_matrix(n, layout))
    copied = normalize(feature_matrix(n, layout))
    M = feature_matrix(n, layout)
    assert normalize(M, in_place=True) is M
    assert copied.tobytes() == M.tobytes() == expected.tobytes()
    assert copied.flags.c_contiguous == expected.flags.c_contiguous
    assert copied.flags.f_contiguous == expected.flags.f_contiguous



@settings(max_examples=24, deadline=None, database=None, derandomize=True)
@given(rows=st.integers(1, 300),
       n=st.sampled_from([1, NARROW, NARROW + 1, NARROW + 2, 2 * NARROW + 1, CHUNK, CHUNK + 1,
                          2 * CHUNK + 1]),
       order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1),
       magnitude=st.sampled_from([1e-300, 1.0, 1e150, 1e300]))
def test_column_norms_are_the_bits_of_np_linalg_norm(rows, n, order, seed, magnitude):
    # numpy sums down the rows of a C-order block and pairwise along a
    # column of an F-order one; 1e150 and 1e300 overflow some squares to inf
    rng = np.random.default_rng(seed)
    M = np.asarray(rng.standard_normal((rows, n)) * magnitude, order=order)
    with np.errstate(over="ignore"):
        assert column_norms(M).tobytes() == np.linalg.norm(M, axis=0).tobytes()

@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("n", [1, 2, NARROW, NARROW + 1, NARROW + 2, 2 * NARROW + 1,
                               2 * NARROW + 2])
@pytest.mark.parametrize("rows", [1, 200])
def test_column_norms_keep_their_bits_at_every_narrow_block_edge(rows, n, order):
    # NARROW + 1 and 2 NARROW + 1 leave a last block of one column, which
    # joins the block before; NARROW + 2 and 2 NARROW + 2 one of two columns
    rng = np.random.default_rng(n)
    M = np.asarray(rng.standard_normal((rows, n)) * rng.uniform(0.0, 5.0, n), order=order)
    assert column_norms(M).tobytes() == np.linalg.norm(M, axis=0).tobytes()


def test_normalize_in_place_keeps_zero_and_overflowing_columns_as_a_copy_does():
    M = feature_matrix(CHUNK + 3, "C")
    M[:, [0, CHUNK + 1]] = 0.0  # left as they are, with a warning
    M[:, 5] = 1e200  # its norm overflows to inf: the column scales to 0
    with np.errstate(over="ignore"):
        expected = reference_normalize(M)
        for scale in (normalize, lambda A: normalize(A.copy(), in_place=True)):
            with pytest.warns(RuntimeWarning, match="2 zero-norm column") as caught:
                out = scale(M)
            assert caught[0].filename == __file__  # reported at the caller
            assert out.tobytes() == expected.tobytes()
    assert not out[:, [0, 5, CHUNK + 1]].any()


def test_synth_shapes_default_benchmark():
    ds, planted = synth_generate(SynthSpec())
    assert ds.visual_seen.shape == (50, 500)
    assert ds.visual_unseen.shape == (50, 250)
    assert ds.prototypes.shape == (20, 15)
    assert planted.A_true.shape == (40, 50)
    assert planted.B_true.shape == (40, 20)
    assert planted.concept_means.shape == (40, 15)
    assert np.array_equal(ds.seen_classes, np.arange(10))
    assert np.array_equal(ds.unseen_classes, np.arange(10, 15))


def test_synth_determinism():
    spec = SynthSpec(m=12, d=6, k=9, num_seen_classes=4, num_unseen_classes=2,
                     samples_per_class=5, noise_sigma=0.1, seed=33)
    ds1, planted1 = synth_generate(spec)
    ds2, planted2 = synth_generate(spec)
    assert np.array_equal(ds1.visual_seen, ds2.visual_seen)
    assert np.array_equal(ds1.prototypes, ds2.prototypes)
    assert np.array_equal(planted1.A_true, planted2.A_true)


def test_synth_construction_identities():
    spec = SynthSpec(noise_sigma=0.0)
    ds, planted = synth_generate(spec)
    # planted visual map has orthonormal rows
    k = planted.A_true.shape[0]
    assert np.allclose(planted.A_true @ planted.A_true.T, np.eye(k), atol=1e-10)
    # noiseless samples recover their class concept exactly
    lifted = planted.A_true @ ds.visual_seen
    for i, label in enumerate(ds.labels_seen):
        assert np.linalg.norm(lifted[:, i] - planted.concept_means[:, label]) <= 1e-10
    # concept means are unit norm with disjoint support blocks
    norms = np.linalg.norm(planted.concept_means, axis=0)
    assert np.allclose(norms, 1.0)
    support = planted.concept_means > 0
    assert np.array_equal(support.sum(axis=1), np.ones(k))


def test_planted_model_classifies_noiseless_unseen_perfectly():
    ds, planted = synth_generate(SynthSpec(noise_sigma=0.0))
    embedded = planted.B_true.T @ (planted.A_true @ ds.visual_unseen)
    candidates = ds.prototypes[:, ds.unseen_classes]
    correct = 0
    for i in range(ds.n_unseen):
        pred = ds.unseen_classes[classify(embedded[:, i], candidates, "cosine")]
        correct += int(pred == ds.labels_unseen[i])
    assert correct == ds.n_unseen


def test_synth_spec_validation():
    with pytest.raises(InvalidSpecError):
        SynthSpec(k=10, num_seen_classes=8, num_unseen_classes=3)
    with pytest.raises(InvalidSpecError):
        SynthSpec(m=30, k=40)
    with pytest.raises(InvalidSpecError):
        SynthSpec(noise_sigma=-0.1)
    with pytest.raises(InvalidSpecError):
        SynthSpec(samples_per_class=0)
    with pytest.raises(InvalidSpecError, match="samples_per_class"):
        SynthSpec(samples_per_class=True)
    with pytest.raises(InvalidSpecError, match="num_unseen_classes"):
        SynthSpec(num_unseen_classes=5.0)


@pytest.mark.parametrize(
    "noise", ["0.05", None, True, 1j, pytest.param(10**400, id="10**400"), -0.1, float("nan")]
)
def test_synth_spec_rejects_a_noise_sigma_that_is_no_finite_number(noise):
    with pytest.raises(InvalidSpecError, match="noise_sigma"):
        SynthSpec(noise_sigma=noise)
    assert SynthSpec(noise_sigma=0).noise_sigma == 0


@pytest.mark.parametrize("seed", [-1, 2**63, 10**20, 1.5, True])
def test_synth_spec_rejects_seeds_outside_int64(seed):
    with pytest.raises(InvalidSpecError, match="seed"):
        SynthSpec(seed=seed)
    assert SynthSpec(seed=2**63 - 1).seed == 2**63 - 1

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from jcmspl.archive import (
    FORMAT_VERSION,
    MAGIC,
    fingerprint_dataset,
    load_model,
    save_model,
)
from jcmspl.dataset import SynthSpec, synth_generate
from jcmspl.errors import ArchiveError
from jcmspl.recognizer import eval_standard
from jcmspl.trainer import Hyperparams, JcmsplModel, fit
from malformed import ARCHIVE_HOLES, VARIANT_AT


def small_dataset():
    return synth_generate(SynthSpec(m=16, d=8, k=12, num_seen_classes=4,
                                    num_unseen_classes=2, samples_per_class=8))


def trained_model(variant="full"):
    ds, _ = small_dataset()
    k = 1 if variant == "fpl" else 6
    model, _ = fit(ds, Hyperparams(k=k, t_max=10, seed=0, variant=variant))
    return ds, model


def test_round_trip_is_bit_exact(tmp_path):
    ds, model = trained_model()
    path = tmp_path / "model.bin"
    save_model(path, model, fingerprint_dataset(ds))
    loaded = load_model(path)
    assert loaded.model.variant == model.variant
    assert loaded.model.hyper == model.hyper
    assert np.array_equal(loaded.model.A, model.A)
    assert np.array_equal(loaded.model.B, model.B)
    assert np.array_equal(loaded.model.C, model.C)
    assert loaded.fingerprint == fingerprint_dataset(ds)


def test_round_trip_fpl_omits_b_and_c(tmp_path):
    ds, model = trained_model("fpl")
    path = tmp_path / "fpl.bin"
    save_model(path, model, fingerprint_dataset(ds))
    loaded = load_model(path)
    assert loaded.model.B is None and loaded.model.C is None
    assert np.array_equal(loaded.model.A, model.A)


def test_saved_file_is_deterministic(tmp_path):
    ds, model = trained_model()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(p1, model, fingerprint_dataset(ds))
    save_model(p2, model, fingerprint_dataset(ds))
    assert p1.read_bytes() == p2.read_bytes()


def test_evaluation_identical_after_round_trip(tmp_path):
    ds, model = trained_model()
    path = tmp_path / "model.bin"
    save_model(path, model, fingerprint_dataset(ds))
    loaded = load_model(path).model
    before = eval_standard(model, ds, "v2s", "cosine")
    after = eval_standard(loaded, ds, "v2s", "cosine")
    assert before == after


def test_fingerprint_tracks_content():
    ds, _ = small_dataset()
    fp1 = fingerprint_dataset(ds)
    fp2 = fingerprint_dataset(ds)
    assert fp1.sha256 == fp2.sha256
    other, _ = synth_generate(SynthSpec(m=16, d=8, k=12, num_seen_classes=4,
                                        num_unseen_classes=2, samples_per_class=8,
                                        seed=99))
    assert fingerprint_dataset(other).sha256 != fp1.sha256
    payload = fp1.to_dict()
    assert payload["sha256"] == fp1.sha256
    assert payload["n_seen"] == ds.n_seen and payload["n_unseen"] == ds.n_unseen


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ArchiveError):
        load_model(path)


def test_rejects_bad_version(tmp_path):
    ds, model = trained_model()
    path = tmp_path / "model.bin"
    save_model(path, model, fingerprint_dataset(ds))
    raw = bytearray(path.read_bytes())
    version_field = np.array([FORMAT_VERSION + 1], dtype="<u4").tobytes()
    raw[len(MAGIC):len(MAGIC) + 4] = version_field
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveError):
        load_model(path)


def test_rejects_truncation(tmp_path):
    ds, model = trained_model()
    path = tmp_path / "model.bin"
    save_model(path, model, fingerprint_dataset(ds))
    raw = path.read_bytes()
    for cut in (len(raw) // 3, len(raw) - 5):
        clipped = tmp_path / f"cut_{cut}.bin"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(ArchiveError):
            load_model(clipped)


@pytest.mark.parametrize("case", sorted(ARCHIVE_HOLES))
def test_rejects_malformed_archive(tmp_path, case):
    ds, model = trained_model()
    path = tmp_path / "model.bin"
    save_model(path, model, fingerprint_dataset(ds))
    path.write_bytes(ARCHIVE_HOLES[case](path.read_bytes()))
    with pytest.raises(ArchiveError):
        load_model(path)


def test_rejects_joint_variant_without_b(tmp_path):
    # two bytes turn an fpl archive (no B) into an ipl one: the first of
    # the variant and of the hyperparameters' variant
    ds, model = trained_model("fpl")
    path = tmp_path / "fpl.bin"
    save_model(path, model, fingerprint_dataset(ds))
    raw = bytearray(path.read_bytes())
    for at in (VARIANT_AT, VARIANT_AT + len("fpl") + struct.calcsize("<4dqqdqd") + 4):
        assert raw[at:at + 3] == b"fpl"
        raw[at] = ord("i")
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveError, match="ipl archive has no B matrix"):
        load_model(path)


@pytest.mark.parametrize("case", ["fpl_with_b", "fpl_with_c"])
def test_rejects_fpl_archive_with_b_or_c(tmp_path, case):
    # an fpl archive holds A only; the extra matrix has the joint shape
    ds, model = trained_model("fpl")
    name = case[-1].upper()
    k = model.hyper.k
    extra = np.ones((k, ds.d) if name == "B" else (k, ds.n_seen))
    path = tmp_path / "fpl.bin"
    save_model(path, dataclasses.replace(model, **{name: extra}), fingerprint_dataset(ds))
    with pytest.raises(ArchiveError, match=f"fpl archive holds a {name} matrix"):
        load_model(path)


def reference_sha256(ds) -> str:
    # the fingerprint's definition: each array in field order as the
    # row-major bytes of <f8 features or <i8 ids
    digest = hashlib.sha256()
    for field in dataclasses.fields(ds):
        arr = getattr(ds, field.name)
        kind = "<f8" if np.issubdtype(arr.dtype, np.floating) else "<i8"
        digest.update(arr.astype(kind).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("layout", ["C", "F", "column_slice"])
def test_fingerprint_hashes_the_row_major_bytes_of_every_layout(layout):
    ds, _ = small_dataset()
    features = ("visual_seen", "visual_unseen", "prototypes")
    if layout == "F":
        changed = {name: np.asfortranarray(getattr(ds, name)) for name in features}
    elif layout == "C":
        changed = {}
    else:  # every other column of a twice-as-wide matrix: not contiguous
        changed = {name: np.repeat(getattr(ds, name), 2, axis=1)[:, ::2] for name in features}
    ds_layout = dataclasses.replace(ds, **changed)
    for name in changed:
        arr = getattr(ds_layout, name)
        assert not arr.flags.c_contiguous and np.array_equal(arr, getattr(ds, name))
    sha = fingerprint_dataset(ds_layout).sha256
    assert sha == reference_sha256(ds_layout) == fingerprint_dataset(ds).sha256


def test_fingerprint_of_the_default_synth_is_pinned():
    # a changed digest would make every existing archive's eval print
    # "dataset checksum differs"
    ds, _ = synth_generate(SynthSpec())
    expected = "b3fb2ec58b8fa348865e0ca2d09e6e40f4634819fed8d91c139ec783d4120e82"
    assert fingerprint_dataset(ds).sha256 == reference_sha256(ds) == expected

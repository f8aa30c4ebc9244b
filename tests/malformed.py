"""Malformed inputs shared by the reader and CLI tests.

Each table maps a case name to a corruption of a well-formed input.  The
archive offsets hold for a ``full`` model (see ``jcmspl.archive`` for the
layout); every case must make the reader raise its package error, which
the CLI turns into exit code 3.
"""

import json
import math
import struct

VARIANT_AT = 4 + 4 + 4  # magic, format version, variant string length
T_MAX_AT = VARIANT_AT + len("full") + 4 * 8 + 8  # four lambdas, then k
FINGERPRINT_AT = (
    VARIANT_AT + len("full")
    + struct.calcsize("<4dqqdqd")
    + 4 + len("full")  # hyperparameter variant
)  # m, d, n_seen, n_unseen, c_seen, c_unseen
A_FLAG_AT = (
    FINGERPRINT_AT
    + struct.calcsize("<6q")  # fingerprint dimensions
    + 4 + 64  # fingerprint SHA-256 hex digest
)


def _patch(offset, data):
    return lambda raw: raw[:offset] + data + raw[offset + len(data):]


# model.bin bytes -> corrupted bytes
ARCHIVE_HOLES = {
    "non_utf8_string": _patch(VARIANT_AT, b"\xff\xfe\xfd\xfc"),
    "rejected_hyperparams": _patch(T_MAX_AT, struct.pack("<q", 0)),
    "unknown_variant": _patch(VARIANT_AT, b"zzzz"),
    "bad_presence_flag": _patch(A_FLAG_AT, b"\x07"),
    "negative_shape": _patch(A_FLAG_AT + 1, struct.pack("<q", -1)),
    "non_finite_payload": _patch(A_FLAG_AT + 17, struct.pack("<d", math.inf)),
    "trailing_bytes": lambda raw: raw + b"\x00",
    # the training data had m = 16 ...
    "fingerprint_disagrees_with_a": _patch(FINGERPRINT_AT, struct.pack("<q", 17)),
    # and d = 8
    "fingerprint_disagrees_with_b": _patch(FINGERPRINT_AT + 8, struct.pack("<q", 9)),
}

# (file written by save_manifest, text -> corrupted text)
CSV_HOLES = {
    "non_numeric_cell": ("visual_seen.csv", lambda text: "abc," + text),
    "ragged_row": ("visual_seen.csv", lambda text: text.replace("\n", ",1\n", 1)),
    "non_integer_label": ("labels_seen.csv", lambda text: "1.5\n" + text.split("\n", 1)[1]),
}

# manifest dict -> corrupted manifest bytes
MANIFEST_HOLES = {
    "not_utf8": lambda spec: b"\xff" + json.dumps(spec).encode(),
    "file_entry_not_a_string": lambda spec: json.dumps({**spec, "prototypes": 5}).encode(),
    "class_ids_not_integers": lambda spec: json.dumps(
        {**spec, "seen_classes": ["a", "b"]}).encode(),
    "not_an_object": lambda spec: b"5",
    "nested_too_deep": lambda spec: b"[" * 100_000,
}

# an inline class id beyond int64: its JSON text, and how the error names
# it once parsed (JSON's 1e400 is the float inf)
ID_RANGE_HOLES = {
    "float_beyond_int64": ("1e400", "inf"),
    "int_beyond_int64": ("99999999999999999999999", "99999999999999999999999"),
}


def with_first_seen_class_id(spec, text):
    """Manifest bytes whose first seen class id is the JSON text ``text``."""
    raw = json.dumps({**spec, "seen_classes": ["@"] + spec["seen_classes"][1:]})
    return raw.replace('"@"', text).encode()

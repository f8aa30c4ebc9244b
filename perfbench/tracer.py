"""Spans around the library's public calls, for the traced run only.

``Tracer.install()`` rebinds each function in ``WRAPPED`` in the module
namespace that calls it (``cli`` and ``trainer`` import their callees by
name, so wrapping the defining module alone would miss those calls) and
``uninstall()`` puts the originals back.  Nothing is installed in an
untraced run.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span or None, ``op`` the operation it belongs to,
and ``attrs`` the counts read off the call (bytes, iterations, queries).
Spans are kept in memory and written out once, by ``dump``.  Calls made
outside an operation (set-up, checks) record nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _fit_counts(args, kwargs, result):
    trace = result[1]
    return {"iterations": trace.iterations, "ridge_fallbacks": len(trace.warnings)}


def _queries(args, kwargs, result):
    return {"queries": result.shape[0]}


# (module, attribute, span name, attribute reader)
WRAPPED = [
    ("jcmspl.cli", "main", "cli.main", None),
    ("jcmspl.cli", "load_manifest", "dataset.load_manifest", None),
    ("jcmspl.cli", "save_manifest", "dataset.save_manifest", None),
    ("jcmspl.cli", "synth_generate", "dataset.synth_generate", None),
    ("jcmspl.cli", "normalize", "dataset.normalize", None),
    ("jcmspl.dataset", "read_matrix", "dataset.read_matrix", _file_bytes),
    ("jcmspl.dataset", "write_matrix", "dataset.write_matrix", _file_bytes),
    ("jcmspl.dataset", "read_labels", "dataset.read_labels", None),
    ("jcmspl.dataset", "write_labels", "dataset.write_labels", None),
    ("jcmspl", "fit", "trainer.fit", _fit_counts),
    ("jcmspl.cli", "fit", "trainer.fit", _fit_counts),
    ("jcmspl.cli", "write_trace_csv", "trainer.write_trace_csv", None),
    ("jcmspl.trainer", "loss", "trainer.loss", None),
    ("jcmspl.trainer", "a_update_operands", "trainer.a_update_operands", None),
    ("jcmspl.trainer", "b_update_operands", "trainer.b_update_operands", None),
    ("jcmspl.trainer", "descent_constants", "trainer.descent_constants", None),
    ("jcmspl.trainer", "build_class_matrix", "trainer.build_class_matrix", None),
    ("jcmspl.trainer", "fpl_fit", "trainer.fpl_fit", None),
    ("jcmspl.trainer", "update_A", "trainer.update_A", None),
    ("jcmspl.trainer", "update_B", "trainer.update_B", None),
    ("jcmspl.trainer", "update_C", "trainer.update_C", None),
    ("jcmspl.trainer", "sylvester_solve", "linalg.sylvester_solve", None),
    ("jcmspl.trainer", "solve_spd", "linalg.solve_spd", None),
    ("jcmspl.linalg", "symmetric_eigen", "linalg.symmetric_eigen", None),
    ("jcmspl.cli", "eval_standard", "recognizer.eval_standard", None),
    ("jcmspl.cli", "eval_hit_at_k", "recognizer.eval_hit_at_k", None),
    ("jcmspl.cli", "eval_generalized", "recognizer.eval_generalized", None),
    ("jcmspl.recognizer", "distance_matrix", "recognizer.distance_matrix", _queries),
    ("jcmspl.cli", "save_model", "archive.save_model", _file_bytes),
    ("jcmspl.cli", "load_model", "archive.load_model", _file_bytes),
    ("jcmspl.cli", "fingerprint_dataset", "archive.fingerprint_dataset", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, reader in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, reader))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, original, name, reader):
        def traced(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if reader is not None:
                span[5] = reader(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def op_totals(spans) -> dict:
    """Per operation and span name: calls, inclusive and exclusive
    seconds, and summed attributes."""
    child = defaultdict(float)
    for name, start, end, parent, op, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    totals = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for idx, (name, start, end, parent, op, attrs) in enumerate(spans):
        entry = totals[op][name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[idx]
        for key, value in (attrs or {}).items():
            entry[key] += value
    return totals


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(t) -> dict:
    """The per-layer metrics of one operation, from its span totals ``t``
    (layers not called read 0)."""
    m = {"cli.main.calls": t["cli.main"]["calls"],
         "cli.self_s": t["cli.main"]["self_s"]}
    for fn in ("read_matrix", "write_matrix"):
        e = t[f"dataset.{fn}"]
        m[f"dataset.{fn}.calls"] = e["calls"]
        m[f"dataset.{fn}.s"] = e["s"]
        m[f"dataset.{fn}.mb_per_s"] = _rate(e["bytes"] / 1e6, e["s"])
    for fn in ("read_labels", "write_labels", "synth_generate", "normalize"):
        m[f"dataset.{fn}.s"] = t[f"dataset.{fn}"]["s"]
    for fn in ("load_manifest", "save_manifest"):
        m[f"dataset.{fn}.self_s"] = t[f"dataset.{fn}"]["self_s"]
    e = t["trainer.fit"]
    for key in ("calls", "s", "self_s", "iterations", "ridge_fallbacks"):
        m[f"trainer.fit.{key}"] = e[key]
    m["trainer.loss.calls"] = t["trainer.loss"]["calls"]
    m["trainer.loss.s"] = t["trainer.loss"]["s"]
    for fn in ("a_update_operands", "b_update_operands", "descent_constants",
               "build_class_matrix", "fpl_fit", "write_trace_csv"):
        m[f"trainer.{fn}.s"] = t[f"trainer.{fn}"]["s"]
    for fn in ("update_A", "update_B", "update_C"):
        m[f"trainer.{fn}.self_s"] = t[f"trainer.{fn}"]["self_s"]
    for key in ("calls", "s", "self_s"):
        m[f"linalg.sylvester_solve.{key}"] = t["linalg.sylvester_solve"][key]
    for fn in ("symmetric_eigen", "solve_spd"):
        m[f"linalg.{fn}.calls"] = t[f"linalg.{fn}"]["calls"]
        m[f"linalg.{fn}.s"] = t[f"linalg.{fn}"]["s"]
    eval_s = 0.0
    for fn in ("eval_standard", "eval_hit_at_k", "eval_generalized"):
        m[f"recognizer.{fn}.s"] = t[f"recognizer.{fn}"]["s"]
        eval_s += t[f"recognizer.{fn}"]["s"]
    m["recognizer.distance_matrix.calls"] = t["recognizer.distance_matrix"]["calls"]
    m["recognizer.distance_matrix.s"] = t["recognizer.distance_matrix"]["s"]
    # queries ranked per second of evaluation
    m["recognizer.queries_per_s"] = _rate(t["recognizer.distance_matrix"]["queries"], eval_s)
    for key in ("calls", "s", "bytes"):
        m[f"archive.save_model.{key}"] = t["archive.save_model"][key]
    m["archive.load_model.s"] = t["archive.load_model"]["s"]
    m["archive.load_model.bytes"] = t["archive.load_model"]["bytes"]
    m["archive.fingerprint_dataset.calls"] = t["archive.fingerprint_dataset"]["calls"]
    m["archive.fingerprint_dataset.s"] = t["archive.fingerprint_dataset"]["s"]
    return m


def median_layer_metrics(spans, ops) -> dict:
    """Median over the traced operations ``ops`` of each layer metric."""
    totals = op_totals(spans)
    per_op = [layer_metrics(totals[op]) for op in ops or [None]]
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}

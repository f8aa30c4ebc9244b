"""Command-line front end.

Subcommands: ``train`` (fit a model from a manifest), ``eval``
(standard, top-K or generalized scoring of a saved model), ``ablate``
(train and score the variant ladder) and ``synth`` (generate the
planted-model benchmark).

Exit codes come from one table, ``EXIT_CODES``, keyed by error class;
``main`` looks an error up along its ``__mro__``, so the most specific
class wins:

- 0 success;
- 2 invalid configuration: bad hyperparameters, synth spec, top-K,
  holdout fraction or flag combination;
- 3 data errors: a missing or malformed manifest, CSV file or model
  archive, and any OS error on an input or output path;
- 4 numerical failures during training (trainer and linear-algebra
  errors), and ``MemoryError``: an allocation no memory can hold, such
  as the k x c block indicators of ``--k 1000000000000000`` (71 PiB);
- 5 model/dataset mismatches at evaluation time (dimension mismatches
  and recognizer errors).

All outputs are deterministic: the same flags on the same inputs
reproduce every file byte for byte.  ``ablate`` fits its variants on
forked workers, one per usable core, and its files, stdout, stderr,
warnings and exit code are those of a serial run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
import warnings
from pathlib import Path

from . import __version__, workers
from .archive import DatasetFingerprint, fingerprint_dataset, load_model, save_model
from .dataset import (
    NORMALIZE_MODES,
    SynthSpec,
    ZslDataset,
    block_partition,
    load_manifest,
    normalize,
    save_manifest,
    synth_generate,
    write_json,
    write_table,
)
from .errors import (
    ArchiveError,
    DatasetError,
    DimensionMismatchError,
    InvalidFractionError,
    InvalidHyperparamsError,
    InvalidKError,
    InvalidSpecError,
    JcmsplError,
    OutOfRangeError,
    RecognizerError,
)
# eval_hit_at_k stays for perfbench's tracer to rebind
from .recognizer import (
    DEGENERATE_RTOL,
    DIRECTIONS,
    DISTANCES,
    check_holdout,
    eval_generalized,
    eval_hit_at_k,
    eval_standard,
)
from .trainer import (
    VARIANTS,
    Hyperparams,
    JcmsplModel,
    fit,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4
EXIT_EVAL = 5

# the paper's per-dataset lambda values; not validated here on real features
PRESETS = {
    "awa": {"lambda1": 1e-3, "lambda2": 1e3, "lambda3": 1e7, "lambda4": 1e2},
    "cub": {"lambda1": 1.0, "lambda2": 1e-3, "lambda3": 1e4, "lambda4": 1e-1},
    "sun": {"lambda1": 1e-4, "lambda2": 1e-2, "lambda3": 1e-4, "lambda4": 1e-4},
    "imnet": {"lambda1": 1e-5, "lambda2": 1e-5, "lambda3": 1e1, "lambda4": 1e-4},
}

ABLATION_ORDER = VARIANTS[::-1]
LAMBDAS = ("lambda1", "lambda2", "lambda3", "lambda4")
# the Hyperparams fields that train and ablate take as flags, besides k
HYPER_FLAGS = LAMBDAS + ("t_max", "tol", "seed", "ridge_eps")
SYNTH_FLAGS = tuple(f.name for f in dataclasses.fields(SynthSpec))


class UsageError(Exception):
    """A flag combination the argument parser cannot reject by itself."""


# Error class -> exit code.  exit_code() takes the entry of the most
# specific class along the error's __mro__: InvalidSpecError (a
# DatasetError) gives 2, DimensionMismatchError (a LinalgError) gives 5, and
# a trainer or linear-algebra error with no entry of its own takes the bare
# base JcmsplError's 4, the code train gives any error from fit.
# ValueError has no entry: argparse guards every flag that raises it, and
# the readers convert their own parse errors to DatasetError.
EXIT_CODES = {
    UsageError: EXIT_CONFIG,
    InvalidHyperparamsError: EXIT_CONFIG,
    InvalidSpecError: EXIT_CONFIG,
    InvalidKError: EXIT_CONFIG,
    InvalidFractionError: EXIT_CONFIG,
    OutOfRangeError: EXIT_CONFIG,
    DatasetError: EXIT_DATA,
    ArchiveError: EXIT_DATA,
    OSError: EXIT_DATA,
    JcmsplError: EXIT_TRAIN,
    MemoryError: EXIT_TRAIN,
    DimensionMismatchError: EXIT_EVAL,
    RecognizerError: EXIT_EVAL,
}


def exit_code(exc: BaseException) -> int:
    """Exit code of the most specific class of ``exc`` in ``EXIT_CODES``."""
    return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


def _given(args, names) -> dict:
    """The flags among ``names`` that the user set; argparse leaves the
    others None, so the dataclass they configure keeps its own default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _build_hyper(args, variant: str) -> Hyperparams:
    # an explicit flag beats the preset
    values = {**PRESETS.get(args.preset, {}), **_given(args, HYPER_FLAGS)}
    k = args.k
    if k is None:
        if variant != "fpl":
            raise UsageError("--k is required (no default exists)")
        k = 1
    return Hyperparams(k=k, variant=variant, **values)


def _normalize(dataset: ZslDataset, mode: str, *names: str) -> None:
    """Normalize the named feature matrices of ``dataset`` in place, so
    each matrix is held once.  Dividing finite columns by their norms keeps
    every entry finite and every shape, so the dataset's checks still hold."""
    for name in names:
        normalize(getattr(dataset, name), mode, in_place=True)


def _load_normalized(manifest, mode: str) -> tuple[DatasetFingerprint, ZslDataset]:
    """Fingerprint the manifest's raw arrays, then normalize both visual
    feature matrices in place."""
    dataset = load_manifest(manifest)
    fingerprint = fingerprint_dataset(dataset)
    _normalize(dataset, mode, "visual_seen", "visual_unseen")
    return fingerprint, dataset


def cmd_train(args) -> int:
    hyper = _build_hyper(args, args.variant)
    fingerprint, dataset = _load_normalized(args.manifest, args.normalize)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, trace = fit(dataset, hyper)
    save_model(out / "model.bin", model, fingerprint)
    write_trace_csv(trace, out / "trace.csv")
    eff = hyper.effective()
    summary = {
        "variant": hyper.variant,
        "hyperparams": dataclasses.asdict(hyper),
        "effective_lambdas": {name: getattr(eff, name) for name in LAMBDAS},
        "normalize": args.normalize,
        "initial_loss": trace.losses[0],
        "final_loss": trace.losses[-1],
        "iterations": trace.iterations,
        "converged": trace.converged_at is not None,
        "converged_at": trace.converged_at,
        "ridge_warnings": len(trace.warnings),
        "dataset": fingerprint.to_dict(),
        "outputs": {"model": "model.bin", "trace": "trace.csv"},
    }
    write_json(out / "summary.json", summary)
    print(
        f"trained variant={hyper.variant} final_loss={trace.losses[-1]:.6g} "
        f"iterations={trace.iterations} converged={trace.converged_at is not None}"
    )
    print(f"wrote {out / 'model.bin'}")
    return EXIT_OK


def _load_model_checked(model_path, fingerprint: DatasetFingerprint):
    archive = load_model(model_path)
    fp = archive.fingerprint
    if fp.m != fingerprint.m or fp.d != fingerprint.d:
        raise DimensionMismatchError(
            f"model was trained for dimensions m={fp.m}, d={fp.d}; "
            f"dataset has m={fingerprint.m}, d={fingerprint.d}",
        )
    if fp.sha256 != fingerprint.sha256:
        print(
            "note: dataset checksum differs from the training-time fingerprint",
            file=sys.stderr,
        )
    return archive.model


def cmd_eval(args) -> int:
    if args.gzsl and args.direction == "s2v":
        raise UsageError("generalized scoring is defined for v2s only")
    if args.gzsl and args.hit_k is not None:
        raise UsageError("--hit-k cannot be combined with --gzsl")
    if args.gzsl:
        check_holdout(args.holdout, args.seed)
    if args.hit_k is not None and args.hit_k < 1:
        # the upper bound, the unseen class count, needs the manifest
        raise InvalidKError(f"K must be >= 1, got {args.hit_k}")
    dataset = load_manifest(args.manifest)
    model = _load_model_checked(args.model, fingerprint_dataset(dataset))
    # normalize only the features the protocol scores
    if args.gzsl:
        _normalize(dataset, args.normalize, "visual_seen", "visual_unseen")
        report = eval_generalized(model, dataset, args.holdout, args.seed, args.distance)
    else:
        _normalize(dataset, args.normalize, "visual_unseen")
        report = eval_standard(model, dataset, args.direction, args.distance, args.hit_k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "model": str(args.model),
        "manifest": str(args.manifest),
        "normalize": args.normalize,
        "protocol": "generalized" if args.gzsl else "standard",
        "holdout_fraction": args.holdout if args.gzsl else None,
        "split_seed": args.seed if args.gzsl else None,
        "report": report.to_dict(),
    }
    write_json(out / "report.json", payload)
    line = (
        f"overall_accuracy={report.overall_accuracy:.6f} "
        f"per_class_mean={report.per_class_mean_accuracy:.6f}"
    )
    if report.hm is not None:
        line += f" acc_s={report.acc_s:.6f} acc_u={report.acc_u:.6f} hm={report.hm:.6f}"
    if report.hit_at_k is not None:
        line += f" hit@{report.hit_at_k[0]}={report.hit_at_k[1]:.6f}"
    print(line)
    if report.degenerate_queries:
        print(
            f"warning: {report.degenerate_queries} query embedding(s) are roundoff "
            f"(norm <= {DEGENERATE_RTOL:g} * ||map||_2 * ||query||); "
            "their predictions, and the accuracy, rank noise",
            file=sys.stderr,
        )
    return EXIT_OK


def _ablate_child(pipe, variants, ablate) -> None:
    """Run ``ablate`` on each of ``variants`` in a forked child, under the
    filters it inherited, and write ``[row, exit code]`` for each to ``pipe``
    as JSON.  A child that records a warning writes nothing, so that the
    caller runs the range again and shows the warning as a serial run
    would; one the filters turn into an error kills the child."""
    with warnings.catch_warnings(record=True) as caught:
        results = [ablate(variant) for variant in variants]
    if not caught:
        # float repr round-trips every loss and accuracy exactly
        pipe.write(json.dumps(results).encode())


def _child_results(child) -> list | None:
    """``[row, exit code]`` of each variant of ``child``; None when the child
    failed or wrote no reply or a short one."""
    reply = child.pipe.readall()
    if not child.join():
        return None
    try:
        return json.loads(reply)
    except ValueError:
        return None


def _reported(row: dict, code: int) -> tuple[dict, int]:
    if code != EXIT_OK:
        print(f"jcmspl ablate: {row['variant']}: {row['error']}", file=sys.stderr)
    return row, code


def cmd_ablate(args) -> int:
    # the flags are checked once, before any file is read; variants differ
    # only in the variant field
    hyper = _build_hyper(args, "full")
    fingerprint, dataset = _load_normalized(args.manifest, args.normalize)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def ablate(variant: str) -> tuple[dict, int]:
        """Train, score and save one variant: its row and exit code."""
        row = {
            "variant": variant,
            "loss": None,
            "iters": None,
            "acc_v2s": None,
            "acc_s2v": None,
            "error": None,
        }
        try:
            model, trace = fit(dataset, dataclasses.replace(hyper, variant=variant))
            row["loss"] = trace.losses[-1]
            row["iters"] = trace.iterations
            row["acc_v2s"] = eval_standard(
                model, dataset, direction="v2s", distance=args.distance
            ).overall_accuracy
            if variant != "fpl":
                row["acc_s2v"] = eval_standard(
                    model, dataset, direction="s2v", distance=args.distance
                ).overall_accuracy
            save_model(out / f"model_{variant}.bin", model, fingerprint)
        except tuple(EXIT_CODES) as exc:
            row["error"] = str(exc)
            return row, exit_code(exc)
        return row, EXIT_OK

    # The caller fits the first range of variants while one forked child
    # fits each other range.  The caller then reports each variant in order,
    # and runs again itself the range of a child it could not fork, that
    # failed or that recorded a warning, so every error and warning is the
    # serial one.
    count = workers.count(len(ABLATION_ORDER))
    head, *rest = [ABLATION_ORDER[start:stop]
                   for start, stop in block_partition(len(ABLATION_ORDER), count)]
    with workers.forked(_ablate_child, rest, ablate) as children:
        results = [_reported(*ablate(variant)) for variant in head]
        for variants, child in itertools.zip_longest(rest, children):
            replies = None if child is None else _child_results(child)
            if replies is None:
                results += [_reported(*ablate(variant)) for variant in variants]
            else:
                results += [_reported(*reply) for reply in replies]
    rows = [row for row, _ in results]
    first_failure = next((code for _, code in results if code != EXIT_OK), EXIT_OK)

    columns = ("variant", "loss", "iters", "acc_v2s", "acc_s2v")
    write_table(out / "ablation.csv", columns, [[row[key] for key in columns] for row in rows])
    write_json(out / "ablation.json", {"dataset": fingerprint.to_dict(), "rows": rows})
    for row in rows:
        acc = "-" if row["acc_v2s"] is None else f"{row['acc_v2s']:.6f}"
        print(f"{row['variant']:>8s}  acc_v2s={acc}")
    return first_failure


def cmd_synth(args) -> int:
    spec = SynthSpec(**_given(args, SYNTH_FLAGS))
    dataset, planted = synth_generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_manifest(dataset, out / "manifest.json")
    planted_model = JcmsplModel(
        A=planted.A_true,
        B=planted.B_true,
        variant="full",
        hyper=Hyperparams(k=spec.k, seed=spec.seed),
    )
    save_model(out / "planted_model.bin", planted_model, fingerprint_dataset(dataset))
    print(f"wrote {out / 'manifest.json'} ({dataset.n_seen} seen / "
          f"{dataset.n_unseen} unseen samples)")
    print(f"wrote {out / 'planted_model.bin'}")
    return EXIT_OK


def _add_hyper_flags(sub):
    # no default here: an unset flag keeps the Hyperparams default
    sub.add_argument("--k", type=int,
                     help="concept-space dimension (required; no default)")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="the paper's lambda values for a dataset, not validated "
                          "here on real features; explicit flags override them")
    for name in LAMBDAS:
        sub.add_argument(f"--{name}", type=float)
    sub.add_argument("--t-max", type=int, help="iteration cap")
    sub.add_argument("--tol", type=float, help="relative loss-change stopping threshold")
    sub.add_argument("--seed", type=int, help="initialization seed")
    sub.add_argument("--ridge-eps", type=float,
                     help="fallback damping for singular Gram matrices")
    sub.add_argument("--normalize", choices=NORMALIZE_MODES, default="l2_columns",
                     help="visual feature normalization (default l2_columns)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves
    it as it is, and each build leaves hundreds of argparse objects in
    reference cycles for the garbage collector."""
    parser = argparse.ArgumentParser(
        prog="jcmspl",
        description="Joint concept matching-space projection learning for "
                    "inductive zero-shot recognition.",
    )
    parser.add_argument("--version", action="version", version=f"jcmspl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model from a dataset manifest")
    train.add_argument("--manifest", required=True)
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--variant", choices=VARIANTS, default="full")
    _add_hyper_flags(train)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a saved model on a manifest")
    ev.add_argument("--model", required=True)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--out", default=".", help="directory for report.json")
    ev.add_argument("--direction", choices=DIRECTIONS, default="v2s")
    ev.add_argument("--distance", choices=DISTANCES, default="cosine")
    ev.add_argument("--hit-k", type=int, default=None,
                    help="also report the top-K hit rate")
    ev.add_argument("--gzsl", action="store_true",
                    help="generalized protocol over seen and unseen classes")
    ev.add_argument("--holdout", type=float, default=0.2,
                    help="seen-class holdout fraction for --gzsl")
    ev.add_argument("--seed", type=int, default=0, help="holdout split seed")
    ev.add_argument("--normalize", choices=NORMALIZE_MODES, default="l2_columns")
    ev.set_defaults(func=cmd_eval)

    ab = sub.add_parser("ablate", help="train and score every variant")
    ab.add_argument("--manifest", required=True)
    ab.add_argument("--out", required=True, help="output directory")
    ab.add_argument("--distance", choices=DISTANCES, default="cosine")
    _add_hyper_flags(ab)
    ab.set_defaults(func=cmd_ablate)

    sy = sub.add_parser("synth", help="generate the planted-model benchmark")
    sy.add_argument("--out", required=True, help="output directory")
    # no default here: an unset flag keeps the SynthSpec default
    sy.add_argument("--m", type=int, help="visual dimension")
    sy.add_argument("--d", type=int, help="semantic dimension")
    sy.add_argument("--k", type=int, help="concept dimension")
    sy.add_argument("--cs", type=int, dest="num_seen_classes", help="seen class count")
    sy.add_argument("--cu", type=int, dest="num_unseen_classes", help="unseen class count")
    sy.add_argument("--spc", type=int, dest="samples_per_class", help="samples per class")
    sy.add_argument("--noise", type=float, dest="noise_sigma", help="noise level")
    sy.add_argument("--seed", type=int)
    sy.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"jcmspl {args.command}: error: {exc}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())

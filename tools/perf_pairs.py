#!/usr/bin/env python3
"""Alternating perfbench pairs of the working tree and a parent commit.

Run from the repository root:

    python3 tools/perf_pairs.py --parent HEAD~1 --workload large_io small_cli \\
        --seeds 31 32 33 34 51 52 53 54 55 56

For each workload in turn, pair i runs ``perfbench/run.py --workload W
--seed seeds[i] --seconds S --trace 0`` once in the working tree and once
in a clean tree of the parent commit, the parent first on even pairs and
the working tree first on odd ones; every workload gets the same seeds.
The parent tree is exported with ``git archive`` into a temporary
directory, which is removed at the end: unlike a ``git worktree`` it
registers nothing in the repository, so an interrupted run leaves nothing
behind there.  Nothing else should run on the host meanwhile: both sides
time the same cores.

It prints, for each workload and each end-to-end metric of BENCHMARK.json,
every pair's values and relative change, the wins of the working tree
(ties count for neither), each side's median and quartiles, whether the
change's median is within the metric's ``bound`` of the parent's (no worse
by more than that fraction: the no-regression rule), and whether the gain
rule of the benchmark's guides holds: at least ten pairs, the change wins
at least nine tenths of them, and the medians differ by more than the
distance between the parent's quartiles.  A metric whose parent quartile
spread is wider than its bound (as a fraction of the parent's median)
reads "within bound: unresolved" rather than "yes": runs that noisy cannot
show that the change stays within the bound, unless every change run
beats every parent run.  A run that gives no value for a metric (its peak
operation failed) is reported as missing, and the metric's summary uses
the pairs in which both sides gave one.  Failed operations are counted per
side.  It also prints each side's median of the workload's step metrics
(``synth_s``, ``eval_s`` and so on: the median time of each CLI step), read
from the record that each run leaves under its tree's ``.perfbench-out/``.
They show where a change of ``op_s`` lands; no rule is applied to them.
Each workload's summary also gives each tree's ``wc -l src/jcmspl/*.py``
total, the package size that a simplification is measured by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEP_METRICS = ("synth_s", "train_s", "eval_s", "eval_gzsl_s", "ablate_s")
MIN_PAIRS = 10  # the fewest pairs on which a gain may be claimed


def export_commit(rev: str, into: Path) -> None:
    """A clean tree of commit ``rev`` of the repository at ``into``."""
    archive = into.parent / "parent.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive),
                    rev], check=True)
    into.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def source_lines(tree: Path) -> int:
    """The total of ``wc -l src/jcmspl/*.py`` in ``tree``: its newlines."""
    return sum(path.read_bytes().count(b"\n") for path in tree.glob("src/jcmspl/*.py"))


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The JSON result line of one untraced perfbench run in ``tree``, and
    the step metrics of the record it wrote."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    record = json.loads((tree / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    steps = {name: record["metrics"][name] for name in STEP_METRICS
             if record["metrics"].get(name) is not None}
    return json.loads(lines[-1]), steps


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Wins of ``change`` over ``parent`` pair by pair (ties count for
    neither), each side's quartiles, whether the change's median is within
    ``bound`` (a fraction) of the parent's, whether the parent's runs resolve
    that (their quartile spread is within the bound, or every change run
    beats every parent run), and whether the gain rule holds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gain = sign * (p_q[1] - c_q[1])
    spread = p_q[2] - p_q[0]
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "wins": wins,
        "pairs": len(parent),
        "parent": p_q,
        "change": c_q,
        "within_bound": gain >= -bound * abs(p_q[1]),
        "resolved": spread <= bound * abs(p_q[1]) or beats_all,
        "claim_holds": len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and gain > spread,
    }


def pair_text(parent: float | None, change: float | None) -> str:
    """One pair's values and relative change; a missing value reads None."""
    if parent is None or change is None:
        return f"{parent} -> {change}"
    relative = f" ({change / parent - 1:+.1%})" if parent else ""
    return f"{parent:.4g} -> {change:.4g}{relative}"


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float, metrics: dict):
    """Per side, each metric's values over the pairs (None where a run gave
    none), and the failed operations."""
    values = {side: {name: [] for name in metrics} for side in trees}
    steps = {side: {} for side in trees}
    failed = {side: 0 for side in trees}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, step_values = run_bench(trees[side], workload, seed, seconds)
            failed[side] += result["failed"]
            for name in metrics:
                values[side][name].append(result["metrics"][name]["value"])
            for name, value in step_values.items():
                steps[side].setdefault(name, []).append(value)
        row = ", ".join(f"{name} {pair_text(values['parent'][name][-1], values['change'][name][-1])}"
                        for name in metrics)
        print(f"{workload} pair {i + 1} seed {seed} ({order[0]} first): {row}", flush=True)
    return values, steps, failed


def report(workload: str, values: dict, steps: dict, failed: dict, metrics: dict,
           lines: dict, args) -> None:
    print(f"{workload}: {len(args.seeds)} pairs of {args.seconds:g} s runs against "
          f"{args.parent}; failed operations: parent {failed['parent']}, "
          f"change {failed['change']}; wc -l src/jcmspl/*.py: parent {lines['parent']}, "
          f"change {lines['change']}")
    for name, metric in metrics.items():
        pairs = [(p, c) for p, c in zip(values["parent"][name], values["change"][name])
                 if p is not None and c is not None]
        missing = len(args.seeds) - len(pairs)
        head = f"  {name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})"
        if len(pairs) < 2:
            print(f"{head}: {len(pairs)} pair(s) with both values, {missing} missing; "
                  "not summarized")
            continue
        parent, change = map(list, zip(*pairs))
        s = summarize(parent, change, metric["better"], metric["bound"])
        p_q1, p_med, p_q3 = s["parent"]
        c_q1, c_med, c_q3 = s["change"]
        verdict = ("NO" if not s["within_bound"] else "yes" if s["resolved"]
                   else "unresolved (the parent's quartile spread is wider than the bound)")
        print(f"{head}: parent median {p_med:.4g} [Q1 {p_q1:.4g}, Q3 {p_q3:.4g}]; "
              f"change median {c_med:.4g} [Q1 {c_q1:.4g}, Q3 {c_q3:.4g}]; "
              f"median change {c_med / p_med - 1:+.1%}; "
              f"change wins {s['wins']}/{s['pairs']}; "
              f"within bound: {verdict}; "
              f"gain rule {'holds' if s['claim_holds'] else 'does not hold'}"
              + (f" (only {s['pairs']} pairs; it needs {MIN_PAIRS})" if s["pairs"] < MIN_PAIRS else "")
              + (f"; {missing} pair(s) missing a value" if missing else ""))
    for name in STEP_METRICS:
        medians = [f"{side} " + (f"{statistics.median(steps[side][name]):.4g}"
                                 if steps[side].get(name) else "-")
                   for side in ("parent", "change")]
        if any(steps[side].get(name) for side in steps):
            print(f"  step {name} (s, median, not gated): {'; '.join(medians)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", nargs="+", default=["large_train"],
                        help="one or more workloads, each run on every seed")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one perfbench seed per pair")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory() as scratch:
        parent_tree = Path(scratch) / "parent"
        export_commit(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        results = {workload: run_pairs(trees, workload, args.seeds, args.seconds, metrics)
                   for workload in args.workload}
    for workload, (values, steps, failed) in results.items():
        report(workload, values, steps, failed, metrics, lines, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

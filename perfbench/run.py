#!/usr/bin/env python3
"""The jcmspl benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload small_cli --seed 1 --seconds 20 --trace 0

Workloads: ``small_cli``, ``large_train`` and ``large_io`` (see
``perfbench/README.md``).  The run prints a report, then as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics named in BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The full record
(environment, input sizes, every metric, failures) is written to
``.perfbench-out/`` under the root, with the spans of a traced run.

The library is imported from ``src/`` beside this directory; without it
the benchmark exits with code 2 and prints no result.
"""

import os

# one BLAS thread, pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("small_cli", "large_train", "large_io")


def _format(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def report_lines(record: dict, why: str, env: dict) -> list[str]:
    from harness import unit_of

    notes = record["notes"]
    lines = [
        f"jcmspl benchmark: workload {record['workload']}, seed {record['seed']}",
        f"why: {why}",
        "inputs: " + ", ".join(f"{k}={v}" for k, v in record["inputs"].items()),
        "env: " + ", ".join(f"{k}={v}" for k, v in env.items()),
        "notes: " + ", ".join(f"{k}={v}" for k, v in notes.items()),
    ]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:40s} {_format(value):>12s} {unit_of(name)}")
    lines += [f"FAILED {line}" for line in record["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "jcmspl" / "__init__.py").is_file():
        print(f"perfbench: no jcmspl package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed).setup()
        print("ready", flush=True)
        return 0

    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    try:
        record = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            spans_path=OUT / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = harness.environment()
    (OUT / f"{stem}.json").write_text(
        json.dumps({"environment": env, **record}, indent=2, sort_keys=True) + "\n")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    for line in report_lines(record, why, env):
        print(line)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"].get(m["name"]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

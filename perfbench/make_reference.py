#!/usr/bin/env python3
"""Regenerate ``reference_losses.json``: the final training loss of every
``large_train`` input for run seeds ``0 .. REFERENCE_SEEDS - 1``.

    python3 perfbench/make_reference.py

The benchmark fails an operation whose final loss differs from the
stored value by more than 1e-9 relative, so regenerate the file only in
a change that means to alter the library's results, and say so.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jcmspl  # noqa: E402
from workloads import LARGE_K, REFERENCE_FILE, REFERENCE_SEEDS, LargeTrain  # noqa: E402


def main() -> int:
    losses = {}
    for seed in range(REFERENCE_SEEDS):
        workload = LargeTrain(seed)
        workload.setup()
        for i, dataset in enumerate(workload.datasets):
            sub = workload.subseed(i)
            _, trace = jcmspl.fit(dataset, jcmspl.Hyperparams(k=LARGE_K, seed=sub))
            losses[str(sub)] = trace.losses[-1]
            print(sub, trace.iterations, repr(trace.losses[-1]), flush=True)
    REFERENCE_FILE.write_text(json.dumps({"large_train": losses}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

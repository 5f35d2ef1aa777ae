"""Record the closed-family reference locations from long chains.

    python3 perfbench/reference.py

Runs the closed-family CLI command with a chain of
``workloads.REFERENCE_N_ITER`` iterations for each of
``workloads.REFERENCE_SEEDS``, prints each chain's circular posterior means
(cyclically relabelled to match the first chain) and their circular
average.  The average is what
``workloads.CLOSED_REFERENCE`` holds; rerun this only when the model
itself is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from run import WORK, Runner, import_curvemark
from workloads import REFERENCE_N_ITER, REFERENCE_SEEDS, WORKLOADS, circular_distance


def main() -> None:
    runner = Runner()
    import_curvemark()
    workload = WORKLOADS["closed-family"]
    work = os.path.join(WORK, "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner.start_run(work, limit_s=3600.0)
    try:
        inputs = workload.make_inputs(work, 0, runner.generate)
        chains = []
        for seed in REFERENCE_SEEDS:
            out = os.path.join(work, f"seed{seed}")
            cli_args = workload.cli_args(inputs, seed, out) + [
                "--n-iter", str(REFERENCE_N_ITER), "--thin", "100"]
            child = runner.cli(cli_args)
            if child.code != 0:
                raise SystemExit(f"seed {seed} failed; see {child.log}")
            with open(os.path.join(out, "summary.json")) as fh:
                means = np.array(json.load(fh)["mean"])
            if chains:
                shifts = [circular_distance(np.roll(means, -r), chains[0]).max()
                          for r in range(means.size)]
                means = np.roll(means, -int(np.argmin(shifts)))
            chains.append(means)
            print(f"seed {seed}: {np.round(means, 5).tolist()}  ({child.wall_s:.1f} s)", flush=True)
    finally:
        runner.close()
    ang = 2.0 * np.pi * np.array(chains)
    mean = np.mod(np.arctan2(np.sin(ang).mean(0), np.cos(ang).mean(0)) / (2.0 * np.pi), 1.0)
    spread = max(float(circular_distance(c, mean).max()) for c in chains)
    print(f"reference: {np.round(mean, 5).tolist()}  (largest chain deviation {spread:.2g})")


if __name__ == "__main__":
    main()

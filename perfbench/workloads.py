"""The benchmark's workloads: how each makes its inputs from the seed, the
CLI command it times, the loader its set-up probe calls, and the checks
its outputs must pass.

Chain lengths are sized so that one CLI invocation takes a few seconds on
a 2-core x86 box and every seed tried reaches the known answer.  Chains
start from a prior draw and burn-in must outlast the search for the mode:
of 70 sine-fixed seeds the slowest reached the extrema after 20,000
iterations (burn-in 30,000 of 40,000), and of 54 rjmcmc-sine seeds every
one kept k=4 as the mode of iterations 20,000-40,000 (burn-in 0.5).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SINE_EXTREMA = [0.125, 0.375, 0.625, 0.875]
SINE_TOL = 0.01
CLOSED_CUTS = (0.2, 0.3, 0.4, 0.5)
# Circular posterior means of closed-family at k=4, from three chains of
# REFERENCE_N_ITER iterations (REFERENCE_SEEDS) of the code this benchmark
# was written against; see reference.py.  The three chains agree to 5e-5; 4,000-iteration
# chains land within 0.002.
CLOSED_REFERENCE = [0.00249, 0.23869, 0.4168, 0.61017]
REFERENCE_N_ITER = 200_000
REFERENCE_SEEDS = (101, 102, 103)
CLOSED_TOL = 0.01
# summarize-closed: the generated table's landmark centres per k and share of k=5 rows.
TABLE_ROWS = 100_000
TABLE_CENTRES = {4: [0.004, 0.27, 0.52, 0.76], 5: [0.004, 0.2, 0.4, 0.6, 0.8]}
TABLE_SHARE_K5 = 0.1
TABLE_SD = 0.02
TABLE_TOL = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    topology: str
    n_iter: int | None  # chain iterations per invocation; None: no chain
    make_inputs: Callable  # (work_dir, seed, generate) -> list of input paths
    cli_args: Callable  # (inputs, seed, out_dir) -> CLI arguments
    loader: str  # public curvemark function the set-up probe calls
    loader_args: Callable  # (inputs) -> its arguments
    check: Callable  # (summary dict) -> list of failure messages
    # Workloads whose command a traced run also traces once, for the layers
    # this workload's own command does not enter (see run.py).
    companions: tuple[str, ...] = ()


def circular_distance(a, b) -> np.ndarray:
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def cyclic_mismatch(means, reference) -> float:
    """Largest circular distance between ``means`` and ``reference`` under
    the best cyclic relabelling (closed-curve labels start anywhere)."""
    means = np.asarray(means, dtype=float)
    if means.size != len(reference):
        return float("inf")
    return min(
        float(circular_distance(np.roll(means, -r), reference).max())
        for r in range(means.size)
    )


def _open_mismatch(means, reference) -> float:
    means = np.asarray(means, dtype=float)
    if means.size != len(reference):
        return float("inf")
    return float(np.abs(means - reference).max())


def _sine_inputs(work_dir, seed, generate):
    path = os.path.join(work_dir, "sine.csv")
    generate(["--name", "sine", "--n", "200", "--out", path])
    return [path]


def _closed_inputs(work_dir, seed, generate):
    paths = [os.path.join(work_dir, "half_circle.csv")]
    generate(["--name", "half-circle", "--n", "400", "--out", paths[0]])
    for cut in CLOSED_CUTS:
        paths.append(os.path.join(work_dir, f"cut_half_circle_{cut}.csv"))
        generate(["--name", "cut-half-circle", "--cut", str(cut), "--n", "400",
                  "--out", paths[-1]])
    return paths


def make_samples_table(path: str, seed: int) -> None:
    """Write a closed-curve samples table in the ``samples.csv`` layout.

    Each row draws k (5 with probability TABLE_SHARE_K5, else 4) and
    landmarks around TABLE_CENTRES[k] with normal noise, wrapped to [0, 1)
    and stored sorted.  One centre sits near t=0, so about half the rows
    store that landmark last and label alignment has to rotate them.
    """
    rng = np.random.default_rng(seed)
    ks = np.where(rng.uniform(size=TABLE_ROWS) < TABLE_SHARE_K5, 5, 4)
    with open(path, "w") as fh:
        fh.write("iteration,k," + ",".join(f"theta_{j + 1}" for j in range(5)) + ",log_post\n")
        for i, k in enumerate(ks):
            noise = rng.normal(0.0, TABLE_SD, size=k)
            theta = np.sort(np.mod(np.asarray(TABLE_CENTRES[k]) + noise, 1.0))
            cells = [f"{v:.17g}" for v in theta] + [""] * (5 - k)
            log_post = -0.5 * float(np.sum(noise * noise)) / TABLE_SD**2
            fh.write(f"{i},{k}," + ",".join(cells) + f",{log_post:.17g}\n")


def _table_inputs(work_dir, seed, generate):
    path = os.path.join(work_dir, "table.csv")
    make_samples_table(path, seed)
    return [path]


def _check_sine(summary):
    bad = _open_mismatch(summary.get("mean", []), SINE_EXTREMA)
    return [] if bad <= SINE_TOL else [f"posterior means {bad:.4g} from the sine extrema"]


def _check_rjmcmc(summary):
    problems = _check_sine(summary)
    if summary.get("k_mode") != 4:
        problems.append(f"modal k is {summary.get('k_mode')}, expected 4")
    return problems


def _check_closed(summary):
    bad = cyclic_mismatch(summary.get("mean", []), CLOSED_REFERENCE)
    return [] if bad <= CLOSED_TOL else [f"circular means {bad:.4g} from the reference"]


def _check_table(summary):
    problems = []
    k_mode = summary.get("k_mode", summary.get("k"))
    if k_mode != 4:
        problems.append(f"modal k is {k_mode}, expected 4")
    bad = cyclic_mismatch(summary.get("mean", []), TABLE_CENTRES[4])
    if bad > TABLE_TOL:
        problems.append(f"circular means {bad:.4g} from the generator's centres")
    return problems


def _chain_args(command, extra):
    def args(inputs, seed, out_dir):
        return [command, "--curves", *inputs, *extra, "--seed", str(seed), "--out-dir", out_dir]
    return args


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="sine-fixed",
            why="the paper's headline fixed-k run; per-iteration cost is numpy call overhead",
            topology="open",
            n_iter=40_000,
            make_inputs=_sine_inputs,
            cli_args=_chain_args("run-fixed", [
                "--k", "4", "--n-eval", "200", "--a", "1", "--b", "0.01",
                "--proposal-var", "0.02", "--n-iter", "40000", "--burn-in-frac", "0.75"]),
            loader="load_curves",
            loader_args=lambda inputs: [inputs, "open", 200],
            check=_check_sine,
            companions=("rjmcmc-sine", "closed-family"),
        ),
        Workload(
            name="rjmcmc-sine",
            why="the only birth/death, k-prior, mixed-k output and select_k path",
            topology="open",
            n_iter=40_000,
            make_inputs=_sine_inputs,
            cli_args=_chain_args("run-rjmcmc", [
                "--lam", "1e-6", "--n-eval", "100", "--n-iter", "40000",
                "--burn-in-frac", "0.5"]),
            loader="load_curves",
            loader_args=lambda inputs: [inputs, "open", 100],
            check=_check_rjmcmc,
            companions=("closed-family",),
        ),
        Workload(
            name="closed-family",
            why="M=5 closed outlines at N=1000: size-bound SRVF likelihood, start and label alignment",
            topology="closed",
            n_iter=4_000,
            make_inputs=_closed_inputs,
            cli_args=_chain_args("run-fixed", [
                "--topology", "closed", "--k", "4", "--n-eval", "1000",
                "--n-iter", "4000", "--thin", "20"]),
            loader="load_curves",
            loader_args=lambda inputs: [inputs, "closed", 1000],
            check=_check_closed,
            companions=("rjmcmc-sine",),
        ),
        Workload(
            name="summarize-closed",
            why="10^5-row table: CSV read, label alignment, KDE and persistence; no likelihood",
            topology="closed",
            n_iter=None,
            make_inputs=_table_inputs,
            cli_args=lambda inputs, seed, out_dir: [
                "summarize", "--samples", inputs[0], "--topology", "closed",
                "--out-dir", out_dir],
            loader="read_samples_csv",
            loader_args=lambda inputs: [inputs[0], "closed"],
            check=_check_table,
            companions=("rjmcmc-sine",),
        ),
    ]
}

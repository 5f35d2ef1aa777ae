"""Command-line driver.

Subcommands: run-fixed, run-rjmcmc, criterion, summarize, generate.  Knobs
come from an optional JSON config file with per-flag overrides on top.
Exit codes: 0 success, 1 input error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .alignment import align_posterior_samples
from .curves import CLOSED, CurveError, OPEN
from .io import (
    InputError,
    RunConfig,
    load_curves,
    persist_results,
    read_samples_csv,
    write_curve_csv,
    write_dk2_csv,
)
from .reconstruct import LandmarkError, k_min_for
from .rjmcmc import run_rjmcmc
from .rwm import run_chain
from .summaries import distance_criterion, marginal_density, summarize
from .synthetic import generate


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--curves", nargs="+", help="curve CSV files")
    p.add_argument("--topology", choices=[OPEN, CLOSED])
    p.add_argument("--n-eval", type=int, dest="n_eval")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-iter", type=int, dest="n_iter")
    p.add_argument("--burn-in-frac", type=float, dest="burn_in_frac")
    p.add_argument("--thin", type=int)
    p.add_argument("--proposal-var", type=float, dest="proposal_var")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvemark",
        description="Bayesian landmark detection on open and closed planar curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-fixed", help="fixed-k random-walk Metropolis run")
    _add_common(p)
    p.add_argument("--k", type=int)

    p = sub.add_parser("run-rjmcmc", help="variable-k birth-death run")
    _add_common(p)
    p.add_argument("--lam", type=float)

    p = sub.add_parser("criterion", help="reconstruction-distance curve over k")
    _add_common(p)
    p.add_argument("--k-min", type=int, dest="k_min")
    p.add_argument("--k-max", type=int, dest="k_max")

    p = sub.add_parser("summarize", help="summaries from an existing samples table")
    p.add_argument("--samples", required=True, help="samples.csv from a previous run")
    p.add_argument("--topology", choices=[OPEN, CLOSED], help="default: the table's, else open")
    p.add_argument("--out-dir", dest="out_dir", default="results")

    p = sub.add_parser("generate", help="write a synthetic curve family as CSV")
    p.add_argument("--name", required=True,
                   choices=["sine", "scaled-sine-family", "half-circle", "cut-half-circle"])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--cut", type=float)
    p.add_argument("--out", required=True,
                   help="output CSV path; families get a _<i> suffix per curve")
    return parser


def _merged_config(args: argparse.Namespace, mode: str) -> RunConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = RunConfig.from_json(fh.read())
        except (OSError, InputError) as exc:
            raise InputError(f"{args.config}: {exc}") from exc
    else:
        cfg = RunConfig()
    cfg.mode = mode
    # every flag named after a config field overrides it (no flag is named
    # mode or k_range); --k-min and --k-max override their own end of
    # k_range, which without the config field needs both
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    ends = [getattr(args, "k_min", None), getattr(args, "k_max", None)]
    if cfg.k_range or None not in ends:
        cfg.k_range = [old if new is None else new for new, old in zip(ends, cfg.k_range or ends)]
    if not cfg.curves:
        raise InputError("no input curves given (flag --curves or config field)")
    return cfg


def _check_count(flag: str, k: int, topology: str) -> None:
    """Reject a landmark count below the topology's minimum, naming its flag."""
    if k < k_min_for(topology):
        raise InputError(f"{flag} {k} is below the {topology}-curve minimum, {k_min_for(topology)}")


def _summaries_and_densities(result):
    if result.topology == CLOSED:
        result = align_posterior_samples(result)
    summary = summarize(result)
    components = range(summary["k"]) if result.n >= 50 else []
    return result, summary, {j: marginal_density(result, j) for j in components}


def _modal_summaries(result):
    """Summaries of the draws at the modal landmark count, with the k
    counts and the mode of all draws recorded in the summary."""
    counts = result.k_counts()
    k_mode = max(counts, key=counts.get)
    modal, summary, densities = _summaries_and_densities(result.select_k(k_mode))
    summary["k_counts"] = {str(k): c for k, c in sorted(counts.items())}
    summary["k_mode"] = k_mode
    return modal, summary, densities


def cmd_run_fixed(args) -> int:
    cfg = _merged_config(args, "fixed-k")
    if cfg.k is None:
        raise InputError("run-fixed requires --k (or the k config field)")
    sample = load_curves(cfg.curves, cfg.topology, cfg.n_eval)
    _check_count("--k", cfg.k, cfg.topology)
    result = run_chain(sample, cfg.spec(), cfg.chain(), k=cfg.k)
    result, summary, densities = _summaries_and_densities(result)
    summary["moves"] = result.moves
    written = persist_results(result, summary, cfg.out_dir, cfg, densities)
    print(f"posterior mean: {np.round(summary['mean'], 4).tolist()}")
    print(f"acceptance rate: {summary['accept_rate']:.4f}")
    print("wrote: " + ", ".join(written))
    return 0


def cmd_run_rjmcmc(args) -> int:
    cfg = _merged_config(args, "rjmcmc")
    if cfg.lam is None:
        raise InputError("run-rjmcmc requires --lam (or the lam config field)")
    sample = load_curves(cfg.curves, cfg.topology, cfg.n_eval)
    result = run_rjmcmc(sample, cfg.spec(), cfg.chain())
    _, summary, densities = _modal_summaries(result)
    summary["moves"] = result.moves
    written = persist_results(result, summary, cfg.out_dir, cfg, densities)
    print(f"posterior k counts: {summary['k_counts']}")
    print(f"modal k: {summary['k_mode']}; mean at modal k: {np.round(summary['mean'], 4).tolist()}")
    print("wrote: " + ", ".join(written))
    return 0


def cmd_criterion(args) -> int:
    cfg = _merged_config(args, "distance-criterion")
    if not cfg.k_range:
        raise InputError("criterion requires --k-min/--k-max (or the k_range field)")
    k_lo, k_hi = cfg.k_range
    sample = load_curves(cfg.curves, cfg.topology, cfg.n_eval)
    _check_count("--k-min", k_lo, cfg.topology)
    if k_hi < k_lo:
        raise InputError(f"--k-max {k_hi} is below --k-min {k_lo}")
    table = distance_criterion(sample, cfg.spec(), range(k_lo, k_hi + 1), cfg.chain())
    path = write_dk2_csv(cfg.out_dir, table)
    for k, d in table:
        print(f"k={k}  dk2={d:.6g}")
    print(f"wrote: {path}")
    return 0


def cmd_summarize(args) -> int:
    target = os.path.join(args.out_dir, "samples.csv")
    if all(map(os.path.exists, (args.samples, target))) and os.path.samefile(args.samples, target):
        raise InputError(f"{args.samples}: summarize would overwrite its input, the samples.csv"
                         f" of --out-dir {args.out_dir}; pick another --out-dir")
    result = read_samples_csv(args.samples, args.topology)
    modal, summary, densities = _modal_summaries(result)
    if len(summary["k_counts"]) == 1:  # a fixed-k table: nothing to record
        del summary["k_counts"], summary["k_mode"]
    written = persist_results(modal, summary, args.out_dir, None, densities)
    print(f"posterior mean: {np.round(summary['mean'], 4).tolist()}")
    print("wrote: " + ", ".join(written))
    return 0


def cmd_generate(args) -> int:
    params = {"n": args.n}
    if args.cut is not None:
        if args.name != "cut-half-circle":
            raise InputError("--cut applies only to cut-half-circle")
        params["cut"] = args.cut
    curves = generate(args.name, **params)
    if len(curves) == 1:
        write_curve_csv(args.out, curves[0])
        print(f"wrote: {args.out}")
    else:
        base, dot, ext = args.out.rpartition(".")
        stem = base if dot else args.out
        ext = f".{ext}" if dot else ".csv"
        for i, curve in enumerate(curves, start=1):
            path = f"{stem}_{i}{ext}"
            write_curve_csv(path, curve)
            print(f"wrote: {path}")
    return 0


_HANDLERS = {
    "run-fixed": cmd_run_fixed,
    "run-rjmcmc": cmd_run_rjmcmc,
    "criterion": cmd_criterion,
    "summarize": cmd_summarize,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InputError, CurveError, LandmarkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

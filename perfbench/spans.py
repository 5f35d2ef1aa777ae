"""Layer metrics from the spans ``tracer.py`` writes.

A span's self time is its duration minus the time its child spans cover;
summed per layer (module), self times add up to the root span
(``cli.main``).
Each layer is reported by its self time, and the likelihood's layers also
by calls per chain iteration (``LAYER_TOTALS``); these hold a number
whatever the functions inside a layer are called.  Finer metrics name the
function they measure by its bare name and look it up at run time: a
function that no longer exists makes its metrics ``absent``; one that
exists but was not called on this workload makes them ``not exercised``.
"""

from __future__ import annotations

import numpy as np

# Calls that do likelihood work; a log-posterior call that returns -inf
# without reaching any of them was rejected on support alone.
LIKELIHOOD_FUNCTIONS = {
    "total_reconstruction_error_sq",
    "log_marginal_likelihood",
    "reconstruction_error_sq_values",
    "reconstruction_error_sq",
    "reconstruction_values",
    "evaluate_at",
    "srvf_values",
}

# The package's modules, one layer each (``synthetic`` only makes inputs).
LAYERS = ("cli", "io", "curves", "reconstruct", "model", "rwm", "rjmcmc", "alignment", "summaries")
# Layers on the likelihood's path, whose calls per iteration a change that
# trims or fuses calls moves.
PER_ITER_LAYERS = ("curves", "reconstruct", "model")
LAYER_TOTALS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls_per_iter": "count" for layer in PER_ITER_LAYERS},
}

# name: (unit, candidate function names, statistic); the first candidate
# that ran is measured.
LAYER_METRICS = {
    "io.load_curves.s": ("s", ["load_curves"], "total_s"),
    "io.read_samples.us_per_row": ("us", ["read_samples_csv"], "total_us_per_size"),
    "io.persist.s": ("s", ["persist_results"], "total_s"),
    "curves.evaluate_at.calls_per_iter": ("count", ["evaluate_at"], "calls_per_iter"),
    "curves.evaluate_at.self_us": ("us", ["evaluate_at"], "self_us"),
    "curves.srvf_values.calls_per_iter": ("count", ["srvf_values"], "calls_per_iter"),
    "curves.srvf_values.self_us": ("us", ["srvf_values"], "self_us"),
    "reconstruct.values.self_us": ("us", ["reconstruction_values"], "self_us"),
    "reconstruct.error_sq.calls_per_iter": (
        "count", ["reconstruction_error_sq_values", "reconstruction_error_sq"], "calls_per_iter"),
    "reconstruct.error_sq.self_us": (
        "us", ["reconstruction_error_sq_values", "reconstruction_error_sq"], "self_us"),
    "model.log_posterior.calls_per_iter": (
        "count", ["log_posterior_theta", "log_posterior"], "calls_per_iter"),
    "model.log_posterior.self_us": ("us", ["log_posterior_theta", "log_posterior"], "self_us"),
    "model.log_posterior.total_us": ("us", ["log_posterior_theta", "log_posterior"], "total_us"),
    "model.log_posterior.support_reject_ratio": (
        "1", ["log_posterior_theta", "log_posterior"], "support_reject_ratio"),
    "rwm.step.self_us": ("us", ["rwm_step"], "self_us"),
    "rwm.step.accept_ratio": ("1", ["rwm_step"], "flag_ratio"),
    "rwm.chain.s": ("s", ["run_chain"], "total_s"),
    "rjmcmc.birth.self_us": ("us", ["propose_birth"], "self_us"),
    "rjmcmc.birth.accept_ratio": ("1", ["propose_birth"], "flag_ratio"),
    "rjmcmc.death.accept_ratio": ("1", ["propose_death"], "flag_ratio"),
    "rjmcmc.stay.accept_ratio": ("1", ["rwm_step"], "stay_flag_ratio"),
    "alignment.starts.s": ("s", ["align_sample_starts"], "total_s"),
    "alignment.labels.s": ("s", ["align_posterior_samples"], "total_s"),
    "alignment.labels.us_per_draw": ("us", ["align_posterior_samples"], "total_us_per_size"),
    "summaries.summarize.s": ("s", ["summarize"], "total_s"),
    "summaries.kde.s": ("s", ["marginal_density"], "total_s"),
    "summaries.kde.ns_per_kernel_eval": ("ns", ["marginal_density"], "total_ns_per_size"),
}

# The variable-k chain whose rwm_step calls are its stay moves.
RJMCMC_CHAIN = "run_rjmcmc"


class SpanTable:
    """Spans of one traced command, with self times and ancestry."""

    def __init__(self, data):
        self.names = [str(n) for n in data["names"]]
        self.wrapped = {str(n).split(".")[-1] for n in data["wrapped"]}
        self.name = data["name"]
        self.parent = data["parent"]
        self.flag = data["flag"]
        self.size = data["size"]
        self.duration = data["end"] - data["start"]
        if self.name.size == 0 or self.parent[0] != -1 or np.any(self.parent[1:] < 0):
            raise ValueError("trace does not have a single root span")
        inner = np.bincount(self.parent[1:], weights=self.duration[1:], minlength=self.name.size)
        self.self_time = self.duration - inner
        self.short = np.array([n.split(".")[-1] for n in self.names])[self.name]
        self.layer = np.array([n.split(".")[0] for n in self.names])[self.name]

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with np.load(path) as data:
            return cls({k: data[k] for k in data.files})

    @property
    def root_s(self) -> float:
        return float(self.duration[0])

    def problems(self, tol_s: float = 1e-6) -> list[str]:
        """What is wrong with the trace: a span whose children cover more
        than its own duration, or per-layer self times that do not add up
        to the root span."""
        out = []
        worst = float(self.self_time.min())
        if worst < -tol_s:
            out.append(f"a span's children cover {-worst:.3g} s more than the span itself")
        layers_s = sum(self.layer_self_s(layer) for layer in set(self.layer))
        if abs(layers_s - self.root_s) > tol_s * max(1.0, self.root_s):
            out.append(f"layer self times miss the root span by {abs(layers_s - self.root_s):.3g} s")
        return out

    def has_descendant(self, names: set[str]) -> np.ndarray:
        """Per span: whether it or a span below it calls one of ``names``."""
        mark = np.isin(self.short, list(names))
        # children are recorded after their parents, so one reverse pass
        # carries each mark up the tree
        for sid in range(self.name.size - 1, 0, -1):
            if mark[sid]:
                mark[self.parent[sid]] = True
        return mark

    def under(self, name: str) -> np.ndarray:
        """Per span: whether a span of function ``name`` is an ancestor."""
        inside = np.zeros(self.name.size, dtype=bool)
        is_name = self.short == name
        for sid in range(1, self.name.size):
            p = self.parent[sid]
            inside[sid] = inside[p] or is_name[p]
        return inside

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_time[self.layer == layer].sum())


def layer_metrics(table: SpanTable, n_iter: int | None, persist_bytes: int) -> dict:
    """Every layer metric as ``{name: (value or None, unit, status)}``
    where status is ``ok``, ``absent`` or ``not exercised``.  A layer the
    command did not enter has self time 0 and calls 0, marked
    ``not exercised``."""
    out = {}
    for layer in LAYERS:
        in_layer = table.layer == layer
        status = "ok" if in_layer.any() else "not exercised"
        out[f"{layer}.self_s"] = (table.layer_self_s(layer), "s", status)
        if layer in PER_ITER_LAYERS:
            out[f"{layer}.calls_per_iter"] = (
                (float(in_layer.sum()) / n_iter, "count", status) if n_iter
                else (None, "count", "not exercised"))
    lik_below = None
    for metric, (unit, candidates, stat) in LAYER_METRICS.items():
        existing = [c for c in candidates if c in table.wrapped]
        if not existing:
            out[metric] = (None, unit, "absent")
            continue
        called = [c for c in existing if np.any(table.short == c)]
        if not called:
            out[metric] = (None, unit, "not exercised")
            continue
        sel = table.short == called[0]
        calls = int(sel.sum())
        value = None
        if stat == "total_s":
            value = float(table.duration[sel].sum())
        elif stat == "self_us":
            value = float(table.self_time[sel].mean()) * 1e6
        elif stat == "total_us":
            value = float(table.duration[sel].mean()) * 1e6
        elif stat == "calls_per_iter" and n_iter:
            value = calls / n_iter
        elif stat in ("total_us_per_size", "total_ns_per_size"):
            work = float(table.size[sel].sum())
            scale = 1e6 if stat == "total_us_per_size" else 1e9
            value = float(table.duration[sel].sum()) * scale / work if work > 0 else None
        elif stat in ("flag_ratio", "stay_flag_ratio"):
            if stat == "stay_flag_ratio":
                sel = sel & table.under(RJMCMC_CHAIN)
            known = table.flag[sel] >= 0
            value = float(table.flag[sel][known].mean()) if known.any() else None
        elif stat == "support_reject_ratio":
            if lik_below is None:
                lik_below = table.has_descendant(LIKELIHOOD_FUNCTIONS)
            value = float(np.mean((table.flag[sel] == 1) & ~lik_below[sel]))
        out[metric] = (value, unit, "ok") if value is not None else (None, unit, "not exercised")
    out["io.persist.bytes"] = (float(persist_bytes), "count", "ok")
    return out

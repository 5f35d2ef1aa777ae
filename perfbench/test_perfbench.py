"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ess  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + e[i]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.3])
def test_ess_matches_ar1(rho):
    # exact ESS of a stationary AR(1) chain: n (1 - rho) / (1 + rho)
    n = 100_000
    exact = n * (1.0 - rho) / (1.0 + rho)
    plain, bulk = [], []
    for seed in range(3):
        x = ar1(rho, n, seed)
        plain.append(ess.ess(x))
        bulk.append(ess.bulk_ess(x))
    for estimates in (plain, bulk):
        assert estimates == pytest.approx([exact] * 3, rel=0.1)
        assert np.mean(estimates) == pytest.approx(exact, rel=0.05)


def test_ess_pools_chains():
    chains = np.vstack([ar1(0.5, 20_000, s) for s in range(4)])
    exact = 4 * 20_000 / 3.0
    assert ess.ess(chains) == pytest.approx(exact, rel=0.1)
    assert ess.bulk_ess(chains) == pytest.approx(exact, rel=0.1)


def test_constant_chain_has_zero_ess_not_nan():
    assert ess.ess(np.full(500, 0.3)) == 0.0
    assert ess.bulk_ess(np.full(500, 0.3)) == 0.0
    assert ess.bulk_ess(np.full((3, 500), 0.3)) == 0.0


def test_rank_normalize_averages_ties():
    z = ess.rank_normalize(np.array([[1.0, 2.0, 2.0, 3.0]]))
    assert z[0, 1] == z[0, 2]
    assert z[0, 0] < z[0, 1] < z[0, 3]


def test_strict_json_rejects_nan_and_infinity():
    assert run.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            run.strict_json(text)


def test_cyclic_mismatch_ignores_label_rotation():
    ref = [0.003, 0.24, 0.42, 0.61]
    assert workloads.cyclic_mismatch([0.24, 0.42, 0.61, 0.998], ref) == pytest.approx(0.005)
    assert workloads.cyclic_mismatch([0.24, 0.42], ref) == float("inf")


def test_samples_table_has_the_generated_shape(tmp_path):
    path = tmp_path / "table.csv"
    workloads.make_samples_table(str(path), seed=3)
    rows = path.read_text().splitlines()
    assert len(rows) == workloads.TABLE_ROWS + 1
    ks = np.array([int(r.split(",")[1]) for r in rows[1:]])
    assert abs(np.mean(ks == 5) - workloads.TABLE_SHARE_K5) < 0.01


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.final_layer_units()
    layers = {name.split(".")[0] for name in run.final_layer_units()}
    assert set(spans.LAYERS) <= layers


def _traced(tmp, command: list[str]):
    """Trace one CLI command on the sine curve; returns (spans, summary)."""
    env = run.child_env()
    curve = tmp / "sine.csv"
    subprocess.run([sys.executable, "-m", "curvemark.cli", "generate", "--name", "sine",
                    "--n", "100", "--out", str(curve)], env=env, check=True,
                   capture_output=True)
    out = tmp / "spans.npz"
    subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), str(out), "--",
                    *command, "--curves", str(curve), "--seed", "3",
                    "--out-dir", str(tmp / "res")], env=env, check=True, capture_output=True)
    with open(tmp / "res" / "summary.json") as fh:
        summary = json.load(fh)
    return spans.SpanTable.load(str(out)), summary


@pytest.fixture(scope="module")
def traced_fixed(tmp_path_factory):
    return _traced(tmp_path_factory.mktemp("fixed"), [
        "run-fixed", "--k", "4", "--n-eval", "50", "--n-iter", "2000", "--thin", "10"])


@pytest.fixture(scope="module")
def traced_rjmcmc(tmp_path_factory):
    return _traced(tmp_path_factory.mktemp("rjmcmc"), [
        "run-rjmcmc", "--lam", "2", "--n-eval", "30", "--n-iter", "3000", "--thin", "10",
        "--b", "1", "--proposal-var", "0.001"])


def test_self_times_add_up_to_the_root_span(traced_fixed):
    table, _ = traced_fixed
    assert table.names[table.name[0]] == "cli.main"
    assert table.problems() == []
    assert np.all(table.self_time >= 0.0)
    layers = sum(table.layer_self_s(layer) for layer in set(table.layer))
    assert layers == pytest.approx(table.root_s, abs=1e-9)


def test_a_child_longer_than_its_parent_is_a_problem():
    table = spans.SpanTable({
        "names": np.array(["cli.main", "rwm.rwm_step"]), "wrapped": np.array([]),
        "name": np.array([0, 1, 1]), "parent": np.array([-1, 0, 0]),
        "start": np.array([0.0, 0.1, 0.4]), "end": np.array([1.0, 0.6, 1.0]),
        "flag": np.full(3, -1), "size": np.zeros(3)})
    assert table.self_time[0] == pytest.approx(-0.1)
    assert len(table.problems()) == 1


def test_layer_metrics_report_absent_and_not_exercised(traced_fixed, monkeypatch):
    table, _ = traced_fixed
    metrics = spans.layer_metrics(table, 2000, persist_bytes=1)
    assert metrics["rwm.step.accept_ratio"][2] == "ok"
    assert metrics["model.log_posterior.calls_per_iter"][0] == pytest.approx(1.0, abs=0.01)
    assert metrics["rjmcmc.birth.accept_ratio"][2] == "not exercised"
    assert metrics["alignment.starts.s"][2] == "not exercised"
    assert metrics["rjmcmc.self_s"] == (0.0, "s", "not exercised")
    assert metrics["model.self_s"][0] > 0.0 and metrics["model.self_s"][2] == "ok"
    assert metrics["model.calls_per_iter"][0] >= 1.0
    renamed = dict(spans.LAYER_METRICS)
    renamed["rwm.step.self_us"] = ("us", ["step_renamed"], "self_us")
    monkeypatch.setattr(spans, "LAYER_METRICS", renamed)
    metrics = spans.layer_metrics(table, 2000, persist_bytes=1)
    assert metrics["rwm.step.self_us"] == (None, "us", "absent")


def test_a_companion_lends_the_layers_a_command_does_not_enter(traced_fixed, traced_rjmcmc):
    own = spans.layer_metrics(traced_fixed[0], 2000, persist_bytes=1)
    lent = spans.layer_metrics(traced_rjmcmc[0], 3000, persist_bytes=1)
    layers = run.combine_layers([own, own], {"rjmcmc-sine": lent})
    assert layers["rjmcmc.self_s"] == (lent["rjmcmc.self_s"][0], "s", "ok", "rjmcmc-sine")
    assert layers["rjmcmc.birth.accept_ratio"][3] == "rjmcmc-sine"
    assert layers["model.self_s"] == (own["model.self_s"][0], "s", "ok", "own")
    assert layers["alignment.self_s"] == (0.0, "s", "not exercised", "own")
    assert layers["alignment.starts.s"][:3] == (None, "s", "not exercised")


def test_final_line_gives_a_number_for_every_per_layer_metric(traced_fixed, monkeypatch):
    table, _ = traced_fixed
    renamed = dict(spans.LAYER_METRICS)
    renamed["rwm.step.self_us"] = ("us", ["step_renamed"], "self_us")
    monkeypatch.setattr(spans, "LAYER_METRICS", renamed)
    layers = run.combine_layers([spans.layer_metrics(table, 2000, persist_bytes=1)], {})
    assert layers["rwm.step.self_us"][2] == "absent"
    layers.update({"trace.overhead_ratio": (1.1, "1", "ok", "own"),
                   "chain.ess_min": (5.0, "count", "ok", "own"),
                   "chain.ess_per_s": (0.5, "1/s", "ok", "own")})
    line = json.loads(json.dumps(run.final_metrics({"trace": True, "failed": 0, "layers": layers})))
    assert line == {name: {"value": line[name]["value"], "unit": unit}
                    for name, unit in run.final_layer_units().items()}
    assert all(isinstance(m["value"], float) for m in line.values())
    assert line["rwm.self_s"]["value"] > 0.0
    assert line["rjmcmc.self_s"]["value"] == 0.0  # not entered, and no companion


def test_final_line_of_a_failed_run_still_holds_numbers():
    layers = run.combine_layers([], {})
    with pytest.raises(run.BenchError):
        run.final_metrics({"trace": True, "failed": 0, "layers": layers})
    line = run.final_metrics({"trace": True, "failed": 1, "layers": layers})
    assert all(m["value"] == 0.0 for m in line.values())


def test_step_acceptance_derived_from_outside_matches_the_chain(traced_fixed):
    table, summary = traced_fixed
    flags = table.flag[table.short == "rwm_step"]
    assert flags.size == 2000
    assert flags.mean() == summary["accept_rate"]


def test_move_acceptance_derived_from_outside_matches_the_chain(traced_rjmcmc):
    table, summary = traced_rjmcmc
    moves = np.isin(table.short, ["propose_birth", "propose_death", "rwm_step"])
    flags = table.flag[moves]
    assert moves.sum() == 3000
    # every move but possibly the last is resolved by the state the next one starts from
    assert np.sum(flags < 0) <= 1
    accepted = np.sum(flags == 1)
    assert abs(accepted - summary["accept_rate"] * 3000) <= 1
    metrics = spans.layer_metrics(table, 3000, persist_bytes=1)
    for name in ("rjmcmc.birth.accept_ratio", "rjmcmc.death.accept_ratio",
                 "rjmcmc.stay.accept_ratio"):
        assert metrics[name][2] == "ok"

import hashlib
import json
import os

import numpy as np
import pytest

import curvemark as cm
from curvemark.cli import main
from curvemark.io import load_curve_csv, write_curve_csv, write_samples_csv


def write_sine_csv(path, n=200):
    write_curve_csv(str(path), cm.sine_curve(n))
    return str(path)


class TestRunConfig:
    def test_json_roundtrip_identity(self):
        cfg = cm.RunConfig(
            mode="rjmcmc",
            k=4,
            k_range=[1, 6],
            n_eval=80,
            a=1.5,
            b=0.25,
            lam=0.1,
            n_iter=5000,
            seed=42,
            curves=["a.csv", "b.csv"],
            out_dir="out",
        )
        back = cm.RunConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(cm.InputError):
            cm.RunConfig.from_dict({"mode": "fixed-k", "bogus": 1})

    def test_invalid_json_rejected(self):
        with pytest.raises(cm.InputError):
            cm.RunConfig.from_json("{not json")

    def test_spec_and_chain_take_the_shared_fields(self):
        cfg = cm.RunConfig(
            topology=cm.CLOSED, n_eval=80, a=1.5, b=0.25, alpha=2.0, lam=0.1,
            n_iter=5000, burn_in_frac=0.3, thin=7, proposal_var=0.01, seed=42,
        )
        assert cfg.spec() == cm.ModelSpec(
            n_eval=80, topology=cm.CLOSED, a=1.5, b=0.25, alpha=2.0, lam=0.1
        )
        assert cfg.chain() == cm.ChainConfig(
            n_iter=5000, burn_in_frac=0.3, thin=7, proposal_var=0.01, seed=42
        )
        with pytest.raises(ValueError):
            cm.RunConfig(thin=0).chain()


class TestCurveCsv:
    def test_single_file_roundtrip(self, tmp_path):
        path = write_sine_csv(tmp_path / "c.csv")
        pts = load_curve_csv(path)
        assert np.array_equal(pts, cm.sine_curve(200).points)

    def test_header_optional(self, tmp_path):
        p = tmp_path / "nohdr.csv"
        p.write_text("0.0,0.0\n0.5,0.2\n1.0,0.0\n")
        assert load_curve_csv(str(p)).shape == (3, 2)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n0.0,0.0\n0.5,oops\n1.0,0.0\n")
        with pytest.raises(cm.InputError, match=r"bad\.csv:3"):
            load_curve_csv(str(p))

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("0.0,0.0,1.0\n")
        with pytest.raises(cm.InputError, match="2 columns"):
            load_curve_csv(str(p))

    def test_missing_file(self):
        with pytest.raises(cm.InputError):
            load_curve_csv("/nonexistent/file.csv")

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("0.0,0.0\n1.0,1.0\n")
        with pytest.raises(cm.InputError, match="3 rows"):
            load_curve_csv(str(p))


class TestLoadCurves:
    def test_single_file_unit_length(self, tmp_path):
        path = write_sine_csv(tmp_path / "c.csv")
        sample = cm.load_curves([path], cm.OPEN, 100)
        assert sample.m == 1
        assert cm.polygonal_length(sample.curves[0]) == pytest.approx(1.0, abs=1e-9)
        assert sample.srvfs[0].values.shape == (100, 2)

    def test_closed_duplicate_endpoint_dropped(self, tmp_path):
        curve = cm.half_circle(100)
        pts = np.vstack([curve.points, curve.points[:1]])
        p = tmp_path / "closed.csv"
        with open(p, "w") as fh:
            fh.write("x,y\n")
            for x, y in pts:
                fh.write(f"{float(x)!r},{float(y)!r}\n")
        sample = cm.load_curves([str(p)], cm.CLOSED, 64)
        assert sample.curves[0].n_points == 64
        assert cm.polygonal_length(sample.curves[0]) == pytest.approx(1.0, abs=1e-9)

    def test_multi_file_alignment_reproducible(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for i in range(4):
            ang = 2 * np.pi * np.arange(90) / 90
            r = 1.0 + 0.2 * np.cos(3 * ang + rng.uniform(0, 2 * np.pi))
            pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
            pts = np.roll(pts, int(rng.integers(90)), axis=0)
            p = tmp_path / f"o{i}.csv"
            write_curve_csv(str(p), cm.PlanarCurve(pts, cm.CLOSED))
            paths.append(str(p))
        a = cm.load_curves(paths, cm.CLOSED, 64)
        b = cm.load_curves(paths, cm.CLOSED, 64)
        assert a.m == 4
        for ca, cb in zip(a.curves, b.curves):
            assert np.array_equal(ca.points, cb.points)
        assert cm.select_reference_point(a.curves[0]) == 0


class TestSamplesPersistence:
    def _samples(self, rng, variable_k=False):
        thetas = []
        for _ in range(30):
            k = int(rng.integers(2, 6)) if variable_k else 4
            thetas.append(np.sort(rng.uniform(0.01, 0.99, k)))
        ks = np.array([t.size for t in thetas])
        return cm.PosteriorSampleSet(
            thetas, ks, rng.normal(size=30), 0.25, cm.OPEN
        )

    def test_roundtrip_bitwise(self, tmp_path, rng):
        for variable_k in (False, True):
            ss = self._samples(rng, variable_k)
            path = str(tmp_path / f"s{variable_k}.csv")
            write_samples_csv(path, ss)
            back = cm.read_samples_csv(path)
            assert np.array_equal(back.ks, ss.ks)
            assert np.array_equal(back.log_post, ss.log_post)
            for a, b in zip(back.thetas, ss.thetas):
                assert np.array_equal(a, b)

    def test_summary_echoes_config(self, tmp_path, rng):
        ss = self._samples(rng)
        cfg = cm.RunConfig(k=4, seed=123, curves=["x.csv"])
        summary = cm.summarize(ss)
        out = str(tmp_path / "res")
        cm.persist_results(ss, summary, out, cfg)
        with open(os.path.join(out, "summary.json")) as fh:
            record = json.load(fh)
        assert record["config"] == cfg.to_dict()
        assert record["config"]["seed"] == 123
        assert record["mean"] == summary["mean"]


class TestCli:
    def test_generate_and_run_fixed(self, tmp_path):
        curve_path = str(tmp_path / "sine.csv")
        assert main(["generate", "--name", "sine", "--n", "120", "--out", curve_path]) == 0
        out = str(tmp_path / "out")
        rc = main(
            [
                "run-fixed",
                "--curves", curve_path,
                "--k", "4",
                "--n-eval", "50",
                "--n-iter", "3000",
                "--thin", "30",
                "--seed", "1",
                "--out-dir", out,
            ]
        )
        assert rc == 0
        assert os.path.exists(os.path.join(out, "samples.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))

    def test_rerun_same_seed_identical_samples(self, tmp_path):
        curve_path = str(tmp_path / "sine.csv")
        main(["generate", "--name", "sine", "--n", "120", "--out", curve_path])
        digests = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            rc = main(
                [
                    "run-fixed",
                    "--curves", curve_path,
                    "--k", "3",
                    "--n-eval", "50",
                    "--n-iter", "2000",
                    "--thin", "20",
                    "--seed", "7",
                    "--out-dir", out,
                ]
            )
            assert rc == 0
            with open(os.path.join(out, "samples.csv"), "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert digests[0] == digests[1]

    def test_config_file_with_flag_override(self, tmp_path):
        curve_path = str(tmp_path / "sine.csv")
        main(["generate", "--name", "sine", "--n", "120", "--out", curve_path])
        cfg = cm.RunConfig(
            k=3, n_eval=50, n_iter=2000, thin=20, seed=3,
            curves=[curve_path], out_dir=str(tmp_path / "cfgout"),
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = str(tmp_path / "override")
        rc = main(["run-fixed", "--config", str(cfg_path), "--out-dir", out])
        assert rc == 0
        with open(os.path.join(out, "summary.json")) as fh:
            record = json.load(fh)
        assert record["config"]["out_dir"] == out
        assert record["config"]["k"] == 3

    def test_rjmcmc_subcommand(self, tmp_path):
        curve_path = str(tmp_path / "sine.csv")
        main(["generate", "--name", "sine", "--n", "120", "--out", curve_path])
        out = str(tmp_path / "rj")
        rc = main(
            [
                "run-rjmcmc",
                "--curves", curve_path,
                "--lam", "0.5",
                "--n-eval", "50",
                "--n-iter", "5000",
                "--thin", "50",
                "--seed", "2",
                "--out-dir", out,
            ]
        )
        assert rc == 0
        with open(os.path.join(out, "summary.json")) as fh:
            record = json.load(fh)
        assert "k_counts" in record and "k_mode" in record

    def test_criterion_subcommand(self, tmp_path):
        curve_path = str(tmp_path / "sine.csv")
        main(["generate", "--name", "sine", "--n", "120", "--out", curve_path])
        out = str(tmp_path / "crit")
        rc = main(
            [
                "criterion",
                "--curves", curve_path,
                "--k-min", "1",
                "--k-max", "3",
                "--n-eval", "50",
                "--n-iter", "2000",
                "--thin", "20",
                "--seed", "1",
                "--out-dir", out,
            ]
        )
        assert rc == 0
        rows = open(os.path.join(out, "dk2.csv")).read().strip().splitlines()
        assert rows[0] == "k,dk2"
        assert len(rows) == 4

    def test_summarize_subcommand(self, tmp_path):
        curve_path = str(tmp_path / "sine.csv")
        main(["generate", "--name", "sine", "--n", "120", "--out", curve_path])
        run_out = str(tmp_path / "run")
        main(
            [
                "run-fixed",
                "--curves", curve_path,
                "--k", "3",
                "--n-eval", "50",
                "--n-iter", "3000",
                "--thin", "10",
                "--seed", "1",
                "--out-dir", run_out,
            ]
        )
        sum_out = str(tmp_path / "sum")
        rc = main(
            [
                "summarize",
                "--samples", os.path.join(run_out, "samples.csv"),
                "--out-dir", sum_out,
            ]
        )
        assert rc == 0
        assert os.path.exists(os.path.join(sum_out, "summary.json"))

    def test_summarize_writes_strict_json(self, tmp_path):
        rng = np.random.default_rng(3)
        thetas = [np.sort(rng.uniform(0.05, 0.95, 3)) for _ in range(120)]
        samples = cm.PosteriorSampleSet(
            thetas, np.full(120, 3), rng.normal(size=120), 0.2, cm.OPEN
        )
        samples_path = str(tmp_path / "samples.csv")
        write_samples_csv(samples_path, samples)
        out = str(tmp_path / "sum")
        assert main(["summarize", "--samples", samples_path, "--out-dir", out]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        with open(os.path.join(out, "summary.json")) as fh:
            record = json.load(fh, parse_constant=reject)
        # the table does not store the acceptance rate
        assert record["accept_rate"] is None

    def test_generate_family_writes_suffixed_files(self, tmp_path):
        out = str(tmp_path / "fam.csv")
        rc = main(["generate", "--name", "scaled-sine-family", "--n", "60", "--out", out])
        assert rc == 0
        for i in range(1, 6):
            assert os.path.exists(str(tmp_path / f"fam_{i}.csv"))

    def test_missing_curve_file_exit_code_1(self, tmp_path):
        rc = main(
            [
                "run-fixed",
                "--curves", str(tmp_path / "missing.csv"),
                "--k", "3",
            ]
        )
        assert rc == 1

    def test_missing_k_exit_code_1(self, tmp_path):
        curve_path = str(tmp_path / "sine.csv")
        main(["generate", "--name", "sine", "--n", "120", "--out", curve_path])
        assert main(["run-fixed", "--curves", curve_path]) == 1

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

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

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # spreadsheet tools start a UTF-8 file with a BOM, which must not make
        # the first point of a headerless file look like a header
        p = tmp_path / "bom.csv"
        p.write_text("0.0,0.0\n0.5,0.2\n1.0,0.0\n1.5,0.1\n", encoding="utf-8-sig")
        assert load_curve_csv(str(p)).tolist() == [[0.0, 0.0], [0.5, 0.2], [1.0, 0.0], [1.5, 0.1]]

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, capsys):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"x,y\n0.0,0.0\n0.5,0.\xff2\n1.0,0.0\n")
        with pytest.raises(cm.InputError, match=re.escape(f"{p}: not UTF-8 text")):
            load_curve_csv(str(p))
        assert main(["run-fixed", "--curves", str(p), "--k", "2",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {p}: not UTF-8 text\n"

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

    def test_empty_cell_inside_a_row_names_row(self, tmp_path):
        # empty cells end a row only after its last value: 1,,1 is not (1, 1)
        p = tmp_path / "gap.csv"
        p.write_text("x,y\n0.0,0.0,\n0.5,,0.2\n1.0,0.0\n")
        with pytest.raises(cm.InputError, match=r"gap\.csv:3"):
            load_curve_csv(str(p))
        p.write_text("x,y\n0.0,0.0,\n0.5,0.2,,\n1.0,0.0\n")
        assert load_curve_csv(str(p)).tolist() == [[0.0, 0.0], [0.5, 0.2], [1.0, 0.0]]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"x,y\n0.0,0.0\n0.5,{cell}\n1.0,0.0\n")
        with pytest.raises(cm.InputError, match=r"nonfinite\.csv:3: non-finite"):
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
        assert sample.srvfs[0].shape == (100, 2)

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

    @staticmethod
    def loaded_point_counts(tmp_path, monkeypatch, pts):
        """Load ``pts`` as a closed curve file; returns the number of points
        the curve is built from."""
        p = tmp_path / "closed.csv"
        p.write_text("".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pts))
        counts = []
        build = cm.io.PlanarCurve
        monkeypatch.setattr(cm.io, "PlanarCurve",
                            lambda pts, topology: counts.append(len(pts)) or build(pts, topology))
        cm.load_curves([str(p)], cm.CLOSED, 32)
        return counts

    def test_small_closed_curve_keeps_its_last_point(self, tmp_path, monkeypatch):
        # 40 distinct points within 1e-8 of each other: none is a closing repeat
        ang = 2 * np.pi * np.arange(40) / 40
        pts = 1e-9 * np.column_stack([np.cos(ang), np.sin(ang)])
        assert self.loaded_point_counts(tmp_path, monkeypatch, pts) == [40]

    @pytest.mark.parametrize("radius", [1e-9, 1e3])
    def test_repeated_first_point_dropped_at_any_scale(self, tmp_path, monkeypatch, radius):
        ang = 2 * np.pi * np.arange(40) / 40
        pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([pts, pts[:1]])
        assert self.loaded_point_counts(tmp_path, monkeypatch, pts) == [40]

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

    def test_closed_sample_builds_one_likelihood_cache(self, tmp_path, monkeypatch):
        # the unaligned sample a closed load builds and drops gets no cache
        built = []
        init = cm.reconstruct.CacheStack.__init__
        monkeypatch.setattr(cm.reconstruct.CacheStack, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        paths = []
        for cut in (0.3, 0.4):
            paths.append(str(tmp_path / f"cut_{cut}.csv"))
            write_curve_csv(paths[-1], cm.cut_half_circle(120, cut=cut))
        sample = cm.load_curves(paths, cm.CLOSED, 64)
        spec = cm.ModelSpec(n_eval=64, topology=cm.CLOSED)
        theta = np.array([0.1, 0.4, 0.7])
        assert np.isfinite(cm.log_posterior_theta(sample, theta, spec))
        assert np.isfinite(cm.log_posterior_batch(sample, theta[None], spec)).all()
        assert len(built) == 1


class TestSamplesPersistence:
    def _samples(self, rng, variable_k=False, topology=cm.OPEN):
        thetas = []
        for _ in range(30):
            if topology == cm.OPEN:
                k = int(rng.integers(2, 6)) if variable_k else 4
                thetas.append(np.sort(rng.uniform(0.01, 0.99, k)))
            else:
                k = int(rng.integers(3, 7)) if variable_k else 4
                thetas.append(np.sort(rng.uniform(0.0, 1.0, k)))
        ks = np.array([t.size for t in thetas])
        return cm.PosteriorSampleSet(
            thetas, ks, rng.normal(size=30), 0.25, topology
        )

    def test_roundtrip_bitwise(self, tmp_path, rng):
        cases = [(self._samples(rng, variable_k), cm.OPEN) for variable_k in (False, True)]
        # label alignment stores closed rows rotated, no longer sorted
        rotated = cm.align_posterior_samples(self._samples(rng, topology=cm.CLOSED))
        assert any(np.any(np.diff(th) < 0) for th in rotated.thetas)
        cases.append((rotated, cm.CLOSED))
        cases.append((self._samples(rng, True, cm.CLOSED), cm.CLOSED))
        for i, (ss, topology) in enumerate(cases):
            path = str(tmp_path / f"s{i}.csv")
            write_samples_csv(path, ss)
            back = cm.read_samples_csv(path, topology)
            assert np.array_equal(back.ks, ss.ks)
            assert np.array_equal(back.log_post, ss.log_post)
            for a, b in zip(back.thetas, ss.thetas):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "row",
        [
            "1,3,0.2,0.5,-1.5",
            "1,2,0.7,0.3,-1.5",
            "1,2,0.1,1.7,-1.5",
            "1,2,0.2,0.5",
            "1,1,0.2,0.5,-1.5",
        ],
        ids=["k-past-header", "unordered", "outside-support", "short-row", "landmark-past-k"],
    )
    def test_rows_outside_header_or_support_rejected(self, tmp_path, row):
        path = tmp_path / "samples.csv"
        path.write_text("iteration,k,theta_1,theta_2,log_post\n0,2,0.2,0.5,-1.0\n" + row + "\n")
        with pytest.raises(cm.InputError, match=re.escape(f"{path}:3:")):
            cm.read_samples_csv(str(path))
        assert main(["summarize", "--samples", str(path), "--out-dir", str(tmp_path)]) == 1

    def test_closed_row_with_an_infinite_landmark_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("iteration,k,theta_1,theta_2,theta_3,log_post,topology\n"
                        "0,3,0.1,0.4,0.7,-1.0,closed\n1,3,0.1,0.4,inf,-1.0,closed\n")
        with pytest.raises(cm.InputError, match=re.escape(f"{path}:3:")):
            cm.read_samples_csv(str(path))

    def test_missing_table_exit_code_1(self, tmp_path, capsys):
        path = str(tmp_path / "missing.csv")
        with pytest.raises(cm.InputError, match=re.escape(path)):
            cm.read_samples_csv(path)
        assert main(["summarize", "--samples", path, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")

    def test_table_bytes_that_are_not_utf8_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"iteration,k,theta_1,theta_2,log_post\n"
                         b"0,2,0.2,0.5,-1.0\n1,2,0.2,0.\xff5,-1.0\n")
        with pytest.raises(cm.InputError, match=re.escape(f"{path}: not UTF-8 text")):
            cm.read_samples_csv(str(path))
        assert main(["summarize", "--samples", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"

    def test_byte_order_marked_table_read_whatever_the_locale(self, tmp_path, rng):
        # a spreadsheet tool's table starts with a UTF-8 byte order mark; it
        # reads back the same, in a process whose locale encoding is ASCII too
        ss = self._samples(rng, topology=cm.CLOSED)
        path = tmp_path / "samples.csv"
        write_samples_csv(str(path), ss)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = cm.read_samples_csv(str(path))
        assert back.topology == cm.CLOSED and np.array_equal(back.thetas, ss.thetas)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH"))
                                              if p))
        code = ("import sys, curvemark as cm\n"
                "print(cm.read_samples_csv(sys.argv[1]).thetas.tolist())\n")
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == f"{ss.thetas.tolist()}\n"

    def test_closed_rows_any_rotation_of_the_support(self, tmp_path, monkeypatch):
        # two rows per check, so the bad row is found in a later chunk
        monkeypatch.setattr(cm.io, "_CHECK_ROWS", 2)
        path = tmp_path / "samples.csv"
        header = "iteration,k,theta_1,theta_2,theta_3,log_post\n"
        rows = "0,3,0.2,0.5,0.8,-1\n1,3,0.8,0.2,0.5,-1\n2,3,0.5,0.8,0.2,-1\n"
        path.write_text(header + rows)
        assert cm.read_samples_csv(str(path), cm.CLOSED).n == 3
        # sorted in no rotation, below the closed minimum count, a repeated value
        for bad in ("3,3,0.5,0.2,0.8,-1", "3,2,0.2,0.5,,-1", "3,3,0.2,0.2,0.8,-1"):
            path.write_text(header + rows + bad + "\n")
            with pytest.raises(cm.InputError, match=re.escape(f"{path}:5:")):
                cm.read_samples_csv(str(path), cm.CLOSED)

    def test_header_only_table_names_the_file(self, tmp_path, capsys):
        path = str(tmp_path / "samples.csv")
        with open(path, "w") as fh:
            fh.write("iteration,k,theta_1,theta_2,log_post,topology\n")
        with pytest.raises(cm.InputError, match=re.escape(f"{path}: no samples rows")):
            cm.read_samples_csv(path)
        assert main(["summarize", "--samples", path, "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: no samples rows\n"

    @pytest.mark.parametrize("log_post", ["inf", "-inf", "nan"])
    def test_non_finite_log_post_names_the_row(self, tmp_path, capsys, log_post):
        path = str(tmp_path / "samples.csv")
        with open(path, "w") as fh:
            fh.write("iteration,k,theta_1,theta_2,log_post\n0,2,0.2,0.5,-1\n")
            fh.write(f"1,2,0.2,0.5,{log_post}\n")
        with pytest.raises(cm.InputError, match=re.escape(f"{path}:3:")):
            cm.read_samples_csv(path)
        out = tmp_path / "o"
        assert main(["summarize", "--samples", path, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:3:")
        assert not out.exists()

    def test_table_records_its_topology(self, tmp_path, rng):
        for topology in (cm.OPEN, cm.CLOSED):
            path = str(tmp_path / f"{topology}.csv")
            write_samples_csv(path, self._samples(rng, topology=topology))
            with open(path) as fh:
                rows = fh.read().splitlines()
            assert rows[0].endswith(",log_post,topology")
            assert all(row.endswith("," + topology) for row in rows[1:])
            assert cm.read_samples_csv(path).topology == topology
            other = cm.CLOSED if topology == cm.OPEN else cm.OPEN
            with pytest.raises(cm.InputError, match=re.escape(f"{path}: table is {topology}")):
                cm.read_samples_csv(path, other)
        # every row must name the first row's topology, open or closed
        header = "iteration,k,theta_1,theta_2,theta_3,log_post,topology\n"
        for rows, bad in (("0,3,0.2,0.5,0.8,-1,open\n1,3,0.2,0.5,0.8,-1,closed\n", 3),
                          ("0,3,0.2,0.5,0.8,-1,Open\n", 2)):
            path = tmp_path / "mixed.csv"
            path.write_text(header + rows)
            with pytest.raises(cm.InputError, match=re.escape(f"{path}:{bad}:")):
                cm.read_samples_csv(str(path))

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

    def test_density_files_as_csv_writer_writes_them(self, tmp_path, rng):
        grid = np.linspace(0.0, 1.0, 7)
        dens = np.array([0.0, 1e-300, 0.1, 2.5, 1.0 / 3.0, 5e-324, 0.0])
        out = tmp_path / "res"
        cm.persist_results(self._samples(rng), {}, str(out), densities={0: (grid, dens)})
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["t", "density"])
        writer.writerows([f"{t:.17g}", f"{d:.17g}"] for t, d in zip(grid, dens))
        assert (out / "density_1.csv").read_bytes() == want.getvalue().encode()

    def test_non_finite_summary_writes_nothing(self, tmp_path, rng):
        # the summary is serialized before any file is opened, so no
        # truncated summary.json is left behind
        ss = self._samples(rng)
        summary = dict(cm.summarize(ss), map_log_post=float("nan"))
        out = tmp_path / "res"
        with pytest.raises(ValueError, match="JSON"):
            cm.persist_results(ss, summary, str(out))
        assert not out.exists()


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
        with open(os.path.join(out, "summary.json")) as fh:
            record = json.load(fh)
        # the fixed-k chain only stays; its counts cover every iteration
        assert list(record["moves"]) == ["stay"]
        assert record["moves"]["stay"]["proposed"] == 3000
        assert record["moves"]["stay"]["accepted"] == round(record["accept_rate"] * 3000)

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

    @pytest.mark.parametrize("text, field", [
        ('{"n_iter": "5000"}', "n_iter"),
        ('{"n_iter": 5000.5}', "n_iter"),
        ('{"curves": "a.csv"}', "curves"),
        ("[1, 2]", "JSON object"),
    ])
    def test_config_value_of_the_wrong_type_exits_1(self, tmp_path, capsys, text, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = main(["run-fixed", "--config", str(cfg_path), "--k", "3",
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {cfg_path}: ") and field in err

    def test_no_finite_start_exits_2(self, tmp_path, capsys):
        rc = main(["run-fixed", "--curves", write_sine_csv(tmp_path / "sine.csv"), "--k", "70",
                   "--n-eval", "16", "--n-iter", "1000", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "runtime failure: could not find an initial state with finite posterior\n")

    @pytest.mark.parametrize("command, flag, value", [
        ("run-fixed", "--proposal-var", "nan"),
        ("run-fixed", "--proposal-var", "inf"),
        ("run-fixed", "--b", "nan"),
        ("run-fixed", "--alpha", "inf"),
        ("run-rjmcmc", "--lam", "nan"),
    ])
    def test_non_finite_flag_exits_1_before_the_chain(self, tmp_path, capsys, command,
                                                       flag, value):
        extra = ["--k", "4"] if command == "run-fixed" else ["--lam", "1e-6"]
        out = tmp_path / "out"
        rc = main([command, "--curves", write_sine_csv(tmp_path / "sine.csv"), *extra,
                   "--n-iter", "2000", flag, value, "--out-dir", str(out)])
        field = flag[2:].replace("-", "_")
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {field} must be positive and finite, not {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"b": NaN}', '{"proposal_var": Infinity}'])
    def test_non_finite_config_value_exits_1(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        rc = main(["run-fixed", "--config", str(cfg_path), "--k", "3",
                   "--curves", write_sine_csv(tmp_path / "sine.csv"), "--out-dir", str(out)])
        field = text[2:].split('"')[0]
        assert rc == 1
        assert f"config field {field} must be float" in capsys.readouterr().err
        assert not out.exists()

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
        moves = record["moves"]
        assert list(moves) == ["birth", "death", "stay"]
        assert sum(m["proposed"] for m in moves.values()) == 5000
        assert sum(m["accepted"] for m in moves.values()) == round(record["accept_rate"] * 5000)
        assert all(0 < m["accepted"] <= m["proposed"] for m in moves.values())

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

    @pytest.mark.parametrize("ends, ks", [
        (["--k-max", "2"], ["1", "2"]),
        (["--k-min", "2"], ["2", "3"]),
    ])
    def test_criterion_lone_flag_overrides_its_end_of_the_config_range(self, tmp_path, ends, ks):
        curve_path = write_sine_csv(tmp_path / "sine.csv", 120)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"k_range": [1, 3]}')
        out = str(tmp_path / "crit")
        rc = main(["criterion", "--config", str(cfg_path), "--curves", curve_path, *ends,
                   "--n-eval", "50", "--n-iter", "1000", "--thin", "20", "--out-dir", out])
        assert rc == 0
        rows = open(os.path.join(out, "dk2.csv")).read().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ks

    def test_criterion_lone_flag_without_a_config_range_exits_1(self, tmp_path, capsys):
        curve_path = write_sine_csv(tmp_path / "sine.csv", 120)
        rc = main(["criterion", "--curves", curve_path, "--k-max", "2", "--n-iter", "1000"])
        assert rc == 1
        assert "requires --k-min/--k-max" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag", [
        (["run-fixed", "--k", "0"], "--k"),
        (["run-fixed", "--topology", "closed", "--k", "2"], "--k"),
        (["criterion", "--k-min", "0", "--k-max", "2"], "--k-min"),
        (["criterion", "--k-min", "3", "--k-max", "1"], "--k-max"),
    ])
    def test_landmark_count_outside_the_topology_exits_1(self, tmp_path, capsys, args, flag):
        curve = cm.half_circle(120) if "closed" in args else cm.sine_curve(120)
        curve_path = str(tmp_path / "curve.csv")
        write_curve_csv(curve_path, curve)
        out = tmp_path / "out"
        rc = main([*args, "--curves", curve_path, "--n-eval", "50", "--n-iter", "1000",
                   "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run-fixed", "--k", "2"], ["run-rjmcmc", "--lam", "1"]])
    def test_burn_in_that_keeps_no_draw_exits_1(self, tmp_path, capsys, command):
        curve_path = write_sine_csv(tmp_path / "sine.csv", 120)
        rc = main([*command, "--curves", curve_path, "--n-eval", "50", "--n-iter", "1000",
                   "--burn-in-frac", "0.9999", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: burn_in_frac ")

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

    def test_rerun_with_fewer_landmarks_deletes_stale_densities(self, tmp_path):
        # a k = 3 run into a k = 4 run's directory leaves no density_4.csv
        # beside its k = 3 summary; files of other names stay
        curve_path = write_sine_csv(tmp_path / "sine.csv", 120)
        out = tmp_path / "out"
        out.mkdir()
        (out / "density_04.csv").write_text("t,density\n")
        for k in ("4", "3"):
            assert main(["run-fixed", "--curves", curve_path, "--k", k, "--n-eval", "50",
                         "--n-iter", "2000", "--thin", "10", "--seed", "1",
                         "--out-dir", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "density_04.csv", "density_1.csv", "density_2.csv", "density_3.csv",
            "samples.csv", "summary.json"]
        assert json.loads((out / "summary.json").read_text())["k"] == 3

    def test_summarize_into_its_input_directory_exits_1(self, tmp_path, capsys):
        # a mixed-k table summarized into its own directory would be
        # replaced by its modal-k rows
        thetas = [[0.2, 0.5], [0.2, 0.5, 0.8]] * 30
        samples = cm.PosteriorSampleSet(
            [np.array(t) for t in thetas], np.array([2, 3] * 30), np.zeros(60), 0.2, cm.OPEN
        )
        table = str(tmp_path / "samples.csv")
        write_samples_csv(table, samples)
        before = (tmp_path / "samples.csv").read_bytes()
        for samples_arg in (table, os.path.join(str(tmp_path), ".", "samples.csv")):
            assert main(["summarize", "--samples", samples_arg, "--out-dir", str(tmp_path)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {samples_arg}: ")
        assert (tmp_path / "samples.csv").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["samples.csv"]
        assert main(["summarize", "--samples", table, "--out-dir", str(tmp_path / "sum")]) == 0

    def test_summarize_open_run_as_closed_exits_1(self, tmp_path, capsys):
        curve_path = write_sine_csv(tmp_path / "sine.csv", 120)
        run_out = str(tmp_path / "run")
        assert main(
            [
                "run-fixed",
                "--curves", curve_path,
                "--k", "3",
                "--n-eval", "50",
                "--n-iter", "2000",
                "--thin", "10",
                "--seed", "1",
                "--out-dir", run_out,
            ]
        ) == 0
        table = os.path.join(run_out, "samples.csv")
        capsys.readouterr()
        sum_out = tmp_path / "sum"
        argv = ["summarize", "--samples", table, "--out-dir", str(sum_out)]
        assert main(argv + ["--topology", "closed"]) == 1
        assert capsys.readouterr().err == f"error: {table}: table is open, --topology closed\n"
        assert not sum_out.exists()
        assert main(argv + ["--topology", "open"]) == 0

    def test_summarize_defaults_to_the_tables_topology(self, tmp_path):
        # closed rows around the wrap: the circular mean of the first
        # landmark is near 0, the linear mean of the stored values 0.17
        thetas = [[0.01, 0.34, 0.67], [0.33, 0.66, 0.99]] * 30
        samples = cm.PosteriorSampleSet(
            [np.array(t) for t in thetas], np.full(60, 3), np.zeros(60), 0.2, cm.CLOSED
        )
        table = str(tmp_path / "samples.csv")
        write_samples_csv(table, samples)
        out = str(tmp_path / "sum")
        assert main(["summarize", "--samples", table, "--out-dir", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            mean = json.load(fh)["mean"]
        assert min(mean[0], 1.0 - mean[0]) < 1e-9
        assert cm.read_samples_csv(os.path.join(out, "samples.csv")).topology == cm.CLOSED

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

    @pytest.mark.parametrize("command", ["run-fixed", "criterion"])
    def test_out_dir_that_is_a_file_exits_1(self, tmp_path, capsys, command):
        flags = {"run-fixed": ["--k", "2"], "criterion": ["--k-min", "1", "--k-max", "2"]}
        curve_path = write_sine_csv(tmp_path / "sine.csv", 120)
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(
            [
                command,
                "--curves", curve_path,
                *flags[command],
                "--n-eval", "50",
                "--n-iter", "1000",
                "--thin", "10",
                "--seed", "1",
                "--out-dir", str(taken),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: failed writing results under {taken}")

    def test_generate_family_writes_suffixed_files(self, tmp_path):
        out = str(tmp_path / "fam.csv")
        rc = main(["generate", "--name", "scaled-sine-family", "--n", "60", "--out", out])
        assert rc == 0
        for i in range(1, 6):
            assert os.path.exists(str(tmp_path / f"fam_{i}.csv"))

    def test_generate_cut_on_a_curve_without_one_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["generate", "--name", "sine", "--cut", "0.3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --cut applies only to cut-half-circle\n"
        assert not out.exists()

    def test_generate_into_missing_dir_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.csv")
        assert main(["generate", "--name", "sine", "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}: ")

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

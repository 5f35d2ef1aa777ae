import os
import subprocess
import sys
import types

import numpy as np
import pytest

import curvemark as cm
from curvemark.io import write_curve_csv, write_samples_csv


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy's import cost would be
    # paid by every CLI process
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, curvemark\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(' '.join(loaded))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def test_all_lists_every_public_name():
    # a name deleted from a module but left in __all__ (so it no longer
    # resolves), or bound but not exported, shows up here
    bound = {
        name
        for name, value in vars(cm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(cm.__all__) == sorted(bound)


def _closed_table(path, rng):
    """A 60-row closed samples table at k=4, enough draws for densities."""
    thetas = np.sort(np.mod([0.0, 0.25, 0.5, 0.75] + rng.normal(0.0, 0.02, (60, 4)), 1.0))
    write_samples_csv(path, cm.PosteriorSampleSet(
        list(thetas), np.full(60, 4), np.zeros(60), np.nan, cm.CLOSED))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    write_curve_csv(str(d / "sine.csv"), cm.sine_curve(200))
    for cut in (0.3, 0.5):
        write_curve_csv(str(d / f"closed_{cut}.csv"), cm.cut_half_circle(240, cut=cut))
    _closed_table(str(d / "table.csv"), np.random.default_rng(0))
    return d


COMMANDS = {
    "run-fixed-closed": ["run-fixed", "--topology", "closed", "--curves", "closed_0.3.csv",
                         "closed_0.5.csv", "--k", "4", "--n-eval", "64", "--n-iter", "1000",
                         "--thin", "10"],
    "run-rjmcmc": ["run-rjmcmc", "--curves", "sine.csv", "--lam", "1e-6", "--n-eval", "50",
                   "--n-iter", "1000", "--thin", "10"],
    "criterion": ["criterion", "--curves", "sine.csv", "--k-min", "1", "--k-max", "2",
                  "--n-eval", "50", "--n-iter", "1000", "--thin", "10"],
    "summarize": ["summarize", "--samples", "table.csv"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_run_leaves_numpy_ma_unloaded(command, cli_inputs, tmp_path):
    # np.median, np.percentile and np.unique without counts import numpy.ma
    # (about 16 ms and 1 MB of every run); the summaries take their
    # quantiles from one sort instead
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from curvemark.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    argv = COMMANDS[command] + ["--out-dir", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cli_inputs,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"
    assert os.listdir(tmp_path / "out")

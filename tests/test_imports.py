import os
import subprocess
import sys
import types

import curvemark as cm


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

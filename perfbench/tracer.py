"""Run the curvemark CLI with a span recorded around every public function.

    python3 perfbench/tracer.py SPANS_OUT.npz -- <curvemark CLI arguments>

Every public module-level function defined in a ``curvemark`` module (the
input generator ``synthetic`` excepted) is wrapped at every module
namespace that binds it, looked up by name at run time, so renamed or moved
functions are simply not traced.  Spans (name, start, end, parent) and a
few per-call annotations are kept in memory and written as one ``.npz``
file when the command ends; ``spans.py`` turns them into layer metrics.
The exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

import numpy as np

PACKAGE = "curvemark"
UNTRACED_MODULES = {"synthetic"}

# Functions whose arguments or results carry a per-call annotation.
MOVE_FUNCTIONS = {"propose_birth", "propose_death", "rwm_step"}
PROPOSAL_FUNCTIONS = {"propose_birth", "propose_death"}
FLAG_NONE = -1


class Recorder:
    """Span store: one row per call, parents recorded by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")  # per-call yes/no annotation, FLAG_NONE if unset
        self.size = array("d")  # per-call work size, 0 if unset
        self.stack: list[int] = []
        self.pending_move = None  # (span id, proposed state) awaiting the next move

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.flag.append(FLAG_NONE)
        self.size.append(0.0)
        self.stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def resolve_pending(self, state) -> None:
        """A birth or death was accepted iff the next move starts from the
        state it proposed."""
        if self.pending_move is None:
            return
        sid, proposed = self.pending_move
        self.pending_move = None
        self.flag[sid] = int(_same_state(state, proposed))

    def save(self, path: str, wrapped: list[str]) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            wrapped=np.array(wrapped, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            flag=np.frombuffer(self.flag, dtype=np.int8),
            size=np.frombuffer(self.size, dtype=np.float64),
        )


def _same_state(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.array_equal(a, b))


def _annotate(rec: Recorder, sid: int, short: str, args, result) -> None:
    """Record what a few layer metrics need from one call's arguments and
    result.  Any mismatch with the expected shapes leaves the call
    unannotated rather than failing the run."""
    try:
        if short in ("log_posterior_theta", "log_posterior"):
            rec.flag[sid] = int(result == float("-inf"))
        elif short == "rwm_step":
            rec.flag[sid] = int(not _same_state(result[0], args[0]))
        elif short in PROPOSAL_FUNCTIONS:
            rec.pending_move = (sid, result[0])
        elif short == "align_posterior_samples":
            rec.size[sid] = len(args[0].thetas)
        elif short == "marginal_density":
            # grid points x reflected data points (three copies of the draws)
            rec.size[sid] = len(result[0]) * 3 * len(args[0].thetas)
        elif short == "read_samples_csv":
            rec.size[sid] = len(result.thetas)
    except (AttributeError, IndexError, TypeError):
        pass


def _wrap(rec: Recorder, fn, name: str):
    name_id = rec.name_id(name)
    short = fn.__name__
    is_move = short in MOVE_FUNCTIONS

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if is_move and args:
            rec.resolve_pending(args[0])
        sid = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        _annotate(rec, sid, short, args, result)
        return result

    return traced


def install(rec: Recorder, package: str = PACKAGE) -> list[str]:
    """Wrap the package's public functions in place; returns the span
    names of the functions wrapped."""
    pkg = importlib.import_module(package)
    modules = [pkg] + [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.split(".")
            if home[0] != package or len(home) != 2 or home[1] in UNTRACED_MODULES:
                continue
            if obj not in wrappers:
                wrappers[obj] = _wrap(rec, obj, f"{home[1]}.{obj.__name__}")
            setattr(module, attr, wrappers[obj])
    return sorted(f"{fn.__module__.split('.')[1]}.{fn.__name__}" for fn in wrappers)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT.npz -- <curvemark CLI arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    rec = Recorder()
    wrapped = install(rec)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        code = cli.main(cli_args)
    finally:
        rec.save(out, wrapped)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

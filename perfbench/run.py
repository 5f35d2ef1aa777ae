"""curvemark benchmark: time the README CLI commands end to end.

    python3 perfbench/run.py --workload sine-fixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nothing needs installing.  Load shape: a
closed loop with one client, one ``curvemark`` process at a time, each
with a single BLAS/OpenMP thread.

One run of a workload generates its inputs from ``--seed``, times a fresh
process that imports curvemark and loads those inputs (set-up, several
times, interleaved with the rest), then repeats the workload's CLI
command with ``--seed`` for ``--seconds`` (at least MIN_INVOCATIONS
times).  Every invocation's
outputs are checked: exit code 0, strict-JSON ``summary.json``, a
``samples.csv`` that reads back and is byte-identical to the first
invocation's, and posterior locations near the known answer.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced invocations with traced ones (``tracer.py``), traces one
invocation of each of the workload's companions (for the layers its own
command does not enter), and reports the per-layer metrics.  Metrics are printed by name and unit; the last line
of standard output is one JSON object.  A detailed record with
provenance, input hashes and every invocation is written under
``.perfbench_work/results/``.  See ``perfbench/README.md`` for the
metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3  # set-up probes before the first invocation; one more follows each
MIN_INVOCATIONS = 3
# A run stops starting invocations, and a running child is killed, this
# long after --seconds have passed; a killed invocation counts as failed.
RUN_MARGIN_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "iter_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics run.py adds to those of spans.py, with their units.
RUN_LAYER_METRICS = {
    "chain.ess_min": "count",
    "chain.ess_per_s": "1/s",
    "trace.overhead_ratio": "1",
}

SETUP_CODE = (
    "import json, sys\n"
    "import curvemark\n"
    "call = json.loads(sys.argv[1])\n"
    "getattr(curvemark, call['loader'])(*call['args'])\n"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_curvemark():
    """Import the package from this checkout's ``src/``, never from an
    installed copy."""
    init = os.path.join(SRC, "curvemark", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no curvemark sources at {init}")
    sys.path.insert(0, SRC)
    import curvemark

    if os.path.realpath(curvemark.__file__) != os.path.realpath(init):
        raise BenchError(f"imported curvemark from {curvemark.__file__}, not {init}")
    return curvemark


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Timed:
    """One measured child process."""

    code: int
    wall_s: float
    rss_mb: float
    log: str


class Runner:
    """Starts one child at a time, through ``launcher.py``, and measures it."""

    def __init__(self):
        self.env = child_env()
        self.log_dir = None
        self.deadline = None
        self.n_logs = 0
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def start_run(self, log_dir: str, limit_s: float) -> None:
        """Begin one workload run: logs go to ``log_dir`` and every child
        is killed ``limit_s`` after this call."""
        self.log_dir = log_dir
        self.deadline = time.monotonic() + limit_s

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str]) -> Timed:
        """Run ``argv`` to completion and measure it.

        The peak RSS is the child's own, from the rusage ``wait4`` returns
        for it (the per-child form of ``getrusage(RUSAGE_CHILDREN)``).
        """
        self.n_logs += 1
        log_path = os.path.join(self.log_dir, f"child{self.n_logs}.log")
        limit = self.time_left()
        if limit <= 0:
            raise BenchError("run time limit reached")
        request = {"argv": argv, "env": self.env, "cwd": ROOT, "log": log_path, "timeout": limit}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchError("the launcher process ended")
        reply = json.loads(line)
        return Timed(reply["code"], reply["wall_s"], reply["peak_rss_mb"], log_path)

    def cli(self, args: list[str]) -> Timed:
        return self.run([sys.executable, "-m", "curvemark.cli", *args])

    def generate(self, args: list[str]) -> None:
        child = self.cli(["generate", *args])
        if child.code != 0:
            raise BenchError(f"curvemark generate {' '.join(args)} failed; see {child.log}")

    def setup_probe(self, loader: str, args: list) -> Timed:
        call = json.dumps({"loader": loader, "args": args})
        child = self.run([sys.executable, "-c", SETUP_CODE, call])
        if child.code != 0:
            raise BenchError(f"set-up probe {loader} failed; see {child.log}")
        return child


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def check_outputs(cm, workload, code: int, out_dir: str, first_sha: str | None):
    """Run every output check on one invocation.

    Returns (problems, samples.csv SHA-256 or None, samples set or None).
    """
    if code != 0:
        return [f"exit code {code}"], None, None
    problems = []
    summary = {}
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            text = fh.read()
        try:
            strict_json(text)
        except ValueError as exc:
            problems.append(f"summary.json is not strict JSON: {exc}")
        summary = json.loads(text)  # lenient, so the value checks still run
    except (OSError, ValueError) as exc:
        problems.append(f"summary.json unreadable: {exc}")
    samples_path = os.path.join(out_dir, "samples.csv")
    samples, sha = None, None
    try:
        samples = cm.read_samples_csv(samples_path, workload.topology)
        sha = sha256(samples_path)
    except (OSError, ValueError) as exc:
        problems.append(f"samples.csv does not read back: {exc}")
    if sha is not None and first_sha is not None and sha != first_sha:
        problems.append("samples.csv differs from the first invocation's (same seed)")
    problems += workload.check(summary)
    return problems, sha, samples


def ess_min(samples, topology: str) -> float:
    """Smallest bulk ESS over landmarks of the retained draws at the modal k.
    Closed-curve draws are unwrapped around each landmark's circular mean."""
    import numpy as np

    from ess import bulk_ess

    counts = samples.k_counts()
    k = max(counts, key=counts.get)
    th = samples.theta_matrix(k)
    if topology == "closed":
        ang = 2.0 * np.pi * th
        centre = np.arctan2(np.sin(ang).mean(axis=0), np.cos(ang).mean(axis=0)) / (2.0 * np.pi)
        th = np.mod(th - centre + 0.5, 1.0) - 0.5
    return min(bulk_ess(th[:, j]) for j in range(k))


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def provenance(seed: int, workload: str) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository further up
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # identifies the code when the checkout is not a git repository
    src = hashlib.sha256()
    package = os.path.join(SRC, "curvemark")
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        src.update(os.path.relpath(path, package).encode())
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def median(values):
    return statistics.median(values) if values else None


def final_layer_units() -> dict:
    """The per-layer metrics of a traced run's last line (BENCHMARK.json's
    ``per_layer``), with their units: the layer totals, which are a number
    whatever the functions inside a layer are called, and the run's own."""
    import spans

    return {**spans.LAYER_TOTALS, "io.persist.bytes": "count", **RUN_LAYER_METRICS}


def invoke(cm, runner: Runner, workload, inputs, seed: int, out_dir: str,
           first_sha: str | None, spans_path: str | None):
    """One CLI invocation of ``workload``, traced when ``spans_path`` is
    given, with every output check.  Returns (invocation record, samples or
    None, layer metrics of a traced invocation that succeeded or None)."""
    import spans

    args = workload.cli_args(inputs, seed, out_dir)
    if spans_path:
        child = runner.run([sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--", *args])
    else:
        child = runner.cli(args)
    problems, sha, samples = check_outputs(cm, workload, child.code, out_dir, first_sha)
    layers = None
    if spans_path and child.code == 0:
        table = spans.SpanTable.load(spans_path)
        problems += table.problems()
        layers = spans.layer_metrics(table, workload.n_iter, tree_bytes(out_dir))
    record = {
        "traced": bool(spans_path), "exit_code": child.code, "wall_s": child.wall_s,
        "peak_rss_mb": child.rss_mb, "samples_sha256": sha, "problems": problems,
        "log": None if child.code == 0 and not problems else child.log,
    }
    if child.code == 0 and not problems:
        shutil.rmtree(out_dir, ignore_errors=True)
    return record, samples, layers


def combine_layers(own: list[dict], companions: dict[str, dict]) -> dict:
    """Each layer metric as ``(value or None, unit, status, source)``: the
    median over the workload's own traced invocations where it is ``ok``;
    otherwise the first companion's value (``source`` names the companion);
    otherwise the own status, with a layer total's true 0."""
    import spans

    units = {**spans.LAYER_TOTALS, **{k: v[0] for k, v in spans.LAYER_METRICS.items()},
             "io.persist.bytes": "count"}
    out = {}
    for name, unit in units.items():
        per_inv = [m[name] for m in own]
        values = [v for v, _, status in per_inv if status == "ok"]
        lent = [(c, m[name][0]) for c, m in companions.items() if m[name][2] == "ok"]
        if values:
            out[name] = (median(values), unit, "ok", "own")
        elif lent:
            out[name] = (lent[0][1], unit, "ok", lent[0][0])
        elif per_inv:
            out[name] = (per_inv[0][0], unit, per_inv[0][2], "own")
        else:
            out[name] = (None, unit, "failed", "own")
    return out


def run_workload(cm, runner: Runner, workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its full record."""
    from workloads import WORKLOADS

    work = os.path.join(WORK, f"{workload.name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner.start_run(work, seconds + RUN_MARGIN_S)
    try:
        inputs = workload.make_inputs(work, seed, runner.generate)
        input_sha = {os.path.basename(p): sha256(p) for p in inputs}
        setup = []

        def probe_setup():
            setup.append(runner.setup_probe(workload.loader, workload.loader_args(inputs)).wall_s)

        for _ in range(SETUP_REPEATS):
            probe_setup()

        invocations = []
        first_sha = None
        ess = None
        traced_layers = []
        t_end = time.monotonic() + seconds
        companion_layers = {}
        for name in workload.companions if trace else ():
            companion = WORKLOADS[name]
            cdir = os.path.join(work, name)
            os.makedirs(cdir)
            c_inputs = companion.make_inputs(cdir, seed, runner.generate)
            inv, _, layers = invoke(cm, runner, companion, c_inputs, seed,
                                    os.path.join(cdir, "out"), None,
                                    os.path.join(cdir, "spans.npz"))
            invocations.append({**inv, "companion": name})
            if layers is not None:
                companion_layers[name] = layers
        spans_path = os.path.join(work, "spans.npz")
        while runner.time_left() > 0:
            own = [i for i in invocations if "companion" not in i]
            n_plain = sum(not i["traced"] for i in own)
            n_traced = len(own) - n_plain
            if (time.monotonic() >= t_end and n_plain >= MIN_INVOCATIONS
                    and (n_traced >= 1 or not trace)):
                break
            traced = trace and n_traced < n_plain
            out_dir = os.path.join(work, f"out{len(invocations)}")
            inv, samples, layers = invoke(cm, runner, workload, inputs, seed, out_dir,
                                          first_sha, spans_path if traced else None)
            first_sha = first_sha or inv["samples_sha256"]
            if ess is None and samples is not None and workload.n_iter:
                ess = ess_min(samples, workload.topology)
            if layers is not None:
                traced_layers.append(layers)
            invocations.append(inv)
            if runner.time_left() > 0:
                probe_setup()  # spread over the run, so a slow spell shifts both alike

        own = [i for i in invocations if "companion" not in i]
        plain = [i for i in own if not i["traced"]]
        if not plain:
            raise BenchError("no untraced invocation finished within the run's time limit")
        wall_s = median([i["wall_s"] for i in plain])
        e2e = {
            "wall_s": wall_s,
            "setup_s": median(setup),
            "iter_per_s": workload.n_iter / wall_s if workload.n_iter else None,
            "peak_rss_mb": median([i["peak_rss_mb"] for i in plain]),
        }
        layers = {}
        if trace:
            layers = combine_layers(traced_layers, companion_layers)
            traced_walls = [i["wall_s"] for i in own if i["traced"]]
            layers["trace.overhead_ratio"] = (
                (median(traced_walls) / wall_s, "1", "ok", "own") if traced_walls
                else (None, "1", "failed", "own"))
            if workload.n_iter:
                ok = ess is not None
                layers["chain.ess_min"] = (ess, "count", "ok" if ok else "failed", "own")
                layers["chain.ess_per_s"] = (
                    ess / wall_s if ok else None, "1/s", "ok" if ok else "failed", "own")
        if traced_layers:
            os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
            shutil.copy(spans_path, os.path.join(WORK, "results", f"{workload.name}-spans.npz"))
        return {
            "provenance": provenance(seed, workload.name),
            "seconds": seconds,
            "trace": trace,
            "inputs_sha256": input_sha,
            "setup_s_samples": setup,
            "invocations": invocations,
            "attempted": len(invocations),
            "failed": sum(1 for i in invocations if i["problems"]),
            "end_to_end": {k: v for k, v in e2e.items() if v is not None},
            "layers": layers,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def final_metrics(record: dict) -> dict:
    """The metrics of the last output line: every end-to-end metric, or
    under --trace 1 every metric of ``final_layer_units()`` (the ``chain.*``
    ones only for a chain workload), each a number.  A layer that no traced
    command entered spent 0 s in it.  A metric lacks a value only when the
    invocations it comes from failed; the run then has ``correct: false``,
    and the metric reads 0."""
    if not record["trace"]:
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in record["end_to_end"].items()}
    out = {}
    for name, unit in final_layer_units().items():
        if name not in record["layers"]:
            continue
        value = record["layers"][name][0]
        if value is None:
            if not record["failed"]:
                raise BenchError(f"per-layer metric {name} has no value, yet no invocation failed")
            value = 0.0
        out[name] = {"value": float(value), "unit": unit}
    return out


def print_record(name: str, record: dict) -> None:
    prov = record["provenance"]
    own = [i for i in record["invocations"] if "companion" not in i]
    n_plain = sum(not i["traced"] for i in own)
    n_traced = len(own) - n_plain
    print(f"== {name}  seed={prov['seed']}  nproc={prov['nproc']}  cpu={prov['cpu_model']}  "
          f"python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']}  "
          f"commit={prov['git_commit']}")
    for fname, digest in record["inputs_sha256"].items():
        print(f"   input {fname} sha256={digest}")
    for key, value in record["end_to_end"].items():
        count = len(record["setup_s_samples"]) if key == "setup_s" else n_plain
        print(f"   {key:<40} {value:>14.6g} {END_TO_END[key]:<6} (median of {count})")
    fail_ratio = record["failed"] / record["attempted"]
    print(f"   {'fail_ratio':<40} {fail_ratio:>14.6g} {'1':<6} "
          f"({record['failed']} of {record['attempted']} invocations)")
    for key, (value, unit, status, source) in sorted(record["layers"].items()):
        shown = f"{value:>14.6g}" if status == "ok" else f"{status:>14}"
        if source != "own":
            source = f"traced {source} companion"
        else:
            source = {"chain": "from samples.csv and wall_s",
                      "trace": "traced over untraced median"}.get(
                key.split(".")[0], f"median of {n_traced} traced")
        print(f"   {key:<40} {shown} {unit:<6} ({source})")
    seen = set()
    for inv in record["invocations"]:
        for problem in inv["problems"]:
            if problem not in seen:
                seen.add(problem)
                print(f"   FAILED CHECK: {problem}")


def save_record(name: str, record: dict) -> str:
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{name}-seed{record['provenance']['seed']}-trace{int(record['trace'])}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return path


def main(argv=None) -> int:
    # Started first, while this process is still small (see launcher.py).
    runner = Runner()
    try:
        from workloads import WORKLOADS

        parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
        args = parser.parse_args(argv)
        cm = import_curvemark()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = {}
        for name in names:
            records[name] = run_workload(
                cm, runner, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print_record(name, records[name])
            print(f"   record: {save_record(name, records[name])}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if len(records) == 1:
        metrics = final_metrics(records[names[0]])
    else:
        metrics = {f"{n}/{k}": v for n, r in records.items() for k, v in final_metrics(r).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

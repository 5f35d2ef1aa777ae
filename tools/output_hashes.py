"""Print the SHA-256 of every file the README's command-line sequence and two
closed-curve runs write.

Runs, in a temporary directory and for each seed, the README commands:
``generate`` the sine curve, ``run-fixed``, ``run-rjmcmc`` and
``criterion`` on it, then ``summarize`` of the ``run-rjmcmc`` table into a
directory of its own.  Then a closed ``run-fixed`` and a closed
``run-rjmcmc`` (lambda 2) on two ``cut-half-circle`` outlines at 64
evaluation points and 4,000 iterations, which take the start alignment,
the label alignment and the closed block path, and ``closed-family``, a
closed ``run-fixed`` (k 4, 4,000 iterations, thin 20) on five outlines of
400 points, a ``half-circle`` and ``cut-half-circle`` at cuts 0.2, 0.3, 0.4
and 0.5, at 1,000 evaluation points, which takes the block level of five
curves.  Each command writes under ``<seed>/<command>/``.
One line per output file, ``sha256  relative-path``, sorted by path, so a
refactor that keeps seeded outputs byte-identical shows as an empty diff:

    PYTHONPATH=src python3 tools/output_hashes.py > after.txt
    diff before.txt after.txt

Uses only the standard library and ``curvemark``; seeds 1, 2 and 3.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from curvemark.cli import main as curvemark_main


def commands(seed: int) -> list[list[str]]:
    """The README sequence and the closed runs for one seed, each command in
    its own directory."""
    d, s = str(seed), ["--seed", str(seed)]
    sine = os.path.join(d, "sine.csv")
    cuts = {c: os.path.join(d, f"cut_{c}.csv") for c in ("0.3", "0.5")}
    closed = ["--curves", *cuts.values(), "--topology", "closed", "--n-eval", "64",
              "--n-iter", "4000", "--thin", "10", *s]
    half = os.path.join(d, "family_half.csv")
    family = {c: os.path.join(d, f"family_{c}.csv") for c in ("0.2", "0.3", "0.4", "0.5")}
    return [
        ["generate", "--name", "sine", "--n", "200", "--out", sine],
        ["run-fixed", "--curves", sine, "--k", "4", "--n-eval", "200", *s,
         "--out-dir", os.path.join(d, "run-fixed")],
        ["run-rjmcmc", "--curves", sine, "--lam", "1e-6", "--n-eval", "100", *s,
         "--out-dir", os.path.join(d, "run-rjmcmc")],
        ["criterion", "--curves", sine, "--k-min", "1", "--k-max", "8", *s,
         "--out-dir", os.path.join(d, "criterion")],
        ["summarize", "--samples", os.path.join(d, "run-rjmcmc", "samples.csv"),
         "--out-dir", os.path.join(d, "summarize")],
        *(["generate", "--name", "cut-half-circle", "--cut", c, "--n", "240", "--out", path]
          for c, path in cuts.items()),
        ["run-fixed", *closed, "--k", "4", "--out-dir", os.path.join(d, "closed-fixed")],
        ["run-rjmcmc", *closed, "--lam", "2", "--out-dir", os.path.join(d, "closed-rjmcmc")],
        ["generate", "--name", "half-circle", "--n", "400", "--out", half],
        *(["generate", "--name", "cut-half-circle", "--cut", c, "--n", "400", "--out", path]
          for c, path in family.items()),
        ["run-fixed", "--curves", half, *family.values(), "--topology", "closed", "--k", "4",
         "--n-eval", "1000", "--n-iter", "4000", "--thin", "20", *s,
         "--out-dir", os.path.join(d, "closed-family")],
    ]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for seed in (1, 2, 3):
                os.mkdir(str(seed))
                for args in commands(seed):
                    log = io.StringIO()
                    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                        code = curvemark_main(args)
                    if code != 0:
                        print(f"curvemark {' '.join(args)} exited {code}:\n{log.getvalue()}",
                              file=sys.stderr)
                        return 1
            paths = sorted(
                os.path.relpath(os.path.join(dirpath, name), root)
                for dirpath, _, names in os.walk(root) for name in names
            )
            for path in paths:
                print(f"{sha256(os.path.join(root, path))}  {path}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())

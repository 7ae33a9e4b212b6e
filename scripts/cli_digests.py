#!/usr/bin/env python3
"""Compare the CLI's observable output between two checkouts, case by case.

Runs one fixed corpus of ``adam-abc`` invocations against the ``src/`` of
each checkout.  Every case runs in a new Python process (``PYTHONPATH`` set to
the checkout's ``src``, BLAS pinned to one thread) inside an empty temporary
working directory, with relative ``--out`` names.  A case's record is its exit
code, its stdout, its stderr, every directory it left in that directory (empty
ones included) and the SHA-256 of every file it left there, ``manifest.json``
excepted (it holds the start time).  Both checkouts' cases run
``os.cpu_count()`` at a time from one thread pool; each still has its own
process and directory, so no record depends on what runs beside it.  The
script prints each case whose record differs between the two sides, naming
the fields that differ, and exits 1 if any case differs, else 0.

The corpus covers every command; exit 0, exit 1 from a failed check, exit 1
from a run that broke down, and exit 2; all six probes and all three problem
kinds; ``--threads 2``, trace row selection and a skipped slope fit.  Six
cases run T = 4100 steps: an ``experiment`` per problem kind, a
``last_iterate`` experiment per data problem and a ``trace``.  They cross 16
prefetch blocks of 256 draws on the quadratic (two of 2560 on the data
problems) and end on a short block and a 4-step sub-block (and, for the
trace, a 4-row CSV chunk).  One ``moment`` experiment runs T = 8192, past
the 2^22 / 525 = 7989 steps above which the surrogate product's tail sums
take their FFT path.  Every other horizon is at most 1000 steps, so one
corpus run takes seconds.

Usage:
    python3 scripts/cli_digests.py PARENT_DIR CHANGE_DIR
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RUNNER = "import sys; from adamabc.cli import main; sys.exit(main(sys.argv[1:]))"

ALL_PROBES = "rate,last_iterate,l1,summability,moment,sgd_anchor"
LEAST_SQUARES = "problem = least_squares\nd = 5\nn = 50\ndata_seed = 7"
LONG = "T = 4100\nseeds = 0,1,2\nprobes = rate,moment"
LAST_ITERATE = "T = 4100\nseeds = 0,1,2\nprobes = last_iterate"

#: (case name, argv); a comment names the exit code where it is not 0
CORPUS = (
    ("list-problems", ["list-problems"]),
    ("verify", ["verify", "--config", "T = 64\nseeds = 0,1", "--out", "out"]),
    ("verify-no-out", ["verify", "--config", "T = 32\nseeds = 3\nsuite = least_squares,logistic"]),
    # 1: a check fails against a certificate claiming a tenth of L_f
    ("verify-fault", ["verify", "--config",
                      "T = 64\nseeds = 0\nsuite = noisy_quadratic\ninject_fault = lipschitz_tenth",
                      "--out", "out"]),
    # 1: the first step-size gap is negative
    ("verify-negative-gap", ["verify", "--config",
                             "v = 0.25\nT = 16\nseeds = 0\nsuite = noisy_quadratic", "--out", "out"]),
    ("experiment-all-probes", ["experiment", "--config",
                               f"T = 256\nseeds = 0,1,2\nprobes = {ALL_PROBES}", "--out", "out"]),
    ("experiment-delta0-gamma1", ["experiment", "--config",
                                  "delta = 0\ngamma = 1.0\nT = 256\nseeds = 0,1\n"
                                  "probes = rate,summability,moment,sgd_anchor", "--out", "out"]),
    ("experiment-least-squares-threads2", ["experiment", "--config",
                                           f"{LEAST_SQUARES}\nT = 256\nseeds = 0,1,2,3\n"
                                           "probes = rate,l1,moment", "--threads", "2",
                                           "--out", "out"]),
    ("experiment-logistic-json", ["experiment", "--config",
                                  '{"problem": "logistic", "data_seed": 3, "T": 128, '
                                  '"seeds": [0, 1], "probes": ["rate", "summability", "moment"]}',
                                  "--out", "out"]),
    ("experiment-quadratic-T4100", ["experiment", "--config", LONG, "--out", "out"]),
    ("experiment-least-squares-T4100", ["experiment", "--config", f"{LEAST_SQUARES}\n{LONG}",
                                        "--out", "out"]),
    ("experiment-logistic-T4100", ["experiment", "--config", f"problem = logistic\n{LONG}",
                                   "--out", "out"]),
    # last_grad alone, on the data problems: the exact gradient only in the
    # sub-blocks that hold a checkpoint
    ("experiment-last-iterate-least-squares", ["experiment", "--config",
                                               f"{LEAST_SQUARES}\n{LAST_ITERATE}",
                                               "--out", "out"]),
    ("experiment-last-iterate-logistic", ["experiment", "--config",
                                          f"problem = logistic\n{LAST_ITERATE}", "--out", "out"]),
    # the moment probe's tail sums take the FFT path
    ("experiment-moment-fft", ["experiment", "--config", "T = 8192\nseeds = 0,1,2\nprobes = moment",
                               "--out", "out"]),
    # one checkpoint inside the final decade: every slope fit is skipped
    ("experiment-skipped-fit", ["experiment", "--config",
                                "T = 256\nseeds = 0,1\ncheckpoints = 1,2,4,8,256\n"
                                "probes = rate,moment,sgd_anchor", "--out", "out"]),
    # 1: the running S_total overflows
    ("experiment-non-finite", ["experiment", "--config",
                               "sigma = 1e153\nT = 256\nseeds = 0,1\nprobes = rate,moment",
                               "--out", "out"]),
    # 0: the same run with the rate probe alone.  S_total still overflows, but
    # no rate series reads it, so the sweep never forms it; avg_gsq, last_grad
    # and the final iterates stay finite, and the rate verdicts are reported
    ("experiment-non-finite-unread", ["experiment", "--config",
                                      "sigma = 1e153\nT = 256\nseeds = 0,1\nprobes = rate",
                                      "--out", "out"]),
    # 1: the moment probe's sweep reads the gaps, and the first one is negative
    ("experiment-negative-gap", ["experiment", "--config",
                                 "v = 0.25\nT = 64\nseeds = 0,1\nprobes = moment", "--out", "out"]),
    # 1: an Adam sweep without the moment probe checks its gaps too
    ("experiment-negative-gap-rate", ["experiment", "--config",
                                      "v = 0.01\nT = 64\nseeds = 0,1\nprobes = rate",
                                      "--out", "out"]),
    # 2: outside the last-iterate hypotheses
    ("experiment-hypothesis-gate", ["experiment", "--config", "gamma = 1.0\nprobes = last_iterate",
                                    "--out", "out"]),
    # 2: an unknown key
    ("experiment-parse-error", ["experiment", "--config", "bogus = 1", "--out", "out"]),
    # 2: no checkpoint in the moment probe's final decade
    ("experiment-moment-no-final-decade", ["experiment", "--config",
                                           "T = 1000\nseeds = 0,1\nprobes = moment\n"
                                           "checkpoints = 1,2,3,4", "--out", "o1"]),
    ("trace", ["trace", "--config", "T = 64", "--seeds", "3", "--out", "out"]),
    ("trace-T4100", ["trace", "--config", "T = 4100", "--seeds", "5", "--out", "out"]),
    ("trace-checkpoints-flag", ["trace", "--config", "T = 64", "--seeds", "0",
                                "--checkpoints", "2,4,8", "--out", "out"]),
    ("trace-checkpoints-key", ["trace", "--config", "T = 16\ncheckpoints = 1,2", "--seeds", "0",
                               "--out", "out"]),
    ("trace-least-squares", ["trace", "--config", f"{LEAST_SQUARES}\nT = 64", "--seeds", "2",
                             "--out", "out"]),
    ("trace-logistic", ["trace", "--config", "problem = logistic\nT = 64", "--seeds", "1",
                        "--out", "out"]),
    # 1: the first step-size gap is negative
    ("trace-negative-gap", ["trace", "--config", "v = 0.25\nT = 16\nseeds = 0", "--out", "out/sub"]),
    # 1: the first step-size gap is negative, under an --out that passes through NEW/..
    ("trace-negative-gap-dotdot", ["trace", "--config", "v = 0.25\nT = 16\nseeds = 0",
                                   "--out", "NEW/../x"]),
    # 1: a CSV cell overflows
    ("trace-non-finite", ["trace", "--config", "sigma = 1e153\nT = 64", "--seeds", "0",
                          "--out", "out"]),
    # 2: trace takes exactly one seed
    ("trace-two-seeds", ["trace", "--config", "T = 8", "--seeds", "0,1", "--out", "out"]),
    # 2: the logistic certificate's C = (max_i|a_i| + reg*R)^2 overflows
    ("experiment-logistic-reg-overflow", ["experiment", "--config",
                                          "problem = logistic\nreg = 1e153", "--out", "out"]),
    # 2: one row without a ridge term makes every Newton system singular
    ("trace-logistic-singular", ["trace", "--config", "problem = logistic\nn = 1\nd = 3\nreg = 0",
                                 "--seeds", "0", "--out", "out"]),
    # 2: argparse rejects an unknown flag
    ("usage", ["verify", "--bogus"]),
    # 2: a problem kind no build knows, which verify alone does not build
    ("verify-unknown-problem", ["verify", "--config",
                                "problem = foo\nT = 16\nseeds = 0\nsuite = noisy_quadratic"]),
    # 2: a JSON config that repeats a key
    ("experiment-json-duplicate-key", ["experiment", "--config",
                                       '{"T": 64, "T": 32, "seeds": [0]}', "--out", "o"]),
    # 2: an --out component too long for its file system, under a parent still to make
    ("trace-long-out-component", ["trace", "--config", "T = 16\nseeds = 0",
                                  "--out", "new1/" + "x" * 300]),
)


def run_case(checkout: Path, argv) -> dict:
    """One corpus case in a fresh process and an empty working directory."""
    src = str((checkout / "src").resolve())
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", RUNNER, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, check=False)
        left = sorted(Path(cwd).rglob("*"))
        dirs = [str(f.relative_to(cwd)) for f in left if f.is_dir()]
        artifacts = {
            str(f.relative_to(cwd)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in left if f.is_file() and f.name != "manifest.json"
        }
    # a traceback names the checkout's files; the rest of the text does not
    return {
        "exit": done.returncode,
        "stdout": done.stdout.replace(src, "<src>"),
        "stderr": done.stderr.replace(src, "<src>"),
        "dirs": dirs,
        "artifacts": artifacts,
    }


def differences(a: dict, b: dict) -> list:
    """[(case, [differing fields])] for every case whose records differ."""
    out = []
    for name in a:
        fields = [key for key in ("exit", "stdout", "stderr", "dirs")
                  if a[name][key] != b[name][key]]
        arts_a, arts_b = a[name]["artifacts"], b[name]["artifacts"]
        fields += [f"artifact {path}" for path in sorted(set(arts_a) | set(arts_b))
                   if arts_a.get(path) != arts_b.get(path)]
        if fields:
            out.append((name, fields))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout directory")
    parser.add_argument("change", type=Path, help="change checkout directory")
    args = parser.parse_args(argv)
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        runs = [{name: pool.submit(run_case, side, argv) for name, argv in CORPUS}
                for side in (args.parent, args.change)]
        parent, change = ({name: run.result() for name, run in side.items()} for side in runs)
    diffs = differences(parent, change)
    for name, fields in diffs:
        print(f"differs: {name}: {', '.join(fields)}")
    print(f"{len(diffs)} of {len(CORPUS)} cases differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: their operations, sizes, counts and output checks.

A workload is a list of operations.  An operation is one CLI command run
through ``adamabc.cli.main`` (with an output directory) or one public checker
call.  Running it yields an ``OpResult``: exit code, sha256 of every
deterministic artifact, bytes written, check counts, and the problems found
by the checks that hold at every seed.  Comparison with the first pass of a
run (determinism) and with the recorded reference (at the reference seed)
happens in ``compare``.

Workload shapes follow the acceptance gate's costs at repeatable sizes:

* verify-record: ``adam-abc verify`` over the three-problem suite plus one
  ``adam-abc trace`` per problem kind (criteria 1 and 10): the 1-row
  recording loop, ``build_trace``, the pathwise checkers and ``trace_csv``.
* sweep-grid: four 20-seed noisy-quadratic ``experiment`` runs, one per
  (delta, gamma) of criteria 4a/4b: per-step dispatch of a narrow sweep.
* sweep-wide: one 50-seed logistic ``experiment`` with the moment, l1 and
  summability probes (criterion 7): wide rows, BLAS-bound exact gradient,
  ``dsum`` collection and FFT tail sums.
* branch-stats: the statistical checkers at acceptance sizes (criteria 2, 3,
  8, 9): the K-row one-step branch mode.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import adamabc.cli as C
import adamabc.optimizer as O
import adamabc.problems as P
import adamabc.verify as V
from adamabc.core import HyperParams

WORKLOADS = ("verify-record", "sweep-grid", "sweep-wide", "branch-stats")
KINDS = ("noisy_quadratic", "least_squares", "logistic")

#: the seed whose outputs are pinned by reference.json
REFERENCE_SEED = 0

#: checker verdicts that are Monte-Carlo tests at a 4-standard-error budget;
#: at seeds other than the reference seed they may fail by chance, so there a
#: failure is counted but does not make the operation incorrect.  Every other
#: check is an exact or numerical guarantee that must hold at every seed.
STATISTICAL_CHECKS = frozenset(
    {"oracle-unbiasedness", "oracle-second-moment", "branching-descent"}
)

#: CLI config lines that build the suite's instances of each problem kind
#: (same data as problems.default_suite)
KIND_CONFIG = {
    "noisy_quadratic": "problem = noisy_quadratic\nd = 10",
    "least_squares": "problem = least_squares\nd = 5\nn = 50\ndata_seed = 7",
    "logistic": "problem = logistic\nd = 10\nn = 100\ndata_seed = 3",
}

#: criterion 7's logistic sweep
WIDE_CONFIG = "problem = logistic\nd = 10\nn = 100\ndelta = 0.5\ngamma = 1.5"

GRID = ((0.1, 1.2), (0.25, 1.25), (0.0, 1.5), (0.0, 1.0))


@dataclass(frozen=True)
class Sizes:
    verify_T: int = 2000
    verify_seeds: int = 3
    trace_T: int = 4096
    grid_T: int = 1 << 14
    grid_seeds: int = 20
    wide_T: int = 1 << 13
    wide_seeds: int = 50
    sound_points: int = 20
    sound_K: int = 100_000
    descent_T: int = 2000
    descent_cps: int = 50
    descent_K: int = 10_000
    grad_points: int = 1000
    exchange_instances: int = 1000


FULL = Sizes()
SMOKE = Sizes(
    verify_T=64, verify_seeds=2, trace_T=64, grid_T=256, grid_seeds=3,
    wide_T=256, wide_seeds=4, sound_points=2, sound_K=2000, descent_T=200,
    descent_cps=5, descent_K=1000, grad_points=10, exchange_instances=10,
)


def seed_list(first: int, n: int) -> str:
    return ",".join(str(s) for s in range(first, first + n))


def config(*lines: str) -> str:
    # threads = 1 everywhere: one process per run, whatever ADAM_ABC_THREADS says
    return "\n".join(lines + ("threads = 1",))


@dataclass
class OpResult:
    exit_code: int | None
    artifacts: dict = field(default_factory=dict)  # name -> sha256
    bytes_written: int = 0
    checks_run: int = 0
    checks_failed: int = 0
    problems: list = field(default_factory=list)  # correctness findings

    def fingerprint(self) -> dict:
        return {"exit": self.exit_code, "artifacts": self.artifacts}


class CliOp:
    """One ``adam-abc`` command; artifacts are read back from its output dir."""

    def __init__(self, label: str, argv: list, out_dir: str, trace_rows: int = 0):
        self.label = label
        self.argv = argv + ["--out", out_dir]
        self.out_dir = out_dir
        self.command = argv[0]
        self.trace_rows = trace_rows

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def call(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return C.main(self.argv)

    def result(self, rc) -> OpResult:
        res = OpResult(exit_code=rc)
        if rc not in (0, 1):
            res.problems.append(f"exit code {rc}")
            return res
        names = sorted(os.listdir(self.out_dir)) if os.path.isdir(self.out_dir) else []
        blobs = {}
        for name in names:
            if name == "manifest.json":  # carries a timestamp
                continue
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                blobs[name] = fh.read()
        res.artifacts = {n: hashlib.sha256(b).hexdigest() for n, b in blobs.items()}
        res.bytes_written = sum(len(b) for b in blobs.values())
        if self.command != "trace" and "manifest.json" not in names:
            res.problems.append("no manifest.json")
        getattr(self, "_check_" + self.command)(rc, blobs, res)
        return res

    def _check_verify(self, rc, blobs, res):
        doc = _load_json(blobs, "verify.json", res)
        if doc is None:
            return
        _status_matches_exit(doc, rc, res)
        for group, checks in doc["checks"].items():
            for c in checks:
                res.checks_run += 1
                if c["status"] == "fail":
                    res.checks_failed += 1
                    if c["name"] not in STATISTICAL_CHECKS:
                        res.problems.append(f"check {c['name']} [{group}] failed")

    def _check_experiment(self, rc, blobs, res):
        doc = _load_json(blobs, "report.json", res)
        if doc is None:
            return
        _status_matches_exit(doc, rc, res)
        for probe in doc["probes"]:
            if f"series_{probe}.csv" not in blobs:
                res.problems.append(f"missing series_{probe}.csv")

    def _check_trace(self, rc, blobs, res):
        if rc != 0:
            res.problems.append(f"trace exit code {rc}")
        csvs = [b for n, b in blobs.items() if n.startswith("trace_seed")]
        if len(csvs) != 1:
            res.problems.append(f"expected one trace CSV, got {len(csvs)}")
            return
        lines = csvs[0].decode().splitlines()
        if lines[0] != ",".join(C.TRACE_COLUMNS) or len(lines) != self.trace_rows + 1:
            res.problems.append("trace CSV header or row count wrong")
            return
        vals = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        if not np.all(np.isfinite(vals)):
            res.problems.append("trace CSV has non-finite cells")


def _load_json(blobs, name, res):
    if name not in blobs:
        res.problems.append(f"missing {name}")
        return None
    return json.loads(blobs[name])


def _status_matches_exit(doc, rc, res):
    want = 1 if doc["status"] == "fail" else 0
    if rc != want:
        res.problems.append(f"exit code {rc} but status {doc['status']!r}")


class CheckOp:
    """One public checker call; its CheckResult records are the artifact."""

    def __init__(self, label: str, fn):
        self.label = label
        self.fn = fn

    def prepare(self) -> None:
        pass

    def call(self):
        out = self.fn()
        return out if isinstance(out, list) else [out]

    def result(self, checks) -> OpResult:
        text = json.dumps([r.as_dict() for r in checks], sort_keys=True)
        res = OpResult(exit_code=0)
        res.artifacts = {self.label: hashlib.sha256(text.encode()).hexdigest()}
        for r in checks:
            res.checks_run += 1
            if r.status == "fail":
                res.checks_failed += 1
                if r.name not in STATISTICAL_CHECKS:
                    res.problems.append(f"check {r.name} failed")
        return res


@dataclass
class Workload:
    ops: list
    seed_steps: int  # useful seed-steps per pass (trajectories + sweeps)
    branch_rows: int  # branch-sample rows per pass
    shape: str  # rows x steps, for the environment block

    @property
    def oracle_draws(self) -> int:
        return self.seed_steps + self.branch_rows


def setup(name: str, seed: int, sizes: Sizes, out_root: str) -> Workload:
    """Parse every config and build every problem the workload needs.

    This is the work ``setup_s`` measures (with the imports before it); the
    operations themselves repeat their own parsing inside ``cli.main``.
    """
    if name == "verify-record":
        return _verify_record(seed, sizes, out_root)
    if name == "sweep-grid":
        return _sweep_grid(seed, sizes, out_root)
    if name == "sweep-wide":
        return _sweep_wide(seed, sizes, out_root)
    if name == "branch-stats":
        return _branch_stats(seed, sizes)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


def _verify_record(seed, z: Sizes, out_root):
    n = z.verify_seeds
    vcfg = config(f"T = {z.verify_T}", f"seeds = {seed_list(n * seed, n)}")
    C.parse_config(vcfg)
    P.default_suite()
    ops = [CliOp("verify", ["verify", "--config", vcfg], os.path.join(out_root, "verify"))]
    for kind in KINDS:
        tcfg = config(KIND_CONFIG[kind], f"T = {z.trace_T}", f"seeds = {seed}")
        C.parse_config(tcfg).problem.build()
        ops.append(
            CliOp(f"trace-{kind}", ["trace", "--config", tcfg],
                  os.path.join(out_root, f"trace-{kind}"), trace_rows=z.trace_T)
        )
    # cmd_verify's descent check: the first 8 power-of-two checkpoints below T
    n_cps = min(8, sum(1 for k in range(z.verify_T.bit_length()) if (1 << k) < z.verify_T))
    return Workload(
        ops=ops,
        seed_steps=len(KINDS) * (n * z.verify_T + z.trace_T),
        branch_rows=len(KINDS) * 5 * 20_000 + n_cps * 2_000,
        shape=f"3 kinds x {n} seeds x {z.verify_T} steps + 3 traces x {z.trace_T} steps",
    )


def _sweep_grid(seed, z: Sizes, out_root):
    ops = []
    for delta, gamma in GRID:
        cfg = config(
            KIND_CONFIG["noisy_quadratic"], f"T = {z.grid_T}",
            f"seeds = {seed_list(z.grid_seeds * seed, z.grid_seeds)}",
            f"delta = {delta}", f"gamma = {gamma}", "probes = rate",
        )
        C.parse_config(cfg).problem.build()
        label = f"rate-d{delta}-g{gamma}"
        ops.append(CliOp(label, ["experiment", "--config", cfg], os.path.join(out_root, label)))
    return Workload(
        ops=ops,
        seed_steps=len(GRID) * z.grid_seeds * z.grid_T,
        branch_rows=0,
        shape=f"4 sweeps x {z.grid_seeds} rows x {z.grid_T} steps",
    )


def _sweep_wide(seed, z: Sizes, out_root):
    cfg = config(
        WIDE_CONFIG, f"T = {z.wide_T}",
        f"seeds = {seed_list(z.wide_seeds * seed, z.wide_seeds)}",
        "probes = moment,l1,summability",
    )
    C.parse_config(cfg).problem.build()
    ops = [CliOp("moment-l1-summability", ["experiment", "--config", cfg],
                 os.path.join(out_root, "wide"))]
    return Workload(
        ops=ops,
        seed_steps=z.wide_seeds * z.wide_T,
        branch_rows=0,
        shape=f"1 sweep x {z.wide_seeds} rows x {z.wide_T} steps",
    )


def _branch_stats(seed, z: Sizes):
    suite = P.default_suite()
    quad = suite[0]
    h10 = HyperParams(dim=quad.dim)
    step = z.descent_T // z.descent_cps
    cps = list(range(step, z.descent_T + 1, step))[: z.descent_cps]
    ops = []
    for p in suite:
        ops.append(CheckOp(
            f"oracle-soundness-{p.name}",
            lambda p=p: V.check_oracle_soundness(
                p, z.sound_points, z.sound_K,
                P.rng_stream(f"acceptance-oracle:{p.name}", seed, "branch")),
        ))

    def descent():
        trace = O.run_trajectory(quad, h10, z.descent_T, seed)
        return V.check_descent_expectation(
            quad, trace, cps, z.descent_K, P.rng_stream("acceptance-descent", seed, "branch"))

    ops.append(CheckOp("descent", descent))
    for p in suite:
        ops.append(CheckOp(
            f"gradcheck-{p.name}",
            lambda p=p: V.gradcheck(
                p, z.grad_points, P.rng_stream(f"acceptance-grad:{p.name}", seed, "points")),
        ))
    ops.append(CheckOp(
        "exchange",
        lambda: V.check_exchange(
            z.exchange_instances, P.rng_stream("acceptance-exchange", seed, "misc")),
    ))
    return Workload(
        ops=ops,
        seed_steps=z.descent_T,
        branch_rows=len(suite) * z.sound_points * z.sound_K + len(cps) * z.descent_K,
        shape=(f"3 x {z.sound_points} points x K={z.sound_K} + {len(cps)} checkpoints x "
               f"K={z.descent_K} + 3 x {z.grad_points} gradcheck points + "
               f"{z.exchange_instances} exchange instances + 1 x {z.descent_T} steps"),
    )


def compare(res: OpResult, first: OpResult | None, ref: dict | None) -> list:
    """Findings against the run's first pass and against the reference op."""
    out = list(res.problems)
    if first is not None and res.fingerprint() != first.fingerprint():
        out.append("output differs from the first pass of this run")
    if ref is not None:
        if res.exit_code != ref["exit"]:
            out.append(f"exit code {res.exit_code}, reference {ref['exit']}")
        for name in sorted(set(res.artifacts) | set(ref["artifacts"])):
            if res.artifacts.get(name) != ref["artifacts"].get(name):
                out.append(f"{name}: sha256 differs from the reference")
    return out


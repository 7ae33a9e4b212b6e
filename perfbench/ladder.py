"""Kernel ladder: fixed-size costs of each layer's public functions.

The ladder runs in every traced run, whatever the workload, so each of its
figures is comparable across workloads and commits.  Sizes are fixed here and
small enough to add a few seconds to a traced run; each figure is the median
of a few repeats.  The sweep rungs (1, 20 and 100 rows per problem kind) and
the record-mode cost per step are the ladder the roadmap asks for; the
statistical checkers run at a tenth of their branch-stats sizes (the descent
check at a fifth).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time

import numpy as np

import adamabc.cli as C
import adamabc.core as core
import adamabc.experiments as E
import adamabc.instrumentation as I
import adamabc.optimizer as O
import adamabc.problems as P
import adamabc.verify as V
from adamabc.core import HyperParams, with_dim

from spans import installed
from workloads import KIND_CONFIG, KINDS, WIDE_CONFIG, config, seed_list

RECORD_T = 2000
SWEEP_T = 1024
SWEEP_ROWS = (1, 20, 100)
BATCH_ROWS = 10_000
BRANCH_K = 100_000
TRACE_CHECKS = ("check_properties", "check_taylor_step", "check_telescoping",
                "check_momentum_bound", "check_vital1_pathwise")
PROBE_NAMES = ("rate", "l1", "summability", "moment")


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _builders():
    return {
        "noisy_quadratic": lambda: P.make_noisy_quadratic(np.linspace(1.0, 4.0, 10), sigma=1.0),
        "least_squares": lambda: P.make_least_squares(50, 5, seed=7),
        "logistic": lambda: P.make_logistic(100, 10, seed=3),
    }


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return C.main(argv)


def run_ladder(tracer, workdir: str) -> dict:
    """Return {metric name: (value, unit)} for every ladder figure."""
    m = {}
    h = HyperParams()

    def schedule():
        for t in range(1, 20_001):
            core.eta_at(t, h)
            core.beta2_at(t, h)

    m["core.schedule_ns"] = (_median_s(schedule, 5) / 20_000 * 1e9, "ns")

    probs = {}
    build_s = {}
    for kind, build in _builders().items():
        probs[kind] = build()
        build_s[kind] = _median_s(build, 5)
        m[f"problems.build_ms.{kind}"] = (build_s[kind] * 1e3, "ms")

    rng = P.rng_stream("perfbench-ladder", 0, "misc")
    for kind, p in probs.items():
        w = np.ones(p.dim)
        W = 1.0 + 0.1 * rng.standard_normal((BATCH_ROWS, p.dim))

        def draws(p=p, w=w):
            for _ in range(2000):
                P.oracle_sample(p, w, rng)

        m[f"problems.oracle_us.{kind}"] = (_median_s(draws, 3) / 2000 * 1e6, "us")
        m[f"problems.branch_ns_per_row.{kind}"] = (
            _median_s(lambda: P.branch_samples(p, w, BRANCH_K, rng), 3) / BRANCH_K * 1e9, "ns")
        m[f"problems.loss_batch_ns_per_row.{kind}"] = (
            _median_s(lambda: P.loss_batch(p, W), 5) / BATCH_ROWS * 1e9, "ns")
        m[f"problems.grad_batch_ns_per_row.{kind}"] = (
            _median_s(lambda: P.grad_batch(p, W), 5) / BATCH_ROWS * 1e9, "ns")

    # record mode, build_trace and the pathwise checkers, from spans
    traces = {}
    checker_s = {c: [] for c in TRACE_CHECKS}
    per_kind = {kind: {"rec": [], "build": [], "checks": []} for kind in KINDS}
    with installed(tracer):
        for _ in range(3):
            rep = dict.fromkeys(TRACE_CHECKS, 0.0)
            for kind, p in probs.items():
                tracer.reset()
                traces[kind] = O.run_trajectory(p, with_dim(h, p.dim), RECORD_T, 0)
                V.run_trace_checks(traces[kind])
                per_kind[kind]["rec"].append(tracer.self_s("optimizer.run_trajectory"))
                per_kind[kind]["build"].append(tracer.total_s("instrumentation.build_trace"))
                per_kind[kind]["checks"].append(tracer.total_s("verify.run_trace_checks"))
                for c in TRACE_CHECKS:
                    rep[c] += tracer.total_s(f"verify.{c}")
            for c in TRACE_CHECKS:
                checker_s[c].append(rep[c])
    for kind, f in per_kind.items():
        m[f"optimizer.record_us_per_step.{kind}"] = (statistics.median(f["rec"]) / RECORD_T * 1e6, "us")
        m[f"instrumentation.build_trace_us_per_step.{kind}"] = (
            statistics.median(f["build"]) / RECORD_T * 1e6, "us")
        m[f"verify.trace_checks_us_per_step.{kind}"] = (
            statistics.median(f["checks"]) / RECORD_T * 1e6, "us")
    for c in TRACE_CHECKS:
        m[f"verify.{c}_s"] = (statistics.median(checker_s[c]), "s")

    h10 = with_dim(h, 10)
    s0 = O.adam_init(np.ones(10), h10)
    g = np.full(10, 0.1)

    def steps():
        for _ in range(20_000):
            O.adam_step(s0, g, h10)

    m["optimizer.adam_step_us"] = (_median_s(steps, 3) / 20_000 * 1e6, "us")

    quad, quad_trace = probs["noisy_quadratic"], traces["noisy_quadratic"]
    state = quad_trace.state_before(RECORD_T // 2)
    m["instrumentation.branch_conditional_us"] = (
        _median_s(lambda: I.branch_conditional(quad, state, h10, 10_000, rng), 5) * 1e6, "us")

    # statistical checkers at a tenth (descent: a fifth) of their branch-stats sizes
    m["verify.oracle_soundness_s"] = (
        sum(_median_s(lambda p=p: V.check_oracle_soundness(p, 2, BRANCH_K, rng), 1)
            for p in probs.values()), "s")
    cps = list(range(200, RECORD_T + 1, 200))
    m["verify.descent_s"] = (
        _median_s(lambda: V.check_descent_expectation(quad, quad_trace, cps, 10_000, rng), 1), "s")
    m["verify.gradcheck_s"] = (
        sum(_median_s(lambda p=p: V.gradcheck(p, 100, rng), 1) for p in probs.values()), "s")
    m["verify.exchange_s"] = (_median_s(lambda: V.check_exchange(100, rng), 1), "s")

    # the lockstep sweep at 1, 20 and 100 rows, less the problem build
    for kind in KINDS:
        for rows in SWEEP_ROWS:
            cfg = C.parse_config(config(KIND_CONFIG[kind], f"T = {SWEEP_T}",
                                        f"seeds = {seed_list(0, rows)}"))
            per_step = (_median_s(lambda: E.run_sweep(cfg), 3) - build_s[kind]) / SWEEP_T
            m[f"experiments.sweep_us_per_step.{kind}.rows{rows}"] = (per_step * 1e6, "us")
            m[f"experiments.sweep_ns_per_seed_step.{kind}.rows{rows}"] = (per_step / rows * 1e9, "ns")

    # one sweep at the sweep-wide shape feeds every probe
    wide = C.parse_config(config(WIDE_CONFIG, "T = 8192", f"seeds = {seed_list(0, 50)}"))
    t0 = time.perf_counter()
    shared = E.run_sweep(wide, collect_dsum=True)
    m["experiments.run_sweep_s"] = (time.perf_counter() - t0, "s")
    for probe in PROBE_NAMES:
        m[f"experiments.probe_s.{probe}"] = (
            _median_s(lambda: E.PROBES[probe](wide, _shared=shared, enforce_scale=False), 1), "s")

    vtext = config(f"T = {RECORD_T}", "seeds = 0,1,2")
    m["cli.parse_config_ms"] = (_median_s(lambda: [C.parse_config(vtext) for _ in range(200)], 3)
                                / 200 * 1e3, "ms")
    m["cli.trace_csv_us_per_row"] = (
        _median_s(lambda: C.trace_csv(quad_trace), 3) / RECORD_T * 1e6, "us")

    # cli self time: the cmd_* bodies less their compute children
    io_s = []
    with installed(tracer):
        for _ in range(3):
            tracer.reset()
            _quiet_main(["trace", "--config", config(f"T = {RECORD_T}", "seeds = 0"),
                         "--out", os.path.join(workdir, "trace")])
            _quiet_main(["experiment", "--config", config("T = 4096", f"seeds = {seed_list(0, 20)}"),
                         "--out", os.path.join(workdir, "experiment")])
            io_s.append(tracer.self_s("cli.cmd_trace") + tracer.self_s("cli.cmd_experiment"))
    m["cli.io_s"] = (statistics.median(io_s), "s")
    return m

"""Span recorder for the traced run, installed from outside the package.

``installed(tracer)`` replaces public functions of ``adamabc`` in the module
namespaces their callers look them up in, with wrappers that time each call.
Nothing under ``src/`` changes and the originals are restored on exit.  A
span's layer is the module that defines the function, so the seven layers
are ``core``, ``problems``, ``optimizer``, ``instrumentation``, ``verify``,
``experiments`` and ``cli``.

Per-step calls (``oracle_sample``, ``adam_step``, ``eta_at``/``beta2_at``)
are deliberately left unwrapped: a wrapper costs about a microsecond, which
is several percent of a 20 µs step.  Their time lands in the self time of the
caller (``run_trajectory``, ``run_sweep``, ``trace_csv``); the ladder times
them on their own.

Spans are aggregated as they close, by (layer, name): count, total time and
self time (total minus the part covered by child spans).  The sum of all
self times equals the time covered by root spans, so a pass's wall time
splits exactly into layer self times plus an unattributed remainder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("core", "problems", "optimizer", "instrumentation", "verify", "experiments", "cli")

#: (namespace module, attribute): where each wrapped function is looked up
PATCHES = (
    # cli
    ("adamabc.cli", "main"),
    ("adamabc.cli", "parse_config"),
    ("adamabc.cli", "cmd_verify"),
    ("adamabc.cli", "cmd_experiment"),
    ("adamabc.cli", "cmd_trace"),
    ("adamabc.cli", "trace_csv"),
    # core
    ("adamabc.cli", "with_dim"),
    ("adamabc.experiments", "validate_hyperparams"),
    ("adamabc.optimizer", "validate_hyperparams"),
    # problems: builds, branch draws and batch evaluations (not per-step draws)
    ("adamabc.cli", "default_suite"),
    ("adamabc.experiments", "make_noisy_quadratic"),
    ("adamabc.experiments", "make_least_squares"),
    ("adamabc.experiments", "make_logistic"),
    ("adamabc.verify", "branch_samples"),
    ("adamabc.verify", "loss"),
    ("adamabc.verify", "grad"),
    ("adamabc.verify", "loss_batch"),
    ("adamabc.verify", "grad_batch"),
    ("adamabc.instrumentation", "branch_samples"),
    ("adamabc.instrumentation", "grad"),
    ("adamabc.instrumentation", "loss_batch"),
    ("adamabc.instrumentation", "grad_batch"),
    # optimizer
    ("adamabc.cli", "run_trajectory"),
    ("adamabc.optimizer", "run_trajectory"),
    # instrumentation (run_trajectory imports build_trace at call time)
    ("adamabc.instrumentation", "build_trace"),
    ("adamabc.instrumentation", "branch_conditional"),
    # verify
    ("adamabc.cli", "run_trace_checks"),
    ("adamabc.cli", "gradcheck"),
    ("adamabc.cli", "check_grad_bound"),
    ("adamabc.cli", "check_oracle_soundness"),
    ("adamabc.cli", "check_descent_expectation"),
    ("adamabc.cli", "check_exchange"),
    ("adamabc.cli", "check_taylor_step"),
    ("adamabc.cli", "merge_results"),
    ("adamabc.verify", "run_trace_checks"),
    ("adamabc.verify", "check_properties"),
    ("adamabc.verify", "check_taylor_step"),
    ("adamabc.verify", "check_telescoping"),
    ("adamabc.verify", "check_momentum_bound"),
    ("adamabc.verify", "check_vital1_pathwise"),
    ("adamabc.verify", "check_oracle_soundness"),
    ("adamabc.verify", "check_descent_expectation"),
    ("adamabc.verify", "gradcheck"),
    ("adamabc.verify", "check_exchange"),
    # experiments
    ("adamabc.cli", "validate_config"),
    ("adamabc.cli", "run_probes"),
    ("adamabc.experiments", "validate_config"),
    ("adamabc.experiments", "run_sweep"),
    ("adamabc.experiments", "sgd_anchor_experiment"),
)


def _trajectory_steps(args, kwargs):
    return int(kwargs.get("T", args[2] if len(args) > 2 else 0))


def _sweep_seed_steps(args, kwargs):
    cfg = args[0]
    return len(cfg.seeds) * cfg.T


def _branch_rows(args, kwargs):
    return int(kwargs.get("K", args[2] if len(args) > 2 else 0))


#: work counted at span boundaries: name -> (counter, function of the call args)
WORK = {
    "optimizer.run_trajectory": ("seed_steps", _trajectory_steps),
    "experiments.run_sweep": ("seed_steps", _sweep_seed_steps),
    "problems.branch_samples": ("branch_rows", _branch_rows),
}


class Tracer:
    """Aggregating span recorder; one per process, used from one thread."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._stack = []  # child time accumulated under each open span
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.root_ns = 0
        self.work = defaultdict(int)

    def wrap(self, fn, name: str | None = None):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = name or f"{layer}.{fn.__name__}"
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[work[0]] += work[1](args, kwargs)
            self._stack.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - start
                child = self._stack.pop()
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - child
                if self._stack:
                    self._stack[-1] += dur
                else:
                    self.root_ns += dur

        return traced

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9
        return out

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every PATCHES entry and the probe table for traced wrappers."""
    probes = importlib.import_module("adamabc.experiments").PROBES
    probe_orig = dict(probes)
    saved = []
    try:
        for mod_name, attr in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(orig))
        for key, fn in probe_orig.items():
            probes[key] = tracer.wrap(fn, name=f"experiments.probe.{key}")
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
        probes.update(probe_orig)

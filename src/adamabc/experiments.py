"""Seed-sweep experiments probing the convergence claims at desk scale.

Six probes: decay rate of the running average squared gradient norm, per-seed
last-iterate convergence, seed-mean (L1-style) convergence, summability of the
weighted gradient series, moment/growth probes (reciprocal product moments,
S_T^(3/4) growth, boundedness of the second-moment mass), and a plain-SGD
anchor.  A probe only reduces the sweep it is handed; ``run_probes`` checks
every gate, runs each sweep once and marks reports below acceptance scale.

Engine: all seeds advance in lockstep as the rows of ``optimizer.run_steps``
— one process, disjoint per-seed rng streams, bitwise-identical per seed to a
lone run_trajectory call (each array row only ever meets its own row's data).
The sweep reduces its statistics from the loop's ``SUB``-step ring once per
sub-block, the exact gradient included (one stacked ``grad_batch`` call,
bitwise per step); it reads running values only at checkpoints.
`threads > 1` splits the seed list across processes and concatenates rows.

Expectations are estimated by seed means over the declared seed set;
aggregation is a deterministic reduction over seeds sorted ascending.
epsilon-style thresholds are pilot-calibrated once, then frozen below with
their provenance; reports echo the provenance next to each verdict.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import ConstraintViolation, HyperParams, alpha1, validate_hyperparams
from .problems import (
    Problem,
    grad_batch,
    make_least_squares,
    make_logistic,
    make_noisy_quadratic,
)
from .optimizer import SUB, rates, run_steps
from .instrumentation import log_pi_series


class InsufficientSeeds(ValueError):
    """The probe needs more seeds than the config declares."""


class HorizonTooShort(ValueError):
    """The probe needs a longer horizon T than the config declares."""


class DegenerateFit(ValueError):
    """Log-log fit impossible: duplicate abscissae or too few points."""


class NonFiniteSweep(ValueError):
    """A sweep statistic or final iterate came out NaN or +/-inf."""


# thresholds frozen from pilot sweeps; see each probe's report for usage
FROZEN_THRESHOLDS = {
    "last_iterate_eps": {
        "value": 9.0e-2,
        "provenance": "pilot 2026-08-17: noisy quadratic d=10 sigma=1, delta=0.25 "
        "gamma=1.25, T=1e6, seeds 0-19; max final-3-checkpoint last-iterate grad "
        "norm was 5.14e-2; frozen at ~1.75x headroom",
    },
    "l1_eps": {
        "value": 4.5e-2,
        "provenance": "pilot 2026-08-17: noisy quadratic d=10 sigma=1, delta=0.25 "
        "gamma=1.25, T=2^18, seeds 0-99; final seed-mean last-iterate grad norm "
        "was 2.86e-2; frozen at ~1.6x headroom",
    },
    "rate_slope_tol": {
        "value": 0.1,
        "provenance": "design tolerance of +/-0.1 around the guaranteed band "
        "rate -(1/2-delta), kept as stated rather than widened; pilot 2026-08-17 "
        "(noisy quadratic d=10, T=2^20, seeds 0-19) measured final-decade slopes "
        "-0.61 (delta=0.1) and -0.79 (delta=0.25) with r^2 > 0.999, i.e. the "
        "stationary step-size scaling -(1/2+delta): on a noise-dominated "
        "strongly convex problem the guarantee is an upper bound, not a law of "
        "the decay, so this verdict fails honestly there",
    },
    "ratio_step_slack": {
        "value": 1.05,
        "provenance": "pilot 2026-08-17: delta=0 runs (noisy quadratic d=10, "
        "T=2^20, seeds 0-19) showed max per-step checkpoint ratio 0.95 "
        "(gamma=1.5) and 0.90 (gamma=1.0) — no up-steps at all; the 5% per-step "
        "slack only guards seed-mean noise near a plateau",
    },
}

#: each probe's gates: the name its messages give it, whether its claim
#: assumes gamma > 1 and delta > 0 and whether it compares successive
#: checkpoints (outside either, a config error), then its acceptance scale:
#: the minimum seed count and the minimum log2 T
GATES = {
    "rate": ("rate", False, False, 20, 14),
    "last_iterate": ("last-iterate", True, False, 0, 0),
    "l1": ("L1", True, True, 100, 0),
    "summability": ("summability", False, True, 0, 0),
    "moment": ("moment", False, False, 50, 0),
    "sgd_anchor": ("sgd_anchor", False, False, 0, 0),
}

#: the per-checkpoint statistics of a sweep, each of shape (seeds, checkpoints)
SWEEP_SERIES = (
    "avg_gsq", "last_grad", "eta_gsq_sum", "S_total", "sigma_v", "sup_sigma_v", "sup_grad",
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ProblemSpec:
    """Serializable recipe for a problem instance (cli config surface).  ``build``
    keeps the last few builds, so every user of a spec shares one immutable Problem."""

    kind: str  # noisy_quadratic | least_squares | logistic
    d: int = 10
    n: int = 0  # rows for data problems; 0 = kind default
    sigma: float = 1.0
    eig_min: float = 1.0
    eig_max: float = 4.0
    data_seed: int = 0
    reg: float = 0.05

    @functools.lru_cache(maxsize=8)
    def build(self) -> Problem:
        if self.kind == "noisy_quadratic":
            return make_noisy_quadratic(
                np.linspace(self.eig_min, self.eig_max, self.d), self.sigma
            )
        if self.kind == "least_squares":
            n = self.n or 50
            return make_least_squares(n, self.d, seed=self.data_seed)
        if self.kind == "logistic":
            n = self.n or 100
            return make_logistic(n, self.d, seed=self.data_seed, reg=self.reg)
        raise ConstraintViolation(f"unknown problem kind {self.kind!r}")


#: problem kinds the verification driver may run; also the only kinds
#: ProblemSpec.build understands.
SUITE_KINDS = ("noisy_quadratic", "least_squares", "logistic")

#: fault fixtures the verification driver understands ("" = none).
#: "lipschitz_tenth" re-runs the smoothness-step check against a certificate
#: claiming one tenth of the true constant, forcing a named failure — it
#: exists to exercise the nonzero-exit path end to end.
FAULT_FIXTURES = ("", "lipschitz_tenth")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    h: HyperParams
    T: int
    seeds: tuple
    checkpoints: tuple
    probes: tuple = ("rate",)
    out_dir: str | None = None
    threads: int = 1
    epsilon_last: float | None = None
    epsilon_l1: float | None = None
    suite: tuple = SUITE_KINDS  # problem kinds for the verification driver
    inject_fault: str = ""  # fault fixture for the verification driver

    def as_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        d["checkpoints"] = list(self.checkpoints)
        d["probes"] = list(self.probes)
        d["suite"] = list(self.suite)
        return d


def default_checkpoints(T: int) -> tuple:
    """Powers of two up to T, with T itself always included."""
    if T < 1:
        raise ConstraintViolation(f"T must be >= 1, got {T}")
    cps = [1 << k for k in range(T.bit_length()) if (1 << k) <= T]
    if cps[-1] != T:
        cps.append(T)
    return tuple(cps)


def _gate_config(T: int, n_seeds: int, delta: float, gamma: float, probes, kind="noisy_quadratic"):
    return ExperimentConfig(
        problem=ProblemSpec(kind=kind, d=10),
        h=HyperParams(dim=10, delta=delta, gamma=gamma),
        T=T,
        seeds=tuple(range(n_seeds)),
        checkpoints=default_checkpoints(T),
        probes=probes,
    )


#: the acceptance gate's sweeps, keyed as in pilot.json.  The FROZEN_THRESHOLDS
#: were calibrated on these runs; scripts/run_convergence_pilot.py reruns them.
ACCEPTANCE_PLAN = {
    "rate_slope_delta0.1": _gate_config(1 << 20, 20, 0.1, 1.2, ("rate",)),
    "rate_slope_delta0.25": _gate_config(1 << 20, 20, 0.25, 1.25, ("rate",)),
    "rate_ratio_gamma1.5": _gate_config(1 << 20, 20, 0.0, 1.5, ("rate",)),
    "rate_ratio_gamma1.0": _gate_config(1 << 20, 20, 0.0, 1.0, ("rate",)),
    "last_iterate_T1e6": _gate_config(10**6, 20, 0.25, 1.25, ("last_iterate",)),
    "l1_100seeds": _gate_config(1 << 18, 100, 0.25, 1.25, ("l1", "summability", "moment")),
    "moment_logistic": _gate_config(1 << 18, 50, 0.5, 1.5, ("moment",), kind="logistic"),
}


def validate_config(cfg: ExperimentConfig) -> None:
    validate_hyperparams(cfg.h)
    if cfg.T < 1:
        raise ConstraintViolation(f"T must be >= 1, got {cfg.T}")
    if len(set(cfg.seeds)) != len(cfg.seeds) or not cfg.seeds:
        raise ConstraintViolation("seeds must be a non-empty list of distinct integers")
    if min(cfg.seeds) < 0:
        raise ConstraintViolation(f"seeds must be >= 0, got {min(cfg.seeds)}")
    if cfg.problem.data_seed < 0:
        raise ConstraintViolation(f"data_seed must be >= 0, got {cfg.problem.data_seed}")
    for key in ("sigma", "eig_min", "eig_max", "reg"):  # sigma^2 * d is checked by the build
        if not math.isfinite(getattr(cfg.problem, key)):
            raise ConstraintViolation(f"{key} must be finite, got {getattr(cfg.problem, key)}")
    cps = list(cfg.checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ConstraintViolation("checkpoints must be non-empty and strictly increasing")
    if cps[0] < 1 or cps[-1] > cfg.T:
        raise ConstraintViolation(f"checkpoints must lie in [1, T={cfg.T}]")
    for probe in cfg.probes:
        if probe not in PROBE_NAMES:
            raise ConstraintViolation(f"unknown probe {probe!r} (known: {PROBE_NAMES})")
    if cfg.problem.d != cfg.h.dim:
        raise ConstraintViolation(
            f"problem dimension {cfg.problem.d} != hyperparameter dim {cfg.h.dim}"
        )
    if cfg.threads < 1:
        raise ConstraintViolation(f"threads must be >= 1, got {cfg.threads}")
    for key in ("epsilon_last", "epsilon_l1"):
        eps = getattr(cfg, key)
        if eps is not None and not (math.isfinite(eps) and eps > 0.0):
            raise ConstraintViolation(f"{key} must be finite and > 0, got {eps}")
    for kind in cfg.suite:
        if kind not in SUITE_KINDS:
            raise ConstraintViolation(f"unknown problem kind {kind!r} (known: {SUITE_KINDS})")
    for key in ("probes", "suite"):
        names = getattr(cfg, key)
        if len(set(names)) != len(names):
            raise ConstraintViolation(f"{key} must be distinct, got {','.join(names)}")
    if cfg.inject_fault not in FAULT_FIXTURES:
        raise ConstraintViolation(
            f"unknown fault fixture {cfg.inject_fault!r} (known: {FAULT_FIXTURES})"
        )


# ---------------------------------------------------------------------------
# the lockstep seed-sweep engine


# overflow is reported once per sweep by _require_finite, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _sweep_seeds(p: Problem, h: HyperParams, T: int, seeds, checkpoints,
                 rule: str = "adam", collect_dsum: bool = False):
    """Advance all seeds together; return per-seed series at the checkpoints.

    The steps are ``optimizer.run_steps``, so row s matches the single-seed
    trajectory bitwise.  Statistics are reduced from its ``SUB``-step ring a
    sub-block at a time, the exact gradient as one (k, S, d) ``grad_batch``
    stack, and read only at checkpoints and sub-block ends.
    """
    S, d = len(seeds), p.dim
    cps = list(checkpoints)
    # outputs first, so the scratch buffers freed at return lie above them in the heap
    out = {name: np.empty((S, len(cps))) for name in SWEEP_SERIES}
    out["final_W"] = np.empty((S, d))
    if collect_dsum:
        out["dsum"] = np.empty((S, T))
    # Running statistics: row 0 carries the value before the sub-block, row j + 1
    # the term of its step j; the value after step i reduces rows 0 .. i.  The
    # step axis is never the fast one (d + 2 columns), so numpy adds rows in step
    # order, not pairwise: each sum is bitwise its step-by-step value (a max is
    # exact in any order).  sums: the S vector in the trace's order (v + g_1^2) +
    # g_2^2 + ..., |grad|^2, eta |grad|^2; sups: |grad|^2 (sqrt is monotone), sigma_v.
    sums = np.empty((SUB + 1, S, d + 2))
    sums[0, :, :d], sums[0, :, d:] = h.v, 0.0
    sups = np.empty((SUB + 1, 2, S))
    sups[0, 0], sups[0, 1] = 0.0, d * h.v
    eta_v = np.full((SUB + 1, S, d), h.v / alpha1(h)) if collect_dsum else None

    c = 0  # the next checkpoint
    for t0, k, ring in run_steps(p, h, T, seeds, rule=rule):
        W, G, V, eta = ring.W, ring.G, ring.V, ring.eta[:, None]
        r = slice(1, k + 1)
        g = grad_batch(p, W[:k])  # at the pre-update iterates
        gn2 = np.einsum("ksd,ksd->ks", g, g)
        np.square(G[:k], out=sums[r, :, :d])
        sums[r, :, d] = gn2
        np.multiply(eta[:k], gn2, out=sums[r, :, d + 1])
        sigv = V[:k].sum(axis=2)
        sups[r, 0], sups[r, 1] = gn2, sigv
        if collect_dsum:
            rates(eta[:k, :, None], V[:k], h.mu, out=eta_v[r])
            out["dsum"][:, t0 : t0 + k] = (eta_v[:k] - eta_v[r]).sum(axis=2).T
            eta_v[0] = eta_v[k]
        while c < len(cps) and cps[c] <= t0 + k:
            t, i = cps[c], cps[c] - t0
            run, sup = np.add.reduce(sums[: i + 1]), np.maximum.reduce(sups[: i + 1])
            out["avg_gsq"][:, c] = run[:, d] / t
            out["last_grad"][:, c] = np.sqrt(gn2[i - 1])
            out["eta_gsq_sum"][:, c] = run[:, d + 1]
            out["S_total"][:, c] = run[:, :d].sum(axis=1)
            out["sigma_v"][:, c] = sigv[i - 1]
            out["sup_sigma_v"][:, c] = sup[1]
            out["sup_grad"][:, c] = np.sqrt(sup[0])
            c += 1
        sums[0], sups[0] = np.add.reduce(sums[: k + 1]), np.maximum.reduce(sups[: k + 1])

    out["final_W"][:] = W[k]
    return out


def _sweep_worker(job):
    spec, h, T, seeds, checkpoints, rule, collect_dsum = job
    return _sweep_seeds(spec.build(), h, T, seeds, checkpoints, rule, collect_dsum)


def run_sweep(cfg: ExperimentConfig, rule: str = "adam", collect_dsum: bool = False) -> dict:
    """Run the sweep for cfg (splitting seeds across processes if threads>1)."""
    validate_config(cfg)
    seeds = sorted(cfg.seeds)
    nw = min(cfg.threads, len(seeds))
    jobs = [(cfg.problem, cfg.h, cfg.T, [int(s) for s in part], cfg.checkpoints, rule, collect_dsum)
            for part in np.array_split(np.asarray(seeds), nw)]
    if nw == 1:
        res = _sweep_worker(jobs[0])
    else:
        with ProcessPoolExecutor(max_workers=nw) as ex:
            parts = list(ex.map(_sweep_worker, jobs))
        res = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
    res["seeds"] = np.asarray(seeds)
    _require_finite(res, cfg)
    return res


def _require_finite(res: dict, cfg: ExperimentConfig) -> None:
    """Raise NonFiniteSweep at the first checkpoint where a statistic of some
    seed is not finite, or else at a seed whose final iterate is not."""
    bad = ~np.isfinite(np.stack([res[name] for name in SWEEP_SERIES]))  # (series, seed, cp)
    if bad.any():
        i = int(np.argmax(bad.any(axis=(0, 1))))
        r, k = np.argwhere(bad[:, :, i].T)[0]
        t, series = cfg.checkpoints[i], SWEEP_SERIES[k]
    else:
        rows = ~np.isfinite(res["final_W"]).all(axis=1)
        if not rows.any():
            return
        r, t, series = int(np.argmax(rows)), cfg.T, "final_W"
    raise NonFiniteSweep(
        f"non-finite sweep: seed {res['seeds'][r]}, checkpoint t={t}, series {series}"
    )


# ---------------------------------------------------------------------------
# fitting and aggregation helpers


def fit_loglog_slope(points, fit_range) -> tuple:
    """OLS slope of ln y on ln x over points with x inside fit_range.

    Returns (slope, stderr, r2).  Requires >= 4 in-range points with distinct,
    positive x (and positive y); otherwise DegenerateFit.
    """
    lo, hi = fit_range
    sel = [(x, y) for x, y in points if lo <= x <= hi]
    if len(sel) < 4:
        raise DegenerateFit(f"only {len(sel)} points inside fit range [{lo}, {hi}]")
    xs = np.array([x for x, _ in sel], dtype=np.float64)
    ys = np.array([y for _, y in sel], dtype=np.float64)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DegenerateFit("log-log fit needs positive coordinates")
    if len(np.unique(xs)) != len(xs):
        raise DegenerateFit("duplicate x values")
    lx, ly = np.log(xs), np.log(ys)
    n = len(lx)
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    resid = ly - (my + slope * (lx - mx))
    rss = float(resid @ resid)
    tss = float(np.sum((ly - my) ** 2))
    stderr = math.sqrt(rss / (n - 2) / sxx) if n > 2 else 0.0
    r2 = 1.0 if tss <= 1e-300 else 1.0 - rss / tss
    return slope, stderr, r2


def _stats(per_seed: np.ndarray) -> dict:
    return {
        "mean": per_seed.mean(axis=0).tolist(),
        "median": np.median(per_seed, axis=0).tolist(),
        "q10": np.quantile(per_seed, 0.10, axis=0).tolist(),
        "q90": np.quantile(per_seed, 0.90, axis=0).tolist(),
    }


def _logmeanexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.mean(np.exp(x - m))))


def _jsonsafe(obj):
    """Strict-JSON form: non-finite floats become None, numpy scalars native."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, dict):
        return {k: _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    probe: str
    config: dict
    checkpoints: list
    per_seed: dict = field(default_factory=dict)  # name -> (S, n_cp) nested lists
    stats: dict = field(default_factory=dict)  # name -> {mean/median/q10/q90}
    fits: dict = field(default_factory=dict)  # name -> {slope, stderr, r2, range}
    verdicts: dict = field(default_factory=dict)  # name -> {status, observed, ...}
    notes: list = field(default_factory=list)

    @property
    def status(self) -> str:
        states = [v["status"] for v in self.verdicts.values()]
        if any(s == "fail" for s in states):
            return "fail"
        return "pass"

    def as_dict(self) -> dict:
        return _jsonsafe(
            {
                "probe": self.probe,
                "status": self.status,
                "config": self.config,
                "checkpoints": self.checkpoints,
                "per_seed": self.per_seed,
                "stats": self.stats,
                "fits": self.fits,
                "verdicts": self.verdicts,
                "notes": self.notes,
            }
        )


def _base_report(cfg: ExperimentConfig, probe: str, res: dict, names) -> ExperimentReport:
    rep = ExperimentReport(probe=probe, config=cfg.as_dict(), checkpoints=list(cfg.checkpoints))
    for name in names:
        rep.per_seed[name] = res[name].tolist()
        rep.stats[name] = _stats(res[name])
    return rep


def _verdict(status, observed, provenance, **bounds) -> dict:
    """One verdict record: a bool status becomes "pass"/"fail" (a string is
    kept), then the observed value, the bounds in the order given, provenance."""
    if not isinstance(status, str):
        status = "pass" if status else "fail"
    return {"status": status, "observed": observed, **bounds, "provenance": provenance}


def _final_decade(cfg: ExperimentConfig):
    return (cfg.T / 10.0, float(cfg.T))


def _fit_final_decade(rep: ExperimentReport, name: str, cfg: ExperimentConfig, y,
                      label: str, enforce: bool):
    """Final-decade log-log slope of the per-checkpoint series ``y``, recorded
    as ``rep.fits[name]``.  A DegenerateFit is raised under ``enforce``, else
    noted; the slope is then None."""
    lo, hi = _final_decade(cfg)
    cps = np.asarray(cfg.checkpoints, dtype=np.float64)
    try:
        slope, stderr, r2 = fit_loglog_slope(list(zip(cps, y)), (lo, hi))
    except DegenerateFit as e:
        if enforce:
            raise
        rep.notes.append(f"{label} fit skipped: {e}")
        return None
    rep.fits[name] = {"slope": slope, "stderr": stderr, "r2": r2, "range": [lo, hi]}
    return slope


def _in_hypotheses(h: HyperParams) -> bool:
    """The paper's convergence hypotheses on the schedule."""
    return h.gamma > 1.0 and h.delta > 0.0


def _epsilon(cfg: ExperimentConfig, key: str, frozen: str) -> tuple:
    """The config's threshold ``key`` or else the frozen one, with its provenance."""
    if getattr(cfg, key) is not None:
        return getattr(cfg, key), f"{key} from config"
    return FROZEN_THRESHOLDS[frozen]["value"], FROZEN_THRESHOLDS[frozen]["provenance"]


def _scale_gate(cfg: ExperimentConfig, probe: str, enforce: bool) -> list:
    """Messages for the acceptance-scale requirements of ``probe`` that cfg
    misses; the first one is raised instead when ``enforce`` is set."""
    label, _, _, min_seeds, log2_T = GATES[probe]
    misses = []
    if len(cfg.seeds) < min_seeds:
        misses.append(
            (InsufficientSeeds, f"{label} probe needs >= {min_seeds} seeds, got {len(cfg.seeds)}")
        )
    if cfg.T < 1 << log2_T:
        misses.append((HorizonTooShort, f"{label} probe needs T >= 2^{log2_T}, got {cfg.T}"))
    if misses and enforce:
        exc, msg = misses[0]
        raise exc(msg)
    return [msg for _, msg in misses]


def _mark_below_scale(rep: ExperimentReport, msgs) -> None:
    """With any scale message, keep every verdict's numbers but downgrade them
    to informational, and note each message."""
    if not msgs:
        return
    for v in rep.verdicts.values():
        if v["status"] in ("pass", "fail"):
            v["status"] = "informational"
    for m in msgs:
        rep.notes.append(f"below acceptance scale: {m}")


# ---------------------------------------------------------------------------
# probes


def rate_experiment(
    cfg: ExperimentConfig, _shared: dict, enforce_scale: bool = True
) -> ExperimentReport:
    """Decay of the running average squared gradient norm.

    delta > 0: final-decade log-log slope of the seed mean should be
    -(1/2 - delta).  delta = 0: the ratio to ln(T)/sqrt(T) (gamma > 1) or
    ln^2(T)/sqrt(T) (gamma = 1) should be bounded and non-increasing across
    the final decade.

    With too few final-decade checkpoints the slope fit raises DegenerateFit,
    unless ``enforce_scale`` is off: then the report notes the skipped fit.
    """
    rep = _base_report(cfg, "rate", _shared, ["avg_gsq", "last_grad"])
    cps = np.asarray(cfg.checkpoints, dtype=np.float64)
    mean_avg = _shared["avg_gsq"].mean(axis=0)

    if cfg.h.delta > 0:
        slope = _fit_final_decade(rep, "avg_gsq_slope", cfg, mean_avg, "slope", enforce_scale)
        if slope is None:
            return rep
        target = -(0.5 - cfg.h.delta)
        tol = FROZEN_THRESHOLDS["rate_slope_tol"]["value"]
        rep.verdicts["rate_slope"] = _verdict(
            abs(slope - target) <= tol, slope, FROZEN_THRESHOLDS["rate_slope_tol"]["provenance"],
            target=target, tolerance=tol,
        )
        # reference point for reading failures of the verdict above: when the
        # noise floor dominates the final decade, the stationary gradient
        # energy tracks eta_t and the slope lands at -(1/2+delta) instead
        rep.verdicts["slope_step_size_scaling"] = _verdict(
            "informational", slope, "stationary-regime reference, not a pass/fail check: "
            "gradient energy proportional to the step size gives slope "
            "-(1/2+delta) on noise-dominated problems",
            target=-(0.5 + cfg.h.delta),
        )
    else:
        power = 2.0 if cfg.h.gamma == 1.0 else 1.0
        denom = np.log(cps) ** power / np.sqrt(cps)
        denom[denom == 0.0] = np.nan  # ln(1) = 0: ratio undefined at t = 1
        ratio = mean_avg / denom
        rep.per_seed["log_rate_ratio"] = (_shared["avg_gsq"] / denom).tolist()
        rep.stats["log_rate_ratio"] = _stats(_shared["avg_gsq"] / denom)
        lo, hi = _final_decade(cfg)
        in_dec = (cps >= lo) & (cps <= hi) & ~np.isnan(denom)
        r_dec = ratio[in_dec]
        slack = FROZEN_THRESHOLDS["ratio_step_slack"]["value"]
        if r_dec.size:
            status = bool(np.all(r_dec[1:] <= slack * r_dec[:-1]) and r_dec[-1] <= r_dec[0])
        else:
            status = "informational"
            rep.notes.append("no final-decade checkpoints past t = 1: ratio verdict empty")
        rep.verdicts["log_rate_ratio"] = _verdict(
            status, r_dec.tolist(), FROZEN_THRESHOLDS["ratio_step_slack"]["provenance"],
            target=f"non-increasing over final decade (x{slack} per-step slack), "
            f"ratio to ln^{power:g}(T)/sqrt(T)",
        )
    return rep


def last_iterate_experiment(
    cfg: ExperimentConfig, _shared: dict, enforce_scale: bool = True
) -> ExperimentReport:
    """Per-seed last-iterate gradient norm below the frozen threshold."""
    rep = _base_report(cfg, "last_iterate", _shared, ["last_grad"])
    eps, provenance = _epsilon(cfg, "epsilon_last", "last_iterate_eps")
    worst = float(_shared["last_grad"][:, -3:].max())  # the last three checkpoints, or all
    rep.verdicts["last_iterate_below_eps"] = _verdict(worst < eps, worst, provenance, threshold=eps)
    # transient peak should sit before the final decade
    cps = np.asarray(cfg.checkpoints, dtype=np.float64)
    peak_cp = cps[np.argmax(_shared["last_grad"], axis=1)]
    lo = _final_decade(cfg)[0]
    rep.verdicts["peak_before_final_decade"] = _verdict(
        np.all(peak_cp < lo), peak_cp.tolist(), "per-seed argmax of the checkpoint series",
        threshold=lo,
    )
    return rep


def l1_experiment(
    cfg: ExperimentConfig, _shared: dict, enforce_scale: bool = True
) -> ExperimentReport:
    """Seed-mean last-iterate gradient norm: decreasing tail, finite sup."""
    rep = _base_report(cfg, "l1", _shared, ["last_grad", "sup_grad"])
    eps, provenance = _epsilon(cfg, "epsilon_l1", "l1_eps")
    mean_last = _shared["last_grad"].mean(axis=0)
    tail = mean_last[-4:]
    rep.verdicts["mean_strictly_decreasing"] = _verdict(
        np.all(np.diff(tail) < 0), tail.tolist(), "seed-mean of last-iterate gradient norms",
        target="strictly decreasing over final four checkpoints",
    )
    final = float(mean_last[-1])
    rep.verdicts["mean_below_eps"] = _verdict(final < eps, final, provenance, threshold=eps)
    # dominating-variable probe: seed-mean of sup_t |grad| stable in seed count
    sup_final = _shared["sup_grad"][:, -1]
    half = len(cfg.seeds) // 2
    if half >= 1:
        m_half, m_full = float(sup_final[:half].mean()), float(sup_final.mean())
        drift = abs(m_full - m_half) / m_full
        rep.verdicts["sup_grad_seed_stability"] = _verdict(
            drift <= 0.10, {"first_half_mean": m_half, "full_mean": m_full, "drift": drift},
            "seed-mean of running sup gradient norm, first half vs all seeds", threshold=0.10,
        )
    else:
        rep.notes.append("single seed: sup-gradient seed-stability probe skipped")
    return rep


def summability_probe(
    cfg: ExperimentConfig, _shared: dict, enforce_scale: bool = True
) -> ExperimentReport:
    """Partial sums of eta_t |grad f(w_t)|^2 must flatten: final increment < 1%.

    Runs outside the gamma/delta hypotheses are reported informational.
    """
    rep = _base_report(cfg, "summability", _shared, ["eta_gsq_sum"])
    sums = _shared["eta_gsq_sum"]
    worst = float(((sums[:, -1] - sums[:, -2]) / sums[:, -1]).max())
    status = worst < 0.01
    if not _in_hypotheses(cfg.h):
        status = "informational"
        rep.notes.append(
            "hypotheses gamma > 1, delta > 0 not met; summability result is informational only"
        )
    rep.verdicts["final_increment_below_1pct"] = _verdict(
        status, worst, "per-seed increment over the last checkpoint interval / total",
        threshold=0.01,
    )
    return rep


def moment_probe(
    cfg: ExperimentConfig, _shared: dict, enforce_scale: bool = True
) -> ExperimentReport:
    """Reciprocal-product moments, S_T^(3/4) growth, second-moment-mass sup.

    Reads the gap sums of a sweep run with ``collect_dsum``.  With too few
    final-decade checkpoints the S^(3/4) fit raises DegenerateFit, unless
    ``enforce_scale`` is off: then the report notes the skipped fit.
    """
    rep = _base_report(cfg, "moment", _shared, ["S_total", "sigma_v", "sup_sigma_v"])
    p_obj = cfg.problem.build()
    cps = np.asarray(cfg.checkpoints, dtype=np.int64)
    lo, hi = _final_decade(cfg)
    in_dec = (cps >= lo) & (cps <= hi)

    # E[PiHat_T^-p] drift over the final decade, p = 1, 2, 3 (log domain)
    log_pi = log_pi_series(_shared["dsum"], cfg.h, p_obj.certificate)
    log_pi_cp = log_pi[:, cps - 1]
    rep.per_seed["log_pi_hat"] = log_pi_cp.tolist()
    rep.stats["log_pi_hat"] = _stats(log_pi_cp)
    for p_mom in (1, 2, 3):
        log_mom = np.array(
            [_logmeanexp(-p_mom * log_pi_cp[:, i]) for i in range(len(cps))]
        )
        dec = log_mom[in_dec]
        # relative drift < 10%  <=>  log-range < log(1.1); stay in logs so a
        # huge range cannot overflow on the way to the verdict
        log_range = float(dec.max() - dec.min())
        drift = math.expm1(log_range) if log_range < 700.0 else None
        rep.stats[f"log_mean_pi_inv_p{p_mom}"] = {"mean": log_mom.tolist()}
        rep.verdicts[f"pi_inv_moment_p{p_mom}_stable"] = _verdict(
            log_range < math.log1p(0.10), {"drift": drift, "log_range": log_range},
            "surrogate product series; relative drift of "
            "E[PiHat^-p] over final-decade checkpoints, log-domain mean",
            threshold=0.10,
        )

    # E[S_T^(3/4)] growth
    if cfg.h.delta > 0:
        s34_mean = (_shared["S_total"] ** 0.75).mean(axis=0)
        slope = _fit_final_decade(rep, "S34_slope", cfg, s34_mean, "S^(3/4)", enforce_scale)
        if slope is not None:
            rep.verdicts["S34_growth"] = _verdict(
                abs(slope - 0.75) <= 0.1, slope,
                "log-log fit of seed-mean S_T^(3/4) over the final decade",
                target=0.75, tolerance=0.1,
            )
    else:
        rep.notes.append("delta = 0: S^(3/4) growth fit skipped (hypothesis delta > 0)")

    # sup of the second-moment mass: exactly constant over the final decade
    sup_cp = _shared["sup_sigma_v"][:, in_dec]
    if cfg.h.gamma > 1.0:
        status = np.all(sup_cp == sup_cp[:, :1])
        target = "running sup of sum_i v_{t,i} identical at all final-decade checkpoints"
    else:
        rep.notes.append("gamma <= 1: sup sigma_v constancy is informational (hypothesis gamma > 1)")
        status, target = "informational", "see notes"
    rep.verdicts["sup_sigma_v_constant"] = _verdict(
        status, {"max_spread": float(np.max(sup_cp.max(axis=1) - sup_cp.min(axis=1)))},
        "exact float comparison of running-max snapshots", target=target,
    )
    return rep


def sgd_anchor_experiment(
    cfg: ExperimentConfig, _shared: dict, enforce_scale: bool = True
) -> ExperimentReport:
    """Plain SGD with eta_t = 1/sqrt(t) as a harness sanity anchor, on a sweep
    run with ``rule="sgd"``.

    Noiseless quadratic: average squared gradient decays with slope near -1;
    noisy: the running average plateaus at a sigma^2-proportional floor.
    Informational only — it validates the harness, not the method under study.
    """
    rep = _base_report(cfg, "sgd_anchor", _shared, ["avg_gsq", "last_grad"])
    rep.notes.append("SGD baseline anchor; informational")
    mean_avg = _shared["avg_gsq"].mean(axis=0)
    _fit_final_decade(rep, "avg_gsq_slope", cfg, mean_avg, "slope", enforce=False)
    rep.verdicts["anchor"] = _verdict("informational", mean_avg[-1], "harness sanity anchor")
    return rep


PROBES = {
    "rate": rate_experiment,
    "last_iterate": last_iterate_experiment,
    "l1": l1_experiment,
    "summability": summability_probe,
    "moment": moment_probe,
    "sgd_anchor": sgd_anchor_experiment,
}

PROBE_NAMES = tuple(PROBES)


def check_gates(cfg: ExperimentConfig, enforce_scale: bool = True) -> None:
    """Every check ``run_probes`` makes before its first sweep: the config,
    then for each probe its hypothesis gate and its checkpoint gates (every
    moment verdict reads the final decade), then
    (with ``enforce_scale``) each probe's scale gate."""
    validate_config(cfg)
    lo, hi = _final_decade(cfg)
    for probe in cfg.probes:
        label, hypotheses, two_checkpoints, _, _ = GATES[probe]
        if hypotheses and not _in_hypotheses(cfg.h):
            raise ConstraintViolation(
                f"{label} probe requires gamma > 1 and delta > 0 "
                f"(got gamma={cfg.h.gamma}, delta={cfg.h.delta})"
            )
        if two_checkpoints and len(cfg.checkpoints) < 2:
            raise ConstraintViolation(
                f"{label} probe needs >= 2 checkpoints, got {len(cfg.checkpoints)}"
            )
        if probe == "moment" and not any(lo <= c <= hi for c in cfg.checkpoints):
            raise ConstraintViolation(
                f"moment probe needs a checkpoint in the final decade [{lo:g}, {hi:g}]"
            )
    if enforce_scale:
        for probe in cfg.probes:
            _scale_gate(cfg, probe, True)


def run_probes(cfg: ExperimentConfig, enforce_scale: bool = True) -> dict:
    """Run every probe named in cfg.probes; reports keyed by probe, in order.

    Every gate runs before any sweep.  Each update rule's sweep runs once, on
    first need: ``sgd_anchor`` reads the SGD sweep, every other probe the
    Adam sweep, which collects the gap sums when ``moment`` is asked for.
    With ``enforce_scale=False`` a probe below its acceptance scale still
    reports, its verdicts informational and its notes naming the missing scale.
    """
    check_gates(cfg, enforce_scale)
    sweeps = {}
    reports = {}
    for probe in cfg.probes:
        rule = "sgd" if probe == "sgd_anchor" else "adam"
        if rule not in sweeps:
            dsum = rule == "adam" and "moment" in cfg.probes
            sweeps[rule] = run_sweep(cfg, rule, collect_dsum=dsum)
        rep = PROBES[probe](cfg, sweeps[rule], enforce_scale)
        _mark_below_scale(rep, _scale_gate(cfg, probe, False))
        reports[probe] = rep
    return reports

"""Command-line driver: config parsing, run manifests, and the three commands.

Subcommands
-----------
verify         run the invariant/soundness checks over the configured problem
               suite and seeds; prints a JSON verdict, exit 0 iff all pass.
experiment     run the enabled probes; writes per-probe CSV series, a JSON
               report, and a manifest into the output directory.
trace          run one seed and dump the full per-step diagnostic CSV.
list-problems  print the standard problem suite with certified constants.

Config is flat ``key = value`` text (diff-friendly; '#' comments allowed) or a
JSON object with the same keys.  Every key has a default, so the empty config
is valid.  Exit codes: 0 all checks pass, 1 checks failed (or a sweep went
non-finite), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import ConstraintViolation, HyperParams, beta2_at, eta_at, with_dim
from .experiments import (
    ExperimentConfig,
    NonFiniteSweep,
    PROBE_NAMES,
    ProblemSpec,
    SUITE_KINDS,
    default_checkpoints,
    run_probes,
    validate_config,
)
from .instrumentation import TheoryTrace
from .optimizer import run_trajectories, run_trajectory
from .problems import RNG_ALGORITHM, default_suite, rng_stream
from .verify import (
    check_descent_expectation,
    check_exchange,
    check_grad_bound,
    check_oracle_soundness,
    check_taylor_step,
    gradcheck,
    merge_results,
    run_trace_checks,
)


class ParseError(ValueError):
    """Config text could not be parsed; the message names the line and key."""


# ---------------------------------------------------------------------------
# config schema: key -> (kind, default-as-text)

_SCHEMA = {
    # problem geometry (applies to the experiment/trace problem)
    "problem": ("str", "noisy_quadratic"),
    "d": ("int", "10"),
    "n": ("int", "0"),  # data rows; 0 = kind default
    "sigma": ("float", "1.0"),
    "eig_min": ("float", "1.0"),
    "eig_max": ("float", "4.0"),
    "data_seed": ("int", "0"),
    "reg": ("float", "0.05"),
    # algorithm constants
    "beta1": ("float", "0.9"),
    "alpha0": ("float", "0.5"),
    "gamma": ("float", "1.25"),
    "delta": ("float", "0.25"),
    "mu": ("float", "1e-08"),
    "v": ("float", "1.0"),
    # run shape
    "T": ("int", "1024"),
    "seeds": ("int_list", "0,1,2"),
    "checkpoints": ("int_list", ""),  # empty = powers of two up to T
    "probes": ("str_list", "rate"),
    "out_dir": ("opt_str", ""),
    "threads": ("int", "1"),
    "epsilon_last": ("opt_float", ""),
    "epsilon_l1": ("opt_float", ""),
    # verification driver
    "suite": ("str_list", ",".join(SUITE_KINDS)),
    "inject_fault": ("str", ""),
}


def _cast(key: str, kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "opt_str":
            return raw or None
        if kind == "opt_float":
            return float(raw) if raw else None
        if kind == "int_list":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if kind == "str_list":
            return tuple(x.strip() for x in raw.split(",") if x.strip())
    except ValueError as e:
        raise ParseError(f"{where}: bad value for key {key!r}: {raw!r} ({e})") from e
    raise AssertionError(f"unhandled kind {kind}")  # pragma: no cover


def _entries_from_text(text: str) -> dict:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = s.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (val.strip(), f"line {lineno}")
    return entries


def _entries_from_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON config: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError("JSON config must be an object of key/value pairs")
    entries = {}
    for key, val in obj.items():
        if key not in _SCHEMA:
            raise ParseError(f"unknown key {key!r}")
        if isinstance(val, list):
            raw = ",".join(str(x) for x in val)
        elif val is None:
            raw = ""
        else:
            raw = str(val)
        entries[key] = (raw, f"key {key!r}")
    return entries


def parse_config(source: str) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a file path or inline text.

    ``source`` naming an existing file is read; anything else is treated as
    the config text itself (so the empty string yields the all-defaults
    config).  Unknown keys and malformed values raise ParseError; value
    constraints surface as ConstraintViolation.
    """
    text = source
    if source and os.path.isfile(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        entries = _entries_from_json(text)
    else:
        entries = _entries_from_text(text)

    vals = {}
    for key, (kind, default) in _SCHEMA.items():
        raw, where = entries.get(key, (default, "default"))
        vals[key] = _cast(key, kind, raw, where)

    spec = ProblemSpec(
        kind=vals["problem"],
        d=vals["d"],
        n=vals["n"],
        sigma=vals["sigma"],
        eig_min=vals["eig_min"],
        eig_max=vals["eig_max"],
        data_seed=vals["data_seed"],
        reg=vals["reg"],
    )
    h = HyperParams(
        beta1=vals["beta1"],
        alpha0=vals["alpha0"],
        gamma=vals["gamma"],
        delta=vals["delta"],
        mu=vals["mu"],
        v=vals["v"],
        dim=vals["d"],
    )
    cfg = ExperimentConfig(
        problem=spec,
        h=h,
        T=vals["T"],
        seeds=vals["seeds"],
        checkpoints=vals["checkpoints"] or default_checkpoints(vals["T"]),
        probes=vals["probes"],
        out_dir=vals["out_dir"],
        threads=vals["threads"],
        epsilon_last=vals["epsilon_last"],
        epsilon_l1=vals["epsilon_l1"],
        suite=vals["suite"],
        inject_fault=vals["inject_fault"],
    )
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Flat-text form of ``cfg``; parse_config(serialize_config(cfg)) == cfg."""
    p = cfg.problem
    vals = {
        "problem": p.kind,
        "d": p.d,
        "n": p.n,
        "sigma": p.sigma,
        "eig_min": p.eig_min,
        "eig_max": p.eig_max,
        "data_seed": p.data_seed,
        "reg": p.reg,
        "beta1": cfg.h.beta1,
        "alpha0": cfg.h.alpha0,
        "gamma": cfg.h.gamma,
        "delta": cfg.h.delta,
        "mu": cfg.h.mu,
        "v": cfg.h.v,
        "T": cfg.T,
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "checkpoints": ",".join(str(c) for c in cfg.checkpoints),
        "probes": ",".join(cfg.probes),
        "out_dir": cfg.out_dir or "",
        "threads": cfg.threads,
        "epsilon_last": "" if cfg.epsilon_last is None else repr(cfg.epsilon_last),
        "epsilon_l1": "" if cfg.epsilon_l1 is None else repr(cfg.epsilon_l1),
        "suite": ",".join(cfg.suite),
        "inject_fault": cfg.inject_fault,
    }
    lines = []
    for key in _SCHEMA:
        v = vals[key]
        lines.append(f"{key} = {repr(v) if isinstance(v, float) else v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output plumbing


@dataclass
class RunManifest:
    """What a run emitted: config echo, versions, and per-file digests.

    Written after every other artifact so its listing is complete.
    """

    config: dict
    code_version: str
    rng_algorithm: str
    started: str
    artifacts: list = field(default_factory=list)  # {path, sha256, bytes}

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "code_version": self.code_version,
            "rng_algorithm": self.rng_algorithm,
            "started": self.started,
            "artifacts": self.artifacts,
        }


def _new_manifest(cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(
        config=cfg.as_dict(),
        code_version=__version__,
        rng_algorithm=RNG_ALGORITHM,
        started=datetime.now(timezone.utc).isoformat(),
    )


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise OSError(f"output directory not writable: {path}")
    return path


def _write_text(out_dir: str, name: str, text: str) -> dict:
    """Write ``out_dir/name`` atomically: a temp file beside it, then os.replace.

    A failed write leaves any previous file of that name as it was and
    removes the temp file.
    """
    data = text.encode("utf-8")
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        os.unlink(tmp)
        raise
    return {"path": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _write_manifest(out_dir: str, manifest: RunManifest) -> None:
    _write_text(out_dir, "manifest.json", json.dumps(manifest.as_dict(), indent=2) + "\n")


def _fmt(x) -> str:
    """Numeric cell: integers verbatim, floats at 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# trace CSV

TRACE_COLUMNS = (
    "t",
    "f_w",
    "grad_norm_sq",
    "f_u",
    "eta_t",
    "beta2_t",
    "min_margin_prop2",
    "sum_eta_v",
    "S_total",
    "sigma_v",
    "delta_sum",
    "zeta_sum",
    "fhat",
    "lambda_phi4",
    "pi_hat",
    "m1",
)


def trace_csv(trace: TheoryTrace, rows=None) -> str:
    """Render the per-step diagnostics as CSV text (one row per step t).

    Row t mixes the theory's native indexing: f_w/grad_norm_sq/f_u/fhat/
    zeta_sum/lambda_phi4/m1 are the step-t quantities (evaluated at w_t, u_t),
    while min_margin_prop2/sum_eta_v/S_total/sigma_v/pi_hat describe the state
    reached after step t.  ``rows`` restricts output to those t (checkpoint
    subsampling); default is every step 1..T.
    """
    h, T = trace.h, trace.T
    ts = list(range(1, T + 1)) if rows is None else [int(t) for t in rows]
    for t in ts:
        if not (1 <= t <= T):
            raise ConstraintViolation(f"trace row {t} outside [1, T={T}]")
    # TRACE_COLUMNS less the schedule, each indexed by t - 1: step quantities
    # [:T], post-step states [1:]
    cols = [
        trace.f_w[:T],
        trace.grad_norm_sq[:T],
        trace.f_u[:T],
        trace.margin2[1:],
        trace.eta_v[1:].sum(axis=1),
        trace.S_total[1:],
        trace.sigma_v[1:],
        trace.delta.sum(axis=1),
        trace.zeta,
        trace.fhat[:T],
        trace.lambda4,
        trace.pi.values[1:],
        trace.m1,
    ]
    if rows is not None:
        sel = np.asarray(ts, dtype=np.intp) - 1
        cols = [c[sel] for c in cols]
    cols = [c.tolist() for c in cols]
    cols[3:3] = [[eta_at(t, h) for t in ts], [beta2_at(t, h) for t in ts]]
    row = ",".join(["{}"] + ["{:.17g}"] * len(cols)).format
    lines = [",".join(TRACE_COLUMNS)]
    lines.extend(row(*r) for r in zip(ts, *cols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _suite_problems(cfg: ExperimentConfig) -> list:
    by_kind = {p.name: p for p in default_suite()}
    return [by_kind[kind] for kind in cfg.suite]


def cmd_verify(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Invariant + soundness checks over the configured suite and seeds.

    Prints a JSON verdict listing every check result; exit 0 iff all pass.
    The ``inject_fault`` config key activates a documented fault fixture so
    the failure path itself can be exercised (see FAULT_FIXTURES).
    """
    if not cfg.suite:
        print("config error: empty problem suite", file=sys.stderr)
        return 2
    if out_dir is not None:
        try:
            out_dir = _ensure_outdir(out_dir)
        except OSError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
    problems = _suite_problems(cfg)
    verdict = {
        "status": "pass",
        "code_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "config": cfg.as_dict(),
        "checks": {},
        "failing": [],
    }
    for p in problems:
        h_p = with_dim(cfg.h, p.dim)
        results = []
        # Every seed of the problem is recorded in one lockstep loop, and each
        # trace is freed before the next is built.  The descent check runs on
        # the first seed's trace right away (it has its own rng stream, so no
        # byte depends on when) and its result is listed last.
        descent = []
        for trace in run_trajectories(p, h_p, cfg.T, cfg.seeds):
            if p.name == "noisy_quadratic" and not descent:
                cps = [c for c in default_checkpoints(cfg.T) if c < cfg.T][:8]
                branch_rng = rng_stream(f"verify-branch:{p.name}", cfg.seeds[0], "branch")
                descent.append(check_descent_expectation(p, trace, cps, 2_000, branch_rng))
            results.extend(run_trace_checks(trace))
            if cfg.inject_fault == "lipschitz_tenth":
                bad_cert = replace(p.certificate, L_f=p.certificate.L_f / 10.0)
                results.append(check_taylor_step(trace, bad_cert))
            del trace
        point_rng = rng_stream(f"verify-points:{p.name}", cfg.seeds[0], "points")
        results.append(gradcheck(p, 100, point_rng))
        results.append(check_grad_bound(p, 200, point_rng))
        oracle_rng = rng_stream(f"verify-oracle:{p.name}", cfg.seeds[0], "branch")
        results.extend(check_oracle_soundness(p, 5, 20_000, oracle_rng))
        results.extend(descent)
        merged = merge_results(results)
        verdict["checks"][p.name] = [r.as_dict() for r in merged]
        for r in merged:
            if r.status == "fail":
                verdict["failing"].append(f"{r.name} [{p.name}]")
    ex_rng = rng_stream("verify-exchange", cfg.seeds[0], "misc")
    exchange = check_exchange(1_000, ex_rng)
    verdict["checks"]["global"] = [exchange.as_dict()]
    if exchange.status == "fail":
        verdict["failing"].append(f"{exchange.name} [global]")
    if cfg.inject_fault:
        verdict["fault_fixture"] = cfg.inject_fault
    if verdict["failing"]:
        verdict["status"] = "fail"
    text = json.dumps(verdict, indent=2) + "\n"
    print(text, end="")
    if out_dir is not None:
        manifest = _new_manifest(cfg)
        manifest.artifacts.append(_write_text(out_dir, "verify.json", text))
        _write_manifest(out_dir, manifest)
    return 1 if verdict["failing"] else 0


def _series_csv(rep) -> str:
    """Per-checkpoint statistics of one probe as CSV (for plotting)."""
    cols = ["checkpoint"]
    series = []
    for name, stats in rep.stats.items():
        for key in ("mean", "median", "q10", "q90"):
            if key in stats:
                cols.append(f"{name}_{key}")
                series.append(stats[key])
    lines = [",".join(cols)]
    for i, cp in enumerate(rep.checkpoints):
        lines.append(",".join([str(int(cp))] + [_fmt(s[i]) for s in series]))
    return "\n".join(lines) + "\n"


def cmd_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Run the enabled probes; write CSV series, JSON report, and manifest."""
    if not cfg.probes:
        print("config error: no probes enabled", file=sys.stderr)
        return 2
    out_dir = out_dir or cfg.out_dir or "."
    try:
        out_dir = _ensure_outdir(out_dir)
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    manifest = _new_manifest(cfg)
    reports = run_probes(cfg, enforce_scale=False)
    report_doc = {
        "status": "pass",
        "code_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "config": cfg.as_dict(),
        "probes": {},
    }
    failed = False
    for name, rep in reports.items():
        report_doc["probes"][name] = rep.as_dict()
        manifest.artifacts.append(_write_text(out_dir, f"series_{name}.csv", _series_csv(rep)))
        failed = failed or rep.status == "fail"
        print(f"probe {name}: {rep.status}")
        for vname, v in rep.verdicts.items():
            print(f"  {vname}: {v['status']}")
        for note in rep.notes:
            print(f"  note: {note}")
    if failed:
        report_doc["status"] = "fail"
    manifest.artifacts.append(
        _write_text(out_dir, "report.json", json.dumps(report_doc, indent=2) + "\n")
    )
    _write_manifest(out_dir, manifest)
    print(f"wrote {len(manifest.artifacts) + 1} files to {out_dir}")
    return 1 if failed else 0


def cmd_trace(cfg: ExperimentConfig, seed: int, out_dir: str | None = None, checkpoints=None) -> int:
    """One trajectory -> per-step diagnostic CSV (byte-identical on rerun)."""
    out_dir = out_dir or cfg.out_dir or "."
    try:
        out_dir = _ensure_outdir(out_dir)
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    p = cfg.problem.build()
    trace = run_trajectory(p, cfg.h, cfg.T, seed)
    text = trace_csv(trace, rows=checkpoints)
    info = _write_text(out_dir, f"trace_seed{seed}.csv", text)
    print(os.path.join(out_dir, info["path"]))
    return 0


def cmd_list_problems() -> int:
    """Print the standard suite with certified constants."""
    for p in default_suite():
        c = p.certificate
        print(
            f"{p.name}  d={p.dim}  L_f={_fmt(c.L_f)}  f_star={_fmt(c.f_star)}  "
            f"A={_fmt(c.A)}  B={_fmt(c.B)}  C={_fmt(c.C)}"
        )
        print(f"  {c.description}")
    return 0


# ---------------------------------------------------------------------------
# argument handling


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default="", help="config file path or inline key=value/JSON text")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seeds", default=None, help="comma-separated seed list (overrides config)")
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes (overrides config; env ADAM_ABC_THREADS is the fallback)",
    )
    sub.add_argument(
        "--checkpoints",
        default=None,
        help="comma-separated checkpoint steps (overrides config; for trace: emit only these rows)",
    )


def _resolve(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    updates = {}
    if args.seeds is not None:
        updates["seeds"] = _cast("seeds", "int_list", args.seeds, "--seeds")
    if args.checkpoints is not None:
        updates["checkpoints"] = _cast("checkpoints", "int_list", args.checkpoints, "--checkpoints")
    if args.threads is not None:
        updates["threads"] = args.threads
    elif os.environ.get("ADAM_ABC_THREADS"):
        raw = os.environ["ADAM_ABC_THREADS"]
        try:
            updates["threads"] = int(raw)
        except ValueError as e:
            raise ParseError(f"ADAM_ABC_THREADS: bad value {raw!r}") from e
    if updates:
        cfg = replace(cfg, **updates)
        validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adam-abc",
        description="Adaptive-moment optimizer study kit: verification, experiments, traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("verify", help="run invariant and soundness checks"))
    _add_common(sub.add_parser("experiment", help="run convergence probes"))
    _add_common(sub.add_parser("trace", help="dump one seed's per-step diagnostics"))
    sub.add_parser("list-problems", help="print the standard problem suite")
    args = parser.parse_args(argv)

    if args.command == "list-problems":
        return cmd_list_problems()
    try:
        cfg = _resolve(args)
    except (ParseError, ConstraintViolation, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(cfg, out_dir=args.out)
        if args.command == "experiment":
            return cmd_experiment(cfg, out_dir=args.out)
        if args.command == "trace":
            if len(cfg.seeds) != 1:
                print(
                    f"config error: trace needs exactly one seed, got {len(cfg.seeds)} "
                    "(pass --seeds N)",
                    file=sys.stderr,
                )
                return 2
            rows = list(cfg.checkpoints) if args.checkpoints is not None else None
            return cmd_trace(cfg, int(cfg.seeds[0]), out_dir=args.out, checkpoints=rows)
    except ConstraintViolation as e:
        # a problem build or a probe's hypothesis gate rejects the config mid-run
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NonFiniteSweep as e:
        # the run itself went non-finite: a failed outcome, reported before any artifact
        print(e, file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

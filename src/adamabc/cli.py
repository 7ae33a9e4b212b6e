"""Command-line driver: config parsing, run manifests, and the three commands.

Subcommands
-----------
verify         run the invariant/soundness checks over the configured problem
               suite and seeds; prints a JSON verdict, exit 0 iff all pass.
experiment     run the enabled probes; writes per-probe CSV series and a JSON
               report into the output directory.
trace          run one seed and dump the full per-step diagnostic CSV.
list-problems  print the standard problem suite with certified constants.

Config is flat ``key = value`` text (diff-friendly; '#' comments allowed) or a
JSON object with the same keys.  Every key has a default, so the empty config
is valid.  Each command runs ``_prepare`` (every config error it can have,
then its output directory), its run, and ``_emit`` (its artifacts, then a
``manifest.json`` listing them).  ``main`` alone maps outcomes to exit codes:
0 all checks pass; 1 a check failed, or the run went non-finite or produced a
negative rate gap (one line, no artifact); 2 usage or config error (one line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import ConstraintViolation, HyperParams, beta2_at, eta_at, with_dim
from .experiments import (
    ExperimentConfig,
    NonFiniteSweep,
    ProblemSpec,
    SUITE_KINDS,
    check_gates,
    default_checkpoints,
    run_probes,
    validate_config,
)
from .instrumentation import NegativeGap, TheoryTrace
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


class NonFiniteTrace(ValueError):
    """A trace CSV cell would be NaN or +/-inf."""


# ---------------------------------------------------------------------------
# config schema: key -> (kind, default-as-text, field), where field is
# "problem.<ProblemSpec field>", "h.<HyperParams field>" or an
# ExperimentConfig field

_SCHEMA = {
    # problem geometry (applies to the experiment/trace problem)
    "problem": ("str", "noisy_quadratic", "problem.kind"),
    "d": ("int", "10", "problem.d"),  # also sets h.dim
    "n": ("int", "0", "problem.n"),  # data rows; 0 = kind default
    "sigma": ("float", "1.0", "problem.sigma"),
    "eig_min": ("float", "1.0", "problem.eig_min"),
    "eig_max": ("float", "4.0", "problem.eig_max"),
    "data_seed": ("int", "0", "problem.data_seed"),
    "reg": ("float", "0.05", "problem.reg"),
    # algorithm constants
    "beta1": ("float", "0.9", "h.beta1"),
    "alpha0": ("float", "0.5", "h.alpha0"),
    "gamma": ("float", "1.25", "h.gamma"),
    "delta": ("float", "0.25", "h.delta"),
    "mu": ("float", "1e-08", "h.mu"),
    "v": ("float", "1.0", "h.v"),
    # run shape
    "T": ("int", "1024", "T"),
    "seeds": ("int_list", "0,1,2", "seeds"),
    "checkpoints": ("int_list", "", "checkpoints"),  # empty = powers of two up to T
    "probes": ("str_list", "rate", "probes"),
    "out_dir": ("opt_str", "", "out_dir"),
    "threads": ("int", "1", "threads"),
    "epsilon_last": ("opt_float", "", "epsilon_last"),
    "epsilon_l1": ("opt_float", "", "epsilon_l1"),
    # verification driver
    "suite": ("str_list", ",".join(SUITE_KINDS), "suite"),
    "inject_fault": ("str", "", "inject_fault"),
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
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(str(e)) from e
    if text.lstrip().startswith("{"):
        entries = _entries_from_json(text)
    else:
        entries = _entries_from_text(text)

    fields = {"problem": {}, "h": {}, "": {}}
    for key, (kind, default, target) in _SCHEMA.items():
        raw, where = entries.get(key, (default, "default"))
        group, _, name = target.rpartition(".")
        fields[group][name] = _cast(key, kind, raw, where)

    run = fields[""]
    run["checkpoints"] = run["checkpoints"] or default_checkpoints(run["T"])
    cfg = ExperimentConfig(
        problem=ProblemSpec(**fields["problem"]),
        h=HyperParams(**fields["h"], dim=fields["problem"]["d"]),
        **run,
    )
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


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


def _emit(out_dir: str, cfg: ExperimentConfig, started: str, texts: dict) -> int:
    """Write each ``{name: text}`` artifact, then ``manifest.json``: the config
    echo, versions, start time and each artifact's digest.  The manifest goes
    last, so its listing is complete.  Returns the number of files written."""
    manifest = {
        "config": cfg.as_dict(),
        "code_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "started": started,
        "artifacts": [_write_text(out_dir, name, text) for name, text in texts.items()],
    }
    _write_text(out_dir, "manifest.json", json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return len(texts) + 1


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
    subsampling); default is every step 1..T.  A non-finite cell raises
    NonFiniteTrace naming the seed, the first such step and its column.
    """
    h, T = trace.h, trace.T
    ts = list(range(1, T + 1)) if rows is None else [int(t) for t in rows]
    for t in ts:
        if not (1 <= t <= T):
            raise ConstraintViolation(f"trace row {t} outside [1, T={T}]")
    at = np.asarray(ts, dtype=np.intp) - 1  # the step quantities' index; a state's is at + 1
    cols = {
        "f_w": trace.f_w[at],
        "grad_norm_sq": trace.grad_norm_sq[at],
        "f_u": trace.f_u[at],
        "eta_t": np.array([eta_at(t, h) for t in ts]),
        "beta2_t": np.array([beta2_at(t, h) for t in ts]),
        "min_margin_prop2": trace.margin2[at + 1],
        "sum_eta_v": trace.eta_v.sum(axis=1)[at + 1],
        "S_total": trace.S_total[at + 1],
        "sigma_v": trace.sigma_v[at + 1],
        "delta_sum": trace.delta.sum(axis=1)[at],
        "zeta_sum": trace.zeta[at],
        "fhat": trace.fhat[at],
        "lambda_phi4": trace.lambda4[at],
        "pi_hat": trace.pi.values[at + 1],
        "m1": trace.m1[at],
    }
    bad = ~np.isfinite(np.stack(list(cols.values())))  # (column, row)
    if bad.any():
        r = int(np.argmax(bad.any(axis=0)))
        name = list(cols)[int(np.argmax(bad[:, r]))]
        raise NonFiniteTrace(f"non-finite trace: seed {trace.seed}, step t={ts[r]}, column {name}")
    row = ",".join(["{}"] + ["{:.17g}"] * len(cols)).format
    lines = [",".join(TRACE_COLUMNS)]
    lines.extend(row(*r) for r in zip(ts, *(c.tolist() for c in cols.values())))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _suite_problems(cfg: ExperimentConfig) -> list:
    by_kind = {p.name: p for p in default_suite()}
    return [by_kind[kind] for kind in cfg.suite]


def _prepare(command: str, cfg: ExperimentConfig, out: str | None):
    """Raise every config error ``command`` can have, then make its output directory:
    ``out``, else the config's ``out_dir``, else the working directory (for
    ``verify``, none).  Returns ``(out_dir, problem, made)``: the built config
    problem, or None for ``verify``, which runs the standard suite instead,
    and the directories this call created, leaf first."""
    problem = None
    if command == "verify":
        if not cfg.suite:
            raise ConstraintViolation("empty problem suite")
        if "noisy_quadratic" in cfg.suite and cfg.T < 2:
            # the quadratic's descent check branches at checkpoints below T
            raise ConstraintViolation(f"the descent check needs T >= 2, got T = {cfg.T}")
    else:
        if command == "experiment":
            if not cfg.probes:
                raise ConstraintViolation("no probes enabled")
            check_gates(cfg, enforce_scale=False)
        elif len(cfg.seeds) != 1:
            raise ConstraintViolation(
                f"trace needs exactly one seed, got {len(cfg.seeds)} (pass --seeds N)"
            )
        problem = cfg.problem.build()
    out_dir = out or cfg.out_dir or (None if command == "verify" else ".")
    made = []
    if out_dir is not None:
        # the path makedirs sees, unfolded: "NEW/.." still makes NEW
        d = os.path.join(os.getcwd(), out_dir)
        while not os.path.exists(d):
            if os.path.basename(d) not in ("", os.curdir, os.pardir):
                made.append(d)
            d = os.path.dirname(d)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:
            raise ConstraintViolation(str(e)) from e
        if not os.access(out_dir, os.W_OK):
            raise ConstraintViolation(f"output directory not writable: {out_dir}")
    return out_dir, problem, made


@np.errstate(over="ignore", invalid="ignore")  # overflow fails a check, not a warning
def cmd_verify(cfg: ExperimentConfig, out_dir: str | None, started: str) -> int:
    """Invariant + soundness checks over the configured suite and seeds.

    Prints a JSON verdict listing every check result; exit 0 iff all pass.
    The ``inject_fault`` config key activates a documented fault fixture so
    the failure path itself can be exercised (see FAULT_FIXTURES).
    ``verify.json`` and the manifest go to ``out_dir`` unless it is None.
    """
    groups = {}
    for p in _suite_problems(cfg):
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
        groups[p.name] = merge_results(results)
    groups["global"] = [check_exchange(1_000, rng_stream("verify-exchange", cfg.seeds[0], "misc"))]
    checks, failing = {}, []
    for key, results in groups.items():
        checks[key] = [r.as_dict() for r in results]
        failing += [f"{r.name} [{key}]" for r in results if r.status == "fail"]
    verdict = {
        "status": "fail" if failing else "pass",
        "code_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "config": cfg.as_dict(),
        "checks": checks,
        "failing": failing,
    }
    if cfg.inject_fault:
        verdict["fault_fixture"] = cfg.inject_fault
    text = json.dumps(verdict, indent=2, allow_nan=False) + "\n"
    print(text, end="")
    if out_dir is not None:
        _emit(out_dir, cfg, started, {"verify.json": text})
    return 1 if failing else 0


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


def cmd_experiment(cfg: ExperimentConfig, out_dir: str, started: str) -> int:
    """Run the enabled probes; write CSV series, JSON report, and manifest."""
    reports = run_probes(cfg, enforce_scale=False)
    report_doc = {
        "status": "pass",
        "code_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "config": cfg.as_dict(),
        "probes": {},
    }
    texts = {}
    for name, rep in reports.items():
        report_doc["probes"][name] = rep.as_dict()
        texts[f"series_{name}.csv"] = _series_csv(rep)
        print(f"probe {name}: {rep.status}")
        for vname, v in rep.verdicts.items():
            print(f"  {vname}: {v['status']}")
        for note in rep.notes:
            print(f"  note: {note}")
    failed = any(rep.status == "fail" for rep in reports.values())
    if failed:
        report_doc["status"] = "fail"
    texts["report.json"] = json.dumps(report_doc, indent=2, allow_nan=False) + "\n"
    print(f"wrote {_emit(out_dir, cfg, started, texts)} files to {out_dir}")
    return 1 if failed else 0


@np.errstate(over="ignore", invalid="ignore")  # trace_csv's non-finite guard reports overflow
def cmd_trace(cfg: ExperimentConfig, p, out_dir: str, started: str, rows=None) -> int:
    """One trajectory of ``p`` -> per-step diagnostic CSV (byte-identical on rerun)."""
    seed = int(cfg.seeds[0])
    name = f"trace_seed{seed}.csv"
    _emit(out_dir, cfg, started, {name: trace_csv(run_trajectory(p, cfg.h, cfg.T, seed), rows)})
    print(os.path.join(out_dir, name))
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
    sub.add_argument("--threads", type=int, default=None,
                     help="worker processes (overrides config)")
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
    made = []
    try:
        cfg = _resolve(args)
        out_dir, problem, made = _prepare(args.command, cfg, args.out)
        started = datetime.now(timezone.utc).isoformat()
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, started)
        if args.command == "experiment":
            return cmd_experiment(cfg, out_dir, started)
        rows = list(cfg.checkpoints) if args.checkpoints is not None else None
        return cmd_trace(cfg, problem, out_dir, started, rows)
    except (ParseError, ConstraintViolation) as e:
        # from _resolve, _prepare, or a check the run repeats
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NonFiniteSweep, NonFiniteTrace, NegativeGap) as e:
        # the run itself went non-finite or broke the rate ordering: a failed
        # outcome, reported before any artifact
        print(e, file=sys.stderr)
        return 1
    finally:
        for d in made:  # a run that failed leaves no empty directory it made
            try:
                os.rmdir(d)
            except OSError:  # not empty: the run wrote its artifacts
                break


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

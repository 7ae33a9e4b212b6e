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
is valid.  Each command runs ``_prepare`` (every config error it can have; it
makes nothing), its run, and ``_emit`` (its output directory, its artifacts,
then a ``manifest.json`` listing them), so a failed run makes no directory.
``main`` alone maps outcomes to exit codes:
0 all checks pass; 1 a check failed, or the run went non-finite or produced a
negative rate gap (one line, no artifact); 2 usage or config error (one line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import ConstraintViolation, HyperParams, beta2_steps, eta_steps, with_dim
from .experiments import (
    ExperimentConfig,
    NonFiniteSweep,
    ProblemSpec,
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
# config schema: key -> (kind, field), where field is "problem.<ProblemSpec
# field>", "h.<HyperParams field>" or an ExperimentConfig field.  A key left out
# takes its _DEFAULTS text, else its field's dataclass default.

_SCHEMA = {
    # problem geometry (applies to the experiment/trace problem)
    "problem": ("str", "problem.kind"),
    "d": ("int", "problem.d"),  # also sets h.dim
    "n": ("int", "problem.n"),  # data rows; 0 = kind default
    "sigma": ("float", "problem.sigma"),
    "eig_min": ("float", "problem.eig_min"),
    "eig_max": ("float", "problem.eig_max"),
    "data_seed": ("int", "problem.data_seed"),
    "reg": ("float", "problem.reg"),
    # algorithm constants
    "beta1": ("float", "h.beta1"),
    "alpha0": ("float", "h.alpha0"),
    "gamma": ("float", "h.gamma"),
    "delta": ("float", "h.delta"),
    "mu": ("float", "h.mu"),
    "v": ("float", "h.v"),
    # run shape
    "T": ("int", "T"),
    "seeds": ("int_list", "seeds"),
    "checkpoints": ("int_list", "checkpoints"),  # empty = powers of two up to T
    "probes": ("str_list", "probes"),
    "out_dir": ("opt_str", "out_dir"),
    "threads": ("int", "threads"),
    "epsilon_last": ("opt_float", "epsilon_last"),
    "epsilon_l1": ("opt_float", "epsilon_l1"),
    # verification driver
    "suite": ("str_list", "suite"),
    "inject_fault": ("str", "inject_fault"),
}

_DEFAULTS = {"problem": "noisy_quadratic", "T": "1024", "seeds": "0,1,2"}


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


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a ParseError, as in flat text."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = val
    return obj


def _entries_from_json(text: str) -> dict:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
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
    parse = _entries_from_json if text.lstrip().startswith("{") else _entries_from_text
    entries = {**{key: (raw, "default") for key, raw in _DEFAULTS.items()}, **parse(text)}
    fields = {"problem": {}, "h": {}, "": {}}
    for key, (kind, target) in _SCHEMA.items():
        if key in entries:
            group, _, name = target.rpartition(".")
            fields[group][name] = _cast(key, kind, *entries[key])

    run = fields[""]
    run["checkpoints"] = run.get("checkpoints") or default_checkpoints(run["T"])
    problem = ProblemSpec(**fields["problem"])
    cfg = ExperimentConfig(problem=problem, h=HyperParams(**fields["h"], dim=problem.d), **run)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


def _write_text(out_dir: str, name: str, text) -> dict:
    """Write ``out_dir/name`` atomically: a temp file beside it, then os.replace.

    ``text`` is a str or an iterable of str chunks; each chunk is encoded,
    written and hashed in turn, so only one chunk is held at a time.  A failed
    write, or a chunk iterator that raises, leaves any previous file of that
    name as it was and removes the temp file.
    """
    digest, size = hashlib.sha256(), 0
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            for chunk in [text] if isinstance(text, str) else text:
                data = chunk.encode("utf-8")
                fh.write(data)
                digest.update(data)
                size += len(data)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        os.unlink(tmp)
        raise
    return {"path": name, "sha256": digest.hexdigest(), "bytes": size}


def _emit(out_dir: str, cfg: ExperimentConfig, start: tuple, texts: dict) -> int:
    """Make ``out_dir``, write each ``{name: text}`` artifact (a str or an
    iterable of str chunks, see ``_write_text``), then ``manifest.json``:
    the config echo, versions, start time, each artifact's digest, and the
    process's peak resident memory and wall time so far.  ``start`` is the run's
    (ISO timestamp, ``perf_counter`` at the start of ``main``).  The manifest
    goes last, so its listing is complete.  Returns the number of files written;
    an ``OSError`` on the way becomes a ConstraintViolation."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        manifest = {
            "config": cfg.as_dict(),
            "code_version": __version__,
            "rng_algorithm": RNG_ALGORITHM,
            "started": start[0],
            "artifacts": [_write_text(out_dir, name, text) for name, text in texts.items()],
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_s": time.perf_counter() - start[1],
        }
        _write_text(out_dir, "manifest.json", _json(manifest))
    except OSError as e:
        raise ConstraintViolation(str(e)) from e
    return len(texts) + 1


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _report(status: str, cfg: ExperimentConfig, **body) -> dict:
    """A JSON report: its status, the code and rng versions, the config echo, then ``body``."""
    return {"status": status, "code_version": __version__, "rng_algorithm": RNG_ALGORITHM,
            "config": cfg.as_dict(), **body}


#: rows of CSV text rendered per chunk
_CSV_ROWS = 256


def _csv(cols: dict):
    """CSV text of ``{header: values}`` in chunks: the header line, then the
    lines of ``_CSV_ROWS`` rows at a time, each rendered by one ``%`` format.
    The first column's ints are written verbatim, every other column's floats
    at 17 significant digits."""
    row = ",".join(["%s"] + ["%.17g"] * (len(cols) - 1)) + "\n"
    yield ",".join(cols) + "\n"
    cols = [np.asarray(c) for c in cols.values()]
    for a in range(0, len(cols[0]), _CSV_ROWS):
        yield "".join([row % t for t in zip(*(c[a : a + _CSV_ROWS].tolist() for c in cols))])


# ---------------------------------------------------------------------------
# trace CSV

#: column -> its values at steps ``ts`` of a trace, where ``at`` indexes the
#: step quantities and ``at + 1`` the state reached after the step
_TRACE_TABLE = {
    "f_w": lambda tr, ts, at: tr.f_w[at],
    "grad_norm_sq": lambda tr, ts, at: tr.grad_norm_sq[at],
    "f_u": lambda tr, ts, at: tr.f_u[at],
    "eta_t": lambda tr, ts, at: np.array(eta_steps(ts, tr.h)),
    "beta2_t": lambda tr, ts, at: np.array(beta2_steps(ts, tr.h)),
    "min_margin_prop2": lambda tr, ts, at: tr.margin2[at + 1],
    "sum_eta_v": lambda tr, ts, at: tr.eta_v.sum(axis=1)[at + 1],
    "S_total": lambda tr, ts, at: tr.S_total[at + 1],
    "sigma_v": lambda tr, ts, at: tr.sigma_v[at + 1],
    "delta_sum": lambda tr, ts, at: tr.delta.sum(axis=1)[at],
    "zeta_sum": lambda tr, ts, at: tr.zeta[at],
    "fhat": lambda tr, ts, at: tr.fhat[at],
    "lambda_phi4": lambda tr, ts, at: tr.lambda4[at],
    "pi_hat": lambda tr, ts, at: tr.pi.values[at + 1],
    "m1": lambda tr, ts, at: tr.m1[at],
}

TRACE_COLUMNS = ("t", *_TRACE_TABLE)


def _trace_cols(trace: TheoryTrace, rows=None) -> dict:
    """The trace CSV's columns ``{header: values}`` at steps ``rows`` (default
    every step 1..T), checked before any of it is written: a row outside
    [1, T] is a ConstraintViolation, and a non-finite cell raises
    NonFiniteTrace naming the seed, the first such step and its column."""
    ts = list(range(1, trace.T + 1)) if rows is None else [int(t) for t in rows]
    for t in ts:
        if not (1 <= t <= trace.T):
            raise ConstraintViolation(f"trace row {t} outside [1, T={trace.T}]")
    at = np.asarray(ts, dtype=np.intp) - 1
    cols = {name: col(trace, ts, at) for name, col in _TRACE_TABLE.items()}
    bad = ~np.isfinite(np.stack(list(cols.values())))  # (column, row)
    if bad.any():
        r, c = np.argwhere(bad.T)[0]
        raise NonFiniteTrace(
            f"non-finite trace: seed {trace.seed}, step t={ts[r]}, column {list(cols)[c]}")
    return {"t": ts, **cols}


def trace_csv(trace: TheoryTrace, rows=None) -> str:
    """Render the per-step diagnostics as CSV text (one row per step t).

    Row t mixes the theory's native indexing: f_w/grad_norm_sq/f_u/fhat/
    zeta_sum/lambda_phi4/m1 are the step-t quantities (evaluated at w_t, u_t),
    while min_margin_prop2/sum_eta_v/S_total/sigma_v/pi_hat describe the state
    reached after step t.  ``rows`` restricts output to those t (checkpoint
    subsampling); default is every step 1..T.  A row outside [1, T] or a
    non-finite cell raises as ``_trace_cols`` says.  ``adam-abc trace`` writes
    the same text chunk by chunk.
    """
    return "".join(_csv(_trace_cols(trace, rows)))


# ---------------------------------------------------------------------------
# commands


#: the problem kind whose first seed's trace ``verify`` runs the descent check on;
#: it branches at checkpoints below T, so that kind needs T >= 2
_DESCENT_KIND = "noisy_quadratic"


def _suite_problems(cfg: ExperimentConfig) -> list:
    by_kind = {p.name: p for p in default_suite()}
    return [by_kind[kind] for kind in cfg.suite]


def _prepare(command: str, cfg: ExperimentConfig, out: str | None):
    """Raise every config error ``command`` can have, and make nothing.  The output
    directory is ``out``, else the config's ``out_dir``, else the working directory
    (for ``verify``, none).  Its nearest existing path must be a writable directory,
    each component still to make must fit that directory's name length limit, and
    the path, with room for one more name of that length, its path length limit.
    Returns ``(out_dir, problem)``: the built config problem, or None for ``verify``."""
    problem = None
    if command == "verify":
        if not cfg.suite:
            raise ConstraintViolation("empty problem suite")
        if _DESCENT_KIND in cfg.suite and cfg.T < 2:
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
    if out_dir is not None:
        # the path makedirs will see, unfolded: "NEW/.." still needs NEW
        d, missing = os.path.join(os.getcwd(), out_dir), []
        while not os.path.exists(d):
            missing.append(os.path.basename(d))
            d = os.path.dirname(d)
        if not (os.path.isdir(d) and os.access(d, os.W_OK)):
            raise ConstraintViolation(f"not a writable directory: {d}")
        limit = os.pathconf(d, "PC_NAME_MAX")
        if any(len(os.fsencode(name)) > limit for name in missing):
            raise ConstraintViolation(f"output path component longer than {limit} bytes: {out_dir}")
        # an artifact's path is out_dir/name; PC_PATH_MAX counts the closing NUL
        room = os.pathconf(d, "PC_PATH_MAX") - 2 - limit
        if len(os.fsencode(out_dir)) > room:
            raise ConstraintViolation(f"output path longer than {room} bytes: {out_dir}")
    return out_dir, problem


@np.errstate(over="ignore", invalid="ignore")  # overflow fails a check, not a warning
def cmd_verify(cfg: ExperimentConfig, out_dir: str | None, start: tuple) -> int:
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
            if p.name == _DESCENT_KIND and not descent:
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
    verdict = _report("fail" if failing else "pass", cfg, checks=checks, failing=failing)
    if cfg.inject_fault:
        verdict["fault_fixture"] = cfg.inject_fault
    text = _json(verdict)
    print(text, end="")
    if out_dir is not None:
        _emit(out_dir, cfg, start, {"verify.json": text})
    return 1 if failing else 0


def _series_csv(rep):
    """Per-checkpoint statistics of one probe as CSV chunks (for plotting)."""
    cols = {"checkpoint": rep.checkpoints}
    for name, stats in rep.stats.items():
        for key in ("mean", "median", "q10", "q90"):
            if key in stats:
                cols[f"{name}_{key}"] = stats[key]
    return _csv(cols)


def cmd_experiment(cfg: ExperimentConfig, out_dir: str, start: tuple) -> int:
    """Run the enabled probes; write CSV series, JSON report, and manifest."""
    reports = run_probes(cfg, enforce_scale=False)
    texts = {}
    for name, rep in reports.items():
        texts[f"series_{name}.csv"] = _series_csv(rep)
        print(f"probe {name}: {rep.status}")
        for vname, v in rep.verdicts.items():
            print(f"  {vname}: {v['status']}")
        for note in rep.notes:
            print(f"  note: {note}")
    failed = any(rep.status == "fail" for rep in reports.values())
    probes = {name: rep.as_dict() for name, rep in reports.items()}
    texts["report.json"] = _json(_report("fail" if failed else "pass", cfg, probes=probes))
    print(f"wrote {_emit(out_dir, cfg, start, texts)} files to {out_dir}")
    return 1 if failed else 0


@np.errstate(over="ignore", invalid="ignore")  # the trace's non-finite guard reports overflow
def cmd_trace(cfg: ExperimentConfig, p, out_dir: str, start: tuple, rows=None) -> int:
    """One trajectory of ``p`` -> per-step diagnostic CSV (byte-identical on rerun).

    The columns are checked before anything is written, and the trace is
    freed once they are taken; the CSV then goes to disk ``_CSV_ROWS`` rows
    at a time, so the text never exists whole."""
    seed = int(cfg.seeds[0])
    name = f"trace_seed{seed}.csv"
    cols = _trace_cols(run_trajectory(p, cfg.h, cfg.T, seed), rows)
    _emit(out_dir, cfg, start, {name: _csv(cols)})
    print(os.path.join(out_dir, name))
    return 0


def cmd_list_problems() -> int:
    """Print the standard suite with certified constants."""
    for p in default_suite():
        c = p.certificate
        print(
            f"{p.name}  d={p.dim}  L_f={c.L_f:.17g}  f_star={c.f_star:.17g}  "
            f"A={c.A:.17g}  B={c.B:.17g}  C={c.C:.17g}"
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
    t0 = time.perf_counter()
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
        out_dir, problem = _prepare(args.command, cfg, args.out)
        start = (datetime.now(timezone.utc).isoformat(), t0)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, start)
        if args.command == "experiment":
            return cmd_experiment(cfg, out_dir, start)
        rows = list(cfg.checkpoints) if args.checkpoints is not None else None
        return cmd_trace(cfg, problem, out_dir, start, rows)
    except (ParseError, ConstraintViolation) as e:
        # from _resolve, _prepare, a check the run repeats, or _emit's writes
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # sizes too large to allocate, as numpy reports them: before any artifact
        print(f"config error: out of memory: {e}", file=sys.stderr)
        return 2
    except (NonFiniteSweep, NonFiniteTrace, NegativeGap) as e:
        # the run itself went non-finite or broke the rate ordering: a failed
        # outcome, reported before any artifact
        print(e, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

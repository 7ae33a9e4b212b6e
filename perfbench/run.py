"""adam-abc benchmark: four workloads, end-to-end metrics untraced, layer costs traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-record --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke               # tiny sizes: the benchmark's own test
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

One run is one process.  It imports ``adamabc`` from ``src/`` of the
checkout, builds the workload from ``--seed``, runs one warm-up pass, then
repeats passes for ``--seconds`` seconds.  Every operation's outputs are
checked after every pass (see ``workloads.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit, the
environment and the counts.

``--trace 0`` reports the end-to-end metrics: median pass wall time, oracle
draws per second, set-up time (median of several fresh processes, each timed
from its start to the point where the first workload call would begin), peak
resident memory of the process that ran the passes, and the share of
operations that did not fail.  The three time metrics are normalised to a
reference host speed (see ``calibrate``); raw times are printed beside them.  ``--trace 1`` alternates untraced and traced
passes, reports where traced time went by layer, the tracing overhead, the
exact counts, and the kernel ladder (``ladder.py``).

BLAS is pinned to one thread and every config sets ``threads = 1``, so a run
is a single process with a single compute thread.
"""

from __future__ import annotations

import os
import sys

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)  # before numpy loads
os.environ.pop("ADAM_ABC_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
MIN_PASSES = 3

#: the scale of normalised times: a typical calibrate() time on the host the
#: reference was recorded on (Intel Xeon, 2 vCPUs)
CAL_REF_S = 0.015


def _import_package() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    pkg = SRC / "adamabc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no adamabc package at {pkg}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import adamabc

    if Path(adamabc.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported adamabc from {adamabc.__file__}, not {pkg}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint() -> dict:
    """What the bytes of the outputs may depend on (the BLAS kernel above all)."""
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "simd": cfg["SIMD Extensions"]["found"],
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }


def environment(wl) -> dict:
    return {
        **fingerprint(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": dict(PINS),
        "workers": 1,
        "shape": wl.shape,
    }


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work the program does:
    small-array numpy dispatch, float formatting, large-array arithmetic and
    small matrix products.

    On the 2-vCPU host this benchmark was built on, a fixed kernel's speed
    switches between two levels 1.7x apart several times a minute, with no
    steal time reported; process CPU time slows with wall time, so measuring
    CPU time does not filter it out.  Across five 20-second runs per workload
    the median raw pass time spread by 11-32% (quartile distance over
    median).  So every timed operation is bracketed by two calibrate() calls
    and its wall time is scaled by CAL_REF_S / (their mean): the operation's
    wall time at the reference host speed, which spread by 3-7% over ten
    25-second runs per workload.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = np.ones((20, 10))
    v = np.ones((20, 10))
    for _ in range(500):
        v = 0.9 * v + 0.1 * (x * x)
        x = x - 0.01 * x / (np.sqrt(v) + 1e-8)
    ",".join([format(i * 1.2345678901234567, ".17g") for i in range(3000)])
    y = np.arange(200_000, dtype=np.float64)
    for _ in range(5):
        np.sqrt(y * y + 1.0).sum()
    a, b = np.ones((50, 10)), np.ones((10, 100))
    for _ in range(400):
        (a @ b).sum()
    return time.perf_counter() - t0


class Runner:
    """Runs passes of one workload and checks every operation's outputs."""

    def __init__(self, wl, ref_ops):
        self.wl = wl
        self.ref_ops = ref_ops
        self.first = {}
        self.first_counts = None
        self.attempted = 0
        self.failed = 0
        self.findings = []
        self.counts = None
        self._cal = None  # the last calibrate() time, which opens the next op

    def run_pass(self, tracer=None) -> tuple:
        """Run every operation once; return (raw, normalised) wall seconds."""
        from spans import installed
        from workloads import OpResult, compare

        results = []
        raw = norm = 0.0
        if tracer is not None:
            tracer.reset()
        cal = self._cal or calibrate()
        with installed(tracer) if tracer is not None else contextlib.nullcontext():
            for op in self.wl.ops:
                op.prepare()
                t0 = time.perf_counter_ns()
                try:
                    out, err = op.call(), None
                except Exception as e:  # a raising operation is a failed operation
                    out, err = None, e
                dt = (time.perf_counter_ns() - t0) / 1e9
                cal_after = calibrate()
                raw += dt
                norm += dt * CAL_REF_S / (0.5 * (cal + cal_after))
                cal = cal_after
                results.append((op, out, err))
        self._cal = cal
        counts = {"verify.checks_run": 0, "verify.checks_failed": 0, "cli.bytes_written": 0}
        for op, out, err in results:
            if err is None:
                try:
                    res = op.result(out)
                except Exception as e:  # unreadable outputs fail the operation
                    err = e
            if err is not None:
                res = OpResult(exit_code=None, problems=[f"raised {type(err).__name__}: {err}"])
            ref = self.ref_ops["ops"][op.label] if self.ref_ops else None
            found = compare(res, self.first.get(op.label), ref)
            self.first.setdefault(op.label, res)
            self.attempted += 1
            if found:
                self.failed += 1
                self.findings.extend(f"{op.label}: {f}" for f in found)
            counts["verify.checks_run"] += res.checks_run
            counts["verify.checks_failed"] += res.checks_failed
            counts["cli.bytes_written"] += res.bytes_written
        expect = self.first_counts or (self.ref_ops or {}).get("counts")
        if expect is not None and counts != expect:
            self.findings.append(f"counts {counts} differ from {expect}")
        self.first_counts = self.first_counts or counts
        self.counts = counts
        return raw, norm


def _setup_once(name: str, seed: int, smoke: bool) -> tuple:
    """(raw, normalised) seconds from spawning a fresh interpreter to its
    workload being ready; CLOCK_MONOTONIC is shared by both processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    cal = calibrate()
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw = (int(proc.stdout.split()[-1]) - t0) / 1e9
    return raw, raw * CAL_REF_S / (0.5 * (cal + calibrate()))


def _load_reference(name: str, seed: int, smoke: bool):
    """The reference outputs for this run, or None (and why) if none apply."""
    from workloads import REFERENCE_SEED

    if smoke:
        return None, "smoke sizes have no reference"
    if seed != REFERENCE_SEED:
        return None, f"seed {seed} is not the reference seed {REFERENCE_SEED}"
    if not REFERENCE.is_file():
        return None, "no reference.json"
    ref = json.loads(REFERENCE.read_text())
    if ref["environment"] != fingerprint():
        return None, "environment differs from the recorded one; digests not compared"
    return ref["workloads"][name], "compared with reference.json"


@contextlib.contextmanager
def _workdir(tag: str):
    """A private directory under .perfbench_out, removed with its parent when empty."""
    work = ROOT / ".perfbench_out" / f"{tag}-{os.getpid()}"
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    from workloads import FULL, SMOKE, setup

    sizes = SMOKE if smoke else FULL
    with _workdir(name) as work:
        setups = [] if traced else [_setup_once(name, seed, smoke)
                                    for _ in range(1 if smoke else SETUP_REPEATS)]
        wl = setup(name, seed, sizes, str(work))
        ref, ref_note = _load_reference(name, seed, smoke)
        runner = Runner(wl, ref)
        runner.run_pass()  # warm-up: lazy imports, caches, first-pass outputs
        out = {"wl": wl, "runner": runner, "setups": setups, "ref_note": ref_note}
        if traced:
            out.update(_traced_passes(runner, seconds, str(work)))
        else:
            walls = []
            start = time.perf_counter()
            while len(walls) < MIN_PASSES or (
                time.perf_counter() - start + statistics.median(w[0] for w in walls) <= seconds
            ):
                walls.append(runner.run_pass())
            out["walls"] = walls
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out


def _traced_passes(runner, seconds, workdir) -> dict:
    """Untraced and traced passes in alternating order, then the ladder."""
    from ladder import run_ladder
    from spans import LAYERS, Tracer

    tracer = Tracer()
    plain, traced, unattributed = [], [], []
    self_s = dict.fromkeys(LAYERS, 0.0)
    observed = None
    start = time.perf_counter()
    k = 0
    while len(traced) < MIN_PASSES or (
        time.perf_counter() - start + 2 * statistics.median(w[0] for w in traced) <= seconds
    ):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(runner.run_pass())
                continue
            wall = runner.run_pass(tracer)
            layers = tracer.layer_self_s()
            attributed_ns = sum(tracer.self_ns.values())
            if attributed_ns != tracer.root_ns:
                raise RuntimeError("span self times do not add up to root span time")
            traced.append(wall)
            unattributed.append(wall[0] - tracer.root_ns / 1e9)
            for layer, s in layers.items():
                self_s[layer] += s
            seen = {
                "count.draws_run": tracer.work["seed_steps"] + tracer.work["branch_rows"],
                "experiments.sweeps_run": tracer.calls["experiments.run_sweep"],
            }
            if observed is not None and seen != observed:
                runner.findings.append(f"traced counts {seen} differ from {observed}")
            observed = seen
        k += 1
    ladder = run_ladder(tracer, os.path.join(workdir, "ladder"))
    return {"plain": plain, "traced": traced, "unattributed": unattributed,
            "self_s": self_s, "observed": observed, "ladder": ladder}


def end_to_end(out) -> dict:
    """Time metrics are medians of the normalised times (see calibrate)."""
    wl, runner = out["wl"], out["runner"]
    walls = [w[1] for w in out["walls"]]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "oracle_draws_per_s": (statistics.median(wl.oracle_draws / w for w in walls), "1/s"),
        "setup_s": (statistics.median(s[1] for s in out["setups"]), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "fraction"),
    }


def per_layer(out) -> dict:
    from spans import LAYERS

    wl, runner = out["wl"], out["runner"]
    m = dict(out["ladder"])
    m["count.ops"] = (len(wl.ops), "count")
    m["count.seed_steps"] = (wl.seed_steps, "count")
    m["count.branch_rows"] = (wl.branch_rows, "count")
    m["count.oracle_draws"] = (wl.oracle_draws, "count")
    for key, val in {**out["observed"], **runner.counts}.items():
        m[key] = (val, "count")
    traced = statistics.median(w[1] for w in out["traced"])
    plain = statistics.median(w[1] for w in out["plain"])
    m["trace.pass_s"] = (traced, "s")
    m["trace.untraced_pass_s"] = (plain, "s")
    m["trace.overhead_frac"] = ((traced - plain) / plain, "fraction")
    m["trace.unattributed_s"] = (statistics.median(out["unattributed"]), "s")
    # the layer split is of raw traced wall time, which it covers exactly
    total = sum(w[0] for w in out["traced"])
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (100.0 * out["self_s"][layer] / total, "%")
    m["self_share.unattributed"] = (100.0 * sum(out["unattributed"]) / total, "%")
    return m


def report(name, seed, out, metrics) -> dict:
    """Print the human-readable lines and return the result object."""
    runner = out["runner"]
    print("environment " + json.dumps(environment(out["wl"]), sort_keys=True))
    print(f"workload {name} seed {seed}: {runner.attempted} operations "
          f"({len(out['wl'].ops)} per pass, first pass a warm-up), {runner.failed} failed, "
          f"failed_frac {runner.failed / runner.attempted:.6g}; outputs {out['ref_note']}")
    for f in runner.findings[:20]:
        print(f"finding {f}")
    for label, key in (("setup", "setups"), ("pass", "walls"), ("untraced pass", "plain"),
                       ("traced pass", "traced")):
        if out.get(key):
            raw = [w[0] for w in out[key]]
            norm = [w[1] for w in out[key]]
            print(f"timing {label}: n={len(raw)} raw median {statistics.median(raw):.6g} s "
                  f"min {min(raw):.6g} max {max(raw):.6g}; normalised median "
                  f"{statistics.median(norm):.6g} s min {min(norm):.6g} max {max(norm):.6g}")
    if "self_s" in out:
        n = len(out["traced"])
        for layer, s in out["self_s"].items():
            print(f"layer {layer} self_s_per_pass {s / n:.6g} s")
        print(f"layer unattributed self_s_per_pass {sum(out['unattributed']) / n:.6g} s")
        print(f"layer total traced_wall_s_per_pass {sum(w[0] for w in out['traced']) / n:.6g} s")
    for key, (val, unit) in metrics.items():
        print(f"metric {key} {val!r} {unit}")
    correct = runner.failed == 0 and not runner.findings
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_reference() -> int:
    """Run one checked pass of every workload at the reference seed and store it."""
    from workloads import FULL, REFERENCE_SEED, WORKLOADS, setup

    doc = {"seed": REFERENCE_SEED, "environment": fingerprint(), "workloads": {}}
    for name in WORKLOADS:
        with _workdir(f"reference-{name}") as work:
            runner = Runner(setup(name, REFERENCE_SEED, FULL, str(work)), None)
            runner.run_pass()
            runner.run_pass()
        if runner.findings:
            print("\n".join(runner.findings), file=sys.stderr)
            return 1
        doc["workloads"][name] = {
            "ops": {label: r.fingerprint() for label, r in runner.first.items()},
            "counts": runner.first_counts,
        }
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def smoke() -> int:
    """Tiny sizes: every declared metric is printed with its unit, and the
    output check flags an altered artifact."""
    import io

    from workloads import WORKLOADS, compare

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for name in WORKLOADS:
        for traced in (False, True) if name == "verify-record" else (False,):
            out = run(name, 0, 0.0, traced, smoke=True)
            metrics = per_layer(out) if traced else end_to_end(out)
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                result = report(name, 0, out, metrics)
            lines = buf.getvalue().splitlines()
            printed = {ln.split()[1]: ln.split()[-1] for ln in lines if ln.startswith("metric ")}
            for metric, unit in want[traced].items():
                if printed.get(metric) != unit or result["metrics"][metric]["unit"] != unit:
                    errors.append(f"{name} trace={int(traced)}: {metric} [{unit}] not printed")
            if set(result["metrics"]) != set(want[traced]):
                errors.append(f"{name}: metric set differs from BENCHMARK.json")
            if not result["correct"]:
                errors.append(f"{name}: outputs flagged: {out['runner'].findings[:3]}")
    errors += _tamper_check(compare)
    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


def _tamper_check(compare) -> list:
    """Alter one byte of a real artifact; the output check must flag it."""
    from workloads import SMOKE, setup

    with _workdir("tamper") as work:
        op = setup("verify-record", 0, SMOKE, str(work)).ops[1]  # a trace command
        op.prepare()
        rc = op.call()
        good = op.result(rc)
        path = Path(op.out_dir) / next(iter(good.artifacts))
        data = bytearray(path.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
        bad = op.result(rc)
    if compare(good, None, good.fingerprint()) or not compare(bad, None, good.fingerprint()):
        return ["output check did not flag an altered artifact"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; check the benchmark itself")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the reference seed")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_package()
    from workloads import FULL, SMOKE, WORKLOADS, setup

    if args.setup_probe:
        setup(args.workload, args.seed, SMOKE if args.smoke else FULL, str(ROOT / ".perfbench_out"))
        print(time.monotonic_ns())
        return 0
    if args.smoke:
        return smoke()
    if args.record_reference:
        return record_reference()
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(out) if args.trace else end_to_end(out)
    print(json.dumps(report(args.workload, args.seed, out, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

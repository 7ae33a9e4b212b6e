#!/usr/bin/env python3
"""Acceptance-scale pilot sweeps: records the raw numbers behind every frozen
threshold (last-iterate epsilon, seed-mean epsilon, rate-slope landing zone,
ratio per-step noise) so they can be recalibrated and re-frozen deliberately.

Runs every sweep of ``ACCEPTANCE_PLAN``, the configurations the acceptance
gate runs, with the same seeds and checkpoint grids.  For each plan entry it
records the config's shape, the seconds taken and, per probe, the status,
every verdict's status and observed value, and the fits.  Expect about five
minutes of wall time on two cores with one BLAS thread.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/run_convergence_pilot.py --out pilot.json [--threads N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from adamabc.experiments import ACCEPTANCE_PLAN, run_probes


def _probe_summary(rep) -> dict:
    doc = rep.as_dict()  # strict JSON: non-finite values become null
    return {
        "status": doc["status"],
        "verdicts": {
            name: {"status": v["status"], "observed": v["observed"]}
            for name, v in doc["verdicts"].items()
        },
        "fits": doc["fits"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="pilot.json", help="where to write the JSON summary")
    ap.add_argument("--threads", type=int, default=1, help="seed-sweep worker processes")
    args = ap.parse_args(argv)

    out: dict = {}
    for name, cfg in ACCEPTANCE_PLAN.items():
        started = time.perf_counter()
        reports = run_probes(replace(cfg, threads=args.threads))
        out[name] = {
            "config": {
                "kind": cfg.problem.kind,
                "T": cfg.T,
                "seeds": len(cfg.seeds),
                "delta": cfg.h.delta,
                "gamma": cfg.h.gamma,
                "probes": list(cfg.probes),
            },
            "seconds": round(time.perf_counter() - started, 1),
            "probes": {probe: _probe_summary(rep) for probe, rep in reports.items()},
        }
        print(f"[{name}] {json.dumps(out[name])[:400]}", flush=True)

    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_mode_prints_every_metric_and_flags_altered_artifacts():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "sweep-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_times_add_up_to_root_time():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    def parent(f):
        return f() + f()

    leaf.__module__ = "adamabc.problems"
    parent.__module__ = "adamabc.verify"
    traced_leaf = tracer.wrap(leaf)
    tracer.wrap(parent)(traced_leaf)
    traced_leaf()
    assert tracer.calls == {"problems.leaf": 3, "verify.parent": 1}
    assert sum(tracer.self_ns.values()) == tracer.root_ns
    assert tracer.total_ns["verify.parent"] >= tracer.self_ns["verify.parent"]
    layers = tracer.layer_self_s()
    assert layers["problems"] > 0 and layers["verify"] > 0 and layers["cli"] == 0

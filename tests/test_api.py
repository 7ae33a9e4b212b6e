"""The public API, and every name the benchmark harness looks up in the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import adamabc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = (
    "__version__",
    # core
    "ConstraintViolation", "DimensionMismatch", "HyperParams", "alpha1",
    "beta2_at", "eta_at", "validate_hyperparams", "with_dim",
    # problems
    "RNG_ALGORITHM", "EmptySpectrum", "LeastSquares", "Logistic",
    "NoisyQuadratic", "Problem", "ProblemCertificate", "SingularSystem",
    "branch_samples", "default_suite", "grad", "grad_batch", "loss",
    "loss_batch", "make_least_squares", "make_logistic",
    "make_noisy_quadratic", "oracle_sample", "rng_stream",
    # optimizer
    "AdamState", "NonFiniteGradient", "adam_init", "adam_step", "run_trajectory",
    # instrumentation
    "BranchEstimate", "NegativeGap", "PiHatSeries", "TheoryTrace",
    "branch_conditional", "build_trace", "pi_hat",
    # verify
    "CheckResult", "IncompleteTrace", "check_descent_expectation",
    "check_exchange", "check_oracle_soundness", "gradcheck", "merge_results",
    "run_trace_checks",
    # experiments
    "DegenerateFit", "ExperimentConfig", "ExperimentReport", "HorizonTooShort",
    "InsufficientSeeds", "ProblemSpec", "default_checkpoints",
    "fit_loglog_slope", "run_probes", "run_sweep", "validate_config",
)


def test_public_api_is_pinned():
    assert tuple(adamabc.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(adamabc, name), name


def test_span_patches_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, attr in spans.PATCHES:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def _package_names_used(path: Path):
    """(module, attribute) for every ``alias.attr`` and ``from adamabc.x import``."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("adamabc.") and a.asname:
                    aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("adamabc"):
            for a in node.names:
                yield node.module, a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


@pytest.mark.parametrize("script", ["ladder.py", "workloads.py"])
def test_benchmark_lookups_resolve(script):
    used = set(_package_names_used(PERFBENCH / script))
    assert used  # the scan found the harness's calls
    for mod_name, attr in sorted(used):
        assert hasattr(importlib.import_module(mod_name), attr), (script, mod_name, attr)


def test_ladder_trace_method_resolves():
    # the ladder calls it on a trace object, which the scan above cannot see
    assert callable(adamabc.TheoryTrace.state_before)

"""The public API, and every name the benchmark harness looks up in the package."""

import ast
import importlib
import importlib.util
import inspect
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
    "AdamState", "NonFiniteGradient", "adam_init", "adam_step", "run_trajectories",
    "run_trajectory",
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


def _imports(tree):
    """Module aliases (``import adamabc.x as X``) and imported names
    (``from adamabc.x import f``) of a parsed script."""
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("adamabc.") and a.asname:
                    aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("adamabc"):
            for a in node.names:
                names[a.asname or a.name] = (node.module, a.name)
    return aliases, names


def _package_names_used(path: Path):
    """(module, attribute) for every ``alias.attr`` and ``from adamabc.x import``."""
    tree = ast.parse(path.read_text())
    aliases, names = _imports(tree)
    yield from names.values()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def _package_calls(path: Path):
    """(module, attribute, indexed, call) for every call of ``alias.attr(...)``,
    ``alias.attr[key](...)`` (indexed: a table of callables) or an imported
    name."""
    tree = ast.parse(path.read_text())
    aliases, names = _imports(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        indexed = isinstance(node.func, ast.Subscript)
        f = node.func.value if indexed else node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in aliases:
            yield aliases[f.value.id], f.attr, indexed, node
        elif isinstance(f, ast.Name) and f.id in names and not indexed:
            yield *names[f.id], False, node


@pytest.mark.parametrize("script", ["ladder.py", "workloads.py"])
def test_benchmark_lookups_resolve(script):
    used = set(_package_names_used(PERFBENCH / script))
    assert used  # the scan found the harness's calls
    for mod_name, attr in sorted(used):
        assert hasattr(importlib.import_module(mod_name), attr), (script, mod_name, attr)


@pytest.mark.parametrize("script", ["ladder.py", "workloads.py"])
def test_benchmark_calls_bind_to_the_package_signatures(script):
    # a removed or renamed parameter the harness passes fails here, not in a traced run
    calls = list(_package_calls(PERFBENCH / script))
    assert calls
    for mod_name, attr, indexed, call in calls:
        obj = getattr(importlib.import_module(mod_name), attr)
        args = [None] * len(call.args)
        kwargs = {k.arg: None for k in call.keywords}
        if any(isinstance(a, ast.Starred) for a in call.args) or None in kwargs:
            continue  # unpacked arguments: no count to check
        for fn in obj.values() if indexed else [obj]:
            try:
                inspect.signature(fn).bind(*args, **kwargs)
            except TypeError as e:
                pytest.fail(f"{script}:{call.lineno}: {mod_name}.{attr}: {e}")


def test_ladder_trace_method_resolves():
    # the ladder calls it on a trace object, which the scan above cannot see
    assert callable(adamabc.TheoryTrace.state_before)

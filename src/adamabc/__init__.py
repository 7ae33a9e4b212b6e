"""Study kit for a momentum method with a per-coordinate decaying second
moment: the optimizer itself, certified stochastic test problems, per-step
theory instrumentation, invariant checkers, and seed-sweep experiments.
"""

__version__ = "0.1.0"

from .core import (
    ConstraintViolation,
    DimensionMismatch,
    HyperParams,
    alpha1,
    beta2_at,
    eta_at,
    validate_hyperparams,
    with_dim,
)
from .problems import (
    RNG_ALGORITHM,
    EmptySpectrum,
    LeastSquares,
    Logistic,
    NoisyQuadratic,
    Problem,
    ProblemCertificate,
    SingularSystem,
    branch_samples,
    default_suite,
    grad,
    grad_batch,
    loss,
    loss_batch,
    make_least_squares,
    make_logistic,
    make_noisy_quadratic,
    oracle_sample,
    rng_stream,
)
from .optimizer import (
    AdamState,
    NonFiniteGradient,
    adam_init,
    adam_step,
    run_trajectory,
)
from .instrumentation import (
    BranchEstimate,
    NegativeGap,
    PiHatSeries,
    TheoryTrace,
    branch_conditional,
    build_trace,
    pi_hat,
)
from .verify import (
    CheckResult,
    IncompleteTrace,
    check_descent_expectation,
    check_exchange,
    check_oracle_soundness,
    gradcheck,
    merge_results,
    run_trace_checks,
)
from .experiments import (
    DegenerateFit,
    ExperimentConfig,
    ExperimentReport,
    HorizonTooShort,
    InsufficientSeeds,
    ProblemSpec,
    default_checkpoints,
    fit_loglog_slope,
    run_probes,
    run_sweep,
    validate_config,
)

__all__ = [
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
    "AdamState", "NonFiniteGradient", "adam_init", "adam_step",
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
]

"""Streaming subspace estimation on the Grassmannian.

The package tracks a d-dimensional subspace of R^n from a stream of
vectors using rank-one geodesic updates with adaptive step sizes, and
ships the machinery to study its convergence: similarity metrics, a
planted data model, theoretical iteration bounds with Monte Carlo
verifiers, and a reproducible experiment harness with a CLI.
"""

from .bounds import (
    BoundParams,
    PhaseReport,
    RateCheck,
    detect_phases,
    expected_eps_rate_bound,
    expected_zeta_rate_bound,
    k1_bound,
    k2_bound,
    k_total_bound,
    mc_eps_decrease_check,
    mc_eps_rate_check,
    mc_zeta_rate_check,
    mc_zeta_ratio_check,
    mu0,
)
from .checks import SUITES, PropertyResult, VerifyReport, verify
from .core import (
    OracleInfo,
    StepConfig,
    StepMode,
    StepOutcome,
    compute_alpha,
    compute_theta,
    grouse_step,
    project,
    rotate_update,
)
from .data import (
    PlantedModel,
    Sample,
    SampleBatch,
    draw_batch,
    draw_sample,
    export_basis_csv,
    export_samples_csv,
    make_planted,
)
from .harness import (
    ExperimentConfig,
    SweepConfigSummary,
    TrajectoryRow,
    TrialResult,
    bounds_table,
    config_from_dict,
    derive_trial_seed,
    run_single,
    run_sweep,
    run_trajectory,
    write_trajectory_csv,
)
from .subspaces import (
    MetricSample,
    basis_with_angles,
    basis_with_similarity,
    check_orthonormal,
    determinant_similarity,
    expected_initial_similarity,
    expected_initial_similarity_exact,
    frobenius_discrepancy,
    metric_sample,
    principal_angles,
    random_orthonormal,
    reorthonormalize,
)

__version__ = "0.1.0"

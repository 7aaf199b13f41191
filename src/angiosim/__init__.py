"""Finite-volume simulator and verification harness for a three-component
chemotaxis-convection model of tumor angiogenesis (cells, proteases,
bound attractant potential) with Neumann boundaries.

The public surface mirrors the layer structure: grids and discrete
operators, the constrained elliptic solve, the IMEX time stepper,
diagnostic functionals, threshold formulas, and the scenario harness.
"""

from .grid import (
    FLOAT_FMT,
    Field,
    Grid,
    build_grid,
    divergence_arrays,
    gradient_arrays,
    integrate,
    laplacian_array,
    lp_norm,
    mean,
    read_field_csv,
    write_field_csv,
)
from .elliptic import (
    EllipticConfig,
    EllipticSolveError,
    SpectralInfo,
    elliptic_residual,
    solve_neumann_poisson,
    solve_w,
    spectral_info,
)
from .functionals import (
    TRAJECTORY_COLUMNS,
    DiagnosticsRecord,
    InequalityCheck,
    RateFit,
    diagnostics_record,
    entropy_sandwich_check,
    fit_decay_rate,
    grad_l2,
    lyap_F1,
    lyap_F2,
    mass_balance_residual,
    relative_entropy,
    verify_interpolation_inequalities,
)
from .dynamics import (
    InitialSpec,
    ModelParams,
    SimState,
    SolverConfig,
    StepFailure,
    Stepper,
    Trajectory,
    make_initial,
    run,
    run_ensemble,
    stable_dt,
    write_trajectory_csv,
)
from .thresholds import (
    D0Check,
    GenericConstants,
    ThresholdReport,
    compute_m1,
    condition_presets,
    empirical_d0_check,
    empirical_mu_threshold,
    lambda_of_z,
    m1c_value,
    mitosis_regime_floor,
    report_csv,
    report_text,
    sigma_rate,
    structural_M0,
    structural_gradw_bound,
)
from .config import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    SweepSpec,
    parse_config,
    parse_sweep,
)
from .harness import (
    EXIT_BLOWUP,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    fit_report,
    run_scenario,
    run_sweep,
    verify_suite,
)

__version__ = "0.1.0"

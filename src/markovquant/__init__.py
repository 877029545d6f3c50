"""Quantization convergence order for Markov-type measures on graph-directed fractals.

The package predicts the exact convergence order of the L_r quantization
error for a user-specified model (transition matrix, contraction ratios,
initial distribution on a digraph) and verifies the prediction numerically:
spectral root solving, condensation analysis, maximal-antichain enumeration,
and direct quantization on a 1-D realization with rigorous two-sided bounds.
"""

from .antichain import (
    Antichain,
    CapacityError,
    DEFAULT_CAPACITY,
    SeriesRow,
    enumerate_antichain,
    implicit_exponent,
    measure_partition_sum,
    member_words,
    theorem_ratio_series,
)
from .geometry import (
    Codebook,
    CurveRow,
    CylinderGrid,
    ErrorEstimate,
    InfeasibleLayoutError,
    Realization,
    SamplingResolutionError,
    UnsupportedOrderError,
    cylinder_interval,
    discrete_cost,
    error_curve,
    grid_codebook,
    integrate_error,
    level_grid,
    lloyd_refine,
    member_sandwich,
    monte_carlo_error,
    optimal_two_point,
    quantile_codebook,
    realize,
    sample_support_points,
)
from .graphs import (
    Condensation,
    CriticalStructure,
    critical_structure,
    enumerate_chains,
    scc_condensation,
    t_r_of_path,
    visited_chain,
)
from .model import (
    InvalidWordError,
    MarkovSystem,
    ModelFormatError,
    PathWeight,
    ValidationReport,
    eta_bounds,
    load_model,
    path_weight,
    validate_system,
)
from .spectral import (
    NoCycleError,
    PowerIterationCapError,
    RowSumBounds,
    SpectralSolution,
    critical_analysis,
    row_sum_bounds,
    solve_sr,
    spectral_radius,
    transient_sums,
    weight_matrix,
)
from .verify import CheckResult, VerificationSuite, analysis_report, run_verification

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Threshold quantum state tomography.

Plan a reduced set of projective measurements from diagonal counts and a
threshold, simulate or ingest those measurements, and reconstruct the
density matrix by maximum likelihood, with fidelity diagnostics and a
provable fidelity lower bound.
"""

from .core import (
    ElementIndex,
    NumericalFailureError,
    ResourceLimitError,
    TomographyError,
    ValidityReport,
    expectation,
    load_density,
    load_factor,
    product_ket,
    save_density,
    validate_density,
)
from .metrics import (
    fidelity,
    fidelity_bound,
    joint_support,
    numerical_rank,
    purity,
    root_fidelity,
    trace_distance,
    truncate_below_threshold,
)
from .mle import CountRecord, MleOptions, ReconstructionResult, likelihood, gradient, reconstruct
from .projectors import (
    CompletenessReport,
    ProjectorTable,
    build_projector_table,
    completeness_check,
    gram_matrix,
    linear_inversion,
    projector_for,
    psd_projection,
    quadrant_walk,
)
from .settings import pauli_correlator, sample_setting_counts, setting_of, settings_for_plan
from .simulator import (
    NoiseModel,
    apply_depolarizing,
    color_code_state,
    density,
    ghz_state,
    random_filled_state,
    sample_counts,
    w_state,
)
from .threshold import (
    DiagonalRecord,
    MeasurementPlan,
    ThresholdEstimate,
    diagonal_plan,
    estimate_threshold,
    select_offdiagonal,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Nonunitary free-fermion dynamics on a tilted nonreciprocal chain.

Simulation of normalized no-jump evolution of Slater determinants under an
asymmetric-hopping chain with a linear potential, plus the analysis stack:
correlation-matrix entanglement entropies, biorthogonal spectra, localization
diagnostics, finite-size data collapse, and a config-driven sweep runner.
"""

from .entanglement import (
    block_entropy,
    entropy_profile,
    gaussian_smooth,
    half_chain_entropy,
    half_chain_entropy_from_orbitals,
    mutual_information,
    standard_probe_regions,
    steady_state_entropy,
    steady_state_start,
    subsystem_entropy,
)
from .model import (
    Boundary,
    ConsistencyReport,
    Hamiltonian,
    ModelParams,
    build_hamiltonian,
    effective_from_jumps,
    j_left,
    j_right,
    jump_consistency_report,
)
from .propagation import (
    Propagator,
    RankDeficiencyError,
    Schedule,
    SlaterState,
    TrajectoryError,
    TrajectoryRecord,
    correlation_matrix,
    density_profile,
    init_z2_state,
    make_propagator,
    run_trajectory,
    step_qr,
    trajectory_invariants,
    validate_correlation,
)
from .scaling import (
    CollapseError,
    CollapseFit,
    LogProfileFit,
    PowerLawFit,
    ScalingDataset,
    cft_log_fit,
    collapse_quality,
    fit_collapse,
    power_law_fit,
)
from .spectral import (
    BiorthogonalError,
    BiorthogonalSpectrum,
    PhaseBoundaries,
    average_fractal_dimension,
    biorthogonal_eigendecomposition,
    fractal_dimension,
    hermitize_similarity,
    phase_boundaries,
)
from .sweep import (
    Analyses,
    CollapseOptions,
    Smoothing,
    SweepConfig,
    config_from_dict,
    load_config,
    refit_collapse,
    run_spectral,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Two-photon interference simulator for a pulse-pumped type-II
downconversion polarization interferometer.

Coincidence rates are computed by summing the two-photon path amplitudes
over a joint-frequency grid; a closed-form Gaussian reference validates
the grid engine, and time-domain diagnostics expose when interference
survives without the photons ever overlapping on the beamsplitter.
"""

from .elements import RodAxis, quartz_group_delay, rod_delays
from .errors import ConfigurationError, ContractViolation
from .oracle import oracle_rate, oracle_visibility
from .pathsum import PathAmplitude, enumerate_paths
from .presets import (
    PRESET_NAMES,
    ExperimentConfig,
    GridSpec,
    SweepRow,
    preset,
    run_sweep,
)
from .scan import (
    RateKernel,
    ScanResult,
    TimeJointDensity,
    arrival_time_joint,
    coincidence_rate,
    jsa_swap_distance,
    path_overlap,
    refine_check,
    scan_delay,
)
from .spectral import (
    FrequencyGrid,
    JointSpectralAmplitude,
    SpectralParams,
    auto_grid,
    build_jsa,
    coherence_time_from_filter,
    interference_width,
    sigma_from_coherence_time,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractViolation",
    "ExperimentConfig",
    "FrequencyGrid",
    "GridSpec",
    "JointSpectralAmplitude",
    "PRESET_NAMES",
    "PathAmplitude",
    "RateKernel",
    "RodAxis",
    "ScanResult",
    "SpectralParams",
    "SweepRow",
    "TimeJointDensity",
    "arrival_time_joint",
    "auto_grid",
    "build_jsa",
    "coherence_time_from_filter",
    "coincidence_rate",
    "enumerate_paths",
    "interference_width",
    "jsa_swap_distance",
    "oracle_rate",
    "oracle_visibility",
    "path_overlap",
    "preset",
    "quartz_group_delay",
    "refine_check",
    "rod_delays",
    "run_sweep",
    "scan_delay",
    "sigma_from_coherence_time",
]

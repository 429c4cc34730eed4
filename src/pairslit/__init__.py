"""Guided two-particle trajectories behind double and facing double slits.

Exact single- and two-particle Gaussian slit states, closed-form guidance
velocities, an adaptive trajectory integrator, initial-condition samplers,
ensemble statistics, and a CLI for the packaged scenarios.
"""

from .constants import ELECTRON_MASS, HBAR
from .ensemble import (
    EnsembleResult,
    binned_tv_distance,
    density_distance,
    run_ensemble,
)
from .errors import (
    ConfigError,
    NodeProximityError,
    PairslitError,
    RegionViolationError,
    RejectionStallError,
    StepUnderflowError,
)
from .fourslit import (
    SlitRegion,
    corrected_four_slit_psi,
    corrected_velocity,
    naive_four_slit_psi,
    naive_velocity,
    region_of,
)
from .integrator import IntegratorConfig, TrajectoryStatus
from .params import (
    PairConfiguration,
    PairVelocity,
    PhysicalParams,
    SpinStatistics,
)
from .sampling import SamplerConfig, sample_initial, sample_joint_y
from .wavefunction import (
    joint_density_y,
    normalization_N,
    psi_pair,
    sigma_t,
)

__version__ = "0.1.0"

__all__ = [
    "ELECTRON_MASS",
    "HBAR",
    "ConfigError",
    "EnsembleResult",
    "IntegratorConfig",
    "NodeProximityError",
    "PairConfiguration",
    "PairVelocity",
    "PairslitError",
    "PhysicalParams",
    "RegionViolationError",
    "RejectionStallError",
    "SamplerConfig",
    "SlitRegion",
    "SpinStatistics",
    "StepUnderflowError",
    "TrajectoryStatus",
    "binned_tv_distance",
    "corrected_four_slit_psi",
    "corrected_velocity",
    "density_distance",
    "joint_density_y",
    "naive_four_slit_psi",
    "naive_velocity",
    "normalization_N",
    "psi_pair",
    "region_of",
    "run_ensemble",
    "sample_initial",
    "sample_joint_y",
    "sigma_t",
    "__version__",
]

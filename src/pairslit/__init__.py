"""Guided two-particle trajectories behind double and facing double slits.

Exact single- and two-particle Gaussian slit states, closed-form guidance
velocities with a finite-difference cross-check, an adaptive trajectory
integrator, initial-condition samplers, ensemble statistics, and a CLI for
the packaged scenarios.
"""

from .constants import ELECTRON_MASS, HBAR
from .ensemble import (
    EnsembleResult,
    binned_tv_distance,
    density_distance,
    run_ensemble,
    scaled_independent_endpoints,
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
    map_trajectory_to_double_slit,
    naive_four_slit_psi,
    naive_velocity,
    region_of,
)
from .integrator import (
    IntegratorConfig,
    Trajectory,
    TrajectoryStatus,
)
from .params import (
    PairConfiguration,
    PairVelocity,
    PhysicalParams,
    SpinStatistics,
)
from .sampling import SamplerConfig, sample_initial, sample_joint_y
from .velocity import (
    com_closed_form,
    log_gradient_velocity,
    velocity_closed_form,
    velocity_oracle,
)
from .wavefunction import (
    Slit,
    joint_density,
    joint_density_y,
    normalization_N,
    psi_pair,
    psi_slit,
    same_side_probability,
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
    "Slit",
    "SlitRegion",
    "SpinStatistics",
    "StepUnderflowError",
    "Trajectory",
    "TrajectoryStatus",
    "binned_tv_distance",
    "com_closed_form",
    "corrected_four_slit_psi",
    "corrected_velocity",
    "density_distance",
    "joint_density",
    "joint_density_y",
    "log_gradient_velocity",
    "map_trajectory_to_double_slit",
    "naive_four_slit_psi",
    "naive_velocity",
    "normalization_N",
    "psi_pair",
    "psi_slit",
    "region_of",
    "run_ensemble",
    "sample_initial",
    "sample_joint_y",
    "same_side_probability",
    "scaled_independent_endpoints",
    "sigma_t",
    "velocity_closed_form",
    "velocity_oracle",
    "__version__",
]

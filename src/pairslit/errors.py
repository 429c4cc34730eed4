"""Exception types shared across the package."""


class PairslitError(Exception):
    """Base class for all package-specific failures."""


class NodeProximityError(PairslitError):
    """Velocity or density requested too close to a wavefunction node."""


class RegionViolationError(PairslitError):
    """Configuration lies outside the spatial region a formula is valid in."""


class RejectionStallError(PairslitError):
    """Rejection sampler acceptance rate collapsed below a usable level."""


class StepUnderflowError(PairslitError):
    """Adaptive integrator cannot land a pair.

    Error control would need a step below 1e-12 of the span, likely near a
    node, or more steps than the per-pair budget allows.
    """


class ConfigError(PairslitError):
    """Scenario configuration failed validation.

    Carries one human-readable diagnostic per offending field.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

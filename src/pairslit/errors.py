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

    pairslit no longer raises it: integrate_pairs gives such a pair the end
    code NOT_INTEGRATED instead. It stays exported only for the perfbench
    smoke test that raises it, and goes together with that test.
    """


class ConfigError(PairslitError):
    """Scenario configuration failed validation.

    Carries one human-readable diagnostic per offending field.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

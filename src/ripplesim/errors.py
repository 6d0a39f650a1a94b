"""Exception types shared across the package."""


class ModelError(ValueError):
    """A plant or graph description is internally inconsistent."""


class ScenarioError(ValueError):
    """A scenario file or scenario object failed validation."""


class SolverError(RuntimeError):
    """Base class for numerical solver failures."""


class PowerFlowInfeasibleError(SolverError):
    """The grid equations admit no solution for the requested injections."""


class SingularJacobianError(SolverError):
    """The solver Jacobian became singular at the current iterate."""


class HydraulicInfeasibleError(SolverError):
    """The network flow equations could not be solved to tolerance."""


class PumpReverseFlowError(SolverError):
    """A fixed-gain pump would have to carry flow against its direction."""


class PlantSolveError(SolverError):
    """A plant evaluation failed; the message says where, then quotes the
    solver's own message, and the solver's error is the __cause__."""

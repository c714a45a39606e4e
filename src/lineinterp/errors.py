"""Exception types shared across the package.

Two branches matter for the CLI: ConfigError maps to exit code 2 (bad
configuration or input data) and NumericError maps to exit code 3 (a
computation that could not be carried out). Property-check failures are not
exceptions; commands report them through exit code 1.
"""


class LineInterpError(Exception):
    """Base class for all package errors."""


class ConfigError(LineInterpError):
    """Invalid configuration or input data."""


class NumericError(LineInterpError):
    """Numeric or construction failure at runtime."""


class ParseError(ConfigError):
    """Malformed decimal string, complex payload, or data file."""


class ArityError(ConfigError):
    """Not enough nodes or coefficients for the requested order."""


class DomainError(ConfigError):
    """Operation arguments outside the documented domain."""


class SeparationError(ConfigError):
    """Reduction center coincides with (or touches) a node."""


class NodeDistinctnessError(NumericError):
    """Exactly coincident nodes where pairwise distinct ones are required."""


class UnsuitableKernelError(NumericError):
    """Kernel whose conjugate derivative vanishes at the origin."""


class ConstructionFailureError(NumericError):
    """Adversarial construction exhausted its budget.

    Carries the partial stage log so callers can inspect how far it got.
    """

    def __init__(self, message, stage_log=None):
        super().__init__(message)
        self.stage_log = list(stage_log or [])

"""Exception types shared across the package.

Two failure families matter to callers (and map to CLI exit codes):
user-facing configuration problems and violated internal contracts.
"""


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration: bad parameter values, unknown
    preset or sweep axis, undersized grids, malformed config files."""


class ContractViolation(RuntimeError):
    """An internal numerical contract was broken: amplitude factors of the
    wrong dtype, length or size, zero-norm inputs to normalized
    quantities."""

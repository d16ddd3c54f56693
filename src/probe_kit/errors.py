"""Exception types shared across the package.

Plain ValueError is used for domain errors (bad arguments, elements outside
the ground set, dependent sets where independent ones are required).
"""


class CapabilityError(RuntimeError):
    """Instance too large for an exact code path: a ground set above
    `matroids.GROUND_CAP`, checked when a matroid or an objective (each a
    table over all 2^n masks) is built, or above `oracle.DP_CAP` for the adaptive
    DP, whose value `run` then reports as null."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug, never user error."""


class VerificationError(RuntimeError):
    """A verification check (cmd_verify / property certification) failed."""

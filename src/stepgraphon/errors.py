"""Exception hierarchy shared across the package.

Every exception carries enough context (offending index, residual, ...)
to be actionable from the CLI without a traceback.
"""


class StepGraphonError(Exception):
    """Base class for all validation and computation errors."""


class AsymmetricValues(StepGraphonError):
    def __init__(self, i, j, vij, vji):
        self.index = (i, j)
        super().__init__(
            f"value matrix not symmetric at ({i}, {j}): {float(vij)!r} != {float(vji)!r}"
        )


class WeightsNotNormalized(StepGraphonError):
    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class ValueOutOfRange(StepGraphonError):
    def __init__(self, i, j, value, lo, hi):
        self.index = (i, j)
        super().__init__(
            f"value {float(value)!r} at ({i}, {j}) outside [{lo}, {hi}]"
        )


class PartitionMismatch(StepGraphonError):
    """Partition source side does not match the graphon's block weights."""


class MarginalMismatch(StepGraphonError):
    """Coupling marginals do not match the prescribed mass vectors."""


class ResolutionIncompatible(StepGraphonError):
    """Block weights are not representable on the requested grid."""


class TooManyBlocksForExact(StepGraphonError):
    """Exact cut-norm enumeration is capped at 24 blocks."""


class EmptySet(StepGraphonError):
    """Hausdorff distance of an empty point set is undefined."""


class SolverFailure(StepGraphonError):
    """Numerical breakdown in an LP solve or a shadow coupling (distinct from infeasibility)."""


class NoInteriorValues(StepGraphonError):
    """Strictification needs some block value in [eps, 1-eps] on positive mass."""


class ScalingDiverged(StepGraphonError):
    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"marginal scaling residual {residual:g} after {iterations} iterations"
        )


class ProvenanceMismatch(StepGraphonError):
    """Cut-set partitions do not match its matrices, part masses or source weights."""


class DimensionMismatch(StepGraphonError):
    """Matrix sets with different part counts cannot be compared."""


class UnsupportedEps(StepGraphonError):
    """Named-graphon eps must be 2**-k with 3 <= k <= 10."""

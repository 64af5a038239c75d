"""Step-graphon calculus.

Block-structured kernels on the unit square with the metric, order and
measure machinery needed to probe cut-distance convergence through weak*
topology diagnostics: cut norms with box witnesses, coupling-based cut
distances, truncated weak* metrics, pushforward measures with a flatness
order decided by LP feasibility, envelope sampling with a hyperspace
distance estimate, and multiway cut matrix sets.
"""

from .core import (
    Coupling,
    PartitionSpec,
    SignedStepKernel,
    StepFunction1D,
    StepGraphon,
    common_refinement,
    edge_density,
    grid_version,
    int_f,
    interlace_version,
    l1_distance,
    overlap_coupling,
    rectangle_integral,
    reorder_by_ordered_partition,
    split_reconstruct,
    stepping,
)
from .errors import (
    AsymmetricValues,
    DimensionMismatch,
    EmptySet,
    MarginalMismatch,
    NoInteriorValues,
    PartitionMismatch,
    ProvenanceMismatch,
    ResolutionIncompatible,
    ScalingDiverged,
    SolverFailure,
    StepGraphonError,
    TooManyBlocksForExact,
    UnsupportedEps,
    ValueOutOfRange,
    WeightsNotNormalized,
)
from .measures import (
    DiscreteMeasure,
    FlatnessWitness,
    check_flatter,
    compose_couplings,
    degree_frequencies,
    range_frequencies,
)
from .metrics import (
    CutNormResult,
    cut_distance,
    cut_norm,
    cut_norm_distance,
    l1_hausdorff,
    weak_star_distance,
)
from .multiway import (
    MultiwayMatrixSet,
    multiway_hausdorff,
    multiway_matrix,
    sample_multiway_set,
)
from .named import build_named_graphon
from .order import (
    EnvelopeSample,
    OrderVerdict,
    chi_estimate,
    order_check,
    sample_envelope,
    strictify,
)

__version__ = "0.1.0"

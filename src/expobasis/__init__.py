"""Exponential Riesz bases on finite unions of unit intervals.

Construct certified bases on perturbed interval unions, lattice subsets, and
punctured blocks; check every certificate against an exact singular-value
oracle or a sampled Gram quadratic form.
"""

from .clusters import (
    ClusterPartition,
    cluster_spectrum,
    default_threshold,
    partition_by_coherence,
    principal_angle_check,
)
from .constructions import (
    BetaSolution,
    CONSTRUCTIONS,
    FrameCertificate,
    METHODS,
    associated_matrix,
    certificate_from_json,
    certificate_to_json,
    certify_lattice_subset,
    certify_lattice_subset_paired,
    complement_certificate,
    construct_interval_removal,
    construct_perturbed_union,
    delta_window_interval_removal,
    delta_window_perturbed_union,
    residue_orthogonal_basis,
    separation_margin,
    solve_beta,
    threshold_u,
)
from .domains import (
    ExponentSystem,
    as_fraction,
    residues_distinct,
    validated_intervals,
)
from .errors import (
    ClusterSizeError,
    ComplementRangeError,
    DeltaWindowError,
    EpsilonError,
    ExpobasisError,
    LatticeError,
    OverlapError,
    PreconditionError,
    RankDeficientError,
    ResidueClashError,
    SeparationError,
    ThresholdError,
    VerificationError,
)
from .spectral import (
    SingularSpectrum,
    is_singular,
    optimal_frame_constants,
    singular_values,
)
from .verify import (
    DEFAULT_SEED,
    GramForm,
    RatioSample,
    RegressionResult,
    VerificationReport,
    gram_entry,
    gram_matrix,
    regression_examples,
    riesz_ratio_sample,
    verify_certificate,
)
from .vandermonde import (
    NodeMatrix,
    build_gamma,
    progression_matrix,
    sin_ratio,
)

__version__ = "0.1.0"

"""Exponential Riesz bases on finite unions of unit intervals.

Construct certified bases on perturbed interval unions, lattice subsets, and
punctured blocks; check every certificate against an exact singular-value
oracle or a sampled Gram quadratic form.
"""

from .clusters import (
    ClusterPartition,
    SpectrumSandwich,
    cluster_spectrum,
    default_threshold,
    partition_by_coherence,
    principal_angle_check,
    sandwich,
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
    shifted_sine_ratio_increasing,
    signed_sin_ratio,
    solve_beta,
    subset_basis,
    threshold_u,
    unit_gap_coherence_bounded,
)
from .domains import (
    ExponentSystem,
    as_fraction,
    lcd,
    rescale_system,
    residues_distinct,
    validated_intervals,
)
from .errors import (
    AngleConditionError,
    ClusterSizeError,
    ComplementRangeError,
    DeltaWindowError,
    EmptyDeltaWindowError,
    EpsilonError,
    ExpobasisError,
    LatticeError,
    OverlapError,
    PreconditionError,
    RankDeficientError,
    RegressionFailure,
    ResidueClashError,
    SeparationError,
    ThresholdError,
    VerificationError,
)
from .spectral import (
    Condition,
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
    adaptive_simpson,
    bessel_check_restriction,
    bessel_restriction_sample,
    gram_entry,
    gram_matrix,
    intervals_contained,
    regression_examples,
    riesz_ratio_sample,
    verify_certificate,
)
from .vandermonde import (
    NodeMatrix,
    build_gamma,
    coherence,
    progression_matrix,
    sin_ratio,
)

__version__ = "0.1.0"

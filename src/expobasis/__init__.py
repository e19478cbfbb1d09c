"""Exponential Riesz bases on finite unions of unit intervals.

Construct certified bases on perturbed interval unions, lattice subsets, and
punctured blocks; check every certificate against its node matrix's singular
values, where it has a square one, and against its sampled Gram quadratic form.

The constructions, the clusters, the domains and the errors need no numpy
and load with the package.  The re-exports of the numpy modules
(``spectral``, ``verify``, ``vandermonde``) load on first use through
``_LAZY``, so ``certify`` and ``beta`` start without numpy.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .clusters import (
    ClusterPartition,
    cluster_spectrum,
    default_threshold,
    partition_by_coherence,
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
    sin_ratio,
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

#: re-export -> home module, for the modules that load numpy
_LAZY = {name: module for module, names in {
    "spectral": ("SingularSpectrum", "is_singular", "optimal_frame_constants",
                 "principal_angle_check", "singular_values"),
    "verify": ("DEFAULT_SEED", "GramForm", "RatioSample", "RegressionResult",
               "VerificationReport", "gram_matrix", "regression_examples",
               "riesz_ratio_sample", "verify_certificate"),
    "vandermonde": ("NodeMatrix", "build_gamma", "progression_matrix"),
}.items() for name in names}

__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))] + list(_LAZY)


def __getattr__(name: str):
    """A lazy re-export, imported from its home module once and then kept here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

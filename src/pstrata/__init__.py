"""Exact lower p-series of Z_p-lattices, stratifications, Hausdorff dimensions.

The package computes, in exact integer arithmetic at a fixed p-adic
precision, the descending series a pro-p matrix group carves out of a
lattice; reads the rational growth rate of each coordinate off the
period of its divisor exponents; extracts and certifies an adapted basis
(the frame) together with a two-sided containment constant; and
evaluates Hausdorff dimensions and full dimension spectra of closed
subgroups against the certified data.
"""

from .errors import (
    EnumerationTooLarge,
    FrameRejected,
    InvalidShape,
    NoStableFit,
    NotABoundary,
    NotContained,
    NotInvariant,
    PrecisionExhausted,
    PstrataError,
    RankDeficient,
    RateOutOfRange,
)
from .lattice import (
    Lattice,
    divisor_profile,
    log_index,
)
from .gmodule import (
    GroupAction,
    SeriesTrace,
    check_invariance,
    lower_p_series,
    restrict_action,
)
from .strata import (
    CycleCertificate,
    RateVector,
    Stratification,
    StrataSplit,
    certify_equivalence,
    detect_cycle,
    estimate_rates,
    extract_frame,
    fit_rational,
    run_stratification,
    strata_split,
)
from .hausdorff import (
    DimensionReport,
    SubgroupSpec,
    dimension_report,
    echelon_pivots,
    hdim_exact,
    hdim_numeric,
    spectrum,
)
from .catalog import (
    ExampleBundle,
    build_Gm_lattice,
    build_eisenstein,
    build_remark_module,
    build_trivial,
    catalog_names,
    get_bundle,
    random_block_action,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PstrataError",
    "PrecisionExhausted",
    "NotContained",
    "NotInvariant",
    "NoStableFit",
    "RateOutOfRange",
    "FrameRejected",
    "NotABoundary",
    "RankDeficient",
    "EnumerationTooLarge",
    "InvalidShape",
    # lattice
    "Lattice",
    "log_index",
    "divisor_profile",
    # gmodule
    "GroupAction",
    "SeriesTrace",
    "check_invariance",
    "lower_p_series",
    "restrict_action",
    # strata
    "RateVector",
    "CycleCertificate",
    "Stratification",
    "StrataSplit",
    "fit_rational",
    "estimate_rates",
    "detect_cycle",
    "extract_frame",
    "certify_equivalence",
    "strata_split",
    "run_stratification",
    # hausdorff
    "SubgroupSpec",
    "DimensionReport",
    "echelon_pivots",
    "hdim_exact",
    "hdim_numeric",
    "dimension_report",
    "spectrum",
    # catalog
    "ExampleBundle",
    "build_trivial",
    "build_eisenstein",
    "build_Gm_lattice",
    "build_remark_module",
    "random_block_action",
    "get_bundle",
    "catalog_names",
]

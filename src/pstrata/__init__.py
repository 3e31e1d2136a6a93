"""Exact lower p-series of Z_p-lattices, stratifications, Hausdorff dimensions.

The package computes, in exact integer arithmetic at a fixed p-adic
precision, the descending series a pro-p matrix group carves out of a
lattice; fits the rational growth rate of each coordinate; extracts and
certifies an adapted basis (the frame) together with a two-sided
containment constant; and evaluates Hausdorff dimensions and full
dimension spectra of closed subgroups against the certified data.
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
    coords_in,
    divisor_profile,
    lattice_from_json,
    lattice_intersect,
    lattice_sum,
    lattice_to_json,
    log_index,
)
from .gmodule import (
    GroupAction,
    SeriesTrace,
    action_from_json,
    action_to_json,
    check_invariance,
    lower_p_series,
    restrict_action,
    trace_to_csv,
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
    fixed_space_rows,
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
    "lattice_sum",
    "lattice_intersect",
    "log_index",
    "divisor_profile",
    "coords_in",
    "lattice_to_json",
    "lattice_from_json",
    # gmodule
    "GroupAction",
    "SeriesTrace",
    "check_invariance",
    "lower_p_series",
    "restrict_action",
    "action_to_json",
    "action_from_json",
    "trace_to_csv",
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
    "fixed_space_rows",
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

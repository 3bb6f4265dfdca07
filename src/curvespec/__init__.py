"""Exact Hodge spectra of plane curve arrangements with ordinary multiple points.

The spectrum of a homogeneous polynomial in three variables whose reduced
zero set is a curve arrangement with only ordinary singularities depends
only on discrete data: component degrees and multiplicities plus the branch
multiplicities at each singular point.  This package computes it two
independent ways, from closed combinatorial formulas
(:mod:`curvespec.formulas`) and from a characteristic-class pipeline on the
blown-up plane (:mod:`curvespec.riemann_roch`), and ships a CLI that
cross-validates the two on demand.
"""

from .arrangement import (
    ArrangementFormatError,
    ArrangementGraph,
    Branch,
    Component,
    DerivedData,
    InvalidArrangementError,
    SingularPoint,
    ValidationReport,
    derived,
    graph_from_dict,
    graph_to_dict,
    load_arrangement,
    require_valid,
    validate,
)
from .binomial import binom, ceil_div
from .cohomology import CohClass
from .formulas import (
    spectrum_binary_linear,
    spectrum_general,
    spectrum_hyperplane,
    spectrum_irreducible_power,
    spectrum_isolated,
    spectrum_reduced,
    spectrum_smooth_components,
)
from .lines import incidence_graph, load_lines, normalize_form
from .randomgraphs import GraphBounds, SplitMix64, generate_graph
from .riemann_roch import (
    chern_cotangent_log,
    chern_tangent,
    euler_characteristic,
    spectrum_via_riemann_roch,
    todd,
    twist_class,
)
from .spectrum import (
    Spectrum,
    SpectrumParseError,
    dummy_shift,
    format_spectrum,
    parse_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ArrangementFormatError",
    "ArrangementGraph",
    "Branch",
    "CohClass",
    "Component",
    "DerivedData",
    "GraphBounds",
    "InvalidArrangementError",
    "SingularPoint",
    "Spectrum",
    "SpectrumParseError",
    "SplitMix64",
    "ValidationReport",
    "binom",
    "ceil_div",
    "chern_cotangent_log",
    "chern_tangent",
    "derived",
    "dummy_shift",
    "euler_characteristic",
    "format_spectrum",
    "generate_graph",
    "graph_from_dict",
    "graph_to_dict",
    "incidence_graph",
    "load_arrangement",
    "load_lines",
    "normalize_form",
    "parse_spectrum",
    "require_valid",
    "spectrum_binary_linear",
    "spectrum_general",
    "spectrum_hyperplane",
    "spectrum_irreducible_power",
    "spectrum_isolated",
    "spectrum_reduced",
    "spectrum_smooth_components",
    "spectrum_via_riemann_roch",
    "todd",
    "twist_class",
    "validate",
]

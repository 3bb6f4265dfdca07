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
    InvalidArrangementError,
    SingularPoint,
    ValidationReport,
    graph_from_dict,
    graph_to_dict,
    load_arrangement,
    require_valid,
    validate,
)
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
from .riemann_roch import spectrum_via_riemann_roch
from .spectrum import Spectrum, SpectrumParseError, format_spectrum, parse_spectrum

__version__ = "0.1.0"

__all__ = [
    "ArrangementFormatError",
    "ArrangementGraph",
    "Branch",
    "Component",
    "GraphBounds",
    "InvalidArrangementError",
    "SingularPoint",
    "Spectrum",
    "SpectrumParseError",
    "SplitMix64",
    "ValidationReport",
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
    "validate",
]

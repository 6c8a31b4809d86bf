"""Acyclic edge coloring toolkit for triangle-free 1-planar graphs."""

from .coloring import (
    BichromaticPath,
    EdgeColoring,
    ExtensionProbe,
    VerifyReport,
    extension_probe,
    format_coloring,
    parse_coloring,
    verify,
)
from .graph import Graph, format_graph, parse_graph
from .kernel import BACKEND as KERNEL_BACKEND
from .solver import (
    DEFAULT_SLACK,
    ExactResult,
    SolveOutcome,
    acyclic_lower_bound,
    edge_insertion_order,
    exact_acyclic_index,
    has_acyclic_coloring,
    heuristic_color,
    repair_exchange_pair,
    repair_recolor_single,
)

__version__ = "0.1.0"

__all__ = [
    "BichromaticPath",
    "DEFAULT_SLACK",
    "EdgeColoring",
    "ExactResult",
    "ExtensionProbe",
    "Graph",
    "KERNEL_BACKEND",
    "SolveOutcome",
    "VerifyReport",
    "acyclic_lower_bound",
    "edge_insertion_order",
    "exact_acyclic_index",
    "extension_probe",
    "format_coloring",
    "format_graph",
    "has_acyclic_coloring",
    "heuristic_color",
    "parse_coloring",
    "parse_graph",
    "repair_exchange_pair",
    "repair_recolor_single",
    "verify",
]

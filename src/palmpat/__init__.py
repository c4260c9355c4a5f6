"""Spatial point-pattern statistics, bimodal cluster-process simulation,
and detection postprocessing."""

from .detections import (
    DetectionSet,
    MatchReport,
    TileLayout,
    centers,
    match_counts,
    merge_nms,
    to_global,
)
from .envelope import EnvelopeResult, envelope, simulate_csr
from .errors import InvalidInputError
from .geometry import (
    Box,
    Point,
    PointPattern,
    Window,
    euclidean_distance,
    iou,
    nearest_neighbor_distances,
)
from .reproduction import (
    FitCell,
    FitResult,
    ReproductionParams,
    SimulationDiagnostics,
    discrepancy,
    fit,
    simulate_reproduction,
    trapezoid_integrate,
)
from .ripley import (
    DistanceGrid,
    NeighborStats,
    RipleyCurve,
    f_function,
    g_function,
    j_function,
    nn_stats,
)
from .seeding import DEFAULT_SEED, substream_seed

__version__ = "0.1.0"

__all__ = [
    "Box",
    "DEFAULT_SEED",
    "DetectionSet",
    "DistanceGrid",
    "EnvelopeResult",
    "FitCell",
    "FitResult",
    "InvalidInputError",
    "MatchReport",
    "NeighborStats",
    "Point",
    "PointPattern",
    "ReproductionParams",
    "RipleyCurve",
    "SimulationDiagnostics",
    "TileLayout",
    "Window",
    "centers",
    "discrepancy",
    "envelope",
    "euclidean_distance",
    "f_function",
    "fit",
    "g_function",
    "iou",
    "j_function",
    "match_counts",
    "merge_nms",
    "nearest_neighbor_distances",
    "nn_stats",
    "simulate_csr",
    "simulate_reproduction",
    "substream_seed",
    "to_global",
    "trapezoid_integrate",
]

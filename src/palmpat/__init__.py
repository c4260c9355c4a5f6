"""Spatial point-pattern statistics, bimodal cluster-process simulation,
and detection postprocessing."""

from .detections import (
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
    PointPattern,
    Window,
    iou,
    nearest_neighbor_distances,
)
from .reproduction import (
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
    "DistanceGrid",
    "EnvelopeResult",
    "FitResult",
    "InvalidInputError",
    "MatchReport",
    "NeighborStats",
    "PointPattern",
    "ReproductionParams",
    "SimulationDiagnostics",
    "TileLayout",
    "Window",
    "centers",
    "discrepancy",
    "envelope",
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

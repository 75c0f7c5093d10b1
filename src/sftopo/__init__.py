"""Topological analysis of piecewise-linear scalar fields.

Critical points, persistence diagrams and curves, merge and contour
trees, discrete gradients with PL-compliance enforcement, Morse-Smale
separatrices/segmentations, and persistence-driven simplification, on
explicit triangulations or implicitly triangulated regular grids.
"""

from .compliance import (
    ComplianceReport,
    enforce_compliance,
    match_critical_simplices,
)
from .critical import PLCriticalPoint, extract_critical_points
from .gradient import (
    DiscreteGradient,
    VPath,
    build_gradient,
    gradient_is_acyclic,
    pairing_is_valid,
    reverse_vpath,
)
from .io import DataError, DatasetSpec, load, read_field, read_off, \
    read_offsets
from .morse import (
    Separatrix,
    ascending_segmentation,
    descending_segmentation,
    extract_separatrices,
)
from .order import OrderField
from .simplify import (
    SimplificationError,
    SimplificationRequest,
    select_by_persistence,
    simplify_field,
)
from .trees import (
    CLASS_ESSENTIAL,
    CLASS_MIN_SADDLE,
    CLASS_SADDLE_MAX,
    CLASS_SADDLE_SADDLE,
    ContourTree,
    DomainTopologyError,
    MergeTree,
    PersistenceDiagram,
    PersistencePair,
    build_diagram,
    build_merge_tree,
    combine_contour_tree,
    persistence_curve,
    persistence_pairs_extrema,
)
from .triangulation import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    SimplexRef,
    Triangulation,
    TriangulationError,
)

__version__ = "0.1.0"

__all__ = [
    "CLASS_ESSENTIAL",
    "CLASS_MIN_SADDLE",
    "CLASS_SADDLE_MAX",
    "CLASS_SADDLE_SADDLE",
    "ComplianceReport",
    "ContourTree",
    "DataError",
    "DatasetSpec",
    "DiscreteGradient",
    "DomainTopologyError",
    "ExplicitTriangulation",
    "ImplicitGridTriangulation",
    "MergeTree",
    "OrderField",
    "PLCriticalPoint",
    "PersistenceDiagram",
    "PersistencePair",
    "Separatrix",
    "SimplexRef",
    "SimplificationError",
    "SimplificationRequest",
    "Triangulation",
    "TriangulationError",
    "VPath",
    "ascending_segmentation",
    "build_diagram",
    "build_gradient",
    "build_merge_tree",
    "combine_contour_tree",
    "descending_segmentation",
    "enforce_compliance",
    "extract_critical_points",
    "extract_separatrices",
    "gradient_is_acyclic",
    "load",
    "match_critical_simplices",
    "pairing_is_valid",
    "persistence_curve",
    "persistence_pairs_extrema",
    "read_field",
    "read_off",
    "read_offsets",
    "reverse_vpath",
    "select_by_persistence",
    "simplify_field",
]

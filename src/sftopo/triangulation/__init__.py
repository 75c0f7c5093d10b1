"""Cached 2D/3D triangulation data structures (explicit and implicit)."""

from .base import (
    QUERY_KINDS,
    DomainTopologyError,
    SimplexRef,
    Triangulation,
    TriangulationError,
    validate_pseudo_manifold,
)
from .explicit import ExplicitTriangulation
from .implicit import ImplicitGridTriangulation

__all__ = [
    "DomainTopologyError",
    "ExplicitTriangulation",
    "ImplicitGridTriangulation",
    "QUERY_KINDS",
    "SimplexRef",
    "Triangulation",
    "TriangulationError",
    "validate_pseudo_manifold",
]

"""Morse-Smale segmentation and separatrix geometry.

The descending segmentation labels every vertex with the minimum its
gradient path reaches; the ascending segmentation labels every d-cell
with the maximum its inverse path reaches (cells whose walk drains
through the boundary get label -1).  Both are pointer doubling over the
gradient module's ``_successors`` step.  Separatrices are emitted as
barycentric polylines: minimum/saddle and saddle/maximum curves follow
``_walks`` out of every critical edge and facet, and (3D) saddle/saddle
connectors the first descending (1, 2) V-path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import (
    DiscreteGradient,
    _first_vpath,
    _successors,
    _vpath_counts,
    _walk_arrays,
    _walks,
)
from .order import _pointer_jump


def _segmentation(grad, ascending):
    """The end of every node's walk, -1 where it leaves the domain."""
    ends = _pointer_jump(_successors(*_walk_arrays(grad, ascending)))[:-1]
    ends[ends == len(ends)] = -1
    return ends


def descending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-vertex label: the critical vertex its descending path reaches."""
    return _segmentation(grad, False)


def ascending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-d-cell label: the critical cell its ascending walk reaches.

    Walks that exit through a boundary facet get label -1.
    """
    return _segmentation(grad, True)


@dataclass
class Separatrix:
    """A polyline between two critical simplices.

    ``kind`` is "min-saddle", "saddle-max", or "saddle-saddle";
    ``source``/``target`` are (dim, id) pairs (target may be None when
    the path leaves the domain); ``points`` is an (n, 3) array.
    """

    kind: str
    source: tuple
    target: tuple | None
    points: np.ndarray


def _polyline(head, odd, even, tail=None) -> np.ndarray:
    """Rows ``head, odd[0], even[0], odd[1], even[1], ..., tail``."""
    m = len(odd)
    out = np.empty((2 * m + 1 + (tail is not None), 3))
    out[0] = head
    out[1:2 * m:2] = odd
    out[2:2 * m + 1:2] = even
    if tail is not None:
        out[-1] = tail
    return out


def extract_separatrices(grad: DiscreteGradient) -> list:
    """All 1-separatrices of the gradient, deterministic order.

    Saddle/extremum curves follow the unique walks out of every
    critical (d-1)-simplex (up) and critical edge (down); in 3D one
    representative connector polyline is emitted per critical
    triangle/edge V-path family (the first path in depth-first order).
    Polyline points are vertex positions and simplex barycenters, the
    latter taken for every simplex at once from ``point_array``.
    """
    d = grad.tri.dim
    points = grad.tri.point_array()
    center = [points] + [points[rows].mean(axis=1) for rows in grad.verts[1:]]

    def ids(seq):
        return np.array(seq, dtype=np.int64)

    out = []
    for kind, k, node_dim in (("min-saddle", 1, 0), ("saddle-max", d - 1, d)):
        rows, via = _walk_arrays(grad, node_dim == d)
        for root in grad.critical_ids(k):
            for nodes in _walks(rows, via, root):
                end, body = nodes[-1], ids(nodes[:-1])
                target = tail = None
                if end >= 0:
                    target, tail = (node_dim, end), center[node_dim][end]
                out.append(Separatrix(
                    kind, (k, root), target,
                    _polyline(center[k][root], center[node_dim][body],
                              center[k][via[body]], tail)))
    if d == 3:
        targets = set(grad.critical_ids(1))
        memo = {}
        for tau in grad.critical_ids(2):
            for e in sorted(_vpath_counts(grad, 1, tau, targets, memo)):
                pairs = _first_vpath(grad, 1, tau, e, memo).pairs
                lows, highs = ids(pairs).reshape(-1, 2).T
                out.append(Separatrix(
                    "saddle-saddle", (2, tau), (1, e),
                    _polyline(center[2][tau], center[1][lows],
                              center[2][highs], center[1][e])))
    return out


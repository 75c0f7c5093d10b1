"""Morse-Smale segmentation and separatrix geometry.

The descending segmentation labels every vertex with the minimum its
gradient path reaches; the ascending segmentation labels every d-cell
with the maximum its inverse path reaches (cells whose walk drains
through the boundary get label -1).  Both are pointer doubling over one
step per simplex, read from the gradient's arrays: a paired vertex
steps to the other end of its edge, a paired d-cell to the other
co-face of its facet, and a critical simplex to itself.  Separatrices
are emitted as barycentric polylines: minimum/saddle curves,
saddle/maximum curves, and (3D) saddle/saddle connectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import (
    DiscreteGradient,
    _first_vpath,
    _vpath_counts,
    trace_down_from_edge,
    trace_up_from_facet,
)
from .order import _pointer_jump


def descending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-vertex label: the critical vertex its descending path reaches."""
    up = grad.pair_up[0]
    nxt = np.arange(len(up), dtype=np.int64)
    v = np.flatnonzero(up >= 0)
    a, b = grad.verts[1][up[v]].T
    nxt[v] = np.where(a == v, b, a)
    return _pointer_jump(nxt)


def ascending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-d-cell label: the critical cell its ascending walk reaches.

    Walks that exit through a boundary facet get label -1.
    """
    down = grad.pair_down[grad.tri.dim]
    n = len(down)
    nxt = np.arange(n + 1, dtype=np.int64)      # slot n: the boundary
    c = np.flatnonzero(down >= 0)
    a, b = grad.cofacets[down[c], :2].T
    other = np.where(a == c, b, a)
    nxt[c] = np.where(other < 0, n, other)
    labels = _pointer_jump(nxt)[:n]
    labels[labels == n] = -1
    return labels


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
    for e in grad.critical_ids(1):
        for path in trace_down_from_edge(grad, e):
            lows, highs = ids(path.pairs).reshape(-1, 2).T
            out.append(Separatrix(
                "min-saddle", (1, e), (0, path.lower),
                _polyline(center[1][e], points[lows], center[1][highs],
                          points[path.lower])))
    for s in grad.critical_ids(d - 1):
        for path in trace_up_from_facet(grad, s):
            lows, highs = ids(path.pairs[::-1]).reshape(-1, 2).T
            target = tail = None
            if path.upper is not None:
                target = (d, path.upper)
                tail = center[d][path.upper]
            out.append(Separatrix(
                "saddle-max", (d - 1, s), target,
                _polyline(center[d - 1][s], center[d][highs],
                          center[d - 1][lows], tail)))
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


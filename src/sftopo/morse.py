"""Morse-Smale segmentation and separatrix geometry.

The descending segmentation labels every vertex with the minimum its
gradient path reaches; the ascending segmentation labels every d-cell
with the maximum its inverse path reaches (cells whose walk drains
through the boundary get label -1).  Separatrices are emitted as
barycentric polylines: minimum/saddle curves, saddle/maximum curves,
and (3D) saddle/saddle connectors.
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


def descending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-vertex label: the critical vertex its descending path reaches."""
    n = grad.tri.simplex_count(0)
    up = grad.pair_up[0].tolist()
    edges = grad.verts[1].tolist()
    labels = [-1] * n
    for v in range(n):
        if labels[v] >= 0:
            continue
        path = []
        cur = v
        while labels[cur] < 0 and up[cur] >= 0:
            path.append(cur)
            a, b = edges[up[cur]]
            cur = b if a == cur else a
        dest = labels[cur] if labels[cur] >= 0 else cur
        labels[cur] = dest
        for u in path:
            labels[u] = dest
    return np.array(labels, dtype=np.int64)


def ascending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-d-cell label: the critical cell its ascending walk reaches.

    Walks that exit through a boundary facet get label -1.
    """
    d = grad.tri.dim
    n = grad.tri.simplex_count(d)
    down = grad.pair_down[d].tolist()
    cof = grad.cofacets[:, :2].tolist()
    labels = [-2] * n
    for y in range(n):
        if labels[y] != -2:
            continue
        path = []
        cur = y
        while labels[cur] == -2:
            if down[cur] < 0:                   # critical cell
                labels[cur] = cur
                break
            path.append(cur)
            a, b = cof[down[cur]]
            nxt = b if a == cur else a
            if nxt < 0:                          # drains through the boundary
                labels[cur] = -1
                break
            cur = nxt
        dest = labels[cur]
        for u in path:
            labels[u] = dest
    return np.array(labels, dtype=np.int64)


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


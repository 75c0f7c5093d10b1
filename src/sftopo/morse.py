"""Morse-Smale segmentation and separatrix geometry.

The descending segmentation labels every vertex with the minimum its
gradient path reaches; the ascending segmentation labels every d-cell
with the maximum its inverse path reaches (cells whose walk drains
through the boundary get label -1).  Both are the gradient module's
walk-end table, ``_walk_ends``.  Separatrices are emitted as
barycentric polylines: minimum/saddle and saddle/maximum curves follow
the walks out of every critical edge and facet, taken for all roots at
once by ``_lockstep_walks``, and (3D) saddle/saddle connectors the
first descending (1, 2) V-path.  The points of each kind of curve fill
one buffer, placed by index arithmetic, with one barycentre gather per
dimension over only the simplices the polylines use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import (
    DiscreteGradient,
    _first_vpath,
    _lockstep_walks,
    _vpath_counts,
    _walk_arrays,
    _walk_ends,
)


def descending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-vertex label: the critical vertex its descending path reaches."""
    return _walk_ends(grad, False)[:-1]


def ascending_segmentation(grad: DiscreteGradient) -> np.ndarray:
    """Per-d-cell label: the critical cell its ascending walk reaches.

    Walks that exit through a boundary facet get label -1.
    """
    return _walk_ends(grad, True)[:-1]


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


def _centers(grad, k, ids) -> np.ndarray:
    """Barycentres of the k-simplices ``ids``; vertex positions for k=0."""
    points = grad.tri.point_array()
    return points[ids] if k == 0 else points[grad.verts[k][ids]].mean(axis=1)


def _polylines(grad, a, b, heads, bounds, odd, even, tails) -> list:
    """Polyline ``i`` is ``heads[i]``, then ``odd[j], even[j]`` for ``j``
    in ``bounds[i]:bounds[i + 1]``, then ``tails[i]`` unless it is -1.

    Heads and ``even`` are a-simplices, ``odd`` and tails b-simplices.
    Each polyline is a slice of one ``(N, 3)`` buffer whose rows are
    placed by index arithmetic and filled by one barycentre gather per
    dimension.
    """
    lengths = np.diff(bounds)
    tailed = tails >= 0
    starts = np.zeros(len(heads) + 1, dtype=np.int64)
    np.cumsum(1 + 2 * lengths + tailed, out=starts[1:])
    ids = np.empty(starts[-1], dtype=np.int64)
    in_b = np.zeros(starts[-1], dtype=bool)
    ids[starts[:-1]] = heads
    at = np.repeat(starts[:-1] + 1 - 2 * bounds[:-1], lengths) \
        + 2 * np.arange(len(odd))
    ids[at], ids[at + 1], in_b[at] = odd, even, True
    at = starts[1:][tailed] - 1
    ids[at], in_b[at] = tails[tailed], True
    buf = np.empty((len(ids), 3))
    buf[~in_b] = _centers(grad, a, ids[~in_b])
    buf[in_b] = _centers(grad, b, ids[in_b])
    starts = starts.tolist()
    return [buf[i:j] for i, j in zip(starts[:-1], starts[1:])]


def extract_separatrices(grad: DiscreteGradient) -> list:
    """All 1-separatrices of the gradient, deterministic order.

    Saddle/extremum curves follow the unique walks out of every
    critical (d-1)-simplex (up) and critical edge (down), all taken at
    once by ``_lockstep_walks``; in 3D one representative connector
    polyline is emitted per critical triangle/edge V-path family (the
    first path in depth-first order).  Polyline points are vertex
    positions and simplex barycentres, gathered only for the simplices
    the polylines use.
    """
    d = grad.tri.dim
    out = []
    for kind, k, node_dim in (("min-saddle", 1, 0), ("saddle-max", d - 1, d)):
        rows, via = _walk_arrays(grad, node_dim == d)
        roots = np.array(grad.critical_ids(k), dtype=np.int64)
        owner, ends, bounds, body = _lockstep_walks(rows, via, roots)
        sources = roots[owner]
        lines = _polylines(grad, k, node_dim, sources, bounds, body,
                           via[body], ends)
        out += [Separatrix(kind, (k, s), (node_dim, t) if t >= 0 else None, p)
                for s, t, p in zip(sources.tolist(), ends.tolist(), lines)]
    if d == 3:
        targets = set(grad.critical_ids(1))
        memo = {}
        arcs, pairs, bounds = [], [], [0]
        for tau in grad.critical_ids(2):
            for e in sorted(_vpath_counts(grad, 1, tau, targets, memo)):
                arcs.append((tau, e))
                pairs += _first_vpath(grad, 1, tau, e, memo).pairs
                bounds.append(len(pairs))
        arcs = np.array(arcs, dtype=np.int64).reshape(-1, 2)
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        lines = _polylines(grad, 2, 1, arcs[:, 0], np.array(bounds),
                           pairs[:, 0], pairs[:, 1], arcs[:, 1])
        out += [Separatrix("saddle-saddle", (2, tau), (1, e), p)
                for (tau, e), p in zip(arcs.tolist(), lines)]
    return out

"""Unified topological simplification by sub/sur-level set flattening.

Given a set of extrema to preserve, the field and its tie-breaking
offsets are minimally edited so that the edited field's extrema are
exactly the preserved set, by the sweep of Tierny & Pascucci,
"Generalized Topological Simplification of Scalar Fields on Surfaces"
(IEEE TVCG 18(12), 2012).  A priority-queue flood grows from the
preserved minima in ascending order and raises every vertex it reaches
below its current level to that level: the value of the saddle through
which it entered the vertex's basin.  A mirrored flood from the
preserved maxima lowers the other side.  The pop order becomes the new
offsets, so each flattened region sits next to its saddle.  Sweeps of
one minimum flood and one maximum flood repeat until the extrema, read
from one pass over the edges, equal the preserved set.  Every downstream
abstraction computed from the edited field is then consistent with the
simplification.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field as dc_field

import numpy as np

from .order import OrderField
from .trees import (
    CLASS_ESSENTIAL,
    CLASS_MIN_SADDLE,
    CLASS_SADDLE_MAX,
    CLASS_SADDLE_SADDLE,
    PersistenceDiagram,
)
from .triangulation import Triangulation


class SimplificationError(Exception):
    """Invalid request or failure to converge."""


@dataclass
class SimplificationRequest:
    """Extrema to preserve, plus any pairs the procedure cannot remove.

    ``preserved`` holds vertex ids of extrema that must survive.
    ``unremovable_conflicts`` lists saddle/saddle pairs selected for
    removal; flattening extrema cannot remove those, so a request
    carrying any is rejected.
    """

    preserved: frozenset
    unremovable_conflicts: list = dc_field(default_factory=list)


def select_by_persistence(
    diagram: PersistenceDiagram, threshold: float
) -> SimplificationRequest:
    """Preserve the essential endpoints and every extremum whose pair
    persists at or above ``threshold``."""
    preserved = set()
    conflicts = []
    for p in diagram.pairs:
        if p.cls == CLASS_ESSENTIAL:
            preserved.add(p.birth_vertex)
            preserved.add(p.death_vertex)
        elif p.cls == CLASS_MIN_SADDLE and p.persistence >= threshold:
            preserved.add(p.birth_vertex)
        elif p.cls == CLASS_SADDLE_MAX and p.persistence >= threshold:
            preserved.add(p.death_vertex)
        elif p.cls == CLASS_SADDLE_SADDLE and p.persistence < threshold:
            conflicts.append(p)
    return SimplificationRequest(frozenset(preserved), conflicts)


def _flood(tri, field, keep, below):
    """Flood the domain from the kept minima (``below``) or maxima.

    Vertices leave a priority queue seeded at ``keep`` lowest first
    (highest first for maxima).  A popped vertex beyond the flood level
    becomes the new level; any other takes the level's value.  The pop
    order becomes the offsets, so each flattened region sits next to
    the saddle through which the flood entered it, and only the seeds
    are extrema of this direction afterwards.

    The loop touches no numpy scalar: it reads ranks and order with
    ``item``, marks vertices in a ``bytearray`` and records the pop
    order, and each flattened vertex beside its level's vertex, in
    ``array('q')``; the new values and offsets are then written with
    one numpy assignment each.
    """
    n = len(field)
    sign = 1 if below else -1   # heap keys: ranks, negated for maxima
    rank, vertex = field.ranks.item, field.order.item
    seen = bytearray(n)
    for v in keep:
        seen[v] = 1
    heap = [sign * rank(v) for v in keep]
    heapq.heapify(heap)
    level, top = -n, -1
    popped, flat = array("q"), array("q")   # flat: (vertex, top) pairs
    nb_offsets, nb_ids = tri.neighbor_csr()
    nb_offsets, nb_ids = nb_offsets.tolist(), nb_ids.tolist()
    while heap:
        key = heapq.heappop(heap)
        v = vertex(sign * key)
        if key > level:
            level, top = key, v
        else:
            flat.append(v)
            flat.append(top)
        popped.append(v)
        for u in nb_ids[nb_offsets[v]:nb_offsets[v + 1]]:
            if not seen[u]:
                seen[u] = 1
                heapq.heappush(heap, sign * rank(u))
    if len(popped) < n:
        raise SimplificationError(
            "a connected component of the domain holds no preserved "
            f"{'minimum' if below else 'maximum'}"
        )
    values = field.values.copy()
    flat = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
    values[flat[:, 0]] = field.values[flat[:, 1]]
    offsets = np.empty(n, dtype=np.int64)
    offsets[np.frombuffer(popped, dtype=np.int64)] = \
        np.arange(n) if below else np.arange(n - 1, -1, -1)
    return OrderField(values, offsets)


def _extrema(tri, field):
    """PL minima and maxima: a vertex with an empty lower (upper) link
    is never the higher (lower) end of an edge."""
    edges = tri.simplex_array(1)
    by_rank = np.argsort(field.ranks[edges], axis=1)
    low, high = np.take_along_axis(edges, by_rank, axis=1).T
    every = set(range(len(field)))
    return every - set(high.tolist()), every - set(low.tolist())


_MAX_SWEEPS = 64


def simplify_field(
    tri: Triangulation, field: OrderField, req: SimplificationRequest
) -> OrderField:
    """Edit (values, offsets) so the PL extrema are exactly the
    preserved set; the input field is never modified.

    Each sweep stops if the extrema equal the preserved set, else it
    floods from the preserved minima and then from the preserved maxima
    (see ``_flood``); at most ``_MAX_SWEEPS`` sweeps run.

    Raises SimplificationError for invalid requests (empty set, no
    minimum/maximum, non-extremal vertices, saddle/saddle conflicts), if
    a connected component of the domain holds no preserved minimum or
    maximum, or if the sweeps fail to stabilize.
    """
    if req.unremovable_conflicts:
        raise SimplificationError(
            "the request selects saddle-saddle pairs for removal; such "
            "pairs cannot be removed by extremum flattening (the general "
            "problem is NP-hard) - raise the threshold or simplify "
            "extrema only"
        )
    mins, maxs = _extrema(tri, field)
    preserved = set(req.preserved)
    if not preserved:
        raise SimplificationError("preserved extremum set is empty")
    if not preserved & mins:
        raise SimplificationError("preserved set contains no minimum")
    if not preserved & maxs:
        raise SimplificationError("preserved set contains no maximum")
    if preserved - (mins | maxs):
        raise SimplificationError(
            f"preserved vertices are not extrema: "
            f"{sorted(preserved - (mins | maxs))}"
        )
    cur = field
    for _ in range(_MAX_SWEEPS):
        if mins | maxs == preserved:
            return cur
        cur = _flood(tri, cur, preserved & mins, True)
        cur = _flood(tri, cur, preserved & maxs, False)
        mins, maxs = _extrema(tri, cur)
    if mins | maxs != preserved:
        raise SimplificationError(
            "flattening did not stabilize on the preserved extremum set "
            f"within {_MAX_SWEEPS} sweeps (extrema: "
            f"{sorted(mins | maxs)}, preserved: {sorted(preserved)})"
        )
    return cur

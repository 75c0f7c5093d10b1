"""Unified topological simplification by sub/sur-level set flattening.

Given a set of extrema to preserve, the field and its tie-breaking
offsets are minimally edited so that the edited field's extrema are
exactly the preserved set: every other minimum's sub-level component is
raised to the value of the saddle where it merges with a surviving
component (symmetrically for maxima), with offsets rewritten so the
flattened region is ordered monotonically toward the saddle.  Every
downstream abstraction computed from the edited field is then
consistent with the simplification.

The extrema are read from the merge trees (minima are the join tree's
leaves, maxima the split tree's), and each removed extremum's saddle
comes from the diagram's elder-rule sweep, run so that preserved
extrema always survive a merge.  One flattening routine serves minima
and maxima.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .order import OrderField
from .trees import (
    CLASS_ESSENTIAL,
    CLASS_MIN_SADDLE,
    CLASS_SADDLE_MAX,
    CLASS_SADDLE_SADDLE,
    PersistenceDiagram,
    build_merge_tree,
    persistence_pairs_extrema,
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


def _component(tri, field, seed, bound_rank, below):
    """Connected set of vertices strictly below (or above) the bound
    containing ``seed``, in the 1-skeleton."""
    ranks = field.ranks
    seen = {seed}
    queue = deque([seed])
    while queue:
        v = queue.popleft()
        for u in tri.vertex_neighbors(v):
            if u in seen:
                continue
            if (ranks[u] < bound_rank) == below and ranks[u] != bound_rank:
                seen.add(u)
                queue.append(u)
    return seen


def _flatten(tri, field, m, saddle, below):
    """Move the sub-level (``below``) or sur-level component of extremum
    ``m`` to the saddle's value.

    The component's offsets are rewritten so it sits right next to the
    saddle in the total order, on the side it came from, and is ordered
    monotonically toward the saddle.
    """
    ranks = field.ranks
    comp = _component(tri, field, m, ranks[saddle], below)
    order = [int(v) for v in field.order if int(v) not in comp]
    pos = order.index(saddle) + below
    order[pos:pos] = sorted(comp, key=lambda v: ranks[v], reverse=below)
    values = field.values.copy()
    values[list(comp)] = field.values[saddle]
    offsets = np.empty(len(field), dtype=np.int64)
    offsets[order] = np.arange(len(field))
    return OrderField(values, offsets)


def _extrema(tri, field):
    """PL minima and maxima: a vertex with an empty lower (upper) link
    has no lower (upper) neighbour, which makes it a join (split) tree
    leaf."""
    return (set(build_merge_tree(tri, field, "join").leaves),
            set(build_merge_tree(tri, field, "split").leaves))


_MAX_SWEEPS = 64


def simplify_field(
    tri: Triangulation, field: OrderField, req: SimplificationRequest
) -> OrderField:
    """Edit (values, offsets) so the PL extrema are exactly the
    preserved set; the input field is never modified.

    Raises SimplificationError for invalid requests (empty set, no
    minimum/maximum, non-extremal vertices, saddle/saddle conflicts) or
    if the flattening loop fails to stabilize.
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
        progressed = False
        # flatten the lowest-persistence non-preserved minimum until none
        # is left, then the same for maxima via the split tree
        for variant, below in (("join", True), ("split", False)):
            sign = 1 if below else -1
            while True:
                tree = build_merge_tree(tri, cur, variant)
                if not set(tree.leaves) - preserved:
                    break
                values = cur.values
                cand = [
                    (sign * (float(values[s]) - float(values[m])),
                     sign * cur.ranks[s], m, s)
                    for m, s in persistence_pairs_extrema(tree, preserved)
                    if m not in preserved
                ]
                if not cand:
                    break
                _, _, m, s = min(cand)
                cur = _flatten(tri, cur, m, s, below)
                progressed = True
        if not progressed:
            break
    mins, maxs = _extrema(tri, cur)
    if mins | maxs != preserved:
        raise SimplificationError(
            "flattening did not stabilize on the preserved extremum set "
            f"within {_MAX_SWEEPS} sweeps (extrema: "
            f"{sorted(mins | maxs)}, preserved: {sorted(preserved)})"
        )
    return cur

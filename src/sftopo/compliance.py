"""Alignment of the discrete gradient with the scalar field's critical points.

The lower-star gradient gives every interior PL critical point of
index k and multiplicity m exactly m critical k-simplices among those
it owns (whose highest vertex it is), on the random fields of the
tests.  ``match_critical_simplices`` realizes the correspondence as a
maximum bipartite matching (a degenerate saddle of multiplicity m
claims m simplices): one array pass gives each point the critical
simplices it owns, and Kuhn's augmenting-path search matches whatever
is left within the point's star.  Critical simplices left unmatched
are spurious artifacts of the discretization, on the lower-star
gradient those that boundary vertices own; ``enforce_compliance``
removes them by repeatedly cancelling the lowest-weight pair of
critical simplices joined by exactly one V-path, first saddle/maximum
pairs, then (in 3D) saddle/saddle pairs.  A cancellation may consume a
matched simplex as long as the owning critical point can be re-matched
to another simplex of its star, so the matching is fluid during
cleanup.  A cancelled pair has at most one matched end (see below), so
a release re-matches at most one slot, and a re-match that fails
writes nothing.

The stage reads only arrays: the gradient's, and the boundary flags
and triangle co-faces that the triangulation stores for every field.
The candidates of a slot are its vertex's critical simplices, grouped
from ``grad.verts`` the first time Kuhn's search needs them, in
descending ``simplex_key`` order (sorted vertex ranks, highest first).
Cancellations only remove critical simplices, so filtering these lists
by ``is_critical`` gives what the whole star would.

Both pair classes are cancelled from one heap of arcs keyed
``(weight, lower id, upper id, trace version)``.  Each root is traced
once, and an index from every end to the roots whose last trace
reached it names the roots to re-trace after a cancellation.  Arcs of
an older trace, or with an end that is no longer critical, are skipped
when popped.  Only the trace differs by class:

- Saddle/maximum: a root is a critical (d-1)-simplex, traced by the
  ends of its ascending walks at critical d-cells.  Only walks through
  a reversed cell can change, and since the next step of a walk
  depends on its current cell alone, every walk through the reversed
  path ends at the cancelled cell.  So a root's walks stay as traced
  until it is retraced, and a cancellation walks its one path again
  (the gradient module's ``_walks``).  The ends themselves are
  union-find classes: every d-cell starts in the class of its
  ``ascending_segmentation`` label, and reversing the path from
  ``sigma`` to ``tau`` sends exactly the cells whose walk ended at
  ``tau`` on through ``sigma`` to wherever the walk from ``sigma``'s
  other co-face ends, which is one link from ``tau``'s class to that
  one.  A trace is then two ``find`` calls.
- Saddle/saddle (3D): a root is an interior critical triangle, traced
  by counting its descending (1, 2) V-paths to the interior critical
  edges, with one memo of per-triangle counts shared by all roots.
  After the path ``tau, l1, h1, ..., lr, hr, e`` is reversed, a memo
  entry is stale exactly when it counts ``e``: a walk enters ``h_i``
  only through ``l_i``, and the old walk from ``l_i`` runs on to
  ``e``, while ``e`` itself stops being a target.  Dropping those
  entries leaves a memo that is exact for the new gradient, and the
  roots to re-trace are the triangles that reached ``e``.  The stale
  entries are found by walking back from ``e`` over the old gradient
  before the reversal: from the triangles that have ``e`` as a face,
  and from each reached triangle ``h`` paired below with edge ``l``, to
  the other triangles that have ``l`` as a face, since a walk enters
  ``h`` only through ``l``.  The triangles this reaches are exactly
  those whose walks reach ``e``, so the walk costs what the stale
  entries do rather than a scan of the whole memo.

Two facts let the heap drop an arc for good, so that popping arcs in
order cancels the same pairs as a full rescan and sort after every
cancellation would:

- Matched status only grows.  ``_Matching.release`` unmatches only a
  simplex it cancels; the rest of an augmenting path hands each
  simplex on to a new holder, so a critical simplex, once matched,
  stays matched until it is cancelled.  An arc with both ends matched
  never qualifies again, so a release holds at most one of its two
  simplices.
- A release that fails never succeeds later.  The matched slots never
  change after the initial matching (a release re-matches the one slot
  it displaces, or changes nothing, since Kuhn's search writes only
  along a path that succeeds), and the search finds a re-match exactly
  when some matching of the critical simplices, without the two
  released ones, covers those slots.  Cancellations only remove
  critical simplices, so if no such matching exists now, none exists
  later.

The facts hold across both classes, which share one matching, and a
(1, 2) reversal changes only ``pair_up[1]`` and ``pair_down[2]``, which
no (2, 3) walk reads.  So once the saddle/saddle pass has run, a
saddle/maximum pass would find no arc it did not already drop, and one
pass per class, saddle/maximum first, is enough.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field as dc_field

import numpy as np

from .critical import extract_critical_points
from .gradient import (
    DiscreteGradient,
    VPath,
    _first_vpath,
    _vpath_counts,
    _walk_arrays,
    _walks,
    reverse_vpath,
)
from .morse import ascending_segmentation
from .order import OrderField
from .triangulation import Triangulation


@dataclass
class ComplianceReport:
    """Outcome of matching and cancellation.

    ``matched`` maps (vertex, index) to the simplex ids claimed for that
    critical point.  ``match_failures`` lists critical points whose star
    holds no available critical simplex.  ``spurious`` maps each simplex
    dimension to the interior critical ids left unmatched; all-empty
    sets mean the gradient is compliant.
    """

    matched: dict = dc_field(default_factory=dict)
    match_failures: list = dc_field(default_factory=list)
    spurious: dict = dc_field(default_factory=dict)
    cancelled: list = dc_field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.match_failures and not any(self.spurious.values())


def _critical_stars(grad: DiscreteGradient, k: int):
    """``(flat, bounds)``: ``flat[bounds[v]:bounds[v + 1]]`` lists the
    critical k-simplices of vertex ``v`` by descending simplex key."""
    sids = np.flatnonzero((grad.pair_up[k] < 0) & (grad.pair_down[k] < 0))
    rows = grad.verts[k][sids]
    member = np.repeat(np.arange(len(sids)), k + 1)
    keys = np.sort(grad.field.ranks[rows], axis=1)[member]
    order = np.lexsort(np.vstack((-keys.T, rows.ravel())))  # owner first
    ends = np.cumsum(np.bincount(rows.ravel(), minlength=len(grad.verts[0])))
    return sids[member[order]].tolist(), [0] + ends.tolist()


def _owned(grad: DiscreteGradient, k: int):
    """``(flat, bounds)`` arrays: ``flat[bounds[v]:bounds[v + 1]]`` lists
    the critical k-simplices whose highest vertex is ``v``, by
    descending simplex key."""
    sids = np.flatnonzero((grad.pair_up[k] < 0) & (grad.pair_down[k] < 0))
    keys = np.sort(grad.field.ranks[grad.verts[k][sids]], axis=1)
    owner = grad.field.order[keys[:, -1]]
    n = len(grad.verts[0])
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=bounds[1:])
    return sids[np.lexsort((*-keys.T, owner))], bounds


class _Matching:
    """Bipartite matching of critical-point slots to critical simplices.

    Slots are critical points, one per unit of multiplicity, ordered by
    vertex rank.  Candidates for a slot are the critical simplices of
    the right dimension in the vertex's star, preferred in descending
    simplex-key order.  First, in one array pass, each slot takes a
    critical simplex that its vertex owns (its highest vertex), while
    the point has such simplices left: on the lower-star gradient that
    matches every slot of every interior point.  Kuhn's augmenting-path
    algorithm then matches the slots left over, and keeps the matching
    maximum as simplices are consumed by cancellations.
    """

    def __init__(self, grad, critical_points):
        self.grad, self.boundary = grad, grad.tri.boundary_flags()
        interior = [c for c in critical_points if not c.boundary]
        by_rank = np.argsort(grad.field.ranks[[c.vertex for c in interior]],
                             kind="stable")
        interior = [interior[i] for i in by_rank.tolist()]
        self.slots = [c for c in interior for _ in range(c.multiplicity)]
        self._stars = {}    # dim -> _critical_stars, built for Kuhn's search
        self.slot_of = {}   # (dim, sid) -> slot index
        self.sid_of = {}    # slot index -> (dim, sid)
        mult = np.array([c.multiplicity for c in interior], dtype=np.int64)
        copy = np.arange(len(self.slots)) - np.repeat(np.cumsum(mult) - mult,
                                                      mult)
        index = np.array([c.index for c in self.slots], dtype=np.int64)
        vertex = np.array([c.vertex for c in self.slots], dtype=np.int64)
        for k in {c.index for c in interior}:
            flat, bounds = _owned(grad, k)
            slot = np.flatnonzero(index == k)
            at = bounds[vertex[slot]] + copy[slot]
            mine = at < bounds[vertex[slot] + 1]
            keys = [(k, s) for s in flat[at[mine]].tolist()]
            slot = slot[mine].tolist()
            self.slot_of.update(zip(keys, slot))
            self.sid_of.update(zip(slot, keys))
        for i in range(len(self.slots)):
            if i not in self.sid_of:
                self._augment(i, set())

    def _star(self, i):
        """The critical simplices of slot ``i``'s star when Kuhn's
        search first needed its dimension, by descending simplex key."""
        cp = self.slots[i]
        if cp.index not in self._stars:
            self._stars[cp.index] = _critical_stars(self.grad, cp.index)
        flat, bounds = self._stars[cp.index]
        return flat[bounds[cp.vertex]:bounds[cp.vertex + 1]]

    def _candidates(self, i):
        k = self.slots[i].index
        return [(k, s) for s in self._star(i) if self.grad.is_critical(k, s)]

    def _augment(self, i, banned, seen=None) -> bool:
        """Match slot ``i`` by an augmenting path that avoids ``banned``;
        only a search that returns True writes."""
        if seen is None:
            seen = set()
        for key in self._candidates(i):
            if key in banned or key in seen:
                continue
            seen.add(key)
            holder = self.slot_of.get(key)
            if holder is None or self._augment(holder, banned, seen):
                old = self.sid_of.get(i)
                if old is not None and self.slot_of.get(old) == i:
                    del self.slot_of[old]
                self.slot_of[key] = i
                self.sid_of[i] = key
                return True
        return False

    def release(self, dims_sids) -> bool:
        """Unmatch the given simplices: True if none is matched, or if
        the one matched simplex's slot found another simplex.

        On False the matching is unchanged.  Two matched simplices give
        False without a search: the heap never releases such an arc.
        """
        held = [key for key in dims_sids if key in self.slot_of]
        if len(held) != 1:
            return not held
        key = held[0]
        i = self.slot_of.pop(key)
        del self.sid_of[i]
        if self._augment(i, set(dims_sids)):
            return True
        self.slot_of[key], self.sid_of[i] = i, key
        return False

    def is_matched(self, dim, sid) -> bool:
        return (dim, sid) in self.slot_of


def match_critical_simplices(
    tri: Triangulation,
    field: OrderField,
    grad: DiscreteGradient,
    critical_points: list | None = None,
) -> ComplianceReport:
    """Match interior critical points to critical simplices of their star."""
    if critical_points is None:
        critical_points = extract_critical_points(tri, field)
    return _report(_Matching(grad, critical_points), critical_points, [])


def _report(matching, critical_points, cancelled):
    """The report of a finished matching.

    A point fails only if none of its copies found a simplex; it is
    listed once, in ``critical_points`` order.
    """
    matched = {}
    for i, cp in enumerate(matching.slots):
        sids = matched.setdefault((cp.vertex, cp.index), [])
        if i in matching.sid_of:
            sids.append(matching.sid_of[i][1])
    empty = {k for k, v in matched.items() if not v}
    failures = []
    for cp in critical_points:
        if not cp.boundary and (cp.vertex, cp.index) in empty:
            failures.append(cp)
            empty.discard((cp.vertex, cp.index))
    spurious = {
        k: {s for s in _interior_ids(matching, k)
            if not matching.is_matched(k, s)}
        for k in range(len(matching.boundary))
    }
    return ComplianceReport(matched, failures, spurious, cancelled)


def _interior_ids(matching, dim):
    """Ascending ids of the critical dim-simplices off the boundary."""
    up, down = matching.grad.pair_up[dim], matching.grad.pair_down[dim]
    return np.flatnonzero((up < 0) & (down < 0)
                          & ~matching.boundary[dim]).tolist()


def _cancel_by_heap(grad, matching, lo, root_dim, roots, trace, cancel):
    """Cancel (lo, lo+1) pairs from a heap of arcs, lowest weight first,
    ties by lower then upper id (see the module docstring).

    ``roots`` are the simplices of dimension ``root_dim`` that walks
    start from; the other end of an arc has the other dimension.
    ``trace(root)`` returns the critical ends the root's walks reach
    (repeats allowed) and those of them that qualify (joined to it by
    exactly one V-path).
    ``cancel(root, end)`` reverses the path between the two.
    """
    end_dim = 2 * lo + 1 - root_dim
    version = defaultdict(int)    # root -> traces so far
    ends_of = {}                  # root -> ends its last trace reached
    reaching = defaultdict(set)   # end -> roots whose last trace reached it
    heap = []

    def retrace(root):
        for end in ends_of.pop(root, ()):
            reaching[end].discard(root)
        version[root] += 1
        if not grad.is_critical(root_dim, root):
            return
        ends, single = trace(root)
        ends_of[root] = ends
        for end in ends:
            reaching[end].add(root)
        for end in single:
            if matching.is_matched(root_dim, root) and \
                    matching.is_matched(end_dim, end):
                continue
            w = abs(grad.simplex_value(end_dim, end)
                    - grad.simplex_value(root_dim, root))
            pair = (root, end) if root_dim == lo else (end, root)
            heapq.heappush(heap, (w, *pair, version[root]))

    for root in roots:
        retrace(root)
    cancelled = []
    while heap:
        _, lower, upper, ver = heapq.heappop(heap)
        root, end = (lower, upper) if root_dim == lo else (upper, lower)
        if ver != version[root] or not grad.is_critical(lo, lower) \
                or not grad.is_critical(lo + 1, upper):
            continue
        if matching.is_matched(lo, lower) and \
                matching.is_matched(lo + 1, upper):
            continue
        if not matching.release([(lo, lower), (lo + 1, upper)]):
            continue            # for good: see the module docstring
        cancel(root, end)
        cancelled.append((lo, lower, upper))
        for r in sorted(reaching[end]):
            retrace(r)
    return cancelled


def _cancel_facet_pairs(grad, matching) -> list:
    """Saddle/maximum cancellations; a pair qualifies when its two ends
    are joined by exactly one V-path, at least one end is spurious, and
    any matched end can be re-matched elsewhere.

    Roots are the interior critical facets, traced by the current ends
    of their co-faces' ascending walks.  These are union-find roots: the
    ``parent`` of a d-cell starts as its ``ascending_segmentation``
    label, and one extra node, ``outside``, stands for the walks that
    leave the domain, which end nowhere.  A cancellation walks the one
    path it reverses again and links the class of its maximum ``tau``
    to that of ``sigma``'s other co-face.
    """
    d = grad.tri.dim
    rows, via = _walk_arrays(grad, True)
    boundary = matching.boundary[d]
    parent = ascending_segmentation(grad)
    outside = len(parent)
    parent[parent < 0] = outside
    parent = parent.tolist() + [outside]

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def trace(sigma):
        ends = [find(c) for c in rows[sigma].tolist() if c >= 0]
        ends = [tau for tau in ends if tau != outside]
        return ends, [tau for tau in ends
                      if ends.count(tau) == 1 and not boundary[tau]]

    def cancel(sigma, tau):
        walks = _walks(rows, via, sigma)
        path = next(w for w in walks if w[-1] == tau)
        other = next(w[0] for w in walks if w is not path)
        cells = path[:-1]
        pairs = list(zip(via[cells].tolist(), cells))[::-1]
        reverse_vpath(grad, VPath(d - 1, tau, sigma, pairs))
        parent[tau] = find(other)

    return _cancel_by_heap(grad, matching, d - 1, d - 1,
                           _interior_ids(matching, d - 1), trace, cancel)


def _cancel_connector_pairs(grad, matching) -> list:
    """1-saddle/2-saddle cancellations (3D only), with the same
    qualification as ``_cancel_facet_pairs``.

    Roots are the interior critical triangles, traced by counting their
    descending V-paths to the interior critical edges in one shared
    memo; a cancelled path is read from that memo.
    """
    edges = set(_interior_ids(matching, 1))
    memo = {}                     # triangle -> {edge: V-path count}
    # row e: the ascending ids of the triangles with face e, -1 padded
    triangles_of = grad.tri.cofacet_ids(1)
    paired_below = grad.pair_down[2]

    def trace(tau):
        counts = _vpath_counts(grad, 1, tau, edges, memo)
        return list(counts), [e for e, n in counts.items() if n == 1]

    def cancel(tau, e):
        path = _first_vpath(grad, 1, tau, e, memo)
        # drop the triangles whose walks reach e, walking back from it
        stack = [h for h in triangles_of[e].tolist() if h >= 0]
        seen = set(stack)
        while stack:
            h = stack.pop()
            memo.pop(h, None)
            low = paired_below[h]
            if low < 0:
                continue
            for x in triangles_of[low].tolist():
                if x >= 0 and x not in seen:
                    seen.add(x)
                    stack.append(x)
        reverse_vpath(grad, path)
        edges.discard(e)

    return _cancel_by_heap(grad, matching, 1, 2,
                           _interior_ids(matching, 2), trace, cancel)


def enforce_compliance(
    tri: Triangulation,
    field: OrderField,
    grad: DiscreteGradient,
    critical_points: list | None = None,
) -> ComplianceReport:
    """Cancel spurious critical simplices in place.

    One saddle/maximum pass, then in 3D one saddle/saddle pass (see the
    module docstring for why no pass needs repeating); whatever remains
    unmatched is reported in ``spurious``.
    """
    if critical_points is None:
        critical_points = extract_critical_points(tri, field)
    matching = _Matching(grad, critical_points)
    cancelled = list(_cancel_facet_pairs(grad, matching))
    if tri.dim == 3:
        cancelled += _cancel_connector_pairs(grad, matching)
    return _report(matching, critical_points, cancelled)

"""Alignment of the discrete gradient with the scalar field's critical points.

The gradient construction guarantees that every interior critical
vertex of the field owns at least one critical simplex of the matching
dimension in its star.  ``match_critical_simplices`` realizes that
correspondence as a maximum bipartite matching (a degenerate saddle of
multiplicity m claims m simplices).  Critical simplices left unmatched
are spurious artifacts of the discretization; ``enforce_compliance``
removes them by repeatedly cancelling the lowest-weight pair of
critical simplices joined by exactly one V-path, first saddle/maximum
pairs, then (in 3D) saddle/saddle pairs.  A cancellation may consume a
matched simplex as long as the owning critical point can be re-matched
to another simplex of its star, so the matching is fluid during
cleanup.  A re-match that fails is rolled back from an undo log of the
entries it changed.

Saddle/maximum cancellations are driven by a heap of arcs keyed
``(weight, facet, cell)``.  Each critical facet is traced once, and an
index from every critical d-cell to the facets whose walks reach it
names the facets to re-trace after a reversal.  Only walks through a
reversed cell can change, and since the next step of a walk depends on
its current cell alone, every walk through the reversed path ends at
the cancelled cell.  Arcs of an older trace, or with an end that is no
longer critical, are skipped when popped.

Two facts let the heap drop an arc for good, so that popping arcs in
order cancels the same pairs as a full rescan and sort after every
cancellation would:

- Matched status only grows.  ``_Matching.release`` unmatches just the
  two simplices it cancels; the rest of an augmenting path hands each
  simplex on to a new holder, so a critical simplex, once matched,
  stays matched until it is cancelled.  An arc with both ends matched
  never qualifies again.
- A release that fails never succeeds later.  The matched slots never
  change after the initial matching (a release re-matches every slot it
  displaces, or rolls back), and Kuhn's search finds a re-match exactly
  when some matching of the critical simplices, without the two
  released ones, covers those slots.  Cancellations only remove
  critical simplices, so if no such matching exists now, none exists
  later.
"""

from __future__ import annotations

import heapq
import sys
from collections import defaultdict
from dataclasses import dataclass, field as dc_field

from .critical import extract_critical_points
from .gradient import (
    DiscreteGradient,
    _vpath_counts,
    extract_vpath,
    reverse_vpath,
    trace_up_from_facet,
)
from .order import OrderField
from .triangulation import SimplexRef, Triangulation


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
        return not self.match_failures and not any(
            self.spurious.get(k) for k in self.spurious
        )


def _star_simplices(tri: Triangulation, v: int, dim: int) -> list:
    if dim == 0:
        return [v]
    return [int(s) for s in tri.cofaces(SimplexRef(0, v), dim)]


def _precondition_for_matching(tri: Triangulation) -> None:
    kinds = ["boundary_vertices", "boundary_edges", "boundary_cells",
             "vertex_edges", "vertex_stars"]
    if tri.dim == 3:
        kinds += ["boundary_triangles", "vertex_triangles"]
    for kind in kinds:
        tri.precondition(kind)


_MISSING = object()


class _Matching:
    """Bipartite matching of critical-point slots to critical simplices.

    Slots are (vertex, index, copy) triples, one copy per unit of
    multiplicity.  Candidates for a slot are the critical simplices of
    the right dimension in the vertex's star, preferred in descending
    simplex-key order.  Kuhn's augmenting-path algorithm keeps the
    matching maximum as simplices are consumed by cancellations.
    """

    def __init__(self, tri, field, grad, critical_points):
        self.tri, self.field, self.grad = tri, field, grad
        self.slots = []
        for cp in sorted(
            (c for c in critical_points if not c.boundary),
            key=lambda c: field.ranks[c.vertex],
        ):
            star = _star_simplices(tri, cp.vertex, cp.index)
            star.sort(
                key=lambda s: field.simplex_key(grad.verts[cp.index][s]),
                reverse=True,
            )
            for copy in range(cp.multiplicity):
                self.slots.append((cp, copy, star))
        self.slot_of = {}   # (dim, sid) -> slot index
        self.sid_of = {}    # slot index -> sid
        self._undo = None   # (table, key, old value) while releasing
        for i in range(len(self.slots)):
            self._augment(i, set())

    def _put(self, table, key, value):
        if self._undo is not None:
            self._undo.append((table, key, table.get(key, _MISSING)))
        table[key] = value

    def _drop(self, table, key):
        old = table.pop(key)
        if self._undo is not None:
            self._undo.append((table, key, old))

    def _candidates(self, i):
        cp, _, star = self.slots[i]
        return [(cp.index, s) for s in star
                if self.grad.is_critical(cp.index, s)]

    def _augment(self, i, banned, seen=None) -> bool:
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
                    self._drop(self.slot_of, old)
                self._put(self.slot_of, key, i)
                self._put(self.sid_of, i, key)
                return True
        return False

    def release(self, dims_sids) -> bool:
        """Try to re-route the matching away from the given simplices.

        Returns True (and commits) if every displaced slot found a new
        simplex; otherwise the logged changes are undone, newest first,
        and the matching is restored unchanged.
        """
        banned = set(dims_sids)
        self._undo = []
        try:
            for key in banned:
                i = self.slot_of.get(key)
                if i is None:
                    continue
                self._drop(self.slot_of, key)
                self._drop(self.sid_of, i)
                if not self._augment(i, banned):
                    for table, k, old in reversed(self._undo):
                        if old is _MISSING:
                            del table[k]
                        else:
                            table[k] = old
                    return False
            return True
        finally:
            self._undo = None

    def unmatched_slots(self):
        return [self.slots[i][0] for i in range(len(self.slots))
                if i not in self.sid_of]

    def matched_dict(self):
        out = {}
        for i, (cp, _, _) in enumerate(self.slots):
            out.setdefault((cp.vertex, cp.index), [])
            key = self.sid_of.get(i)
            if key is not None:
                out[(cp.vertex, cp.index)].append(key[1])
        return out

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
    _precondition_for_matching(tri)
    matching = _Matching(tri, field, grad, critical_points)
    return _report(tri, grad, matching, critical_points, [])


def _report(tri, grad, matching, critical_points, cancelled):
    """The report of a finished matching.

    A point fails only if none of its copies found a simplex; it is
    listed once, in ``critical_points`` order.
    """
    matched = matching.matched_dict()
    empty = {k for k, v in matched.items() if not v}
    failures = []
    for cp in critical_points:
        if not cp.boundary and (cp.vertex, cp.index) in empty:
            failures.append(cp)
            empty.discard((cp.vertex, cp.index))
    spurious = {
        k: {
            s for s in grad.critical_ids(k)
            if not matching.is_matched(k, s)
            and not tri.is_boundary(SimplexRef(k, s))
        }
        for k in range(tri.dim + 1)
    }
    return ComplianceReport(matched, failures, spurious, cancelled)


def _interior_ids(tri, grad, dim):
    return [s for s in grad.critical_ids(dim)
            if not tri.is_boundary(SimplexRef(dim, s))]


def _cancel_facet_pairs(grad, matching) -> list:
    """Saddle/maximum cancellations; a pair qualifies when its two ends
    are joined by exactly one V-path, at least one end is spurious, and
    any matched end can be re-matched elsewhere.

    Pairs are cancelled lowest weight first, ties by facet then cell id,
    from a heap (see the module docstring).
    """
    tri, d = grad.tri, grad.tri.dim
    version = defaultdict(int)    # facet -> traces so far
    arcs_of = {}                  # facet -> {cell: path} of its last trace
    ends_of = {}                  # facet -> critical cells its walks reach
    reaching = defaultdict(set)   # critical d-cell -> facets reaching it
    heap = []

    def trace(sigma):
        for tau in ends_of.pop(sigma, ()):
            reaching[tau].discard(sigma)
        version[sigma] += 1
        arcs_of.pop(sigma, None)
        if not grad.is_critical(d - 1, sigma):
            return
        ends = {}
        for path in trace_up_from_facet(grad, sigma):
            if path.upper is not None:
                ends.setdefault(path.upper, []).append(path)
                reaching[path.upper].add(sigma)
        ends_of[sigma] = list(ends)
        arcs = arcs_of[sigma] = {}
        for tau, paths in ends.items():
            if len(paths) > 1 or tri.is_boundary(SimplexRef(d, tau)):
                continue
            if matching.is_matched(d - 1, sigma) and \
                    matching.is_matched(d, tau):
                continue
            arcs[tau] = paths[0]
            w = abs(grad.simplex_value(d, tau)
                    - grad.simplex_value(d - 1, sigma))
            heapq.heappush(heap, (w, sigma, tau, version[sigma]))

    for sigma in _interior_ids(tri, grad, d - 1):
        trace(sigma)
    cancelled = []
    while heap:
        _, sigma, tau, ver = heapq.heappop(heap)
        if ver != version[sigma] or not grad.is_critical(d - 1, sigma) \
                or not grad.is_critical(d, tau):
            continue
        if matching.is_matched(d - 1, sigma) and matching.is_matched(d, tau):
            continue
        if not matching.release([(d - 1, sigma), (d, tau)]):
            continue            # for good: see the module docstring
        reverse_vpath(grad, arcs_of[sigma][tau])
        cancelled.append((d - 1, sigma, tau))
        # the reversal re-pairs the cells of the path and tau; a walk is
        # fixed by the cell it enters, so every walk through the path
        # ends at tau, and only the facets reaching tau need a re-trace
        for s in sorted(reaching[tau]):
            trace(s)
    return cancelled


def _cancel_connector_pairs(grad, matching) -> list:
    """1-saddle/2-saddle cancellations (3D only)."""
    tri = grad.tri
    cancelled = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100000))
    try:
        while True:
            edges = set(_interior_ids(tri, grad, 1))
            memo = {}
            arcs = []
            for tau in _interior_ids(tri, grad, 2):
                tau_matched = matching.is_matched(2, tau)
                for e, mult in _vpath_counts(
                    grad, 1, tau, edges, memo
                ).items():
                    if mult != 1:
                        continue
                    if tau_matched and matching.is_matched(1, e):
                        continue
                    w = abs(grad.simplex_value(2, tau)
                            - grad.simplex_value(1, e))
                    arcs.append((w, e, tau))
            arcs.sort(key=lambda a: (a[0], a[1], a[2]))
            done = False
            for w, e, tau in arcs:
                if matching.release([(1, e), (2, tau)]):
                    path = extract_vpath(grad, 1, tau, e)
                    reverse_vpath(grad, path)
                    cancelled.append((1, e, tau))
                    done = True
                    break
            if not done:
                return cancelled
    finally:
        sys.setrecursionlimit(limit)


def enforce_compliance(
    tri: Triangulation,
    field: OrderField,
    grad: DiscreteGradient,
    critical_points: list | None = None,
) -> ComplianceReport:
    """Cancel spurious critical simplices in place.

    Alternates saddle/maximum and (3D) saddle/saddle cancellation until
    no pair qualifies; whatever remains unmatched is reported in
    ``spurious``.
    """
    if critical_points is None:
        critical_points = extract_critical_points(tri, field)
    _precondition_for_matching(tri)
    matching = _Matching(tri, field, grad, critical_points)
    cancelled = list(_cancel_facet_pairs(grad, matching))
    if tri.dim == 3:
        more = _cancel_connector_pairs(grad, matching)
        while more:
            cancelled.extend(more)
            more = _cancel_facet_pairs(grad, matching)
            more.extend(_cancel_connector_pairs(grad, matching))
    return _report(tri, grad, matching, critical_points, cancelled)

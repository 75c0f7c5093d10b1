"""Alignment of the discrete gradient with the scalar field's critical points.

The lower-star gradient gives every interior PL critical point of
index k and multiplicity m exactly m critical k-simplices among those
it owns (whose highest vertex it is), on the random fields of the
tests.  ``match_critical_simplices`` realizes the correspondence as a
maximum bipartite matching (a degenerate saddle of multiplicity m
claims m simplices): an array pass gives each point the critical
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
The matching keeps its state in two arrays too: the slot holding each
simplex, over the simplices of every dimension, and the simplex each
slot holds.
The candidates of a slot are its vertex's critical simplices, grouped
from ``grad.verts`` for every dimension when the matching is built, in
descending simplex key order (sorted vertex ranks, highest first, as
``gradient._critical_by_key`` gives them).
The simplices a vertex owns come last in its row, so the owner pass and
Kuhn's search read the same rows.  Cancellations only remove critical
simplices, so filtering these rows by ``is_critical`` gives what the
whole star would.

Both pair classes are cancelled from one heap of arcs keyed
``(weight, lower id, upper id, trace version)``; the weight is the
difference of the field values at the two ends' highest vertices, and
the version counts the cancellations made before the root's trace.  A
class supplies one array routine, ``traces(roots)``: the critical ends
the roots' walks reach, repeats allowed, and which of them are reached
by exactly one V-path and may be cancelled.  The heap adds the one
remaining condition, that not both ends are matched, as a mask; that is
the one definition of a qualifying arc.  The first fill calls
``traces`` once on every root, and after a cancellation one call
retraces the roots that reached the cancelled end.  Arcs of an older
trace, or with an end that is no longer critical, are skipped when
popped.

The roots to retrace after a cancellation are those whose last trace
reached the cancelled end.  Their index is built lazily: the first
fill's ends stay as two arrays, sorted by end at the first cancellation,
and a lookup takes the first-fill roots found there by binary search
that were never retraced, plus the retraced roots.  Each later trace is
recorded once, as ``(root, version)`` entries in a dict under the ends
it reached, and a lookup keeps the entries of the root's current
version.  An end is looked up once, when it is cancelled, so its
entries then go.  So when nothing cancels, the heap and Python see only
the arcs that qualify, and no Python loop runs over the roots or the
slots.  Only the trace differs by class:

- Saddle/maximum: a root is a critical (d-1)-simplex, traced by the
  ends of its ascending walks at critical d-cells.  Only walks through
  a reversed cell can change, and since the next step of a walk
  depends on its current cell alone, every walk through the reversed
  path ends at the cancelled cell.  So a root's walks stay as traced
  until it is retraced, and a cancellation steps along the one path it
  reverses, out of the co-face of ``sigma`` in ``tau``'s class, and
  along no other walk.  The ends themselves are
  union-find classes: every d-cell starts in the class of its
  ``ascending_segmentation`` label, and reversing the path from
  ``sigma`` to ``tau`` sends exactly the cells whose walk ended at
  ``tau`` on through ``sigma`` to wherever the walk from ``sigma``'s
  other co-face ends, which is one link from ``tau``'s class to that
  one.  A trace gathers its roots' two co-facets from ``cofacet_ids``
  and maps them through the union-find in one array pass; "reached
  once" is the two ends differing, and neither a cell on the boundary
  nor -1, where the walks that leave the domain end, may be cancelled.
- Saddle/saddle (3D): a root is an interior critical triangle, traced
  by counting its descending (1, 2) V-paths to the interior critical
  edges.  After the path ``tau, l1, h1, ..., lr, hr, e`` is reversed,
  only the counts that included ``e`` change: a walk enters ``h_i``
  only through ``l_i``, and the old walk from ``l_i`` runs on to
  ``e``, while ``e`` itself stops being a target.  So the roots to
  retrace are those that reached ``e``.  Every count is made afresh on
  the current gradient: a ``traces`` call shares one memo among its
  roots and drops it on return, and a cancellation counts its root
  again and reads the first path from those counts.  A memo kept for
  the whole pass, and kept exact by dropping the entries that reached
  each cancelled edge, measured no faster: the lower-star gradient
  leaves few pairs to cancel (24 to 147 at 16^3 to 32^3), and even the
  steepest co-face gradient's 900 cancellations at 12^3 took as long.

Two facts let the heap drop an arc for good, so that popping arcs in
order cancels the same pairs as a full rescan and sort after every
cancellation would:

- Matched status only grows.  ``_Matching.release`` unmatches only a
  simplex it cancels; the rest of an augmenting path hands each
  simplex on to a new holder, so a critical simplex, once matched,
  stays matched until it is cancelled.  An arc with both ends matched
  never qualifies again, and ``release`` refuses it without a search,
  so a release that succeeds held at most one of its two simplices.
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
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from .critical import extract_critical_points
from .gradient import (
    DiscreteGradient,
    VPath,
    _critical_by_key,
    _first_vpath,
    _vpath_counts,
    _walk_arrays,
    _walk_ends,
    reverse_vpath,
)
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


def _critical_stars(grad: DiscreteGradient):
    """``(flat, bounds, owned)`` arrays: with ``g = k * n + v`` over the
    ``n`` vertices, ``flat[bounds[g]:bounds[g + 1]]`` lists the critical
    k-simplices of vertex ``v`` by descending simplex key, and the last
    ``owned[g]`` of them are those whose highest vertex is ``v``.

    With the ``m`` simplices in (dimension, key) order and their key
    rows, both from ``_critical_by_key``, one argsort of
    ``g * m + m - 1 - row`` groups the vertex entries of the rows by
    ``g`` in descending key order.  A simplex in ``v``'s star has a
    highest vertex no lower than ``v``, so ``v``'s own simplices, keyed
    first by ``v``'s rank, come last."""
    dims, sids, keys = _critical_by_key(grad)
    m, n = len(sids), len(grad.verts[0])
    groups = len(grad.verts) * n
    row, col = (keys >= 0).nonzero()
    g = dims[row] * n + grad.field.order[keys[row, col]]
    at = (g * m + m - 1 - row).argsort()
    bounds = np.zeros(groups + 1, dtype=np.int64)
    np.bincount(g, minlength=groups).cumsum(out=bounds[1:])
    owned = np.bincount(dims * n + grad.field.order[keys[:, -1]],
                        minlength=groups)
    return sids[row[at]], bounds, owned


_POINT = attrgetter("vertex", "index", "multiplicity", "boundary")


class _Matching:
    """Bipartite matching of critical-point slots to critical simplices.

    Slots are critical points, one per unit of multiplicity, ordered by
    vertex rank: slot ``i`` is a copy of ``critical_points[point[i]]``,
    of vertex ``vertex[i]`` and index ``index[i]``.  Candidates for a
    slot are the critical simplices of the right dimension in the
    vertex's star, preferred in descending simplex-key order: the rows
    of ``stars``, built by ``_critical_stars`` for every dimension at
    once.  First, the owner pass gives the c-th copy of each point the
    c-th critical simplex that its vertex owns (its highest vertex),
    read from the tail of the vertex's row, while the point has such
    simplices left: on the lower-star gradient that matches every slot
    of every interior point.  Kuhn's augmenting-path algorithm then
    matches the slots left over from the same rows, and keeps the
    matching maximum as simplices are consumed by cancellations.

    Simplex ``(k, s)`` has the flat id ``base[k] + s``: ``slot_of[x]``
    is the slot that holds flat id ``x``, and ``sid_of[i]`` the simplex
    of dimension ``index[i]`` that slot ``i`` holds, -1 for none.
    """

    def __init__(self, grad, critical_points):
        self.grad, self.boundary = grad, grad.tri.boundary_flags()
        self.base = list(accumulate(map(len, grad.verts), initial=0))
        cols = np.fromiter(chain.from_iterable(map(_POINT, critical_points)),
                           np.int64, 4 * len(critical_points)).reshape(-1, 4)
        vertex, index, mult, boundary = cols.T
        interior = (boundary == 0).nonzero()[0]
        # by vertex rank, and a vertex listed twice in list order
        interior = interior[(grad.field.ranks[vertex[interior]] * len(cols)
                             + interior).argsort()]
        mult = mult[interior]
        # slots bounds[j]:bounds[j + 1] are the copies of the j-th point
        self.bounds = np.zeros(len(mult) + 1, dtype=np.int64)
        mult.cumsum(out=self.bounds[1:])
        self.point = interior.repeat(mult)
        self.vertex, self.index = vertex[self.point], index[self.point]
        copy = np.arange(len(self.point)) - self.bounds[:-1].repeat(mult)
        self.stars, self.star_bounds, owned = _critical_stars(grad)
        group = self.index * len(grad.verts[0]) + self.vertex
        own = owned[group]
        mine = (copy < own).nonzero()[0]
        ids = self.stars[self.star_bounds[group[mine] + 1] - own[mine]
                         + copy[mine]]
        self.slot_of = np.full(self.base[-1], -1, dtype=np.int64)
        self.slot_of[np.array(self.base)[self.index[mine]] + ids] = mine
        self.sid_of = np.full(len(self.point), -1, dtype=np.int64)
        self.sid_of[mine] = ids
        for i in (self.sid_of < 0).nonzero()[0].tolist():
            self._augment(i, set())

    def _star(self, i):
        """The critical simplices of slot ``i``'s star at the initial
        matching, by descending simplex key."""
        g = self.index.item(i) * len(self.grad.verts[0]) + self.vertex.item(i)
        a, b = self.star_bounds[g:g + 2].tolist()
        return self.stars[a:b].tolist()

    def _candidates(self, i):
        k = self.index.item(i)
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
            k, s = key
            x = self.base[k] + s
            holder = self.slot_of.item(x)
            if holder < 0 or self._augment(holder, banned, seen):
                old = self.sid_of.item(i)
                if old >= 0 and self.slot_of.item(self.base[k] + old) == i:
                    self.slot_of[self.base[k] + old] = -1
                self.slot_of[x] = i
                self.sid_of[i] = s
                return True
        return False

    def release(self, dims_sids) -> bool:
        """Unmatch the given simplices: True if none is matched, or if
        the one matched simplex's slot found another simplex.

        On False the matching is unchanged.  Two matched simplices give
        False without a search, which is how the heap drops an arc whose
        ends both became matched after it was pushed.
        """
        held = [key for key in dims_sids if self.is_matched(*key)]
        if len(held) != 1:
            return not held
        k, s = held[0]
        x = self.base[k] + s
        i = self.slot_of.item(x)
        self.slot_of[x] = self.sid_of[i] = -1
        if self._augment(i, set(dims_sids)):
            return True
        self.slot_of[x], self.sid_of[i] = i, s
        return False

    def is_matched(self, dim, sid) -> bool:
        return self.slot_of.item(self.base[dim] + sid) >= 0


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

    A point fails only if none of its copies found a simplex; failures
    are listed in ``critical_points`` order.
    """
    m = matching
    held = m.sid_of >= 0
    taken = np.zeros(len(held) + 1, dtype=np.int64)
    held.cumsum(out=taken[1:])
    cut = taken[m.bounds]       # the held simplices of each point
    first = m.bounds[:-1]       # the first slot of each point
    failed = np.sort(m.point[first[cut[1:] == cut[:-1]]])
    sids, cut = m.sid_of[held].tolist(), cut.tolist()
    matched = dict(zip(
        zip(m.vertex[first].tolist(), m.index[first].tolist()),
        map(sids.__getitem__, map(slice, cut, cut[1:]))))
    failures = [critical_points[i] for i in failed.tolist()]
    spurious = {k: set(_interior_ids(m, k, m.slot_of[a:b] < 0).tolist())
                for k, (a, b) in enumerate(zip(m.base, m.base[1:]))}
    return ComplianceReport(matched, failures, spurious, cancelled)


def _interior_ids(matching, dim, where=True):
    """Ascending ids of the critical dim-simplices off the boundary, of
    those where the mask ``where`` holds."""
    up, down = matching.grad.pair_up[dim], matching.grad.pair_down[dim]
    return ((up < 0) & (down < 0) & ~matching.boundary[dim]
            & where).nonzero()[0]


def _peaks(grad, k, sids):
    """The field values at the highest vertices of k-simplices ``sids``."""
    field = grad.field
    top = field.ranks[grad.verts[k].take(sids, axis=0)].max(axis=1)
    return field.values[field.order[top]]


def _arcs(grad, matching, lo, root_dim, traces, roots, version):
    """``(root, end, entries)``: every critical end the ``roots`` reach,
    with its root, and the heap entries of the arcs that qualify.

    An arc qualifies when ``traces`` says its end is reached once and
    may be cancelled, and not both of its ends are matched.  Its entry
    is ``(weight, lower id, upper id, version)``.
    """
    end_dim = 2 * lo + 1 - root_dim
    root, end, once = traces(roots)
    slot_of, base = matching.slot_of, matching.base
    once &= (slot_of[base[root_dim] + root] < 0) | \
        (slot_of[base[end_dim] + end] < 0)
    r, e = root[once], end[once]
    w = np.abs(_peaks(grad, end_dim, e) - _peaks(grad, root_dim, r))
    lower, upper = (r, e) if root_dim == lo else (e, r)
    return root, end, list(zip(w.tolist(), lower.tolist(), upper.tolist(),
                               [version] * len(w)))


def _cancel_by_heap(grad, matching, lo, root_dim, roots, traces, cancel):
    """Cancel (lo, lo+1) pairs from a heap of arcs, lowest weight first,
    ties by lower then upper id (see the module docstring).

    ``roots`` is the array of simplices of dimension ``root_dim`` that
    walks start from; the other end of an arc has the other dimension.
    ``traces(roots)`` returns three arrays over the critical ends the
    roots' walks reach, repeats allowed: each end's root, the end, and
    whether the end is reached by exactly one V-path and may be
    cancelled.  ``cancel(root, end)`` reverses the path between the two.
    """
    first_root, first_end, heap = _arcs(grad, matching, lo, root_dim,
                                        traces, roots, 0)
    heapq.heapify(heap)
    by_end = None                 # first_end sorted, and its roots
    version = {}                  # root traced again -> cancellations then
    reaching = defaultdict(list)  # end -> (root, version) of later traces

    def roots_reaching(end):
        nonlocal by_end
        if by_end is None:
            order = first_end.argsort()
            by_end = first_end[order], first_root[order]
        ends, roots = by_end
        a, b = np.searchsorted(ends, (end, end + 1)).tolist()
        return {r for r in roots[a:b].tolist() if r not in version} \
            | {r for r, v in reaching.pop(end, ()) if version[r] == v}

    def retrace(roots, step):
        version.update(dict.fromkeys(roots, step))
        live = [r for r in roots if grad.is_critical(root_dim, r)]
        if not live:
            return
        root, ends, entries = _arcs(grad, matching, lo, root_dim, traces,
                                    np.array(live), step)
        for r, end in zip(root.tolist(), ends.tolist()):
            reaching[end].append((r, step))
        for entry in entries:
            heapq.heappush(heap, entry)

    cancelled = []
    while heap:
        _, lower, upper, ver = heapq.heappop(heap)
        root, end = (lower, upper) if root_dim == lo else (upper, lower)
        if ver != version.get(root, 0) or not grad.is_critical(lo, lower) \
                or not grad.is_critical(lo + 1, upper):
            continue
        if not matching.release([(lo, lower), (lo + 1, upper)]):
            continue            # for good: see the module docstring
        cancel(root, end)
        cancelled.append((lo, lower, upper))
        retrace(sorted(roots_reaching(end)), len(cancelled))
    return cancelled


def _cancel_facet_pairs(grad, matching) -> list:
    """Saddle/maximum cancellations; a pair qualifies when its two ends
    are joined by exactly one V-path, at least one end is spurious, and
    any matched end can be re-matched elsewhere.

    Roots are the interior critical facets, traced by the current ends
    of their co-faces' ascending walks.  These are union-find roots: the
    ``parent`` of a d-cell starts as its ``ascending_segmentation``
    label, and the walks that leave the domain end at -1, which indexes
    ``parent``'s extra last slot and is its own class; no arc ends
    there.  A cancellation walks only the path it reverses, out of the
    co-face of ``sigma`` whose class is its maximum ``tau``, and links
    ``tau``'s class to that of ``sigma``'s other co-face.
    """
    d = grad.tri.dim
    rows, via = _walk_arrays(grad, True)
    # the ascending segmentation over the extra last slot, -1, where
    # the walks that leave the domain end
    parent = _walk_ends(grad, True)
    # which classes an arc may end at: not the boundary, not -1
    may_end = np.zeros(len(parent), dtype=bool)
    np.logical_not(matching.boundary[d], out=may_end[:-1])

    def find(x):
        """The class of each cell in ``x``, whose paths it compresses."""
        top = parent[x]
        while True:
            up = parent[top]
            if (up == top).all():
                break
            top = up
        parent[x] = top
        return top

    def traces(sigmas):
        ends = find(rows.take(sigmas, axis=0))
        once = (ends != ends[:, ::-1]) & may_end[ends]
        reached = ends >= 0
        return sigmas.repeat(2)[reached.ravel()], ends[reached], \
            once[reached]

    def cancel(sigma, tau):
        heads = rows[sigma]
        ends = find(heads)
        i = int(ends[1] == tau)
        pairs, x = [], heads.item(i)
        while x != tau:
            f = via.item(x)
            pairs.append((f, x))
            a = rows.item(f, 0)
            x = rows.item(f, 1) if a == x else a
        reverse_vpath(grad, VPath(d - 1, tau, sigma, pairs[::-1]))
        parent[tau] = ends[1 - i]

    return _cancel_by_heap(grad, matching, d - 1, d - 1,
                           _interior_ids(matching, d - 1), traces, cancel)


def _cancel_connector_pairs(grad, matching) -> list:
    """1-saddle/2-saddle cancellations (3D only), with the same
    qualification as ``_cancel_facet_pairs``.

    Roots are the interior critical triangles, traced by counting their
    descending V-paths to the interior critical edges.  Each call counts
    afresh, with a memo of its own that the roots of one ``traces`` call
    share; a cancellation counts its root again and reads the path from
    those counts.
    """
    edges = set(_interior_ids(matching, 1).tolist())

    def traces(taus):
        root, end, once, memo = [], [], [], {}
        for tau in taus.tolist():
            counts = _vpath_counts(grad, 1, tau, edges, memo)
            root += [tau] * len(counts)
            end += counts
            once += [n == 1 for n in counts.values()]
        return np.array(root, dtype=np.int64), \
            np.array(end, dtype=np.int64), np.array(once, dtype=bool)

    def cancel(tau, e):
        memo = {}
        _vpath_counts(grad, 1, tau, {e}, memo)
        reverse_vpath(grad, _first_vpath(grad, 1, tau, e, memo))
        edges.discard(e)

    return _cancel_by_heap(grad, matching, 1, 2,
                           _interior_ids(matching, 2), traces, cancel)


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

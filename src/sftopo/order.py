"""Total vertex order for scalar fields with tie-breaking offsets.

A scalar field is made injective by pairing each value with an integer
offset: ``u < v`` iff ``f(u) < f(v)``, or ``f(u) == f(v)`` and
``O(u) < O(v)``.  All downstream algorithms consume only the resulting
rank permutation, so simplifying a field amounts to rewriting values and
offsets while keeping this interface stable.  The module also holds the
pointer-doubling step shared by the array passes that follow chains to
their ends (link components, merge and contour trees, segmentations),
and the one scalar union-find ``_find``, which every elder-rule sweep
(the merge trees and both pair recomputations of ``check``) runs on.

A field cannot change: ``OrderField`` copies its values and offsets and
marks them, its order and its ranks read-only.  That makes its store
(see ``stored``) safe.  The store holds, per triangulation, the link
components of every vertex (``critical.link_components``, the one link
pass that the critical points and both merge trees read), the critical
points, the join and split trees, and the lower-star discrete gradient
(``gradient._lower_star_gradient``), which ``build_gradient`` copies,
the 3D persistence diagram reads its (1,2) pairs from, and ``check``
its critical edges.
"""

from __future__ import annotations

import functools

import numpy as np


def _pointer_jump(ptr: np.ndarray) -> np.ndarray:
    """Map every index to the end of its pointer chain by doubling.

    ``ptr[i]`` is the next index after ``i``, and ``i`` itself at a
    chain's end.  An end may also be -1 when the last slot holds -1,
    since -1 indexes that slot.  ``ptr = ptr[ptr]`` runs until nothing
    changes, or ``len(ptr).bit_length() + 1`` times; a chain that closes
    into a cycle then ends on no end, and raises ``ValueError``.
    """
    step = ptr
    for _ in range(len(ptr).bit_length() + 1):
        nxt = ptr[ptr]
        if (nxt == ptr).all():
            break
        ptr = nxt
    if not (step[ptr] == ptr).all():
        raise ValueError("pointer chains close into a cycle")
    return ptr


def _find(parent, x):
    """The root of ``x`` in the union-find forest ``parent``, a list,
    halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def stored(build):
    """Make ``build(tri, field, *args)`` a structure kept in the field's
    store; the field-side twin of ``triangulation.base.stored``.

    The first call with given arguments checks that the field has one
    value per vertex of ``tri`` (``ValueError`` if not), which no
    builder checks again, then builds the result and marks an array (or
    a tuple of arrays) read-only; a builder that returns another object
    marks its arrays itself.  Every later call returns the
    same object, or a fresh copy of a list, so that no caller edits what
    the store holds.  The key holds the triangulation object itself: one
    field on a grid and on its explicit copy has one entry for each.
    The wrapper calls the builder through its ``__wrapped__`` attribute,
    where a test can count the builds.
    """
    name = build.__name__

    @functools.wraps(build)
    def query(tri, field, *args):
        key = (name, tri, *args)
        got = field._store.get(key)
        if got is None:
            if len(field) != tri.simplex_count(0):
                raise ValueError("field length does not match vertex count")
            got = query.__wrapped__(tri, field, *args)
            for arr in got if isinstance(got, tuple) else (got,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            field._store[key] = got
        return list(got) if isinstance(got, list) else got

    return query


class OrderField:
    """Scalar field plus injective tie-breaking offsets on the vertices.

    Parameters
    ----------
    values:
        One scalar per vertex; copied.
    offsets:
        Integer tie-breaker per vertex; defaults to the vertex id.
        Must be injective (checked); copied.

    Attributes
    ----------
    ranks:
        ``ranks[v]`` is the position of vertex ``v`` in the ascending
        total order; ``order[i]`` is the vertex with rank ``i``.

    ``values``, ``offsets``, ``order`` and ``ranks`` are read-only.
    Simplices are ordered by their vertex ranks alone, in arrays, by
    ``gradient._rank_keys``.
    """

    def __init__(self, values, offsets=None):
        self.values = np.array(values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be one scalar per vertex")
        n = len(self.values)
        if offsets is None:
            offsets = np.arange(n, dtype=np.int64)
        else:
            offsets = np.array(offsets, dtype=np.int64)
            if offsets.shape != (n,):
                raise ValueError("offsets must match values in length")
            ordered = np.sort(offsets)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("offsets must be injective")
        self.offsets = offsets
        self.order = np.lexsort((self.offsets, self.values))
        self.ranks = np.empty(n, dtype=np.int64)
        self.ranks[self.order] = np.arange(n)
        for arr in (self.values, self.offsets, self.order, self.ranks):
            arr.flags.writeable = False
        self._store = {}    # (builder, tri, *args) -> result; see ``stored``

    def __len__(self) -> int:
        return len(self.values)

"""Critical points of a piecewise-linear scalar field.

A vertex is classified by the connectivity of its lower and upper links:
the sub-complexes of its link spanned by vertices that come before
(resp. after) it in the total order.  Regular vertices have exactly one
lower and one upper component; minima have an empty lower link, maxima
an empty upper link, and saddles have more than one component on at
least one side.  ``extract_critical_points`` applies these rules to
every vertex at once, as one table of masks over the link counts.

``link_components`` finds the components of every link in one array
pass, once per field and kept in the field's store (see
``order.stored``).  Its graph is the half-edge link graph.  The link
vertices of ``v`` are its half-edges: ``h = 2e + s`` is edge ``e`` seen
from its vertex ``simplex_array(1)[e, s]``, and lies in the lower link
when the edge's other end comes first.  A triangle (x, y, z), its
vertices ascending, joins at each vertex the half-edges of its two
edges there: (xy, 0) and (xz, 0) at x, (xy, 1) and (yz, 0) at y, and
(xz, 1) and (yz, 1) at z, where the edges are the triangle's row of
``facet_ids(2)`` (column j is opposite vertex j), so nothing is
searched.  Such a link edge lies in the lower (upper) link when both
its ends do, which is so at the triangle's highest (lowest) vertex and
never at its middle one.  The triangles alone give every link's
1-skeleton, which decides its connectivity; a component's smallest
half-edge is its root.  ``extract_critical_points`` counts the roots of
each vertex, and ``trees.build_merge_tree`` reads the same roots to find
where sub-level components meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .order import OrderField, _pointer_jump, stored
from .triangulation import Triangulation


@dataclass(frozen=True)
class PLCriticalPoint:
    """A critical vertex of the field.

    ``index`` is 0 for minima, ``dim`` for maxima, otherwise the saddle
    index (1, or 2 in 3D).  ``multiplicity`` counts how many extra link
    components the saddle has (1 for simple saddles); it is 1 for
    extrema.  Degenerate 3D vertices whose lower *and* upper links are
    both disconnected are reported once per side, so the same vertex may
    appear with index 1 and index 2.
    """

    vertex: int
    index: int
    multiplicity: int
    value: float
    boundary: bool


def _components(n, a, b):
    """Component labels of the graph on ``n`` nodes with edges (a, b).

    Min-label propagation with pointer jumping, run to a fixed point:
    every node ends up labelled with the smallest node of its component.
    An edge whose ends agree keeps agreeing, so it leaves the work list,
    one array at a time, so that at most one list is held twice.
    """
    label = np.arange(n)
    la, lb = a, b               # the labels of a and b: the identity
    while len(a):
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        del low
        label = _pointer_jump(label)
        la, lb = label[a], label[b]
        differ = np.flatnonzero(la != lb)
        a = a[differ]
        b = b[differ]
        la = la[differ]
        lb = lb[differ]
    return label


def _link_edges(tri: Triangulation, lower):
    """The link edges that lie in a lower or an upper link, as two
    arrays of half-edges (see the module docstring)."""
    # facet column j is the edge opposite vertex j: a row is yz, xz, xy
    yz, xz, xy = (2 * tri.facet_ids(2)).T
    a = np.concatenate((xy, xy + 1, xz + 1))    # at x, at y, at z
    b = np.concatenate((xz, yz, yz + 1))
    del yz, xz, xy          # frees the doubled facet rows
    keep = np.flatnonzero(lower[a] == lower[b])
    a = a[keep]             # one full-length list at a time
    return a, b[keep]


@stored
def link_components(tri: Triangulation, field: OrderField):
    """``(lower, roots)``: the link components of every vertex.

    ``lower`` is a bool array over the half-edges (see the module
    docstring): ``lower[h]`` says whether ``h`` lies in its vertex's
    lower link.  ``roots`` holds the smallest half-edge of each link
    component, ascending.  Both are read-only; built once per field and
    triangulation, and kept in the field's store, which refuses a field
    of the wrong length.
    """
    ranks = field.ranks
    ends = tri.simplex_array(1)
    below = ranks[ends[:, 1]] < ranks[ends[:, 0]]
    lower = np.stack((below, ~below), axis=1).ravel()
    n = len(lower)
    roots = np.flatnonzero(_components(n, *_link_edges(tri, lower))
                           == np.arange(n))
    return lower, roots


def _link_counts(tri: Triangulation, field: OrderField):
    """Lower and upper link component counts of every vertex, as arrays:
    the roots of ``link_components`` by vertex and side."""
    lower, roots = link_components(tri, field)
    at = tri.simplex_array(1).ravel()[roots]
    n_lower = np.bincount(at[lower[roots]], minlength=len(field))
    return n_lower, np.bincount(at, minlength=len(field)) - n_lower


@stored
def extract_critical_points(tri: Triangulation, field: OrderField):
    """All critical points, sorted by (vertex id, index).

    Every vertex is classified at once from its link counts by one rule
    table, whose rows are (mask, index, multiplicity): minima (empty
    lower link), lower-link saddles, maxima (empty upper link) and
    upper-link saddles.  In 2D a vertex whose lower and upper links are
    both split is one saddle, which the lower-link row reports.  Built
    once per field and triangulation, kept in the field's store, which
    refuses a field of the wrong length; each call returns a fresh
    list."""
    n_lower, n_upper = _link_counts(tri, field)
    d, ones = tri.dim, np.ones_like(n_lower)
    rules = (
        (n_lower == 0, 0, ones),
        (n_lower >= 2, 1, n_lower - 1),
        (n_upper == 0, d, ones),
        ((n_upper >= 2) & ((d == 3) | (n_lower < 2)), d - 1, n_upper - 1),
    )
    picks = [np.flatnonzero(mask) for mask, _, _ in rules]
    verts = np.concatenate(picks)
    index = np.repeat([i for _, i, _ in rules], [len(p) for p in picks])
    mult = np.concatenate([m[p] for (_, _, m), p in zip(rules, picks)])
    order = np.lexsort((index, verts))
    verts, index, mult = verts[order], index[order], mult[order]
    return list(map(PLCriticalPoint, verts.tolist(), index.tolist(),
                    mult.tolist(), field.values[verts].tolist(),
                    tri.boundary_flags()[0][verts].tolist()))

"""Critical points of a piecewise-linear scalar field.

A vertex is classified by the connectivity of its lower and upper links:
the sub-complexes of its link spanned by vertices that come before
(resp. after) it in the total order.  Regular vertices have exactly one
lower and one upper component; minima have an empty lower link, maxima
an empty upper link, and saddles have more than one component on at
least one side.

``extract_critical_points`` counts the components of every link in one
array pass.  A link vertex ``u`` of ``v`` is the directed edge (v, u),
and two link vertices are joined by a link edge exactly when the three
vertices span a triangle, so the triangles alone give every link's
1-skeleton, which decides its connectivity.
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


def _critical_points(d, v, n_lower, n_upper, value, boundary):
    """The PLCriticalPoints of a vertex with the given link counts."""
    out = []
    if n_lower == 0:
        out.append(PLCriticalPoint(v, 0, 1, value, boundary))
    elif n_lower >= 2:
        out.append(PLCriticalPoint(v, 1, n_lower - 1, value, boundary))
    if n_upper == 0:
        out.append(PLCriticalPoint(v, d, 1, value, boundary))
    elif n_upper >= 2 and d == 3:
        out.append(PLCriticalPoint(v, d - 1, n_upper - 1, value, boundary))
    elif n_upper >= 2 and d == 2 and n_lower < 2:
        # in 2D both sides describe the same saddle; report it once,
        # preferring the lower-link count when both are split
        out.append(PLCriticalPoint(v, 1, n_upper - 1, value, boundary))
    return out


def _components(n, a, b):
    """Component labels of the graph on ``n`` nodes with edges (a, b).

    Min-label propagation with pointer jumping, run to a fixed point:
    every node ends up labelled with the smallest node of its component.
    An edge whose ends agree keeps agreeing, so it leaves the work list.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        a, b, la, lb = a[differ], b[differ], la[differ], lb[differ]
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        label = _pointer_jump(label)


def _link_component_arrays(tri: Triangulation, field: OrderField):
    """Lower and upper link component counts of every vertex, as arrays."""
    n = tri.simplex_count(0)
    ranks = field.ranks
    offsets, ids = tri.neighbor_csr()
    owner = np.repeat(np.arange(n), np.diff(offsets))
    lower = ranks[ids] < ranks[owner]
    keys = owner * n + ids      # ascending: by owner, then sorted rows

    def node(v, u):             # position of the directed edge (v, u)
        return np.searchsorted(keys, v * n + u)

    tris = tri.simplex_array(2)
    x, y, z = np.sort(ranks[tris], axis=1).T
    x, y, z = field.order[x], field.order[y], field.order[z]
    # z's lower link joins x and y; x's upper link joins y and z
    a = np.concatenate((node(z, x), node(x, y)))
    b = np.concatenate((node(z, y), node(x, z)))
    roots = _components(len(ids), a, b) == np.arange(len(ids))
    return (np.bincount(owner[roots & lower], minlength=n),
            np.bincount(owner[roots & ~lower], minlength=n))


@stored
def extract_critical_points(tri: Triangulation, field: OrderField):
    """All critical points, sorted by (vertex id, index).

    Built once per field and triangulation, kept in the field's store;
    each call returns a fresh list."""
    if len(field) != tri.simplex_count(0):
        raise ValueError("field length does not match vertex count")
    n_lower, n_upper = _link_component_arrays(tri, field)
    boundary = tri.boundary_flags()[0]
    out = []
    for v in np.flatnonzero((n_lower != 1) | (n_upper != 1)).tolist():
        out.extend(_critical_points(
            tri.dim, v, int(n_lower[v]), int(n_upper[v]),
            float(field.values[v]), bool(boundary[v])))
    return out

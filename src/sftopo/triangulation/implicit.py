"""Implicit triangulation of a regular grid (no stored connectivity).

Quads are split into 2 triangles along the (i,j) -> (i+1,j+1) diagonal;
voxels into the 6 tetrahedra of the Kuhn subdivision along the main
diagonal (i,j,k) -> (i+1,j+1,k+1).  Every simplex is translation of one
of a small set of *classes* (offset patterns anchored at its lowest
vertex), so identifiers are laid out as contiguous per-class blocks in
row-major anchor order: ``id = start + anchor . strides``.

A query checks its handle (``_simplex_id`` of the base class), then
decodes its id (a bisect over the block starts, then divmod by
the block shape) and evaluates linear formulas of the anchor.  A grid
keeps its block layout and the vertex offsets of each class.  The first
``faces``, ``cofaces``, ``vertex_link`` or ``is_boundary`` call adds
the per-class stencils: for each class, the ``(start + delta . strides,
strides)`` formula of every face, co-face and link simplex, together
with the grid borders that rule a co-face out or put the class on the
boundary.  Their size does not depend on the vertex count; the
per-simplex queries need no tables.  The array queries
(``simplex_array`` and those of the base class) are generated from the
block layout on first use and kept in the store.

Boundary flags are arithmetic too: a simplex of dimension k < d lies on
the boundary iff all its vertices share a coordinate 0 or n-1 on one
axis (for a vertex: some coordinate is 0 or n-1), and a d-cell iff d of
its vertices do, which is when it has a boundary facet.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

import numpy as np

from .base import SimplexRef, Triangulation, TriangulationError, stored


# --------------------------------------------------------------------------
# Simplex classes of the Kuhn subdivision, derived from the cell classes.
# --------------------------------------------------------------------------

def _cell_classes(gdim):
    """Vertex-offset patterns of the d-cells tiling one grid cell."""
    if gdim == 2:
        return [
            ((0, 0), (1, 0), (1, 1)),  # below the main diagonal
            ((0, 0), (0, 1), (1, 1)),  # above the main diagonal
        ]
    cells = []
    for perm in permutations(range(3)):
        v = [0, 0, 0]
        chain = [tuple(v)]
        for ax in perm:
            v[ax] += 1
            chain.append(tuple(v))
        cells.append(tuple(chain))
    return cells


def _offset_key(off):
    # axis-aligned before diagonal, x-fastest within: gives the paper's
    # horizontal / vertical / diagonal edge-block order in 2D
    return (sum(off), tuple(reversed(off)))


def _normalize(offsets):
    lo = tuple(min(o[a] for o in offsets) for a in range(len(offsets[0])))
    shifted = [tuple(o[a] - lo[a] for a in range(len(lo))) for o in offsets]
    return tuple(sorted(shifted, key=_offset_key)), lo


@dataclass(frozen=True)
class _SimplexClass:
    offsets: tuple        # vertex offsets, sorted by _offset_key
    support: tuple        # per axis: 1 if some offset spans it


@lru_cache(maxsize=None)
def _classes(gdim):
    """classes[k] = ordered list of _SimplexClass for k-simplices."""
    per_dim = []
    cells = _cell_classes(gdim)
    for k in range(gdim + 1):
        seen = {}
        for cell in cells:
            for sub in combinations(cell, k + 1):
                offs, _ = _normalize(sub)
                seen.setdefault(offs, None)
        ordered = sorted(seen, key=lambda offs: [_offset_key(o) for o in offs])
        per_dim.append([
            _SimplexClass(
                offs,
                tuple(int(any(o[a] for o in offs)) for a in range(gdim)),
            )
            for offs in ordered
        ])
    return per_dim


@lru_cache(maxsize=None)
def _incidences(gdim):
    """incidences[(i, ci, l)] = [(cl, delta), ...]: the l-faces (l < i)
    or l-co-faces (l > i) of class ci's i-simplex, each a class placed
    at an anchor delta in {-1, 0, 1}^gdim from the simplex's anchor.

    A placed simplex is a face when its offset set is a proper subset
    of the simplex's, and a co-face when it is a proper superset.
    """
    classes = _classes(gdim)
    placed = [
        (l, cl, delta, {tuple(map(operator.add, o, delta))
                        for o in cls.offsets})
        for l, dim_classes in enumerate(classes)
        for cl, cls in enumerate(dim_classes)
        for delta in product((-1, 0, 1), repeat=gdim)
    ]
    out = {}
    for i, dim_classes in enumerate(classes):
        for ci, cls in enumerate(dim_classes):
            mine = set(cls.offsets)
            for l, cl, delta, offs in placed:
                if offs < mine or offs > mine:
                    out.setdefault((i, ci, l), []).append((cl, delta))
    return out


@lru_cache(maxsize=None)
def _link_stencil(gdim):
    """[(cl, delta, fc, fdelta), ...]: one entry per d-cell of a vertex star.

    ``(cl, delta)`` is the cell (class and anchor delta, which decides
    whether it exists) and ``(fc, fdelta)`` the facet opposite the
    vertex, anchored relative to the vertex.
    """
    classes = _classes(gdim)
    index = {c.offsets: j for j, c in enumerate(classes[gdim - 1])}
    out = []
    for cl, delta in _incidences(gdim)[(0, 0, gdim)]:
        me = tuple(-x for x in delta)
        offs, lo = _normalize(
            [o for o in classes[gdim][cl].offsets if o != me])
        out.append((cl, delta, index[offs],
                    tuple(x + y for x, y in zip(delta, lo))))
    return out


# Border bits of an anchor, one per axis in each group of three:
# coordinate 0, coordinate n-1, coordinate n-2.
_LO, _HI, _HI2 = 0, 3, 6


def _pad3(t, fill=0):
    return tuple(t) + (fill,) * (3 - len(t))


class _Stencils(NamedTuple):
    """Per-class formulas of the per-simplex queries, in id order.

    ``faces[k][ci][j]`` and ``cofaces[k][ci][l]`` list the faces and
    co-faces of class ci's k-simplex, ``link`` the link facets of a
    vertex; co-face and link formulas carry the border bits that rule
    them out.  ``bnd[k][ci]`` holds the border bits that put a class on
    the boundary.
    """

    faces: list
    cofaces: list
    link: list
    bnd: list


# --------------------------------------------------------------------------


class ImplicitGridTriangulation(Triangulation):
    """Freudenthal/Kuhn triangulation of a regular grid, queried on the fly.

    Per-simplex queries need O(1) memory in the vertex count: besides
    the dims, they read only per-class block layouts and stencil
    formulas, which the first of them builds (``_stencils``), and
    ``precondition`` builds nothing.  The array queries
    keep what they build in the store, linear in the simplex count:
    0.25 MB at 6x6x6 after critical points, compliance, the diagram
    and separatrices, and 22.0 MB at 24x24x24 after the stages of
    ``check`` and ``morse-smale``.

    Parameters
    ----------
    dims:
        Vertex counts per axis, ``(w, h)`` or ``(w, h, depth)``, each >= 2.
    """

    def __init__(self, dims):
        super().__init__()
        dims = tuple(int(n) for n in dims)
        if len(dims) not in (2, 3):
            raise TriangulationError("grid dims must have 2 or 3 axes")
        if any(n < 2 for n in dims):
            raise TriangulationError("each grid axis needs at least 2 vertices")
        self.dims = dims
        self.dim = d = len(dims)
        self._classes = classes = _classes(d)
        # anchors and strides are padded to 3 axes (2D: one extra axis of
        # size 1) so every formula is c + a0*s0 + a1*s1 + a2*s2
        n3 = _pad3(dims, 1)
        self._n3 = n3
        self._vstrides = (1, n3[0], n3[0] * n3[1])
        # per dimension: block starts (plus the total), shapes, strides
        self._starts, self._shapes, self._strides = [], [], []
        for k in range(d + 1):
            starts, shapes, strides, start = [], [], [], 0
            for cls in classes[k]:
                shape = tuple(n - s for n, s in zip(n3, _pad3(cls.support)))
                starts.append(start)
                shapes.append(shape)
                strides.append((1, shape[0], shape[0] * shape[1]))
                start += shape[0] * shape[1] * shape[2]
            self._starts.append(starts + [start])
            self._shapes.append(shapes)
            self._strides.append(strides)

        # vertex ids of each class, relative to the anchor's vertex id
        self._verts = [
            [tuple(sorted(self._dot(_pad3(o), self._vstrides)
                          for o in cls.offsets))
             for cls in classes[k]]
            for k in range(d + 1)
        ]

    @cached_property
    def _stencils(self):
        """The per-simplex query formulas, built on the first ``faces``,
        ``cofaces``, ``vertex_link`` or ``is_boundary`` call."""
        d, classes = self.dim, self._classes
        incidences = _incidences(d)
        faces = [
            [[self._formulas(j, incidences[(k, ci, j)]) for j in range(k)]
             for ci in range(len(classes[k]))]
            for k in range(d + 1)
        ]
        cofaces = [
            [{l: self._formulas(l, [(cl, delta, self._forbidden(l, cl, delta))
                                    for cl, delta in incidences[(k, ci, l)]])
              for l in range(k + 1, d + 1)}
             for ci in range(len(classes[k]))]
            for k in range(d)
        ]
        link = self._formulas(d - 1, [
            (fc, fdelta, self._forbidden(d, cl, delta))
            for cl, delta, fc, fdelta in _link_stencil(d)
        ])
        bnd = []
        for k in range(d + 1):
            need = min(k + 1, d)
            masks = []
            for cls in classes[k]:
                m = 0
                for ax in range(d):
                    zeros = sum(1 for o in cls.offsets if o[ax] == 0)
                    if zeros >= need:
                        m |= 1 << (_LO + ax) | 1 << (_HI + ax)
                    if len(cls.offsets) - zeros >= need:
                        m |= 1 << (_HI2 + ax)
                masks.append(m)
            bnd.append(masks)
        return _Stencils(faces, cofaces, link, bnd)

    # -- stencil formulas -----------------------------------------------

    @staticmethod
    def _dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def _formula(self, k, ck, delta):
        """(start + delta . strides, s0, s1, s2) of class ck's block."""
        strides = self._strides[k][ck]
        return (self._starts[k][ck] + self._dot(_pad3(delta), strides),) \
            + strides

    def _forbidden(self, l, cl, delta):
        """Border bits of an anchor at which the (cl, delta) co-face is
        outside the grid: a step back from coordinate 0, or a step along
        an axis the class spans from coordinate n-1."""
        support = self._classes[l][cl].support
        m = 0
        for ax, (dx, s) in enumerate(zip(delta, support)):
            if dx < 0:
                m |= 1 << (_LO + ax)
            elif s:
                m |= 1 << (_HI + ax)
        return m

    def _formulas(self, k, entries):
        """Formulas of (class, delta, *extra) k-simplex entries, with the
        extra items appended, sorted into id order.

        Entries share the anchor, so within a class block their order is
        that of the constant term, and blocks are laid out by class.
        """
        out = sorted((ck, self._formula(k, ck, delta) + tuple(extra))
                     for ck, delta, *extra in entries)
        return [f for _, f in out]

    # -- identifier layout ----------------------------------------------

    def _decode(self, dim, sid):
        """(class, a0, a1, a2) of a dim-simplex id, a Python int that
        ``_simplex_id`` has checked, as Python ints."""
        starts = self._starts[dim]
        ci = bisect_right(starts, sid) - 1
        n0, n1, _ = self._shapes[dim][ci]
        rem, a0 = divmod(sid - starts[ci], n0)
        a2, a1 = divmod(rem, n1)
        return ci, a0, a1, a2

    def _border(self, a0, a1, a2):
        """Border bits of an anchor (see _LO, _HI, _HI2)."""
        n0, n1, n2 = self._n3
        return ((a0 == 0) | (a1 == 0) << 1 | (a2 == 0) << 2
                | (a0 == n0 - 1) << 3 | (a1 == n1 - 1) << 4
                | (a2 == n2 - 1) << 5
                | (a0 == n0 - 2) << 6 | (a1 == n1 - 2) << 7
                | (a2 == n2 - 2) << 8)

    # -- Triangulation interface ----------------------------------------

    def simplex_count(self, dim: int) -> int:
        if not 0 <= dim <= self.dim:
            raise TriangulationError(f"bad simplex dimension {dim}")
        return self._starts[dim][-1]

    def vertex_coords(self, v: int) -> tuple:
        out = []
        for n in self.dims:
            v, c = divmod(v, n)
            out.append(c)
        return tuple(out)

    def vertex_point(self, v: int):
        c = self.vertex_coords(self._simplex_id(0, v))
        return np.array(c + (0,) * (3 - len(c)), dtype=float)

    def simplex_vertices(self, s: SimplexRef) -> tuple:
        dim, sid = s
        ci, a0, a1, a2 = self._decode(dim, self._simplex_id(dim, sid))
        s0, s1, s2 = self._vstrides
        base = a0 * s0 + a1 * s1 + a2 * s2
        return tuple([base + c for c in self._verts[dim][ci]])

    def faces(self, s: SimplexRef, k: int) -> list:
        dim, sid = s
        ci, a0, a1, a2 = self._decode(dim, self._simplex_id(dim, sid, face=k))
        return [c + a0 * s0 + a1 * s1 + a2 * s2
                for c, s0, s1, s2 in self._stencils.faces[dim][ci][k]]

    def cofaces(self, s: SimplexRef, l: int) -> list:
        dim, sid = s
        ci, a0, a1, a2 = self._decode(dim,
                                      self._simplex_id(dim, sid, coface=l))
        border = self._border(a0, a1, a2)
        return [c + a0 * s0 + a1 * s1 + a2 * s2
                for c, s0, s1, s2, bad in self._stencils.cofaces[dim][ci][l]
                if not bad & border]

    def vertex_link(self, v: int) -> list:
        _, a0, a1, a2 = self._decode(0, self._simplex_id(0, v))
        border = self._border(a0, a1, a2)
        return [c + a0 * s0 + a1 * s1 + a2 * s2
                for c, s0, s1, s2, bad in self._stencils.link
                if not bad & border]

    def is_boundary(self, s: SimplexRef) -> bool:
        """Whether ``s`` lies on the grid's boundary, from its anchor alone.

        A k-simplex with k < d is on the boundary iff all its vertices
        share a coordinate 0 or n-1 on one axis; a d-cell iff d of its
        vertices do, i.e. iff it has a boundary facet.
        """
        dim, sid = s
        ci, a0, a1, a2 = self._decode(dim, self._simplex_id(dim, sid))
        return bool(self._border(a0, a1, a2)
                    & self._stencils.bnd[dim][ci])

    @stored
    def simplex_array(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.dim:
            raise TriangulationError(f"bad simplex dimension {k}")
        blocks = []
        for (n0, n1, n2), verts in zip(self._shapes[k], self._verts[k]):
            # anchors of one class block in id order: a0 fastest
            a2, a1, a0 = np.indices((n2, n1, n0)).reshape(3, -1)
            base = self._dot((a0, a1, a2), self._vstrides)
            blocks.append(base[:, None] + np.array(verts, dtype=np.int64))
        return np.concatenate(blocks)

    def point_array(self) -> np.ndarray:
        """Vertex coordinates in id order, padded to 3D."""
        pts = np.zeros((self.simplex_count(0), 3))
        # np.indices over reversed dims: the first axis varies fastest
        coords = np.indices(self.dims[::-1]).reshape(self.dim, -1)
        pts[:, : self.dim] = coords[::-1].T
        return pts

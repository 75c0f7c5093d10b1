"""Explicit triangulation built from a cell-based representation.

Only points and d-cells are kept at construction.  Every other array
lives in the triangulation's store (see ``stored`` in ``base.py``) and
is built, with the arrays it derives from, the first time a query reads
it, so a mesh holds exactly the arrays its callers read.  Each
per-simplex query checks its handle (``Triangulation._simplex_id``) and
reads one row of a stored array:

- ``simplex_vertices``: ``simplex_array(k)``, whose rows 0 and d are
  ``arange`` and the cells, and whose other rows are the distinct
  sorted vertex combinations of the cells, in lexicographic order
  (``_sorted_rows``);
- ``faces``: ``face_rows(k, j)``, the row sorted;
- ``cofaces``: the padded ``cofacet_ids(j)`` for co-faces one
  dimension up from an edge or triangle, else the CSR
  ``coface_csr(j, l)``, inverted from ``face_rows(l, j)``;
- ``vertex_link``: the CSR ``link_csr()``, grouped from ``facet_ids(d)``;
- ``is_boundary``: ``boundary_flags()``.

``face_rows`` and the CSR arrays serve these queries alone; the stages
read the base class's arrays.  ``precondition(kind)`` asks the query
that ``QUERY_KINDS`` names for the kind once, ahead of its first use.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .base import (
    QUERY_KINDS,
    SimplexRef,
    Triangulation,
    TriangulationError,
    _group,
    stored,
)


def _sorted_rows(rows, n: int) -> tuple:
    """``(sorted, first)``: the rows of ``rows``, ints in ``range(n)``,
    in lexicographic order, and the mask of those that differ from the
    row before.

    ``np.lexsort`` orders the rows by their columns taken two at a time,
    each pair packed into one int64 key ``a * n + b``: it stays below
    ``n ** 2``, which fits int64 up to 3 * 10**9 vertices, while the key
    of a whole 4-vertex row can collide above 2**16.  Two keys, not four,
    halve lexsort's time (0.44 s against 0.87 s for the set-up and
    simplex arrays of a 32³ tetrahedral mesh on a 2-core VM).  Rows are
    then compared column by column.
    """
    cols = list(rows.T)
    keys = [a * n + b for a, b in zip(cols[::2], cols[1::2])]
    keys += cols[2 * len(keys):]            # an odd last column
    rows = rows[np.lexsort(keys[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows, first


class ExplicitTriangulation(Triangulation):
    """Triangulation over an explicit point list and d-cell list.

    Cells are canonicalized to ascending vertex tuples; duplicates, and
    cells that repeat a vertex, are rejected.  Non-manifold inputs are
    accepted here and reported by
    :func:`sftopo.triangulation.validate_pseudo_manifold`.
    """

    def __init__(self, points, cells):
        super().__init__()
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] not in (2, 3):
            raise TriangulationError("points must be an (n, 2|3) array")
        if self.points.shape[1] == 2:
            self.points = np.column_stack(
                [self.points, np.zeros(len(self.points))]
            )
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or len(cells) == 0:
            raise TriangulationError("cell list must be non-empty and uniform")
        if cells.shape[1] not in (3, 4):
            raise TriangulationError(
                f"cells must have 3 or 4 vertices, got {cells.shape[1]}"
            )
        if cells.min() < 0 or cells.max() >= len(self.points):
            raise TriangulationError("cell vertex id out of range")
        self.cells = np.sort(cells, axis=1)
        if (self.cells[:, 1:] == self.cells[:, :-1]).any():
            raise TriangulationError("cell with a repeated vertex id")
        if not _sorted_rows(self.cells, len(self.points))[1].all():
            raise TriangulationError("duplicate cells in input")
        self.dim = cells.shape[1] - 1

    def precondition(self, kind: str) -> None:
        super().precondition(kind)
        query, *dims = QUERY_KINDS[kind]
        dims = [self.dim if x == "d" else x for x in dims]
        if not dims:
            getattr(self, query)(0)
        # a 2D triangle is a cell, its own only face and co-face
        elif len(set(dims)) == len(dims):
            getattr(self, query)(SimplexRef(dims[0], 0), *dims[1:])

    # -- stored arrays ---------------------------------------------------

    @stored
    def simplex_array(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.dim:
            raise TriangulationError(f"bad simplex dimension {k}")
        if k == 0:
            return np.arange(len(self.points), dtype=np.int64)[:, None]
        if k == self.dim:
            return self.cells
        combos = list(combinations(range(self.dim + 1), k + 1))
        rows, first = _sorted_rows(self.cells[:, combos].reshape(-1, k + 1),
                                   len(self.points))
        return rows[first]

    @stored
    def face_rows(self, k: int, j: int) -> np.ndarray:
        """Int64 array of the j-faces of every k-simplex, for
        ``0 <= j < k <= dim``: row ``s`` holds the ids of ``faces(s, j)``
        in some order; stored.

        The 0-faces are ``simplex_array(k)`` itself and the (k-1)-faces
        ``facet_ids(k)`` itself.  Only the edges of a tetrahedron are
        gathered, through its triangles: each edge lies in two of them,
        so each sorted gather holds it twice in a row.
        """
        if j == 0:
            return self.simplex_array(k)
        if j == k - 1:
            return self.facet_ids(k)
        edges = self.facet_ids(2)[self.facet_ids(3)].reshape(-1, 12)
        return np.ascontiguousarray(np.sort(edges, axis=1)[:, ::2])

    @stored
    def coface_csr(self, j: int, l: int) -> tuple:
        """The l-co-faces of every j-simplex as CSR int64 ``(offsets,
        ids)``: row ``s`` holds ``cofaces(s, l)``, ascending; inverted
        from ``face_rows(l, j)`` and stored.  ``cofaces`` asks for it
        only for vertices and for the tetrahedra of an edge; vertex
        rows stay CSR because a padded row would be as wide as the
        highest vertex degree."""
        faces = self.face_rows(l, j)
        owners = np.repeat(np.arange(len(faces), dtype=np.int64),
                           faces.shape[1])
        return _group(faces.ravel(), owners, self.simplex_count(j))

    @stored
    def link_csr(self) -> tuple:
        """The link of every vertex as CSR int64 ``(offsets, ids)``: row
        ``v`` holds ``vertex_link(v)``, ascending; stored.  Column ``j``
        of ``facet_ids(d)`` is the facet opposite vertex
        ``simplex_array(d)[:, j]``, so one is grouped by the other."""
        d = self.dim
        return _group(self.simplex_array(d).ravel(),
                      self.facet_ids(d).ravel(), self.simplex_count(0))

    # -- queries ---------------------------------------------------------

    def simplex_count(self, dim: int) -> int:
        return len(self.simplex_array(dim))

    def simplex_vertices(self, s: SimplexRef) -> tuple:
        dim, sid = s
        sid = self._simplex_id(dim, sid)
        return tuple(self.simplex_array(dim)[sid].tolist())

    def vertex_point(self, v: int):
        return self.points[self._simplex_id(0, v)]

    def point_array(self) -> np.ndarray:
        pts = self.points.view()
        pts.flags.writeable = False
        return pts

    def faces(self, s: SimplexRef, k: int) -> list:
        dim, sid = s
        sid = self._simplex_id(dim, sid, face=k)
        return sorted(self.face_rows(dim, k)[sid].tolist())

    def cofaces(self, s: SimplexRef, l: int) -> list:
        dim, sid = s
        sid = self._simplex_id(dim, sid, coface=l)
        if dim and l == dim + 1:
            return [c for c in self.cofacet_ids(dim)[sid].tolist() if c >= 0]
        offsets, ids = self.coface_csr(dim, l)
        return ids[offsets[sid]:offsets[sid + 1]].tolist()

    def is_boundary(self, s: SimplexRef) -> bool:
        dim, sid = s
        sid = self._simplex_id(dim, sid)
        return bool(self.boundary_flags()[dim][sid])

    def vertex_link(self, v: int) -> list:
        v = self._simplex_id(0, v)
        offsets, ids = self.link_csr()
        return ids[offsets[v]:offsets[v + 1]].tolist()

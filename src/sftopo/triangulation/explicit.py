"""Explicit cached triangulation built from a cell-based representation.

Only points and d-cells are stored at construction.  Every traversal
query is served by a lookup table built, with the tables it is derived
from, the first time a query reads it, so the memory footprint is
exactly the tables the callers read.  ``precondition(kind)`` builds a
kind's table ahead of its first query.

Tables are keyed by simplex dimensions:

- ``("rows", k)``: the ``(n_k, k+1)`` array of ascending vertex ids of
  the k-simplices, rows in lexicographic order.  Rows 0 and d always
  exist; a 2D triangle is a cell.
- ``("faces", k, j)``: per k-simplex, its ascending j-face ids.
- ``("cofaces", j, l)``: per j-simplex, the ascending list of its
  l-co-face ids, inverted from ``("faces", l, j)``.
- ``("boundary", k)``: per k-simplex, whether it lies on the boundary,
  read from ``boundary_flags()``.
- ``"links"``: per vertex, the ascending (d-1)-simplices opposite it in
  its star.

A faces or co-faces key whose dimensions are equal, and a 0-faces key,
resolves to the rows table.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .base import (
    QUERY_KINDS,
    SimplexRef,
    Triangulation,
    TriangulationError,
    _row_keys,
)

#: The table each query kind builds; "d" is the cell dimension.
_KIND_KEYS = {
    "vertex_neighbors": ("cofaces", 0, 1),
    "vertex_edges": ("cofaces", 0, 1),
    "vertex_triangles": ("cofaces", 0, 2),
    "vertex_stars": ("cofaces", 0, "d"),
    "vertex_links": "links",
    "edge_list": ("rows", 1),
    "triangle_list": ("rows", 2),
    "edge_triangles": ("cofaces", 1, 2),
    "edge_stars": ("cofaces", 1, "d"),
    "triangle_stars": ("cofaces", 2, "d"),
    "triangle_edges": ("faces", 2, 1),
    "cell_edges": ("faces", "d", 1),
    "cell_triangles": ("faces", "d", 2),
    "boundary_vertices": ("boundary", 0),
    "boundary_edges": ("boundary", 1),
    "boundary_triangles": ("boundary", 2),
    "boundary_cells": ("boundary", "d"),
}


def _group(keys: np.ndarray, values: np.ndarray, n_keys: int) -> list:
    """Per key in ``range(n_keys)``: the ascending list of its values.

    The lists hold Python ints, which hash faster than numpy scalars.
    """
    order = np.lexsort((values, keys))
    flat = values[order].tolist()
    ends = np.cumsum(np.bincount(keys, minlength=n_keys)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


class ExplicitTriangulation(Triangulation):
    """Triangulation over an explicit point list and d-cell list.

    Cells are canonicalized to ascending vertex tuples; duplicates are
    rejected.  Non-manifold inputs are accepted here and reported by
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
        keys = _row_keys(self.cells, len(self.points))
        if len(np.unique(keys)) != len(keys):
            raise TriangulationError("duplicate cells in input")
        self.dim = d = cells.shape[1] - 1
        self._tables: dict = {
            ("rows", 0): np.arange(len(self.points), dtype=np.int64)[:, None],
            ("rows", d): self.cells,
        }

    # -- table construction ---------------------------------------------

    def _resolve(self, key):
        """Canonical table key: "d" replaced, shared tables merged."""
        if isinstance(key, str):
            return key
        name, *dims = key
        dims = [self.dim if x == "d" else x for x in dims]
        if name in ("faces", "cofaces") and (
                dims[0] == dims[1] or name == "faces" and dims[1] == 0):
            return ("rows", dims[0])
        return (name, *dims)

    def _get(self, key):
        """The table under ``key``, built with its sources if missing."""
        key = self._resolve(key)
        tab = self._tables.get(key)
        if tab is None:
            tab = self._tables[key] = self._make(key)
        return tab

    def _ids(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Ids of the k-simplices with the given sorted vertex rows."""
        nv = len(self.points)
        keys = _row_keys(self._get(("rows", k)), nv)
        return np.searchsorted(keys, _row_keys(rows, nv))

    def _make(self, key):
        d, nv = self.dim, len(self.points)
        if key == "links":
            # the facet opposite each cell vertex, grouped by that vertex;
            # the i-th combination of d columns leaves out column d - i
            combos = list(combinations(range(d + 1), d))
            facets = self._ids(d - 1, self.cells[:, combos].reshape(-1, d))
            return _group(self.cells[:, ::-1].ravel(), facets, nv)
        name, *dims = key
        if name == "rows":
            (k,) = dims
            combos = list(combinations(range(d + 1), k + 1))
            raw = self.cells[:, combos].reshape(-1, k + 1)
            _, idx = np.unique(_row_keys(raw, nv), return_index=True)
            return raw[idx]
        if name == "faces":
            k, j = dims
            rows = self._get(("rows", k))
            combos = list(combinations(range(k + 1), j + 1))
            ids = self._ids(j, rows[:, combos].reshape(-1, j + 1))
            return np.sort(ids.reshape(len(rows), -1), axis=1)
        if name == "cofaces":
            j, l = dims
            faces = self._get(("faces", l, j))
            owners = np.repeat(np.arange(len(faces), dtype=np.int64),
                               faces.shape[1])
            return _group(faces.ravel(), owners, len(self._get(("rows", j))))
        return self.boundary_flags()[dims[0]]      # ("boundary", k)

    def precondition(self, kind: str) -> None:
        if kind not in QUERY_KINDS:
            raise TriangulationError(f"unknown query kind {kind!r}")
        self._get(_KIND_KEYS[kind])

    # -- queries ---------------------------------------------------------

    def _lookup(self, key):
        tab = self._tables.get(key)
        return self._get(key) if tab is None else tab

    def simplex_array(self, k: int) -> np.ndarray:
        """The rows table of the k-simplices, read-only."""
        if not 0 <= k <= self.dim:
            raise TriangulationError(f"bad simplex dimension {k}")
        rows = self._lookup(("rows", k)).view()
        rows.flags.writeable = False
        return rows

    def simplex_count(self, dim: int) -> int:
        if not 0 <= dim <= self.dim:
            raise TriangulationError(f"bad simplex dimension {dim}")
        return len(self._lookup(("rows", dim)))

    def simplex_vertices(self, s: SimplexRef) -> tuple:
        dim, sid = s
        return tuple(self._lookup(("rows", dim))[sid].tolist())

    def vertex_point(self, v: int):
        return self.points[v]

    def point_array(self) -> np.ndarray:
        pts = self.points.view()
        pts.flags.writeable = False
        return pts

    def faces(self, s: SimplexRef, k: int) -> list:
        dim, sid = s
        if not 0 <= k < dim:
            raise TriangulationError(f"bad face dimension {k} for dim {dim}")
        return self._lookup(("faces", dim, k))[sid].tolist()

    def cofaces(self, s: SimplexRef, l: int) -> list:
        dim, sid = s
        if not dim < l <= self.dim:
            raise TriangulationError(f"bad co-face dimension {l} for dim {dim}")
        return list(self._lookup(("cofaces", dim, l))[sid])

    def is_boundary(self, s: SimplexRef) -> bool:
        dim, sid = s
        return bool(self._lookup(("boundary", dim))[sid])

    def vertex_link(self, v: int) -> list:
        return list(self._lookup("links")[v])

"""Explicit cached triangulation built from a cell-based representation.

Only points and d-cells are stored at construction.  Every traversal
query is served by a lookup table that must be requested beforehand via
``precondition(kind)``; querying without the matching precondition is an
error, which keeps the memory footprint equal to exactly the tables the
callers asked for.
"""

from __future__ import annotations

import numpy as np

from .base import (
    NotPreconditionedError,
    QUERY_KINDS,
    SimplexRef,
    Triangulation,
    TriangulationError,
)


def _row_keys(rows: np.ndarray, n_vertices: int) -> np.ndarray:
    """Collapse sorted vertex rows into scalar keys for fast lookup."""
    key = rows[:, 0].astype(np.int64)
    for c in range(1, rows.shape[1]):
        key = key * n_vertices + rows[:, c]
    return key


def _unique_rows(rows: np.ndarray, n_vertices: int):
    """Distinct sorted vertex rows in lexicographic order, and their keys.

    Deduplicating the scalar keys is much cheaper than ``np.unique``
    over rows, and orders them the same way.
    """
    keys, idx = np.unique(_row_keys(rows, n_vertices), return_index=True)
    return rows[idx], keys


def _group(keys: np.ndarray, values: np.ndarray, n_keys: int) -> list:
    """Per key in ``range(n_keys)``: the ascending list of its values.

    The lists hold Python ints, which hash faster than numpy scalars.
    """
    order = np.lexsort((values, keys))
    flat = values[order].tolist()
    ends = np.cumsum(np.bincount(keys, minlength=n_keys)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _invert_membership(members: np.ndarray, n_owners: int, arity: int):
    """members: (N, arity) vertex ids -> per-vertex sorted owner-id lists."""
    owners = np.repeat(np.arange(len(members), dtype=np.int64), arity)
    return _group(members.ravel(), owners, n_owners)


class ExplicitTriangulation(Triangulation):
    """Triangulation over an explicit point list and d-cell list.

    Cells are canonicalized to ascending vertex tuples; duplicates are
    rejected.  Non-manifold inputs are accepted here and reported by
    :func:`sftopo.triangulation.validate_pseudo_manifold`.
    """

    def __init__(self, points, cells):
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
        self.dim = cells.shape[1] - 1
        self._kinds: set = set()
        self._tables: dict = {}

    # -- table construction ---------------------------------------------

    def _build(self, table: str) -> None:
        if table in self._tables:
            return
        nv = len(self.points)
        d = self.dim
        t = self._tables
        if table == "edges":
            pairs = {2: [(0, 1), (0, 2), (1, 2)],
                     3: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}[d]
            raw = self.cells[:, pairs].reshape(-1, 2)
            t["edges"], t["edge_keys"] = _unique_rows(raw, nv)
        elif table == "triangles":
            if d == 2:
                t["triangles"] = self.cells
                t["triangle_keys"] = _row_keys(self.cells, nv)
            else:
                trips = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
                raw = self.cells[:, trips].reshape(-1, 3)
                t["triangles"], t["triangle_keys"] = _unique_rows(raw, nv)
        elif table == "vertex_edges":
            self._build("edges")
            t["vertex_edges"] = _invert_membership(t["edges"], nv, 2)
        elif table == "vertex_triangles":
            self._build("triangles")
            t["vertex_triangles"] = _invert_membership(t["triangles"], nv, 3)
        elif table == "vertex_cells":
            t["vertex_cells"] = _invert_membership(self.cells, nv, d + 1)
        elif table == "cell_edges":
            self._build("edges")
            pairs = {2: [(0, 1), (0, 2), (1, 2)],
                     3: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}[d]
            raw = self.cells[:, pairs].reshape(-1, 2)
            ids = np.searchsorted(t["edge_keys"], _row_keys(raw, nv))
            t["cell_edges"] = np.sort(ids.reshape(len(self.cells), -1), axis=1)
        elif table == "cell_triangles":
            self._build("triangles")
            trips = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
            raw = self.cells[:, trips].reshape(-1, 3)
            ids = np.searchsorted(t["triangle_keys"], _row_keys(raw, nv))
            t["cell_triangles"] = np.sort(
                ids.reshape(len(self.cells), -1), axis=1
            )
        elif table == "triangle_edges":
            self._build("edges")
            self._build("triangles")
            tri = t["triangles"]
            raw = tri[:, [(0, 1), (0, 2), (1, 2)]].reshape(-1, 2)
            ids = np.searchsorted(t["edge_keys"], _row_keys(raw, nv))
            t["triangle_edges"] = np.sort(ids.reshape(len(tri), -1), axis=1)
        elif table == "edge_triangles":
            self._build("triangle_edges")
            ne = len(t["edges"])
            t["edge_triangles"] = _invert_membership(
                t["triangle_edges"], ne, 3
            )
        elif table == "edge_cells":
            self._build("cell_edges")
            ne = len(t["edges"])
            arity = self._tables["cell_edges"].shape[1]
            t["edge_cells"] = _invert_membership(t["cell_edges"], ne, arity)
        elif table == "triangle_cells":
            self._build("cell_triangles")
            nt = len(t["triangles"])
            t["triangle_cells"] = _invert_membership(
                t["cell_triangles"], nt, 4
            )
        elif table == "boundary_facets":
            # boundary (d-1)-simplices: exactly one d-co-face
            if d == 2:
                self._build("edge_cells")
                counts = np.array([len(c) for c in t["edge_cells"]])
            else:
                self._build("triangle_cells")
                counts = np.array([len(c) for c in t["triangle_cells"]])
            t["boundary_facets"] = counts == 1
        elif table == "boundary_vertices":
            self._build("boundary_facets")
            flags = np.zeros(nv, dtype=bool)
            facets = (
                t["edges"] if d == 2 else t["triangles"]
            )[t["boundary_facets"]]
            flags[facets.ravel()] = True
            t["boundary_vertices"] = flags
        elif table == "boundary_edges":
            self._build("boundary_facets")
            if d == 2:
                t["boundary_edges"] = t["boundary_facets"]
            else:
                self._build("triangle_edges")
                flags = np.zeros(len(t["edges"]), dtype=bool)
                bnd = t["triangle_edges"][t["boundary_facets"]]
                flags[bnd.ravel()] = True
                t["boundary_edges"] = flags
        elif table == "boundary_triangles":
            self._build("boundary_facets")
            t["boundary_triangles"] = t["boundary_facets"]
        elif table == "boundary_cells":
            self._build("boundary_facets")
            key = "cell_edges" if d == 2 else "cell_triangles"
            self._build(key)
            t["boundary_cells"] = t["boundary_facets"][t[key]].any(axis=1)
        elif table == "vertex_links":
            # the facet opposite each cell vertex, grouped by that vertex
            facets, keys = (("edges", "edge_keys") if d == 2
                            else ("triangles", "triangle_keys"))
            self._build(facets)
            verts, links = [], []
            for j in range(d + 1):
                others = [c for c in range(d + 1) if c != j]
                verts.append(self.cells[:, j])
                links.append(np.searchsorted(
                    t[keys], _row_keys(self.cells[:, others], nv)))
            t["vertex_links"] = _group(
                np.concatenate(verts), np.concatenate(links), nv)
        else:
            raise AssertionError(f"unknown table {table}")

    _KIND_TABLES = {
        "vertex_neighbors": ["edges", "vertex_edges"],
        "vertex_edges": ["edges", "vertex_edges"],
        "vertex_triangles": ["triangles", "vertex_triangles"],
        "vertex_stars": ["vertex_cells"],
        "vertex_links": ["vertex_links"],
        "edge_list": ["edges"],
        "triangle_list": ["triangles"],
        "edge_triangles": ["edge_triangles"],
        "edge_stars": ["edge_cells"],
        "triangle_stars": ["triangle_cells"],
        "triangle_edges": ["triangle_edges"],
        "cell_edges": ["cell_edges"],
        "cell_triangles": ["cell_triangles"],
        "boundary_vertices": ["boundary_vertices"],
        "boundary_edges": ["boundary_edges"],
        "boundary_triangles": ["boundary_triangles"],
        "boundary_cells": ["boundary_cells"],
    }

    def precondition(self, kind: str) -> None:
        if kind not in QUERY_KINDS:
            raise TriangulationError(f"unknown query kind {kind!r}")
        if self.dim == 2 and kind in (
            "vertex_triangles", "edge_triangles", "triangle_stars",
            "triangle_edges", "cell_triangles", "boundary_triangles",
        ):
            # triangles are the cells of a 2D complex; alias the cell kinds
            alias = {
                "vertex_triangles": "vertex_stars",
                "edge_triangles": "edge_stars",
                "triangle_edges": "cell_edges",
                "cell_triangles": "triangle_list",
                "boundary_triangles": "boundary_cells",
                "triangle_stars": "triangle_list",
            }[kind]
            kind = alias
        if kind in self._kinds:
            return
        for table in self._KIND_TABLES[kind]:
            self._build(table)
        self._kinds.add(kind)

    def preconditioned_kinds(self) -> frozenset:
        return frozenset(self._kinds)

    def built_tables(self) -> frozenset:
        return frozenset(self._tables)

    # -- queries ---------------------------------------------------------

    def _table(self, name: str, kind: str):
        tab = self._tables.get(name)
        if tab is None:
            raise NotPreconditionedError(kind)
        return tab

    def simplex_count(self, dim: int) -> int:
        if not 0 <= dim <= self.dim:
            raise TriangulationError(f"bad simplex dimension {dim}")
        if dim == 0:
            return len(self.points)
        if dim == self.dim:
            return len(self.cells)
        if dim == 1:
            return len(self._table("edges", "edge_list"))
        return len(self._table("triangles", "triangle_list"))

    def simplex_vertices(self, s: SimplexRef) -> tuple:
        dim, sid = s
        if dim == 0:
            return (sid,)
        if dim == self.dim:
            return tuple(self.cells[sid].tolist())
        if dim == 1:
            return tuple(self._table("edges", "edge_list")[sid].tolist())
        return tuple(self._table("triangles", "triangle_list")[sid].tolist())

    def vertex_point(self, v: int):
        return self.points[v]

    def faces(self, s: SimplexRef, k: int) -> list:
        dim, sid = s
        if not 0 <= k < dim:
            raise TriangulationError(f"bad face dimension {k} for dim {dim}")
        if k == 0:
            return list(self.simplex_vertices(s))
        d = self.dim
        if dim == d:
            if k == 1:
                return self._table("cell_edges", "cell_edges")[sid].tolist()
            return self._table("cell_triangles", "cell_triangles")[sid].tolist()
        # dim == 2 < d: triangle -> edges
        return self._table("triangle_edges", "triangle_edges")[sid].tolist()

    def cofaces(self, s: SimplexRef, l: int) -> list:
        dim, sid = s
        if not dim < l <= self.dim:
            raise TriangulationError(f"bad co-face dimension {l} for dim {dim}")
        d = self.dim
        if dim == 0:
            if l == 1:
                return list(self._table("vertex_edges", "vertex_edges")[sid])
            if l == d:
                return list(self._table("vertex_cells", "vertex_stars")[sid])
            return list(
                self._table("vertex_triangles", "vertex_triangles")[sid]
            )
        if dim == 1:
            if l == d:
                return list(self._table("edge_cells", "edge_stars")[sid])
            return list(self._table("edge_triangles", "edge_triangles")[sid])
        return list(self._table("triangle_cells", "triangle_stars")[sid])

    def is_boundary(self, s: SimplexRef) -> bool:
        dim, sid = s
        name = ("boundary_vertices", "boundary_edges", "boundary_triangles",
                "boundary_cells")[dim]
        if dim == self.dim:
            name = "boundary_cells"
        elif dim == self.dim - 1:
            return bool(self._table("boundary_facets", name)[sid])
        return bool(self._table(name, name)[sid])

    def vertex_link(self, v: int) -> list:
        return list(self._table("vertex_links", "vertex_links")[v])

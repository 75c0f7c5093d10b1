"""Common query interface shared by explicit meshes and implicit grids.

All traversal queries operate on ``SimplexRef`` handles, a ``(dim, id)``
pair where ``id`` indexes the simplices of that dimension.  Implicit
grids answer every per-simplex query arithmetically; explicit meshes
read the answer from a row of an array query.  Both check the handle
first, in ``Triangulation._simplex_id``, so both refuse a bad one alike.

The array queries (``simplex_array``, ``facet_ids``, ``cofacet_ids``,
``neighbor_csr``, the boundary flags) depend on the triangulation alone.
Each is built the first time it is asked for and kept, read-only, in the
triangulation's one store, so later queries, later stages and later
fields share it.  The store keeps one array per relation: the stages
read the facets of a simplex in ``facet_ids`` column order, and sort a
row where they need it ascending.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

import numpy as np


class SimplexRef(NamedTuple):
    """Handle to a simplex: its dimension and its index in that dimension."""

    dim: int
    id: int


class TriangulationError(Exception):
    """Base class for triangulation construction and query errors."""


class DomainTopologyError(Exception):
    """The domain's topology does not admit the structure asked for: a
    contour tree on a domain that is not simply connected or with a
    vertex that is both an extremum and a saddle, or an ascending walk
    across a facet with three or more co-facets."""


#: Kinds accepted by :meth:`Triangulation.precondition`, each with the
#: per-simplex query whose arrays it builds and that query's simplex
#: dimensions; "d" is the cell dimension.  Implicit grids accept them
#: all and build nothing.
QUERY_KINDS = {
    "vertex_neighbors": ("vertex_neighbors",),
    "vertex_edges": ("cofaces", 0, 1),
    "vertex_triangles": ("cofaces", 0, 2),
    "vertex_stars": ("cofaces", 0, "d"),
    "vertex_links": ("vertex_link",),
    "edge_list": ("simplex_vertices", 1),
    "triangle_list": ("simplex_vertices", 2),
    "edge_triangles": ("cofaces", 1, 2),
    "edge_stars": ("cofaces", 1, "d"),
    "triangle_stars": ("cofaces", 2, "d"),
    "triangle_edges": ("faces", 2, 1),
    "cell_edges": ("faces", "d", 1),
    "cell_triangles": ("faces", "d", 2),
    "boundary_vertices": ("is_boundary", 0),
    "boundary_edges": ("is_boundary", 1),
    "boundary_triangles": ("is_boundary", 2),
    "boundary_cells": ("is_boundary", "d"),
}


def _row_keys(rows: np.ndarray, n_vertices: int) -> np.ndarray:
    """Collapse sorted vertex rows into scalar keys for fast lookup."""
    key = rows[:, 0].astype(np.int64)
    for c in range(1, rows.shape[1]):
        key = key * n_vertices + rows[:, c]
    return key


def _group(keys: np.ndarray, values: np.ndarray, n_keys: int) -> tuple:
    """``values`` grouped by ``keys`` in ``range(n_keys)``, as CSR int64
    ``(offsets, ids)``: row ``i``, ``ids[offsets[i]:offsets[i + 1]]``,
    holds the values whose key is ``i``, ascending."""
    ids = values[np.lexsort((values, keys))]
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=offsets[1:])
    return offsets, ids


def stored(build):
    """Make ``build`` an array query kept in the triangulation's store.

    The first call with given arguments builds the array (or tuple of
    arrays) and marks it read-only; every later call returns the same
    objects.
    """
    name = build.__name__

    @functools.wraps(build)
    def query(self, *args):
        key = (name, *args)
        got = self._store.get(key)
        if got is None:
            got = build(self, *args)
            for arr in got if isinstance(got, tuple) else (got,):
                arr.flags.writeable = False
            self._store[key] = got
        return got

    return query


class Triangulation:
    """Abstract 2D/3D simplicial triangulation with face/co-face queries.

    Concrete subclasses: :class:`~sftopo.triangulation.ExplicitTriangulation`
    and :class:`~sftopo.triangulation.ImplicitGridTriangulation`.
    """

    dim: int  # dimensionality of the complex (2 or 3)

    def __init__(self):
        self._store = {}    # (query name, *args) -> arrays; see ``stored``

    # -- preconditioning ------------------------------------------------
    def precondition(self, kind: str) -> None:
        """Build the arrays that the query ``QUERY_KINDS[kind]`` names
        reads now instead of on first use; optional.  A kind outside
        ``QUERY_KINDS`` raises ``TriangulationError``.  This base version
        builds nothing."""
        if kind not in QUERY_KINDS:
            raise TriangulationError(f"unknown query kind {kind!r}")

    # -- counts and identity --------------------------------------------
    def simplex_count(self, dim: int) -> int:
        raise NotImplementedError

    def _simplex_id(self, dim, sid, face=None, coface=None) -> int:
        """``sid`` as an int, once ``(dim, sid)`` is checked to name a
        simplex and ``face`` (``coface``), if given, to be a dimension of
        its faces (co-faces).  Every per-simplex query of both back ends
        starts here, so both refuse a bad handle with the same
        ``TriangulationError``."""
        if not 0 <= dim <= self.dim:
            raise TriangulationError(f"bad simplex dimension {dim}")
        sid = operator.index(sid)
        if not 0 <= sid < self.simplex_count(dim):
            raise TriangulationError(f"{dim}-simplex id {sid} out of range")
        if face is not None and not 0 <= face < dim:
            raise TriangulationError(
                f"bad face dimension {face} for dim {dim}")
        if coface is not None and not dim < coface <= self.dim:
            raise TriangulationError(
                f"bad co-face dimension {coface} for dim {dim}")
        return sid

    def simplex_array(self, k: int):
        """``(simplex_count(k), k+1)`` read-only int64 array: row ``i``
        holds the ascending vertex ids of k-simplex ``i``."""
        raise NotImplementedError

    def simplex_vertices(self, s: SimplexRef) -> tuple:
        """Ascending vertex ids spanning ``s``."""
        raise NotImplementedError

    def vertex_point(self, v: int):
        """3D coordinates of vertex ``v``."""
        raise NotImplementedError

    def point_array(self) -> np.ndarray:
        """``(simplex_count(0), 3)`` float array of the vertex coordinates
        in id order; row ``v`` equals ``vertex_point(v)``."""
        raise NotImplementedError

    # -- traversal ------------------------------------------------------
    def faces(self, s: SimplexRef, k: int) -> list:
        """All k-faces of ``s``, ids ascending."""
        raise NotImplementedError

    def cofaces(self, s: SimplexRef, l: int) -> list:
        """All l-co-faces of ``s``, ids ascending."""
        raise NotImplementedError

    def vertex_link(self, v: int) -> list:
        """(d-1)-simplices opposite ``v`` in its star, ids ascending."""
        raise NotImplementedError

    def is_boundary(self, s: SimplexRef) -> bool:
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------
    def vertex_neighbors(self, v: int) -> list:
        """Vertex ids sharing an edge with ``v``, ascending."""
        out = set()
        for e in self.cofaces(SimplexRef(0, v), 1):
            a, b = self.simplex_vertices(SimplexRef(1, e))
            out.add(b if a == v else a)
        return sorted(out)

    @stored
    def neighbor_csr(self):
        """Vertex adjacency as ``(offsets, ids)`` int64 arrays.

        Row ``v``, ``ids[offsets[v]:offsets[v + 1]]``, holds the
        neighbours of ``v`` ascending, as ``vertex_neighbors(v)`` does.
        Built from ``simplex_array(1)`` on the first call and stored.
        """
        edges = self.simplex_array(1)
        return _group(np.concatenate((edges[:, 0], edges[:, 1])),
                      np.concatenate((edges[:, 1], edges[:, 0])),
                      self.simplex_count(0))

    @stored
    def facet_ids(self, k: int) -> np.ndarray:
        """``(simplex_count(k), k+1)`` int64 array of the (k-1)-face ids
        of every k-simplex, for ``1 <= k <= dim``.

        Column ``j`` of row ``s`` is the face opposite vertex
        ``simplex_array(k)[s, j]``, so a row holds ``faces(s, k-1)`` up
        to column order.  Built from ``simplex_array(k-1)`` and
        ``simplex_array(k)`` with one row-key ``searchsorted`` on the
        first call and stored; the edges' facets are the column-reversed
        ``simplex_array(1)`` itself.  The keys need
        ``simplex_count(0) ** k <= 2**63`` (up to 2**21 vertices in 3D).
        """
        if not 1 <= k <= self.dim:
            raise TriangulationError(f"bad simplex dimension {k}")
        if k == 1:
            return self.simplex_array(1)[:, ::-1]
        nv = self.simplex_count(0)
        if nv ** k > 1 << 63:
            raise TriangulationError(
                f"{nv} vertices overflow the int64 keys of facet_ids({k})")
        keys = _row_keys(self.simplex_array(k - 1), nv)
        order = np.argsort(keys)
        cols = [[c for c in range(k + 1) if c != j] for j in range(k + 1)]
        faces = self.simplex_array(k)[:, cols].reshape(-1, k)
        pos = np.searchsorted(keys, _row_keys(faces, nv), sorter=order)
        return order[pos].reshape(-1, k + 1)

    @stored
    def cofacet_ids(self, k: int) -> np.ndarray:
        """Int64 array inverting ``facet_ids(k+1)``: row ``f`` holds the
        ascending ids of the (k+1)-simplices that have k-simplex ``f``
        as a face, padded with -1 to the widest row and to at least two
        columns; stored."""
        facets = self.facet_ids(k + 1)
        owners = np.repeat(np.arange(len(facets), dtype=np.int64),
                           facets.shape[1])
        offsets, ids = _group(facets.ravel(), owners, self.simplex_count(k))
        counts = np.diff(offsets)
        rows = np.repeat(np.arange(len(counts)), counts)
        out = np.full((len(counts), max(2, int(counts.max(initial=0)))),
                      -1, dtype=np.int64)
        out[rows, np.arange(len(ids)) - offsets[rows]] = ids
        return out

    @stored
    def boundary_facets(self) -> np.ndarray:
        """``(simplex_count(d-1),)`` bool array: whether each
        (d-1)-simplex is a face of exactly one d-cell, i.e. a boundary
        facet.  Built from ``facet_ids(d)`` on the first call and
        stored."""
        d = self.dim
        return np.bincount(self.facet_ids(d).ravel(),
                           minlength=self.simplex_count(d - 1)) == 1

    @stored
    def boundary_flags(self) -> tuple:
        """``is_boundary`` of every simplex, as one bool array per
        dimension: the boundary facets, the cell of each, and their
        vertices and (3D) edges; stored.  Read from the facet rows
        alone, so a stage that builds no gradient stores no co-faces."""
        d = self.dim
        facets = self.boundary_facets()
        flags = [np.zeros(self.simplex_count(k), dtype=bool)
                 for k in range(d + 1)]
        flags[d - 1] = facets
        flags[d] = facets[self.facet_ids(d)].any(axis=1)
        flags[0][self.simplex_array(d - 1)[facets]] = True
        if d == 3:
            flags[1][self.facet_ids(2)[facets]] = True
        return tuple(flags)


def validate_pseudo_manifold(t: Triangulation) -> list:
    """Return the (d-1)-simplices with more than two d-co-faces.

    An empty list means the complex passes the pseudo-manifold check
    required by the downstream gradient and tree modules.
    """
    d = t.dim
    counts = np.bincount(t.facet_ids(d).ravel(),
                         minlength=t.simplex_count(d - 1))
    return [SimplexRef(d - 1, i) for i in np.nonzero(counts > 2)[0].tolist()]

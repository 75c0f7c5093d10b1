"""PL critical point classification."""

import numpy as np
import pytest

from conftest import octahedron_mesh, preconditioned, random_field, \
    tie_heavy_field
from oracles import classify_vertex, link_component_counts
from test_triangulation import non_manifold_fan
from sftopo import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    extract_critical_points,
)
from sftopo.critical import _link_counts, link_components


def by_index(cps):
    out = {}
    for cp in cps:
        out.setdefault(cp.index, []).append(cp)
    return out


class TestF0:
    def test_classification(self, grid33, f0):
        cps = by_index(extract_critical_points(grid33, f0))
        assert sorted(cp.vertex for cp in cps[0]) == [0, 2]
        assert [(cp.vertex, cp.multiplicity) for cp in cps[1]] == [(1, 1)]
        assert [cp.vertex for cp in cps[2]] == [8]
        assert {cp.value for cp in cps[0]} == {0.0, 2.0}

    def test_boundary_flags(self, grid33, f0):
        cps = extract_critical_points(grid33, f0)
        assert all(cp.boundary for cp in cps)   # center vertex 4 is regular

    def test_regular_vertices_emit_nothing(self, grid33, f0):
        assert classify_vertex(grid33, f0, 4) == []


class TestOctahedron:
    def test_monotone_field(self, octahedron):
        # single descending sweep from pole 4 down to pole 5
        f = OrderField(np.array([1.0, 3.0, 2.0, 4.0, 5.0, 0.0]))
        cps = by_index(extract_critical_points(octahedron, f))
        assert [cp.vertex for cp in cps[0]] == [5]
        assert [cp.vertex for cp in cps[2]] == [4]
        assert 1 not in cps

    def test_two_minima_field(self, octahedron):
        # minima at the antipodal poles 4 and 5, joined at equator
        # vertex 0; the remaining equator vertices are regular
        f = OrderField(np.array([2.0, 5.0, 3.0, 4.0, 0.0, 1.0]))
        cps = by_index(extract_critical_points(octahedron, f))
        assert sorted(cp.vertex for cp in cps[0]) == [4, 5]
        assert [(cp.vertex, cp.multiplicity) for cp in cps[1]] == [(0, 1)]
        assert [cp.vertex for cp in cps[2]] == [1]

    def test_euler_relation_random(self, octahedron, octahedron_sub1):
        rng = np.random.default_rng(7)
        for tri in (octahedron, octahedron_sub1):
            for _ in range(10):
                cps = extract_critical_points(tri, random_field(tri, rng))
                total = sum(
                    cp.multiplicity * (-1) ** cp.index for cp in cps)
                assert total == 2


def test_matches_per_vertex_classification(octahedron, octahedron_sub1,
                                           octahedron_sub2):
    """The one array pass equals a ``classify_vertex`` loop on tie-heavy
    fields over both back ends, boundary vertices and vertices whose
    lower and upper links are both split included: in 3D a saddle on
    each side, in 2D the one saddle that the upper side leaves out."""
    rng = np.random.default_rng(61)
    tris = [octahedron, octahedron_sub1, octahedron_sub2]
    for dims in [(7, 5), (9, 9), (4, 4, 4), (5, 5, 5), (6, 4, 5)]:
        g = ImplicitGridTriangulation(dims)
        # a fresh mesh: extract_critical_points requests its own tables
        tris += [g, ExplicitTriangulation(g.point_array(),
                                          g.simplex_array(g.dim))]
    boundary = both_sides = split_2d = 0
    for tri in tris:
        for _ in range(4):
            f = tie_heavy_field(tri, rng)
            cps = extract_critical_points(tri, f)
            preconditioned(tri)
            assert cps == [cp for v in range(len(f))
                           for cp in classify_vertex(tri, f, v)]
            boundary += sum(cp.boundary for cp in cps)
            saddle = [(cp.vertex, cp.index) for cp in cps]
            both_sides += sum((v, 2) in saddle
                              for v, i in saddle if i == 1 and tri.dim == 3)
            if tri.dim == 2:
                split_2d += sum(min(link_component_counts(tri, f, v)) >= 2
                                for v in range(len(f)))
    assert boundary > 0 and both_sides > 0 and split_2d > 0


def _lone_vertex_sphere():
    points, cells = octahedron_mesh()
    return ExplicitTriangulation(np.vstack([points, [[9.0, 9.0, 9.0]]]),
                                 cells)


def _two_spheres():
    points, cells = octahedron_mesh()
    return ExplicitTriangulation(np.vstack([points, points + 5.0]),
                                 np.vstack([cells, cells + len(points)]))


class TestLinkComponents:
    """The one link pass that the critical points and both merge trees
    read: half-edges joined by the link edges of the triangles."""

    def test_counts_match_per_vertex_union_find(self):
        """Per-vertex lower and upper counts equal the link union-find
        oracle on a non-manifold fan, a mesh with a vertex in no cell,
        two disjoint spheres and a 3D grid, under random, tie-heavy and
        constant fields."""
        rng = np.random.default_rng(62)
        tris = [ExplicitTriangulation(*non_manifold_fan()),
                _lone_vertex_sphere(), _two_spheres(),
                ImplicitGridTriangulation((5, 4, 3))]
        for tri in tris:
            n = tri.simplex_count(0)
            for f in (random_field(tri, rng), tie_heavy_field(tri, rng),
                      OrderField(np.zeros(n))):
                n_lower, n_upper = _link_counts(tri, f)
                want = [link_component_counts(tri, f, v) for v in range(n)]
                assert list(zip(n_lower.tolist(), n_upper.tolist())) == want

    def test_grid_and_shuffled_copy_agree(self):
        """The counts on a 5x4x3 grid equal those on an explicit copy
        with its vertex ids permuted, vertex for vertex."""
        rng = np.random.default_rng(63)
        grid = ImplicitGridTriangulation((5, 4, 3))
        n = grid.simplex_count(0)
        perm = rng.permutation(n)
        points = np.empty_like(grid.point_array())
        points[perm] = grid.point_array()
        copy = ExplicitTriangulation(points, perm[grid.simplex_array(3)])
        for f in (random_field(grid, rng), tie_heavy_field(grid, rng)):
            values, offsets = np.empty(n), np.empty(n, dtype=np.int64)
            values[perm], offsets[perm] = f.values, f.offsets
            g = OrderField(values, offsets)
            got = [c[perm].tolist() for c in _link_counts(copy, g)]
            assert got == [c.tolist() for c in _link_counts(grid, f)]
            assert got[0] == [link_component_counts(grid, f, v)[0]
                              for v in range(n)]

    def test_half_edge_contract_of_both_back_ends(self):
        """The half-edge table reads two promises of the triangulation:
        ``simplex_array`` rows ascend, and column j of ``facet_ids(2)``
        is the edge opposite vertex j of the triangle."""
        rng = np.random.default_rng(64)
        grids = [ImplicitGridTriangulation(d) for d in ((6, 5), (4, 3, 3))]
        tris = grids + [ExplicitTriangulation(*non_manifold_fan())]
        for g in grids:
            perm = rng.permutation(g.simplex_count(0))
            points = g.point_array()[np.argsort(perm)]
            tris.append(ExplicitTriangulation(points,
                                              perm[g.simplex_array(g.dim)]))
        for tri in tris:
            for k in range(tri.dim + 1):
                assert (np.diff(tri.simplex_array(k), axis=1) > 0).all()
            edges, triangles = tri.simplex_array(1), tri.simplex_array(2)
            facets = tri.facet_ids(2)
            for j in range(3):
                assert np.array_equal(edges[facets[:, j]],
                                      np.delete(triangles, j, axis=1))

    def test_stored_arrays_are_read_only(self):
        grid = ImplicitGridTriangulation((6, 5))
        f = random_field(grid, np.random.default_rng(65))
        lower, roots = link_components(grid, f)
        assert link_components(grid, f)[0] is lower
        assert link_components(grid, f)[1] is roots
        for arr in (lower, roots):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

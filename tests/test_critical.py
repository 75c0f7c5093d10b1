"""PL critical point classification."""

import numpy as np

from conftest import preconditioned, random_field, tie_heavy_field
from oracles import classify_vertex
from sftopo import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    extract_critical_points,
)


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
    fields over both back ends, boundary vertices and 3D vertices whose
    lower and upper links are both split included."""
    rng = np.random.default_rng(61)
    tris = [octahedron, octahedron_sub1, octahedron_sub2]
    for dims in [(7, 5), (9, 9), (4, 4, 4), (5, 5, 5), (6, 4, 5)]:
        g = ImplicitGridTriangulation(dims)
        # a fresh mesh: extract_critical_points requests its own tables
        tris += [g, ExplicitTriangulation(g.point_array(),
                                          g.simplex_array(g.dim))]
    boundary = both_sides = 0
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
    assert boundary > 0 and both_sides > 0

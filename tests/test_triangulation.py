"""Triangulation structure: counts, queries, preconditioning, errors."""

import re
from itertools import combinations

import numpy as np
import pytest

from conftest import EQUIVALENCE_DIMS, midpoint_subdivide, \
    octahedron_mesh, random_field, tie_heavy_field, two_bump_field
from oracles import assert_equivalent, classify_edge_identifier, \
    star_walk_link
from sftopo import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    SimplexRef,
    SimplificationRequest,
    TriangulationError,
    ascending_segmentation,
    build_diagram,
    build_gradient,
    build_merge_tree,
    combine_contour_tree,
    descending_segmentation,
    enforce_compliance,
    extract_critical_points,
    extract_separatrices,
    persistence_curve,
    select_by_persistence,
    simplify_field,
)
from sftopo.checks import run_checks
from sftopo.triangulation import validate_pseudo_manifold
from sftopo.triangulation.base import QUERY_KINDS


def assert_neighbor_csr(tri):
    """Every CSR row equals ``vertex_neighbors``: ascending neighbours."""
    offsets, ids = tri.neighbor_csr()
    n = tri.simplex_count(0)
    assert offsets.dtype == ids.dtype == np.int64
    assert len(offsets) == n + 1 and offsets[0] == 0
    assert offsets[-1] == len(ids) == 2 * tri.simplex_count(1)
    for v in range(n):
        assert ids[offsets[v]:offsets[v + 1]].tolist() \
            == tri.vertex_neighbors(v)


def assert_facet_ids(tri):
    """Every ``facet_ids`` row holds ``tri.faces`` up to column order,
    column j being the face opposite vertex j."""
    for k in range(1, tri.dim + 1):
        ids = tri.facet_ids(k)
        assert ids.dtype == np.int64
        assert ids.shape == (tri.simplex_count(k), k + 1)
        for s, row in enumerate(ids.tolist()):
            assert sorted(row) == tri.faces(SimplexRef(k, s), k - 1)
        rows, faces = tri.simplex_array(k), tri.simplex_array(k - 1)
        for j in range(k + 1):
            assert np.array_equal(faces[ids[:, j]], np.delete(rows, j, 1))


def non_manifold_fan():
    """Three triangles sharing one edge."""
    points = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                       [0, 0, 1], [1, 1, 1.0]])
    return points, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def assert_matches_cells(tri, cells):
    """``simplex_vertices``, ``faces``, ``cofaces``, ``vertex_link`` and
    ``is_boundary`` equal what the cell list gives by brute force: the
    k-simplices are the sorted (k+1)-vertex subsets of the cells, a
    (d-1)-simplex in exactly one cell is a boundary facet, and the
    boundary is the faces of those and the cells that own them."""
    d = tri.dim
    cells = [tuple(sorted(c)) for c in cells.tolist()]
    verts = [[tri.simplex_vertices(SimplexRef(k, i))
              for i in range(tri.simplex_count(k))] for k in range(d + 1)]
    index = [{vs: i for i, vs in enumerate(vk)} for vk in verts]
    for k in range(d + 1):
        assert sorted(verts[k]) == sorted(
            {sub for c in cells for sub in combinations(c, k + 1)})
    owners = {f: [c for c in cells if set(f) <= set(c)] for f in verts[d - 1]}
    facets = [f for f, cs in owners.items() if len(cs) == 1]
    boundary = {owners[f][0] for f in facets} | {
        sub for f in facets for j in range(d) for sub in combinations(f, j + 1)}
    for k in range(d + 1):
        for i, vs in enumerate(verts[k]):
            s = SimplexRef(k, i)
            assert tri.is_boundary(s) == (vs in boundary)
            for j in range(k):
                assert tri.faces(s, j) == sorted(
                    index[j][sub] for sub in combinations(vs, j + 1))
            for l in range(k + 1, d + 1):
                assert tri.cofaces(s, l) == [
                    c for c, cv in enumerate(verts[l]) if set(vs) <= set(cv)]
    for v in range(tri.simplex_count(0)):
        assert tri.vertex_link(v) == sorted(
            index[d - 1][tuple(u for u in c if u != v)]
            for c in cells if v in c)


def run_stages(tri, f):
    """Every public stage on ``f``, simplification on 2D meshes only."""
    cps = extract_critical_points(tri, f)
    grad = build_gradient(tri, f)
    enforce_compliance(tri, f, grad, cps)
    combine_contour_tree(build_merge_tree(tri, f, "join"),
                         build_merge_tree(tri, f, "split"))
    diagram = build_diagram(tri, f)
    persistence_curve(diagram)
    extract_separatrices(grad)
    descending_segmentation(grad)
    ascending_segmentation(grad)
    if tri.dim == 2:
        simplify_field(tri, f, select_by_persistence(diagram, len(f) / 4))
    run_checks(tri, f)


def precondition_all(tri):
    for kind in QUERY_KINDS:
        try:
            tri.precondition(kind)
        except TriangulationError:
            pass            # kind not applicable in this dimension
    return tri


class TestImplicitGrid:
    def test_2d_counts(self):
        t = ImplicitGridTriangulation((3, 3))
        assert t.dim == 2
        assert t.simplex_count(0) == 9
        assert t.simplex_count(1) == 16
        assert t.simplex_count(2) == 8

    def test_3d_counts(self):
        t = ImplicitGridTriangulation((2, 2, 2))
        assert t.dim == 3
        assert t.simplex_count(0) == 8
        assert t.simplex_count(1) == 19
        # V - E + F - C = 1 for a ball
        assert t.simplex_count(2) == 18
        assert t.simplex_count(3) == 6

    def test_boundary_2d(self):
        t = ImplicitGridTriangulation((3, 3))
        boundary_edges = [e for e in range(16)
                          if t.is_boundary(SimplexRef(1, e))]
        assert len(boundary_edges) == 8
        boundary_vertices = [v for v in range(9)
                             if t.is_boundary(SimplexRef(0, v))]
        assert len(boundary_vertices) == 8          # all but the center

    def test_edge_classes_2d(self):
        t = ImplicitGridTriangulation((3, 3))
        classes = {}
        for e in range(t.simplex_count(1)):
            name, _ = classify_edge_identifier(t, e)
            classes[name] = classes.get(name, 0) + 1
        assert classes == {"horizontal": 6, "vertical": 6, "diagonal": 4}

    def test_face_coface_roundtrip(self):
        t = ImplicitGridTriangulation((4, 3, 3))
        for c in range(t.simplex_count(3)):
            for f in t.faces(SimplexRef(3, c), 2):
                assert c in t.cofaces(SimplexRef(2, f), 3)

    @pytest.mark.parametrize("dims", [(4, 3), (3, 3, 3)])
    def test_numpy_ids_answer_as_ints(self, dims):
        """A numpy integer id gets the same answer as a Python int, in
        Python ints, from every per-simplex query."""
        t = ImplicitGridTriangulation(dims)
        d = t.dim

        def answers(k, sid):
            s = SimplexRef(k, sid)
            out = [list(t.simplex_vertices(s)), [t.is_boundary(s)]]
            out += [t.faces(s, j) for j in range(k)]
            out += [t.cofaces(s, l) for l in range(k + 1, d + 1)]
            if k == 0:
                out += [t.vertex_link(sid), t.vertex_neighbors(sid)]
            return out

        for k in range(d + 1):
            for sid in range(t.simplex_count(k)):
                want = answers(k, sid)
                got = answers(k, np.int64(sid))
                assert got == want
                assert all(type(x) is int for row in got[:1] + got[2:]
                           for x in row)
                assert type(got[1][0]) is bool

    def test_bad_dims(self):
        with pytest.raises(TriangulationError):
            ImplicitGridTriangulation((1, 5))
        with pytest.raises(TriangulationError):
            ImplicitGridTriangulation((3,))

    @pytest.mark.parametrize("small, large", [((3, 3), (40, 40)),
                                              ((3, 3, 3), (20, 20, 20))])
    def test_state_independent_of_size(self, small, large):
        def size(x):
            if isinstance(x, dict):
                return len(x) + sum(size(v) for v in x.values())
            if isinstance(x, (list, tuple)):
                return len(x) + sum(size(v) for v in x)
            if isinstance(x, np.ndarray):
                return x.size
            return 1
        assert size(vars(ImplicitGridTriangulation(small))) \
            == size(vars(ImplicitGridTriangulation(large)))

    def test_facet_ids_refuses_overflowing_keys(self):
        t = ImplicitGridTriangulation((2048, 2048, 2))    # 2**23 vertices
        with pytest.raises(TriangulationError):
            t.facet_ids(3)

    def test_bad_query_dims(self):
        t = ImplicitGridTriangulation((3, 3))
        with pytest.raises(TriangulationError):
            t.faces(SimplexRef(1, 0), 1)
        with pytest.raises(TriangulationError):
            t.cofaces(SimplexRef(2, 0), 2)


class TestExplicit:
    def test_octahedron_counts(self, octahedron):
        assert octahedron.simplex_count(0) == 6
        assert octahedron.simplex_count(1) == 12
        assert octahedron.simplex_count(2) == 8

    def test_octahedron_closed(self, octahedron):
        precondition_all(octahedron)
        assert not any(octahedron.is_boundary(SimplexRef(1, e))
                       for e in range(12))

    def test_subdivision_counts(self, octahedron_sub1, octahedron_sub2):
        assert octahedron_sub1.simplex_count(0) == 18
        assert octahedron_sub1.simplex_count(2) == 32
        assert octahedron_sub2.simplex_count(0) == 66
        assert octahedron_sub2.simplex_count(2) == 128

    def test_query_builds_its_table_on_first_use(self):
        """A query on a fresh mesh answers as on a preconditioned twin,
        and adds to the store only its own array and the arrays it is
        built from."""
        g = ImplicitGridTriangulation((2, 2, 2))
        grid = (g.point_array(), g.simplex_array(3))
        rows = [("simplex_array", k) for k in range(4)]
        cases = [
            (octahedron_mesh(), lambda t: t.cofaces(SimplexRef(0, 0), 2),
             [("coface_csr", 0, 2), ("face_rows", 2, 0), rows[0],
              rows[2]]),
            (grid, lambda t: t.faces(SimplexRef(2, 0), 1),
             [("face_rows", 2, 1), ("facet_ids", 2)] + rows[:3]),
            (grid, lambda t: t.vertex_link(0),
             [("facet_ids", 3), ("link_csr",)] + rows[:1] + rows[2:]),
        ]
        for mesh, query, built in cases:
            tri = ExplicitTriangulation(*mesh)
            twin = precondition_all(ExplicitTriangulation(*mesh))
            assert query(tri) == query(twin)
            assert sorted(tri._store) == built

    def test_stages_read_only_row_tables(self):
        """Every public stage on a fresh explicit mesh, with no
        precondition call, stores the same arrays as on a grid of its
        dimension, whose per-simplex queries build nothing: none of the
        arrays that only per-simplex queries read."""
        rng = np.random.default_rng(14)
        meshes = [midpoint_subdivide(*midpoint_subdivide(*octahedron_mesh()))]
        stage_keys = {}
        for dims in ((12, 9), (5, 4, 4)):
            g = ImplicitGridTriangulation(dims)
            meshes.append((g.point_array(), g.simplex_array(g.dim)))
            g = ImplicitGridTriangulation(dims)
            run_stages(g, random_field(g, rng))
            stage_keys[g.dim] = set(g._store)
        for mesh in meshes:
            tri = ExplicitTriangulation(*mesh)
            run_stages(tri, random_field(tri, rng))
            assert set(tri._store) == stage_keys[tri.dim]
            assert not {"coface_csr", "link_csr"} \
                & {name for name, *_ in tri._store}

    def test_queries_match_brute_force_from_cells(self):
        """Every per-simplex query equals a brute force over the cell
        list: on a 4x4x4 grid mesh with shuffled vertex ids, where the
        edges of a tetrahedron are gathered through its triangles and
        edges have up to six co-faces, and on a non-manifold fan of
        three triangles on one edge."""
        g = ImplicitGridTriangulation((4, 4, 4))
        perm = np.random.default_rng(16).permutation(g.simplex_count(0))
        points = np.empty_like(g.point_array())
        points[perm] = g.point_array()
        for points, cells in [(points, perm[g.simplex_array(3)]),
                              non_manifold_fan()]:
            assert_matches_cells(ExplicitTriangulation(points, cells),
                                 cells)

    def test_duplicate_cells_rejected(self):
        """A cell given twice is a duplicate, also when the second copy
        lists its vertices in another order."""
        p, c = octahedron_mesh()
        for dup in (c[0], c[3, ::-1]):
            with pytest.raises(TriangulationError,
                               match="^duplicate cells in input$"):
                ExplicitTriangulation(p, np.vstack([c, dup]))

    def test_cells_whose_row_keys_collide_are_distinct(self):
        """Two cells of a 100,000-point mesh whose base-n row keys wrap
        to the same int64 are two cells; the same cell twice, listed in
        another order, is still a duplicate."""
        cells = np.array([[11493, 13236, 18464, 93203],
                          [48386, 62050, 92655, 96435]])
        points = np.zeros((100000, 3))
        keys = cells[:, 0]
        for col in cells.T[1:]:
            keys = keys * len(points) + col     # wraps, silently
        assert keys[0] == keys[1]
        tri = ExplicitTriangulation(points, cells)
        assert [tri.simplex_count(k) for k in range(4)] == [100000, 12, 8, 2]
        with pytest.raises(TriangulationError,
                           match="^duplicate cells in input$"):
            ExplicitTriangulation(points, np.vstack([cells, cells[1, ::-1]]))

    def test_simplex_arrays_are_the_sorted_distinct_faces(
            self, octahedron_sub2):
        """Every ``simplex_array(k)`` with 0 < k < d lists the distinct
        sorted vertex (k+1)-subsets of the cells in lexicographic order,
        and ``simplex_array(d)`` the sorted cells in input order, on a
        sphere, shuffled grid meshes in 2D and 3D and a non-manifold
        fan."""
        meshes = [(octahedron_sub2.points, octahedron_sub2.cells),
                  non_manifold_fan()]
        rng = np.random.default_rng(21)
        for dims in ((7, 5), (4, 4, 4)):
            g = ImplicitGridTriangulation(dims)
            perm = rng.permutation(g.simplex_count(0))
            meshes.append((g.point_array()[np.argsort(perm)],
                           perm[g.simplex_array(g.dim)]))
        for points, cells in meshes:
            tri = ExplicitTriangulation(points, cells)
            rows = np.sort(cells, axis=1).tolist()
            for k in range(1, tri.dim):
                want = sorted({sub for c in rows
                               for sub in combinations(c, k + 1)})
                assert tri.simplex_array(k).tolist() == list(map(list, want))
            assert tri.simplex_array(tri.dim).tolist() == rows

    @pytest.mark.parametrize("cell", [[0, 0, 1], [4, 2, 4], [0, 1, 1, 2]])
    def test_repeated_vertex_rejected(self, cell):
        p, c = octahedron_mesh()
        cells = [cell] if len(cell) == 4 else np.vstack([c, [cell]])
        with pytest.raises(TriangulationError, match="repeated vertex"):
            ExplicitTriangulation(p, cells)

    @pytest.mark.parametrize("points,cells,message", [
        (np.zeros((3, 4)), [[0, 1, 2]], "points must be an (n, 2|3) array"),
        (np.eye(3), np.zeros((0, 3)),
         "cell list must be non-empty and uniform"),
        (np.eye(5, 3), [[0, 1, 2, 3, 4]],
         "cells must have 3 or 4 vertices, got 5"),
        (np.eye(3), [[0, 1, 3]], "cell vertex id out of range"),
    ])
    def test_refusals(self, points, cells, message):
        with pytest.raises(TriangulationError,
                           match=f"^{re.escape(message)}$"):
            ExplicitTriangulation(points, cells)

    def test_planar_points_get_z_zero(self):
        """A mesh given (n, 2) points equals the same mesh given its
        points with z = 0: in ``point_array`` and, after every stage,
        every precondition kind and every per-simplex query, in every
        stored array."""
        g = ImplicitGridTriangulation((5, 4))
        points, cells = g.point_array(), g.simplex_array(2)
        assert not points[:, 2].any()
        field = random_field(g, np.random.default_rng(17))
        meshes = [ExplicitTriangulation(p, cells)
                  for p in (points[:, :2], points)]
        for tri in meshes:
            stage_outputs(tri, field)
            every_query(precondition_all(tri))
        flat, full = meshes
        assert flat.point_array().shape == (len(points), 3)
        assert np.array_equal(flat.point_array(), full.point_array())
        assert flat._store.keys() == full._store.keys()
        for key, got in flat._store.items():
            want = arrays(full._store[key])
            assert len(arrays(got)) == len(want)
            for a, b in zip(arrays(got), want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_pseudo_manifold_violation(self):
        t = precondition_all(ExplicitTriangulation(*non_manifold_fan()))
        assert validate_pseudo_manifold(t)

    def test_neighbor_csr_spheres(self, octahedron, octahedron_sub1,
                                  octahedron_sub2):
        for tri in (octahedron, octahedron_sub1, octahedron_sub2):
            assert_neighbor_csr(tri)

    def test_facet_ids_spheres(self, octahedron, octahedron_sub1,
                               octahedron_sub2):
        for tri in (octahedron, octahedron_sub1, octahedron_sub2):
            assert_facet_ids(tri)

    def test_pseudo_manifold_ok(self, octahedron):
        precondition_all(octahedron)
        assert validate_pseudo_manifold(octahedron) == []


def handle_refusals(d):
    """(query, args, message) of per-simplex queries on a bad handle of
    a d-dimensional triangulation with 27 vertices."""
    return [
        ("simplex_vertices", (SimplexRef(d + 1, 0),),
         f"bad simplex dimension {d + 1}"),
        ("simplex_vertices", (SimplexRef(-1, 0),), "bad simplex dimension -1"),
        ("faces", (SimplexRef(d + 1, 0), 1), f"bad simplex dimension {d + 1}"),
        ("cofaces", (SimplexRef(-1, 0), 1), "bad simplex dimension -1"),
        ("is_boundary", (SimplexRef(d + 1, 0),),
         f"bad simplex dimension {d + 1}"),
        ("faces", (SimplexRef(1, -1), 0), "1-simplex id -1 out of range"),
        ("simplex_vertices", (SimplexRef(2, -1),),
         "2-simplex id -1 out of range"),
        ("vertex_link", (-1,), "0-simplex id -1 out of range"),
        ("vertex_link", (27,), "0-simplex id 27 out of range"),
        ("vertex_point", (-1,), "0-simplex id -1 out of range"),
        ("vertex_point", (np.int64(27),), "0-simplex id 27 out of range"),
        ("is_boundary", (SimplexRef(d, -2),), f"{d}-simplex id -2 out of range"),
        ("cofaces", (SimplexRef(0, 27), 1), "0-simplex id 27 out of range"),
        ("faces", (SimplexRef(1, 0), 1), "bad face dimension 1 for dim 1"),
        ("faces", (SimplexRef(2, 0), -1), "bad face dimension -1 for dim 2"),
        ("cofaces", (SimplexRef(1, 0), 1), "bad co-face dimension 1 for dim 1"),
        ("cofaces", (SimplexRef(d, 0), d + 1),
         f"bad co-face dimension {d + 1} for dim {d}"),
    ]


class TestHandleChecks:
    @pytest.mark.parametrize("dims", [(3, 9), (3, 3, 3)])
    def test_both_back_ends_refuse_bad_handles_alike(self, dims):
        """A handle outside the triangulation, or a face or co-face
        dimension outside the simplex's, is refused with the same
        ``TriangulationError`` by a grid and its explicit copy, and the
        last id of each dimension still answers."""
        g = ImplicitGridTriangulation(dims)
        ex = ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim))
        d = g.dim
        for tri in (g, precondition_all(ex)):
            for query, args, message in handle_refusals(d):
                with pytest.raises(TriangulationError,
                                   match=f"^{re.escape(message)}$"):
                    getattr(tri, query)(*args)
        for tri in (g, ex):
            for k in range(d + 1):
                last = SimplexRef(k, tri.simplex_count(k) - 1)
                assert len(tri.simplex_vertices(last)) == k + 1
                tri.is_boundary(last)
            assert tri.vertex_link(26)


class TestEquivalence:
    @pytest.mark.parametrize("dims", EQUIVALENCE_DIMS)
    def test_implicit_matches_explicit(self, dims):
        g = ImplicitGridTriangulation(dims)
        ex = precondition_all(
            ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim)))
        assert_equivalent(g, ex)

    @pytest.mark.parametrize("dims", EQUIVALENCE_DIMS)
    def test_simplex_array(self, dims):
        g = ImplicitGridTriangulation(dims)
        ex = precondition_all(
            ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim)))
        for k in range(g.dim + 1):
            for tri in (g, ex):
                rows = tri.simplex_array(k)
                assert rows.dtype == np.int64
                assert rows.shape == (tri.simplex_count(k), k + 1)
                for i, row in enumerate(rows.tolist()):
                    assert tuple(row) == tri.simplex_vertices(SimplexRef(k, i))
            assert set(map(tuple, g.simplex_array(k).tolist())) \
                == set(map(tuple, ex.simplex_array(k).tolist()))

    @pytest.mark.parametrize("dims", EQUIVALENCE_DIMS)
    def test_neighbor_csr(self, dims):
        g = ImplicitGridTriangulation(dims)
        ex = precondition_all(
            ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim)))
        for tri in (g, ex):
            assert_neighbor_csr(tri)

    @pytest.mark.parametrize("dims", EQUIVALENCE_DIMS)
    def test_facet_ids(self, dims):
        g = ImplicitGridTriangulation(dims)
        ex = precondition_all(
            ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim)))
        for tri in (g, ex):
            assert_facet_ids(tri)

    @pytest.mark.parametrize("dims", EQUIVALENCE_DIMS)
    def test_boundary_facets(self, dims):
        """The facet count of ``facet_ids`` equals ``is_boundary`` per
        facet on the grid and on its explicit copy."""
        g = ImplicitGridTriangulation(dims)
        ex = ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim))
        d = g.dim
        for tri in (g, ex):
            flags = tri.boundary_facets()
            assert flags.dtype == bool
            assert flags.tolist() == [
                tri.is_boundary(SimplexRef(d - 1, f))
                for f in range(tri.simplex_count(d - 1))]

    @pytest.mark.parametrize("dims", [(3, 5), (4, 3, 5)])
    def test_precondition_accepts_query_kinds_only(self, dims):
        """Both back ends accept every kind in ``QUERY_KINDS`` in either
        dimension and refuse any other; the grid builds nothing."""
        g = ImplicitGridTriangulation(dims)
        ex = ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim))
        g = ImplicitGridTriangulation(dims)
        for tri in (g, ex):
            for kind in QUERY_KINDS:
                tri.precondition(kind)
            with pytest.raises(TriangulationError, match="bogus"):
                tri.precondition("bogus")
        assert g._store == {}

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (2, 2, 2), (4, 3, 5)])
    def test_vertex_link_matches_star_walk(self, dims):
        g = ImplicitGridTriangulation(dims)
        ex = precondition_all(
            ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim)))
        for tri in (g, ex):
            for v in range(tri.simplex_count(0)):
                assert tri.vertex_link(v) == star_walk_link(tri, v)


def store_cases():
    """(fresh-triangulation factory, two fields) on the 12x9 and 5x4x4
    grids, their explicit copies and the twice-subdivided octahedron.

    The 3D fields are the ring field of criterion 6 under the two noise
    levels of the grid3d-diagram benchmark; the 2D ones are a random and
    a tie-heavy field."""
    rng = np.random.default_rng(15)
    cases = []
    for dims in ((12, 9), (5, 4, 4)):
        g = ImplicitGridTriangulation(dims)
        if g.dim == 3:
            ring = two_bump_field(dims).values
            fields = [OrderField(ring + rng.normal(0.0, s, ring.size))
                      for s in (0.05, 0.3)]
        else:
            fields = [random_field(g, rng), tie_heavy_field(g, rng)]
        mesh = (g.point_array(), g.simplex_array(g.dim))
        cases.append((lambda dims=dims: ImplicitGridTriangulation(dims),
                      fields))
        cases.append((lambda mesh=mesh: ExplicitTriangulation(*mesh),
                      fields))
    sphere = midpoint_subdivide(*midpoint_subdivide(*octahedron_mesh()))
    tri = ExplicitTriangulation(*sphere)
    cases.append((lambda: ExplicitTriangulation(*sphere),
                  [random_field(tri, rng), tie_heavy_field(tri, rng)]))
    return cases


def stage_outputs(tri, f):
    """The output of every stage on ``f``, as comparable values; the
    simplification keeps only the global extrema."""
    cps = extract_critical_points(tri, f)
    grad = build_gradient(tri, f)
    report = enforce_compliance(tri, f, grad, cps)
    diagram = build_diagram(tri, f, grad)
    seps = [(s.kind, s.source, s.target, s.points.tolist())
            for s in extract_separatrices(grad)]
    flat = simplify_field(tri, f, SimplificationRequest(
        frozenset({int(f.order[0]), int(f.order[-1])})))
    return [cps, [a.tolist() for a in grad.pair_up + grad.pair_down],
            report, diagram, seps,
            descending_segmentation(grad).tolist(),
            ascending_segmentation(grad).tolist(),
            flat.values.tolist(), flat.offsets.tolist(), run_checks(tri, f)]


def every_query(tri):
    """Ask every per-simplex query of every simplex once."""
    d = tri.dim
    for k in range(d + 1):
        for i in range(tri.simplex_count(k)):
            s = SimplexRef(k, i)
            tri.simplex_vertices(s)
            tri.is_boundary(s)
            for j in range(k):
                tri.faces(s, j)
            for l in range(k + 1, d + 1):
                tri.cofaces(s, l)
    for v in range(tri.simplex_count(0)):
        tri.vertex_link(v)
        tri.vertex_neighbors(v)


def arrays(got):
    return got if isinstance(got, tuple) else (got,)


class TestStore:
    """The field-independent arrays a triangulation keeps for its
    lifetime and shares across stages and fields."""

    def test_stored_arrays_are_read_only_and_fresh(self):
        """After every stage, every precondition kind and every
        per-simplex query, each stored array is read-only and equals a
        fresh build.  The grid's per-simplex queries store nothing."""
        for make, fields in store_cases():
            tri = make()
            stage_outputs(tri, fields[0])
            names = {name for name, *_ in tri._store}
            assert names >= {
                "simplex_array", "neighbor_csr", "facet_ids", "cofacet_ids",
                "boundary_facets", "boundary_flags"}
            staged = set(tri._store)
            every_query(precondition_all(tri))
            if isinstance(tri, ImplicitGridTriangulation):
                assert set(tri._store) == staged
            else:
                assert {name for name, *_ in tri._store} \
                    == names | {"face_rows", "coface_csr", "link_csr"}
            for (name, *args), got in tri._store.items():
                want = arrays(getattr(make(), name)(*args))
                assert len(arrays(got)) == len(want)
                for a, b in zip(arrays(got), want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                    with pytest.raises(ValueError):
                        a[...] = 0

    def test_each_relation_is_stored_once(self):
        """After every stage, every precondition kind and every
        per-simplex query, no two stored arrays hold one relation: no
        two int tables of one shape are equal once each row is sorted,
        unless they share memory, and no padded table holds, row by row,
        the ids of a stored CSR ``(offsets, ids)`` pair."""
        for make, fields in store_cases():
            tri = make()
            stage_outputs(tri, fields[0])
            every_query(precondition_all(tri))
            got = list(tri._store.values())
            tables = [a for a in got if isinstance(a, np.ndarray)
                      and a.ndim == 2 and a.dtype.kind == "i"]
            for i, a in enumerate(tables):
                for b in tables[i + 1:]:
                    if a.shape == b.shape and not np.shares_memory(a, b):
                        assert not np.array_equal(np.sort(a, axis=1),
                                                  np.sort(b, axis=1))
            csrs = [g for g in got if isinstance(g, tuple) and len(g) == 2]
            for a in tables:
                counts = (a >= 0).sum(axis=1)
                for offsets, ids in csrs:
                    assert not (np.array_equal(np.diff(offsets), counts)
                                and np.array_equal(a[a >= 0], ids))

    def test_fields_in_a_row_share_the_store(self):
        """A second field on one triangulation adds nothing to the store,
        reads the same arrays, and gives what a fresh one gives."""
        for make, fields in store_cases():
            tri = make()
            first = stage_outputs(tri, fields[0])
            kept = dict(tri._store)
            second = stage_outputs(tri, fields[1])
            assert tri._store.keys() == kept.keys()
            for (name, *args), got in kept.items():
                assert getattr(tri, name)(*args) is got
            assert first == stage_outputs(make(), fields[0])
            assert second == stage_outputs(make(), fields[1])

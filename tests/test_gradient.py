"""Discrete gradient construction, V-paths, and reversal."""

import sys
import time

import numpy as np
import pytest

from conftest import EQUIVALENCE_DIMS, array_cases, preconditioned, \
    random_field, shuffled_copy, tie_heavy_field
from oracles import _walks_down, _walks_up, count_vpaths, extract_vpath, \
    lower_star_gradient, simplex_key, steepest_coface_gradient, \
    steepest_gradient, top_vertex, vpath_counts, vpath_graph_acyclic
from sftopo import (
    DiscreteGradient,
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    SimplexRef,
    build_gradient,
    enforce_compliance,
    extract_critical_points,
    gradient_is_acyclic,
    pairing_is_valid,
    reverse_vpath,
)
from sftopo import gradient
from test_acceptance import surface_fixtures
from test_triangulation import non_manifold_fan

# minima at poles 4/5, saddle at equator vertex 0, maximum at 1
TWO_MINIMA = np.array([2.0, 5.0, 3.0, 4.0, 0.0, 1.0])


class TestBuild:
    def test_monotone_octahedron_two_critical(self, octahedron):
        f = OrderField(np.array([1.0, 3.0, 2.0, 4.0, 5.0, 0.0]))
        g = build_gradient(octahedron, f)
        crit = critical_simplices(g)
        assert crit[0] == [5]
        assert len(crit[1]) == 0
        assert len(crit[2]) == 1
        # the critical triangle sits in the star of the PL maximum
        assert 4 in octahedron.simplex_vertices(SimplexRef(2, crit[2][0]))

    def test_valid_and_acyclic(self, octahedron_sub1):
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = random_field(octahedron_sub1, rng)
            g = build_gradient(octahedron_sub1, f)
            assert pairing_is_valid(g)
            assert gradient_is_acyclic(g)
            assert vpath_graph_acyclic(octahedron_sub1, g)

    def test_3d_build(self):
        tri = ImplicitGridTriangulation((4, 4, 4))
        f = random_field(tri, np.random.default_rng(4))
        g = build_gradient(tri, f)
        assert pairing_is_valid(g)
        assert gradient_is_acyclic(g)


def assert_same_pairs(g, up, down):
    for k in range(g.tri.dim + 1):
        assert np.array_equal(g.pair_up[k], up[k]), k
        assert np.array_equal(g.pair_down[k], down[k]), k


class TestArrayKernel:
    """``build_gradient`` equals the per-vertex ProcessLowerStars of
    ``tests/oracles.py``, and the steepest co-face kernel there equals
    its per-simplex scan."""

    def test_matches_lower_star_oracle(self, octahedron_sub2):
        cases = list(array_cases(octahedron_sub2))
        rng = np.random.default_rng(25)
        for dims in ((24, 24), (6, 6, 6)):
            tri = ImplicitGridTriangulation(dims)
            cases += [(tri, make(tri, rng))
                      for make in (random_field, tie_heavy_field)]
        for tri, f in cases:
            g = build_gradient(tri, f)
            assert_same_pairs(g, *lower_star_gradient(tri, f))
            assert pairing_is_valid(g) and gradient_is_acyclic(g)

    @pytest.mark.parametrize("dims", EQUIVALENCE_DIMS)
    def test_matches_steepest_coface_scan(self, dims):
        g = ImplicitGridTriangulation(dims)
        ex = preconditioned(
            ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim)))
        rng = np.random.default_rng(list(dims))
        for tri in (g, ex):
            for make in (random_field, tie_heavy_field):
                for _ in range(3):
                    f = make(tri, rng)
                    assert_same_pairs(steepest_gradient(tri, f),
                                      *steepest_coface_gradient(tri, f))

    def test_matches_steepest_coface_scan_spheres(
            self, octahedron, octahedron_sub1, octahedron_sub2):
        rng = np.random.default_rng(6)
        for tri in (octahedron, octahedron_sub1, octahedron_sub2):
            for make in (random_field, tie_heavy_field):
                for _ in range(3):
                    f = make(tri, rng)
                    assert_same_pairs(steepest_gradient(tri, f),
                                      *steepest_coface_gradient(tri, f))

    def test_pairing_with_a_non_face_is_invalid(self):
        tri = ImplicitGridTriangulation((4, 4))
        g = build_gradient(tri, random_field(tri, np.random.default_rng(7)))
        assert pairing_is_valid(g)
        # re-pair a paired vertex with an edge that does not contain it
        v = int(np.nonzero(g.pair_up[0] >= 0)[0][0])
        e = next(i for i in range(tri.simplex_count(1))
                 if v not in tri.simplex_vertices(SimplexRef(1, i))
                 and g.pair_down[1][i] < 0 and g.pair_up[1][i] < 0)
        g.pair_down[1][g.pair_up[0][v]] = -1
        g.pair_up[0][v] = e
        g.pair_down[1][e] = v
        assert not pairing_is_valid(g)

    @pytest.mark.parametrize("edit", ["paired twice", "top paired up",
                                      "up not back", "down not back"])
    def test_each_broken_pair_is_invalid(self, octahedron, edit):
        """On the two-minima octahedron (a critical edge and a critical
        triangle): a simplex paired both up and down, a triangle with a
        ``pair_up``, a ``pair_up`` whose ``pair_down`` points at another
        simplex, and a ``pair_down`` whose ``pair_up`` does."""
        g = build_gradient(octahedron, OrderField(TWO_MINIMA))
        assert pairing_is_valid(g)
        (v, w), (c,), (t,) = (np.flatnonzero(g.pair_up[0] >= 0)[:2],
                              g.critical_ids(1), g.critical_ids(2))
        e = g.pair_up[0][v]
        if edit == "paired twice":
            g.pair_up[1][e] = t
        elif edit == "top paired up":
            g.pair_up[2][t] = 0
        elif edit == "up not back":
            g.pair_up[0][v] = g.pair_up[0][w]
        else:
            g.pair_down[1][c] = v
        assert not pairing_is_valid(g)


def critical_simplices(grad):
    """dim -> ascending list of critical simplex ids."""
    return {k: grad.critical_ids(k) for k in range(grad.tri.dim + 1)}


def owners(grad, k):
    """The highest vertex of every k-simplex."""
    rows = grad.verts[k]
    return rows[np.arange(len(rows)),
                np.argmax(grad.field.ranks[rows], axis=1)]


def vertex_pairs(grad, name):
    """The gradient's pairs as (face, co-face) tuples of vertex names,
    ``name[v]`` for vertex ``v``, each tuple sorted."""
    out = set()
    for k in range(grad.tri.dim):
        low = np.flatnonzero(grad.pair_up[k] >= 0)
        high = grad.pair_up[k][low]
        out |= set(zip(map(tuple, np.sort(name[grad.verts[k][low]]).tolist()),
                       map(tuple, np.sort(name[grad.verts[k + 1][high]])
                           .tolist())))
    return out


class TestLowerStars:
    """The gradient pairs simplices within lower stars only."""

    def test_critical_simplices_lie_in_critical_lower_stars(
            self, octahedron_sub2):
        """Both simplices of a pair have the same highest vertex, and a
        critical simplex off the boundary lies in the lower star of a PL
        critical point of its index, unless its highest vertex is on the
        boundary."""
        cases = list(array_cases(octahedron_sub2))
        rng = np.random.default_rng(26)
        for dims in ((16, 16), (8, 8, 8)):
            tri = ImplicitGridTriangulation(dims)
            cases += [(tri, make(tri, rng))
                      for make in (random_field, tie_heavy_field)]
        critical = 0
        for tri, f in cases:
            g = build_gradient(tri, f)
            own = [np.arange(len(f))] + [owners(g, k)
                                         for k in range(1, tri.dim + 1)]
            for k in range(tri.dim):
                low = np.flatnonzero(g.pair_up[k] >= 0)
                assert np.array_equal(own[k][low],
                                      own[k + 1][g.pair_up[k][low]])
            points = {(cp.vertex, cp.index)
                      for cp in extract_critical_points(tri, f)}
            flags = tri.boundary_flags()
            for k in range(tri.dim + 1):
                for s in g.critical_ids(k):
                    v = int(own[k][s])
                    if not flags[k][s] and not flags[0][v]:
                        assert (v, k) in points, (k, s)
                        critical += 1
        assert critical > 100

    @pytest.mark.parametrize("dims", [(24, 24), (12, 9), (6, 6, 6)])
    def test_grid_and_shuffled_copy_agree(self, dims):
        """The raw gradient on a grid and on an explicit copy with its
        vertex ids permuted pair the same simplices, compared as vertex
        tuples: lower-star keys never tie, so no simplex id decides a
        pair."""
        grid = ImplicitGridTriangulation(dims)
        rng = np.random.default_rng(list(dims))
        perm = rng.permutation(grid.simplex_count(0))
        points = np.empty_like(grid.point_array())
        points[perm] = grid.point_array()
        copy = ExplicitTriangulation(points,
                                     perm[grid.simplex_array(grid.dim)])
        for make in (random_field, tie_heavy_field):
            f = make(grid, rng)
            values, offsets = np.empty_like(f.values), np.empty_like(f.offsets)
            values[perm], offsets[perm] = f.values, f.offsets
            g = build_gradient(grid, f)
            h = build_gradient(copy, OrderField(values, offsets))
            assert vertex_pairs(g, np.arange(len(f))) == \
                vertex_pairs(h, np.argsort(perm))


class TestSimplexKey:
    """``_rank_keys`` is the one simplex order: ``_critical_by_key`` and
    ``_lower_star_slots`` order rows as the oracle's Python key does."""

    def cases(self):
        """Random and tie-heavy fields (values 0-4 by rounding, default
        offsets) on 2D and 3D grids, on an explicit copy of one, on the
        criterion-4 spheres, on the fan meshes and on one triangle,
        whose top vertex's star holds an edge whose key starts the
        triangle's."""
        rng = np.random.default_rng(31)
        grid = ImplicitGridTriangulation((5, 4, 3))
        tris = [ImplicitGridTriangulation((7, 6)), grid,
                preconditioned(ExplicitTriangulation(
                    grid.point_array(), grid.simplex_array(3))),
                ExplicitTriangulation(np.eye(3), np.array([[0, 1, 2]]))]
        tris += surface_fixtures()
        tris += [ExplicitTriangulation(*mesh)
                 for mesh in (non_manifold_fan(), fan_with_a_loop())]
        for tri in tris:
            n = tri.simplex_count(0)
            yield tri, OrderField(rng.random(n))
            yield tri, OrderField(np.round(4 * rng.random(n)))

    def test_critical_by_key_orders_as_the_oracle(self):
        """With every simplex critical, ``_critical_by_key`` lists them
        all by (dimension, oracle key), with their sorted ranks padded
        in front with -1."""
        for tri, f in self.cases():
            d = tri.dim
            dims, sids, keys = gradient._critical_by_key(
                DiscreteGradient(tri, f))
            verts = [tri.simplex_vertices(SimplexRef(k, s))
                     for k, s in zip(dims.tolist(), sids.tolist())]
            got = [(k, simplex_key(f, vs))
                   for k, vs in zip(dims.tolist(), verts)]
            want = sorted((k, simplex_key(f, tri.simplex_vertices(
                SimplexRef(k, s)))) for k in range(d + 1)
                for s in range(tri.simplex_count(k)))
            assert got == want
            assert [row[::-1] for row in keys.tolist()] == [
                list(key) + [-1] * (d - k) for k, key in got]

    def test_lower_star_slots_order_as_the_oracle(self):
        """Slots are grouped by owner, their highest vertex, and within a
        star ascend by oracle key, a shorter key first where it is the
        prefix of a longer one; each slot's faces are the positions of
        its facets that hold the owner."""
        prefix_ties = 0
        for tri, f in self.cases():
            g = DiscreteGradient(tri, f)
            base, order, owner, faces = gradient._lower_star_slots(g)
            dim = np.searchsorted(base, order, side="right") - 1
            verts = [tri.simplex_vertices(SimplexRef(k, s)) for k, s in
                     zip(dim.tolist(), (order - base[dim]).tolist())]
            keys = [simplex_key(f, vs) for vs in verts]
            assert owner.tolist() == [top_vertex(f, vs) for vs in verts]
            assert (np.diff(owner) >= 0).all()
            for i in range(1, len(order)):
                if owner[i] == owner[i - 1]:
                    assert keys[i - 1] < keys[i]
                    prefix_ties += keys[i][:len(keys[i - 1])] == keys[i - 1]
            for i, vs in enumerate(verts):
                want = sorted(j for j in range(len(order))
                              if len(verts[j]) == len(vs) - 1
                              and owner[j] == owner[i]
                              and set(verts[j]) < set(vs))
                got = sorted(x for x in faces[i].tolist() if x < len(order))
                assert got == want
        assert prefix_ties > 100


def walks(grad, ascending, root):
    """Node lists of the walks out of ``root``: ``lockstep_walks`` out
    of that one root."""
    return lockstep_walks(grad, ascending, [root])[0]


def walk_pairs(grad, ascending, root):
    """(end, pairs crossed in walk order) of each walk out of ``root``;
    pairs are (face, co-face)."""
    via = gradient._walk_arrays(grad, ascending)[1]
    out = []
    for nodes in walks(grad, ascending, root):
        body = nodes[:-1]
        faces = via[body].tolist()
        out.append((nodes[-1], list(zip(faces, body)) if ascending
                    else list(zip(body, faces))))
    return out


def oracle_pairs(grad, ascending, root):
    """``walk_pairs`` read from the oracles' VPaths, -1 for no end."""
    if ascending:
        return [(-1 if p.upper is None else p.upper, p.pairs[::-1])
                for p in _walks_up(grad, root)]
    return [(p.lower, p.pairs) for p in _walks_down(grad, root)]


def lockstep_walks(grad, ascending, roots):
    """``gradient._lockstep_walks`` out of ``roots`` as node lists, one
    list of walks per root, each ending at its end node or -1."""
    rows, via = gradient._walk_arrays(grad, ascending)
    owner, ends, bounds, body = gradient._lockstep_walks(rows, via, roots)
    out = [[] for _ in roots]
    for i, root in enumerate(owner.tolist()):
        out[root].append(body[bounds[i]:bounds[i + 1]].tolist()
                         + [int(ends[i])])
    return out


class TestWalks:
    """The lock-step walks out of one root at a time equal the oracles'
    per-simplex walks out of every edge (descending) and every facet
    (ascending), and the walks out of all of them at once equal those
    out of one root at a time, on raw and compliant gradients."""

    def assert_walks_match(self, tri, f):
        g = build_gradient(tri, f)
        for cancel in (False, True):
            if cancel:
                enforce_compliance(tri, f, g)
            for ascending, k in ((False, 1), (True, tri.dim - 1)):
                roots = range(tri.simplex_count(k))
                for root in roots:
                    assert walk_pairs(g, ascending, root) == \
                        oracle_pairs(g, ascending, root), (ascending, root)
                assert lockstep_walks(g, ascending, roots) == \
                    [walks(g, ascending, root) for root in roots]

    @pytest.mark.parametrize("dims", [(12, 9), (5, 4, 4)])
    def test_grids_and_shuffled_explicit_copies(self, dims):
        grid = ImplicitGridTriangulation(dims)
        rng = np.random.default_rng(list(dims))
        for tri in (grid, shuffled_copy(grid, rng)):
            for make in (random_field, tie_heavy_field):
                self.assert_walks_match(tri, make(tri, rng))

    def test_closed_sphere(self, octahedron_sub2):
        rng = np.random.default_rng(8)
        for make in (random_field, tie_heavy_field):
            self.assert_walks_match(octahedron_sub2,
                                    make(octahedron_sub2, rng))


class TestVPaths:
    def octa_compliant(self, octahedron):
        f = OrderField(TWO_MINIMA.copy())
        g = build_gradient(octahedron, f)
        enforce_compliance(octahedron, f, g)
        return f, g

    def test_saddle_edge_descends_to_both_minima(self, octahedron):
        f, g = self.octa_compliant(octahedron)
        crit = critical_simplices(g)
        assert crit[0] == [4, 5] and len(crit[1]) == 1 and len(crit[2]) == 1
        ends = [w[-1] for w in walks(g, False, crit[1][0])]
        assert sorted(ends) == [4, 5]

    def test_saddle_walks_up_to_maximum(self, octahedron):
        f, g = self.octa_compliant(octahedron)
        crit = critical_simplices(g)
        ends = [w[-1] for w in walks(g, True, crit[1][0])]
        assert ends == [crit[2][0]] * 2

    def test_walk_structure(self, octahedron):
        """Each walk up starts at a co-face of the saddle, goes on from
        every cell to the other co-face of the facet paired below it,
        and ends at a critical cell."""
        f, g = self.octa_compliant(octahedron)
        sigma = g.critical_ids(1)[0]
        for nodes in walks(g, True, sigma):
            faces = [sigma] + g.pair_down[2][nodes[:-1]].tolist()
            for face, cell in zip(faces, nodes):
                assert cell in octahedron.cofaces(SimplexRef(1, face), 2)
            assert g.is_critical(2, nodes[-1])

    def test_cancellation_locality(self, octahedron):
        f, g = self.octa_compliant(octahedron)
        crit = critical_simplices(g)
        e = crit[1][0]
        n_paths = count_vpaths(g, 0, e, 5)
        assert n_paths == 1
        before = {k: set(v) for k, v in critical_simplices(g).items()}
        path = extract_vpath(g, 0, e, 5)
        reverse_vpath(g, path)
        after = {k: set(v) for k, v in critical_simplices(g).items()}
        assert before[0] - after[0] == {5}
        assert before[1] - after[1] == {e}
        assert before[2] == after[2]
        assert pairing_is_valid(g) and gradient_is_acyclic(g)

    def test_extract_agrees_with_count(self):
        tri = ImplicitGridTriangulation((6, 6))
        f = random_field(tri, np.random.default_rng(5))
        g = build_gradient(tri, f)
        for e in g.critical_ids(1):
            for t in g.critical_ids(2):
                n = count_vpaths(g, 1, t, e)
                got = extract_vpath(g, 1, t, e)
                assert (got is not None) == (n > 0)
                if got is not None:
                    assert got.upper == t and got.lower == e

    def test_deep_walks_need_no_recursion(self):
        """Counting, the first-path read and the deterministic walk
        follow V-paths longer than the recursion limit, without raising
        it.  On a long strip with minima at both ends, the saddle edges
        descend to each minimum by one walk of about half the strip's
        length."""
        limit = sys.getrecursionlimit()
        n = 2 * limit + 400
        tri = ImplicitGridTriangulation((n, 2))
        x = np.tile(np.arange(n), 2)
        g = build_gradient(tri, OrderField(-np.abs(x - n // 2) * 1.0))
        lows = g.critical_ids(0)
        assert lows == [0, n - 1] and g.critical_ids(1)
        for e in g.critical_ids(1):
            for v in lows:
                assert count_vpaths(g, 0, e, v) == 1
            memo = {}
            assert gradient._vpath_counts(g, 0, e, set(lows), memo) == \
                {0: 1, n - 1: 1}
            for end, pairs in walk_pairs(g, False, e):
                path = gradient._first_vpath(g, 0, e, end, memo)
                assert len(path.pairs) > limit
                assert path.pairs == pairs
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("dims", [(4, 4, 4), (5, 4, 6)])
    def test_counts_match_the_oracle(self, dims):
        """``gradient._vpath_counts`` from every critical triangle to the
        critical edges equals the oracle's counts by per-simplex
        ``faces`` queries, on the raw, compliant and steepest gradients
        of random and tie-heavy fields on a grid and a shuffled
        explicit copy."""
        grid = ImplicitGridTriangulation(dims)
        rng = np.random.default_rng(list(dims))
        arcs = shared = 0
        for tri in (grid, shuffled_copy(grid, rng)):
            for make in (random_field, tie_heavy_field):
                f = make(tri, rng)
                compliant = build_gradient(tri, f)
                enforce_compliance(tri, f, compliant)
                for g in (build_gradient(tri, f), compliant,
                          steepest_gradient(tri, f)):
                    edges = set(g.critical_ids(1))
                    memo = {}
                    for t in g.critical_ids(2):
                        want = vpath_counts(g, 1, t)
                        assert gradient._vpath_counts(
                            g, 1, t, edges, memo) == want
                        arcs += len(want)
                        shared += sum(n > 1 for n in want.values())
        # 708 and 1,700 arcs, of which 5 and 26 have several V-paths
        assert arcs > 500 and shared > 0

    def test_first_path_is_the_depth_first_path(self):
        """The first-path read from the counts equals ``extract_vpath``
        on every connected (triangle, edge) pair of random 3D fields."""
        tri = ImplicitGridTriangulation((4, 4, 4))
        rng = np.random.default_rng(6)
        paths = 0
        for make in (random_field, tie_heavy_field):
            g = build_gradient(tri, make(tri, rng))
            edges = set(g.critical_ids(1))
            memo = {}
            for t in g.critical_ids(2):
                for e in gradient._vpath_counts(g, 1, t, edges, memo):
                    got = gradient._first_vpath(g, 1, t, e, memo)
                    assert got == extract_vpath(g, 1, t, e)
                    paths += 1
        assert paths > 20

    def test_no_first_path_to_an_edge_out_of_reach(self):
        """The first-path read gives None for a critical edge that a
        triangle's counts do not reach."""
        tri = ImplicitGridTriangulation((4, 4, 4))
        g = build_gradient(tri, random_field(tri, np.random.default_rng(6)))
        edges = set(g.critical_ids(1))
        memo, misses = {}, 0
        for t in g.critical_ids(2):
            reached = gradient._vpath_counts(g, 1, t, edges, memo)
            for e in sorted(edges - set(reached)):
                assert gradient._first_vpath(g, 1, t, e, memo) is None
                misses += 1
        assert misses > 20


def ring(tri, k, s):
    """The (k+1)-simplices around interior (k-1)-simplex ``s``, in
    cyclic order: consecutive ones share a k-face that contains ``s``."""
    spokes = set(tri.cofaces(SimplexRef(k - 1, s), k))
    out = [tri.cofaces(SimplexRef(k - 1, s), k + 1)[0]]
    came = None
    while True:
        face = next(f for f in tri.faces(SimplexRef(k + 1, out[-1]), k)
                    if f in spokes and f != came)
        nxt = next(t for t in tri.cofaces(SimplexRef(k, face), k + 1)
                   if t != out[-1])
        if nxt == out[0]:
            return out
        out.append(nxt)
        came = face


def closed_vpath(tri, k, highs):
    """An otherwise critical gradient whose (k, k+1) V-path runs around
    the cycle ``highs``: each pairs with the k-face it shares with the
    one before it, so its other shared face leads on to the next."""
    grad = DiscreteGradient(tri, OrderField(np.arange(
        tri.simplex_count(0), dtype=float)))
    for prev, high in zip(highs[-1:] + highs[:-1], highs):
        (low,) = set(tri.faces(SimplexRef(k + 1, prev), k)) \
            & set(tri.faces(SimplexRef(k + 1, high), k))
        grad.pair_up[k][low] = high
        grad.pair_down[k + 1][high] = low
    return grad


def edge_id(tri, a, b):
    rows = tri.simplex_array(1).tolist()
    return rows.index(sorted((a, b)))


def triangle_id(tri, a, b, c):
    rows = tri.simplex_array(2).tolist()
    return rows.index(sorted((a, b, c)))


def fan_with_a_loop():
    """Three triangles on edge (0,1), and (0,2,4), which closes the
    ring (0,1,2), (0,2,4), (0,1,4) around vertex 0."""
    points = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                       [0, 0, 1], [1, 1, 1.0]])
    return points, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 2, 4]])


class TestAcyclicity:
    """``gradient_is_acyclic`` finds closed V-paths that the reference
    graph search finds, and stays fast on large compliant gradients."""

    def assert_cyclic(self, tri, grad):
        assert pairing_is_valid(grad)
        assert not vpath_graph_acyclic(tri, grad)
        assert not gradient_is_acyclic(grad)

    def test_vertex_edge_loop_around_a_triangle(self):
        """Vertices 0, 1 and 4 of a 3x3 grid pair with edges (0,1),
        (1,4) and (0,4): each edge leads to the next vertex's edge."""
        tri = ImplicitGridTriangulation((3, 3))
        grad = closed_vpath(tri, 0, [edge_id(tri, 0, 1), edge_id(tri, 1, 4),
                                     edge_id(tri, 0, 4)])
        assert grad.pair_up[0][[0, 1, 4]].tolist() == [
            edge_id(tri, 0, 1), edge_id(tri, 1, 4), edge_id(tri, 0, 4)]
        self.assert_cyclic(tri, grad)

    def test_edge_triangle_loop_around_an_interior_vertex(self):
        tri = ImplicitGridTriangulation((3, 3))
        highs = ring(tri, 1, 4)
        assert len(highs) == 6
        self.assert_cyclic(tri, closed_vpath(tri, 1, highs))

    def test_triangle_tetrahedron_loop_around_an_interior_edge(self):
        tri = ImplicitGridTriangulation((3, 3, 3))
        # the main diagonal through the centre vertex 13 lies in 6 tets
        highs = ring(tri, 2, edge_id(tri, 0, 13))
        assert len(highs) == 6
        self.assert_cyclic(tri, closed_vpath(tri, 2, highs))

    def test_vertex_edge_loop_in_3d(self):
        """The (0,1) loop around a triangle of a 3D grid; pointer
        doubling over the descending walk refuses it."""
        tri = ImplicitGridTriangulation((3, 3, 3))
        a, b, c = tri.simplex_array(2)[0].tolist()
        self.assert_cyclic(tri, closed_vpath(
            tri, 0, [edge_id(tri, a, b), edge_id(tri, b, c),
                     edge_id(tri, a, c)]))

    def test_edge_triangle_loop_in_3d(self):
        """Three triangles of one tetrahedron around its vertex ``a``:
        each pairs with the edge it shares with the one before, and its
        other edge at ``a`` leads on.  The 3D (1,2) digraph branches,
        so Kahn's peel finds this loop."""
        tri = ImplicitGridTriangulation((2, 2, 2))
        a, b, c, d = tri.simplex_array(3)[0].tolist()
        highs = [triangle_id(tri, *vs)
                 for vs in ((a, b, c), (a, c, d), (a, b, d))]
        self.assert_cyclic(tri, closed_vpath(tri, 1, highs))

    def test_loop_through_the_third_triangle_of_a_fan(self):
        """Edge (0,1) has three co-facets: (0,1,2), (0,1,3) and (0,1,4).
        The loop (0,1,2) -> (0,2,4) -> (0,1,4) leaves (0,1) through its
        third co-facet, which the two-wide ascending walk never reads,
        so the check must peel this digraph instead."""
        tri = ExplicitTriangulation(*fan_with_a_loop())
        highs = [triangle_id(tri, *vs)
                 for vs in ((0, 1, 2), (0, 2, 4), (0, 1, 4))]
        assert tri.cofacet_ids(1)[edge_id(tri, 0, 1)].tolist() == [
            highs[0], triangle_id(tri, 0, 1, 3), highs[2]]
        self.assert_cyclic(tri, closed_vpath(tri, 1, highs))

    def test_fans_agree_with_the_graph_search(self):
        """On random and tie-heavy fields over meshes with three
        triangles on one edge, the check agrees with the oracle."""
        rng = np.random.default_rng(35)
        for mesh in (non_manifold_fan(), fan_with_a_loop()):
            tri = ExplicitTriangulation(*mesh)
            for make in (random_field, tie_heavy_field) * 3:
                g = build_gradient(tri, make(tri, rng))
                assert gradient_is_acyclic(g) == vpath_graph_acyclic(tri, g)

    def test_acyclic_check_is_fast_at_256_squared(self):
        """Peeling takes about 0.1 s on a random compliant 256x256
        gradient; the depth-first search it replaced took 1.3-1.5 s."""
        tri = ImplicitGridTriangulation((256, 256))
        f = random_field(tri, np.random.default_rng(19))
        g = build_gradient(tri, f)
        enforce_compliance(tri, f, g)
        start = time.perf_counter()
        assert gradient_is_acyclic(g)
        assert time.perf_counter() - start < 0.5

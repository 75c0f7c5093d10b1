"""Merge trees, contour tree, diagram, and persistence curve."""

import logging
import time
from collections import Counter

import numpy as np
import pytest

from conftest import midpoint_subdivide, octahedron_mesh, random_field, \
    shuffled_copy, tie_heavy_field, torus_mesh, preconditioned
from oracles import level_set_components, prune_contour_tree, \
    reduction_vertex_pairs, sweep_merge_tree, uf_extremum_pairs
from test_triangulation import non_manifold_fan
from sftopo import (
    CLASS_ESSENTIAL,
    CLASS_MIN_SADDLE,
    CLASS_SADDLE_MAX,
    CLASS_SADDLE_SADDLE,
    DomainTopologyError,
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    PersistenceDiagram,
    build_diagram,
    build_gradient,
    build_merge_tree,
    combine_contour_tree,
    enforce_compliance,
    extract_critical_points,
    persistence_curve,
    persistence_pairs_extrema,
)
from sftopo.checks import _contour_tree_faults, run_checks


class TestMergeTree:
    def test_f0_join_tree(self, grid33, f0):
        t = build_merge_tree(grid33, f0, "join")
        assert sorted(t.leaves) == [0, 2]
        assert t.saddles == ((1, 1),)
        assert t.root == 8

    def test_f0_split_tree(self, grid33, f0):
        t = build_merge_tree(grid33, f0, "split")
        assert t.leaves == (8,)
        assert t.saddles == ()
        assert t.root == 0

    def test_f0_elder_pairs(self, grid33, f0):
        join = build_merge_tree(grid33, f0, "join")
        assert persistence_pairs_extrema(join) == [(2, 1)]

    def test_leaves_are_pl_extrema(self, octahedron_sub2):
        """Join (split) tree leaves are exactly the index-0 (index-d)
        critical points: an empty lower link means no lower neighbour."""
        rng = np.random.default_rng(28)
        tris = [ImplicitGridTriangulation((9, 7)),
                ImplicitGridTriangulation((4, 4, 4)), octahedron_sub2]
        for tri in tris:
            for _ in range(3):
                f = random_field(tri, rng)
                cps = extract_critical_points(tri, f)
                join = build_merge_tree(tri, f, "join")
                split = build_merge_tree(tri, f, "split")
                assert set(join.leaves) == {
                    cp.vertex for cp in cps if cp.index == 0}
                assert set(split.leaves) == {
                    cp.vertex for cp in cps if cp.index == tri.dim}

    def test_leaves_and_saddles_match_oracle(self, octahedron_sub2):
        """Leaves are the oracle's extrema plus the global one; a saddle
        merging k components is where k - 1 oracle pairs die."""
        rng = np.random.default_rng(29)
        tris = [ImplicitGridTriangulation((9, 7)),
                ImplicitGridTriangulation((4, 4, 4)), octahedron_sub2]
        for tri in tris:
            for f in (random_field(tri, rng), tie_heavy_field(tri, rng)):
                for variant, ascending in (("join", True), ("split", False)):
                    tree = build_merge_tree(tri, f, variant)
                    pairs = uf_extremum_pairs(tri, f, ascending)
                    first = int(f.order[0] if ascending else f.order[-1])
                    assert sorted(tree.leaves) == sorted(
                        {e for e, _ in pairs} | {first})
                    assert sorted(tree.saddles) == sorted(
                        Counter(s for _, s in pairs).items())
                    assert sorted(tree.pairs) == sorted(pairs)

    def test_three_way_merge_pair_order(self, grid33):
        """Vertex 4 merges the components of minima 1, 3 and 8 (found
        in that order); the oldest, 8, survives and the others die at 4
        from oldest to youngest."""
        values = np.array([4, 2, 5, 1, 3, 6, 7, 8, 0], dtype=np.float64)
        join = build_merge_tree(grid33, OrderField(values), "join")
        assert join.saddles == ((4, 2),)
        assert persistence_pairs_extrema(join) == [(3, 4), (1, 4)]
        split = build_merge_tree(grid33, OrderField(-values), "split")
        assert persistence_pairs_extrema(split) == [(3, 4), (1, 4)]

    def test_join_split_duality(self):
        tri = ImplicitGridTriangulation((8, 8))
        rng = np.random.default_rng(21)
        f = random_field(tri, rng)
        neg = OrderField(-f.values, len(f) - 1 - f.offsets)
        split = build_merge_tree(tri, f, "split")
        join_neg = build_merge_tree(tri, neg, "join")
        assert np.array_equal(split.succ, join_neg.succ)
        assert sorted(split.leaves) == sorted(join_neg.leaves)

    def test_stored_tree_lists_are_tuples(self, grid33, f0):
        """The store shares one tree among callers: its lists cannot be
        edited."""
        tree = build_merge_tree(grid33, f0, "join")
        for seq in (tree.leaves, tree.saddles, tree.pairs):
            assert isinstance(seq, tuple)
        with pytest.raises(AttributeError):
            tree.leaves.append(-1)
        assert build_merge_tree(grid33, f0, "join").leaves == (0, 2)

    def test_bad_variant(self, grid33, f0):
        with pytest.raises(ValueError):
            build_merge_tree(grid33, f0, "other")


def _identity_cases():
    """(name, triangulation, field) inputs for the sweep comparison."""
    rng = np.random.default_rng(31)
    grids = [(3, 3), (9, 7), (12, 5), (48, 48), (3, 3, 3), (4, 4, 4),
             (5, 5, 5), (6, 6, 6), (5, 4, 3)]
    for dims in grids:
        tri = ImplicitGridTriangulation(dims)
        n = tri.simplex_count(0)
        yield f"random {dims}", tri, random_field(tri, rng)
        yield f"tie-heavy {dims}", tri, tie_heavy_field(tri, rng)
        yield f"constant {dims}", tri, OrderField(np.zeros(n))
    # a 2400 x 2 strip: monotone fields descend along chains of 4800
    strip = ImplicitGridTriangulation((2400, 2))
    ramp = np.arange(strip.simplex_count(0), dtype=np.float64)
    yield "increasing strip", strip, OrderField(ramp)
    yield "decreasing strip", strip, OrderField(-ramp)
    yield "random strip", strip, random_field(strip, rng)
    points, cells = octahedron_mesh()
    for level in range(4):
        tri = preconditioned(ExplicitTriangulation(points, cells))
        yield f"sphere level {level}", tri, random_field(tri, rng)
        yield f"tie-heavy sphere level {level}", tri, \
            tie_heavy_field(tri, rng)
        points, cells = midpoint_subdivide(points, cells)
    points, cells = octahedron_mesh()
    two = preconditioned(ExplicitTriangulation(
        np.vstack([points, points + 5.0]), np.vstack([cells, cells + 6])))
    yield "two spheres", two, random_field(two, rng)
    lone = preconditioned(ExplicitTriangulation(
        np.vstack([points, [[9.0, 9.0, 9.0]]]), cells))
    yield "sphere and a lone vertex", lone, random_field(lone, rng)
    grid = ImplicitGridTriangulation((5, 4, 3))
    copy = shuffled_copy(grid, rng)
    yield "random shuffled (5, 4, 3)", copy, random_field(copy, rng)
    yield "tie-heavy shuffled (5, 4, 3)", copy, tie_heavy_field(copy, rng)
    fan = ExplicitTriangulation(*non_manifold_fan())
    yield "random fan", fan, random_field(fan, rng)
    yield "tie-heavy fan", fan, tie_heavy_field(fan, rng)


def test_merge_tree_matches_vertex_sweep():
    """The region construction returns the vertex sweep's tree, element
    for element, on grids, long descent chains, spheres, a domain with
    two components, one with an isolated vertex, a 3D grid with shuffled
    vertex ids and three triangles on one edge."""
    for name, tri, f in _identity_cases():
        for variant in ("join", "split"):
            got = build_merge_tree(tri, f, variant)
            want = sweep_merge_tree(tri, f, variant)
            where = f"{name}, {variant}"
            assert np.array_equal(got.succ, want.succ), where
            assert np.array_equal(got.n_children, want.n_children), where
            assert got.root == want.root, where
            assert got.leaves == want.leaves, where
            assert got.saddles == want.saddles, where
            assert got.pairs == want.pairs, where
        if name == "two spheres":
            assert (got.succ < 0).sum() == 2
        if name == "sphere and a lone vertex":
            assert 6 in got.leaves and got.succ[6] == -1


def _contour_or_error(combine, join, split):
    try:
        return combine(join, split)
    except DomainTopologyError as exc:
        return str(exc)


def test_contour_tree_matches_vertex_pruning():
    """The batched rounds and their sequential tail return the queue's
    contour tree, element for element, or the same refusal, on the
    merge-tree identity inputs (the monotone and random strips among
    them) and on two random 128 x 128 fields."""
    cases = list(_identity_cases())
    tri = ImplicitGridTriangulation((128, 128))
    rng = np.random.default_rng(32)
    cases += [("random (128, 128)", tri, random_field(tri, rng))
              for _ in range(2)]
    for name, tri, f in cases:
        join = build_merge_tree(tri, f, "join")
        split = build_merge_tree(tri, f, "split")
        got = _contour_or_error(combine_contour_tree, join, split)
        want = _contour_or_error(prune_contour_tree, join, split)
        if isinstance(want, str):
            assert got == want, name
            continue
        assert got.nodes == want.nodes, name
        assert got.node_types == want.node_types, name
        assert got.arcs == want.arcs, name
        assert np.array_equal(got.vertex_arc, want.vertex_arc), name


class TestContourTree:
    def test_f0_nodes_and_arcs(self, grid33, f0):
        join = build_merge_tree(grid33, f0, "join")
        split = build_merge_tree(grid33, f0, "split")
        ct = combine_contour_tree(join, split)
        assert sorted(ct.nodes) == [0, 1, 2, 8]
        assert set(ct.arcs) == {(0, 1), (2, 1), (1, 8)}
        assert ct.node_types[0] == "min" and ct.node_types[8] == "max"
        assert ct.node_types[1] == "saddle"

    def test_vertex_partition(self):
        tri = ImplicitGridTriangulation((9, 9))
        rng = np.random.default_rng(22)
        for _ in range(5):
            f = random_field(tri, rng)
            ct = combine_contour_tree(build_merge_tree(tri, f, "join"),
                                      build_merge_tree(tri, f, "split"))
            assert len(f) == len(ct.vertex_arc)
            assert all(0 <= a < len(ct.arcs) for a in ct.vertex_arc)

    def test_arcs_count_level_set_components(self, octahedron,
                                             octahedron_sub1,
                                             octahedron_sub2):
        """At every level between two consecutive ranks, the arcs whose
        rank span contains it are the level set's components (Carr,
        Snoeyink & Axen, CGTA 24(2), 2003)."""
        rng = np.random.default_rng(30)
        tris = [ImplicitGridTriangulation(dims) for dims in
                [(9, 7), (12, 5), (3, 3, 3), (4, 4, 4), (5, 5, 5)]]
        for tri in tris + [octahedron, octahedron_sub1, octahedron_sub2]:
            for f in (random_field(tri, rng), tie_heavy_field(tri, rng)):
                ct = combine_contour_tree(build_merge_tree(tri, f, "join"),
                                          build_merge_tree(tri, f, "split"))
                # a node maps to its lowest-indexed incident arc
                first = {}
                for i, arc in enumerate(ct.arcs):
                    for v in arc:
                        first.setdefault(v, i)
                assert sorted(first) == sorted(ct.nodes)
                assert all(ct.vertex_arc[v] == first[v] for v in ct.nodes)
                lo, hi = f.ranks[np.array(ct.arcs)].T
                for r in range(len(f) - 1):
                    t = r + 0.5
                    assert ((lo < t) & (t < hi)).sum() \
                        == level_set_components(tri, f, t)

    def test_torus_refused(self):
        tri = preconditioned(ExplicitTriangulation(*torus_mesh()))
        f = random_field(tri, np.random.default_rng(23))
        join = build_merge_tree(tri, f, "join")
        split = build_merge_tree(tri, f, "split")
        with pytest.raises(DomainTopologyError):
            combine_contour_tree(join, split)

    def test_pruning_stall_refused(self):
        """A torus beside an octahedron has Euler characteristic 2, so
        only the pruning stall can refuse it."""
        tp, tc = torus_mesh()
        op, oc = octahedron_mesh()
        tri = preconditioned(ExplicitTriangulation(
            np.vstack([tp, op + 10.0]), np.vstack([tc, oc + len(tp)])))
        stalled = 0
        for seed in range(5):
            f = random_field(tri, np.random.default_rng(seed))
            join = build_merge_tree(tri, f, "join")
            split = build_merge_tree(tri, f, "split")
            got = _contour_or_error(combine_contour_tree, join, split)
            want = _contour_or_error(prune_contour_tree, join, split)
            assert got == want
            stalled += isinstance(got, str) and "stalled" in got
        assert stalled >= 3

    def test_bowtie_refused(self):
        """Two triangles sharing only vertex 0, values 0 to 4: vertex 0
        is the minimum, and its upper link is split in two, so it is a
        saddle too and no contour tree holds it."""
        points = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
        tri = ExplicitTriangulation(points, [[0, 1, 2], [0, 3, 4]])
        f = OrderField(np.arange(5.0))
        join = build_merge_tree(tri, f, "join")
        split = build_merge_tree(tri, f, "split")
        with pytest.raises(DomainTopologyError,
                           match="vertex 0 is both an extremum and a saddle"):
            combine_contour_tree(join, split)

    def test_tetrahedra_on_one_vertex(self):
        """Two tetrahedra sharing vertex 0: every other link lies in one
        tetrahedron, and vertex 0's link is split, so the tree is refused
        exactly when vertex 0 holds the lowest or the highest of the 7
        values; every other tree passes ``check``'s tree invariant."""
        points = np.random.default_rng(0).random((7, 3))
        tri = ExplicitTriangulation(points, [[0, 1, 2, 3], [0, 4, 5, 6]])
        refused = []
        for seed in range(20):
            values = np.random.default_rng(seed).random(7)
            f = OrderField(values)
            join = build_merge_tree(tri, f, "join")
            split = build_merge_tree(tri, f, "split")
            try:
                ct = combine_contour_tree(join, split)
            except DomainTopologyError as exc:
                assert str(exc).startswith("vertex 0 is both")
                refused.append(seed)
            else:
                assert _contour_tree_faults(ct, f.ranks) == []
            assert all(r.ok for r in run_checks(tri, f))
            assert (seed in refused) == (0 in (values.argmin(),
                                                values.argmax()))
        assert refused == [3, 10, 17]

    def test_zigzag_strip_not_quadratic(self):
        """A random 9600 x 2 strip has a zigzag contour tree that loses
        only its two ends per round; batched rounds over every vertex
        left would take several times the queue's time, the sequential
        tail keeps within 1.5x of it (best of 3, same process)."""
        tri = ImplicitGridTriangulation((9600, 2))
        f = random_field(tri, np.random.default_rng(33))
        join = build_merge_tree(tri, f, "join")
        split = build_merge_tree(tri, f, "split")

        def best(combine):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                combine(join, split)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(combine_contour_tree) <= 1.5 * best(prune_contour_tree)

    def test_debug_line(self, caplog):
        tri = ImplicitGridTriangulation((128, 128))
        f = random_field(tri, np.random.default_rng(34))
        join = build_merge_tree(tri, f, "join")
        split = build_merge_tree(tri, f, "split")
        with caplog.at_level(logging.DEBUG, logger="sftopo.trees"):
            combine_contour_tree(join, split)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "sftopo.trees"]
        assert len(lines) == 1
        assert lines[0].startswith("contour tree: 16384 vertices, ")
        rounds = int(lines[0].split(", ")[1].split()[0])
        assert 0 < rounds <= 20


class TestDiagram:
    def test_f0_diagram(self, grid33, f0):
        d = build_diagram(grid33, f0)
        rows = [(p.birth_vertex, p.death_vertex, p.birth_value,
                 p.death_value, p.cls) for p in d.pairs]
        assert rows == [(2, 1, 2.0, 4.0, CLASS_MIN_SADDLE),
                        (0, 8, 0.0, 10.0, CLASS_ESSENTIAL)]

    def test_extremum_pairs_match_oracle(self):
        tri = ImplicitGridTriangulation((10, 10))
        rng = np.random.default_rng(24)
        for _ in range(5):
            f = random_field(tri, rng)
            d = build_diagram(tri, f)
            got_min = sorted((p.birth_vertex, p.death_vertex)
                             for p in d.pairs if p.cls == CLASS_MIN_SADDLE)
            got_max = sorted((p.death_vertex, p.birth_vertex)
                             for p in d.pairs if p.cls == CLASS_SADDLE_MAX)
            assert got_min == sorted(uf_extremum_pairs(tri, f, True))
            assert got_max == sorted(uf_extremum_pairs(tri, f, False))

    def test_3d_without_gradient_flags_missing_pairs(self):
        tri = ImplicitGridTriangulation((3, 3, 3))
        f = random_field(tri, np.random.default_rng(25))
        d = build_diagram(tri, f)
        assert d.missing_saddle_pairs

    def test_sorted_by_class_then_birth(self):
        tri = ImplicitGridTriangulation((10, 10))
        f = random_field(tri, np.random.default_rng(26))
        d = build_diagram(tri, f)
        keys = [(p.cls, p.birth_value, p.birth_vertex) for p in d.pairs]
        assert keys == sorted(keys)


def saddle_saddle_pairs(tri, f, grad=None):
    """The (1,2) pairs of ``f``'s diagram as (birth, death) vertices,
    asked for with ``grad``, by default the compliant gradient."""
    if grad is None:
        grad = build_gradient(tri, f)
        enforce_compliance(tri, f, grad)
    d = build_diagram(tri, f, grad)
    return {(p.birth_vertex, p.death_vertex) for p in d.pairs
            if p.cls == CLASS_SADDLE_SADDLE}


class TestSaddleSaddlePairs:
    """(1,2) pairs equal full GF(2) boundary reduction on random fields,
    not only on the smooth two-bump fixture of criterion 6, whatever
    compliance cancelled in the gradient passed."""

    @pytest.mark.parametrize("dims", [(4, 4, 4), (5, 5, 5), (5, 4, 6),
                                      (6, 6, 6)])
    def test_random_fields_match_reduction(self, dims):
        tri = ImplicitGridTriangulation(dims)
        for seed in range(6):
            f = random_field(tri, np.random.default_rng(seed))
            assert saddle_saddle_pairs(tri, f) == \
                reduction_vertex_pairs(tri, f, 1), seed

    def test_tie_heavy_fields_match_reduction(self):
        tri = ImplicitGridTriangulation((7, 6, 5))
        found = 0
        for seed in range(3):
            f = tie_heavy_field(tri, np.random.default_rng(seed))
            got = saddle_saddle_pairs(tri, f)
            assert got == reduction_vertex_pairs(tri, f, 1), seed
            found += len(got)
        assert found > 0

    @pytest.mark.parametrize("dims", [(5, 4, 3), (6, 6, 6)])
    def test_grid_and_shuffled_copy_agree(self, dims):
        """A grid and its explicit copy with permuted vertex ids pair the
        same vertices: no simplex id decides a pair."""
        rng = np.random.default_rng(40)
        grid = ImplicitGridTriangulation(dims)
        copy = shuffled_copy(grid, np.random.default_rng(41))
        # shuffled_copy moves vertex v to perm[v], for the same rng draw
        perm = np.random.default_rng(41).permutation(grid.simplex_count(0))
        for make in (random_field, tie_heavy_field):
            f = make(grid, rng)
            values, offsets = np.empty_like(f.values), \
                np.empty_like(f.offsets)
            values[perm], offsets[perm] = f.values, f.offsets
            moved = OrderField(values, offsets)
            want = {(int(perm[b]), int(perm[d]))
                    for b, d in saddle_saddle_pairs(grid, f)}
            assert want and saddle_saddle_pairs(copy, moved) == want

    def test_compliant_gradient_gives_the_raw_pairs(self):
        """Compliance cancels saddle/saddle pairs in this gradient; the
        diagram still reads the (1,2) pairs of the raw one."""
        tri = ImplicitGridTriangulation((6, 6, 6))
        f = random_field(tri, np.random.default_rng(1))
        raw = build_gradient(tri, f)
        grad = build_gradient(tri, f)
        report = enforce_compliance(tri, f, grad)
        assert any(k == 1 for k, _, _ in report.cancelled)
        got = saddle_saddle_pairs(tri, f, grad)
        assert got == saddle_saddle_pairs(tri, f, raw)
        assert got == reduction_vertex_pairs(tri, f, 1)


class TestCurve:
    def test_f0_curve(self, grid33, f0):
        d = build_diagram(grid33, f0)
        assert persistence_curve(d) == [(0.0, 2), (2.0, 2), (10.0, 1)]

    def test_empty_diagram(self):
        assert persistence_curve(PersistenceDiagram([], 2)) == [(0.0, 0)]

    def test_non_increasing(self):
        tri = ImplicitGridTriangulation((12, 12))
        f = random_field(tri, np.random.default_rng(27))
        d = build_diagram(tri, f)
        curve = persistence_curve(d)
        counts = [c for _, c in curve]
        assert counts == sorted(counts, reverse=True)
        assert counts == [sum(p.persistence >= t for p in d.pairs)
                          for t, _ in curve]

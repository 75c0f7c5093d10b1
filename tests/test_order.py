"""Total vertex order with tie-breaking offsets, and the field's store."""

import gc
import weakref
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import F0_VALUES, preconditioned, random_field
from sftopo import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    SimplificationRequest,
    build_diagram,
    build_gradient,
    build_merge_tree,
    combine_contour_tree,
    enforce_compliance,
    extract_critical_points,
    persistence_curve,
    simplify_field,
)
from sftopo.checks import run_checks
from sftopo.critical import link_components
from sftopo.gradient import _lower_star_gradient, _rank_keys
from sftopo.order import _pointer_jump


class TestOrderField:
    def test_default_offsets_break_ties_by_index(self):
        f = OrderField(np.array([1.0, 0.0, 1.0, 0.0]))
        assert list(f.order) == [1, 3, 0, 2]

    def test_explicit_offsets(self):
        f = OrderField(np.array([1.0, 1.0, 1.0]),
                       np.array([5, 1, 3], dtype=np.int64))
        assert list(f.order) == [1, 2, 0]

    def test_ranks_invert_order(self):
        rng = np.random.default_rng(0)
        f = OrderField(rng.random(40))
        assert list(f.ranks[f.order]) == list(range(40))

    def test_less_is_total(self):
        """Equal values are ordered by offset, here the vertex id."""
        f = OrderField(np.array([2.0, 2.0, 1.0]))
        assert f.ranks[2] < f.ranks[0] < f.ranks[1]
        assert f.ranks.tolist() == [1, 2, 0]

    def test_simplex_key_face_precedes_coface(self):
        """On the shared key, ordered by the highest rank and then by
        ``rest``, every face of a tetrahedron comes before each of its
        co-faces."""
        rng = np.random.default_rng(1)
        f = OrderField(rng.random(10))
        simplices = [s for k in range(1, 5)
                     for s in combinations([2, 5, 7, 9], k)]
        ranks, rest = _rank_keys(f, [np.array([s for s in simplices
                                               if len(s) == k])
                                     for k in range(1, 5)])
        key = dict(zip(simplices, zip(ranks[:, -1].tolist(),
                                      rest.tolist())))
        for face in simplices:
            for coface in simplices:
                if set(face) < set(coface):
                    assert key[face] < key[coface]

    def test_non_injective_offsets_rejected(self):
        with pytest.raises(ValueError, match="^offsets must be injective$"):
            OrderField(np.zeros(3), np.array([0, 0, 1]))

    @pytest.mark.parametrize("values", [np.zeros((3, 2)), [[1.0]], 5.0])
    def test_values_not_one_per_vertex_rejected(self, values):
        with pytest.raises(ValueError,
                           match="^values must be one scalar per vertex$"):
            OrderField(values)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OrderField(np.zeros(3), np.array([0, 1]))

    def test_field_copies_its_input_and_is_read_only(self):
        """Editing the caller's arrays leaves the field and its order
        unchanged, and none of the field's arrays can be written."""
        v = np.array([3.0, 1.0, 2.0])
        off = np.array([0, 1, 2])
        f = OrderField(v, off)
        v[0], off[0] = 0.0, 7
        assert list(f.values) == [3.0, 1.0, 2.0]
        assert list(f.offsets) == [0, 1, 2]
        assert list(f.order) == [1, 2, 0]
        for arr in (f.values, f.offsets, f.order, f.ranks):
            with pytest.raises(ValueError):
                arr[0] = 1


def _spy_builds(monkeypatch):
    """Count the builds behind the stored queries, by builder name and
    arguments after (tri, field)."""
    builds = Counter()
    for query in (link_components, extract_critical_points,
                  build_merge_tree, _lower_star_gradient):
        build = query.__wrapped__

        def spy(tri, field, *args, build=build):
            builds[(build.__name__, *args)] += 1
            return build(tri, field, *args)

        monkeypatch.setattr(query, "__wrapped__", spy)
    return builds


ONCE_EACH = {("link_components",): 1,
             ("extract_critical_points",): 1,
             ("build_merge_tree", "join"): 1,
             ("build_merge_tree", "split"): 1}
#: ``run_checks`` builds the gradient too, once, and copies it
ONCE_EACH_WITH_GRADIENT = {**ONCE_EACH, ("_lower_star_gradient",): 1}


class TestFieldStore:
    @pytest.mark.parametrize("build", [
        link_components, extract_critical_points, build_gradient,
        lambda tri, f: build_merge_tree(tri, f, "join"),
    ])
    def test_short_field_refused(self, build):
        """A field with a value too few for the grid is refused, and
        nothing is stored for it."""
        grid = ImplicitGridTriangulation((3, 3))
        f = OrderField(F0_VALUES[:-1])
        with pytest.raises(
                ValueError,
                match="^field length does not match vertex count$"):
            build(grid, f)
        assert f._store == {}

    def test_merge_tree_built_once_with_read_only_arrays(self):
        grid = ImplicitGridTriangulation((3, 3))
        f = OrderField(F0_VALUES)
        join = build_merge_tree(grid, f, "join")
        assert build_merge_tree(grid, f, "join") is join
        assert build_merge_tree(grid, f, "split") is not join
        for arr in (join.succ, join.n_children):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_grid_and_explicit_copy_get_separate_equal_trees(self):
        rng = np.random.default_rng(3)
        for dims in ((9, 7), (4, 3, 5)):
            grid = ImplicitGridTriangulation(dims)
            copy = preconditioned(ExplicitTriangulation(
                grid.point_array(), grid.simplex_array(grid.dim)))
            f = random_field(grid, rng)
            for variant in ("join", "split"):
                a = build_merge_tree(grid, f, variant)
                b = build_merge_tree(copy, f, variant)
                assert a is not b and (a.tri, b.tri) == (grid, copy)
                assert tuple(a.succ.tolist()) == tuple(b.succ.tolist())
                assert tuple(a.n_children.tolist()) == \
                    tuple(b.n_children.tolist())
                assert (a.root, a.leaves, a.saddles, a.pairs) == \
                    (b.root, b.leaves, b.saddles, b.pairs)
            assert extract_critical_points(grid, f) == \
                extract_critical_points(copy, f)

    def test_gradient_built_once_and_copied(self, monkeypatch):
        """Every ``build_gradient`` call hands out a fresh, writable copy
        of the one stored gradient; editing a copy, as compliance does,
        changes neither the other copies nor the stored pairing, whose
        arrays are read-only."""
        grid = ImplicitGridTriangulation((6, 6, 6))
        f = random_field(grid, np.random.default_rng(1))
        builds = _spy_builds(monkeypatch)
        a, b = build_gradient(grid, f), build_gradient(grid, f)
        assert builds == {("_lower_star_gradient",): 1}
        stored = _lower_star_gradient(grid, f)
        assert builds == {("_lower_star_gradient",): 1}
        assert a is not b and stored not in (a, b)
        for arr in stored.pair_up + stored.pair_down:
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        want = [arr.copy() for arr in stored.pair_up + stored.pair_down]
        assert all(arr.flags.writeable for arr in a.pair_up + a.pair_down)
        report = enforce_compliance(grid, f, a)
        assert report.cancelled
        for got in (b, stored):
            assert all(np.array_equal(x, y) for x, y in
                       zip(got.pair_up + got.pair_down, want))
        assert not all(np.array_equal(x, y) for x, y in
                       zip(a.pair_up + a.pair_down, want))

    def test_equal_fields_share_nothing(self):
        grid = ImplicitGridTriangulation((6, 5))
        values = np.random.default_rng(4).random(30)
        f, g = OrderField(values), OrderField(values)
        assert not np.shares_memory(f.values, g.values)
        assert not np.shares_memory(f.values, values)
        for variant in ("join", "split"):
            a = build_merge_tree(grid, f, variant)
            b = build_merge_tree(grid, g, variant)
            assert a is not b and (a.field, b.field) == (f, g)
            assert not np.shares_memory(a.succ, b.succ)
            assert np.array_equal(a.succ, b.succ)
        assert extract_critical_points(grid, f) is not \
            extract_critical_points(grid, g)

    def test_critical_points_come_back_as_fresh_lists(self):
        grid = ImplicitGridTriangulation((6, 5))
        f = random_field(grid, np.random.default_rng(5))
        first = extract_critical_points(grid, f)
        want = list(first)
        first.clear()
        second = extract_critical_points(grid, f)
        assert second == want and second is not first
        second.append(None)
        assert extract_critical_points(grid, f) == want

    def test_simplified_field_starts_with_an_empty_store(self, monkeypatch):
        grid = ImplicitGridTriangulation((3, 3))
        f = OrderField(F0_VALUES)
        build_diagram(grid, f)
        out = simplify_field(grid, f, SimplificationRequest(
            frozenset({0, 8})))
        assert out is not f
        builds = _spy_builds(monkeypatch)
        join = build_merge_tree(grid, out, "join")
        assert builds == {("link_components",): 1,
                          ("build_merge_tree", "join"): 1}
        assert join.field is out and join.leaves == (0,)

    def test_dropped_field_is_collected(self):
        """The field -> tree -> field cycle keeps no dropped field."""
        grid = ImplicitGridTriangulation((6, 5))
        f = random_field(grid, np.random.default_rng(6))
        build_diagram(grid, f)
        combine_contour_tree(build_merge_tree(grid, f, "join"),
                             build_merge_tree(grid, f, "split"))
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("dims", [(9, 7), (4, 4, 4)])
    def test_run_checks_builds_each_structure_once(self, monkeypatch, dims):
        grid = ImplicitGridTriangulation(dims)
        f = random_field(grid, np.random.default_rng(7))
        builds = _spy_builds(monkeypatch)
        assert all(r.ok for r in run_checks(grid, f))
        assert builds == ONCE_EACH_WITH_GRADIENT

    def test_scan_sequence_builds_each_structure_once(self, monkeypatch):
        """Critical points, join, split, contour tree, diagram and curve,
        as the grid2d-scan benchmark runs them."""
        grid = ImplicitGridTriangulation((12, 10))
        builds = _spy_builds(monkeypatch)
        for seed in (8, 9):
            f = random_field(grid, np.random.default_rng(seed))
            extract_critical_points(grid, f)
            combine_contour_tree(build_merge_tree(grid, f, "join"),
                                 build_merge_tree(grid, f, "split"))
            persistence_curve(build_diagram(grid, f))
            assert builds == ONCE_EACH
            builds.clear()

    def test_trees_before_critical_points_build_one_link_pass(
            self, monkeypatch):
        """Trees asked for first build the link pass; the critical
        points then read the stored one."""
        grid = ImplicitGridTriangulation((12, 10))
        f = random_field(grid, np.random.default_rng(10))
        builds = _spy_builds(monkeypatch)
        build_merge_tree(grid, f, "split")
        build_merge_tree(grid, f, "join")
        assert builds[("link_components",)] == 1
        extract_critical_points(grid, f)
        assert builds == ONCE_EACH


class TestPointerJump:
    def test_cycles_raise(self):
        """Cycles of every length raise, those whose length is a power
        of two (which doubling maps onto themselves) included, with or
        without a chain leading into them."""
        for n in (2, 3, 4, 6, 8):
            with pytest.raises(ValueError):
                _pointer_jump(np.roll(np.arange(n), -1))
        with pytest.raises(ValueError):
            _pointer_jump(np.array([1, 2, 3, 4, 1, 5]))

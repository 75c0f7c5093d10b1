"""Morse-Smale segmentations and separatrix geometry."""

import time

import numpy as np
import pytest

from conftest import preconditioned, random_field, shuffled_copy, \
    tie_heavy_field, two_bump_field
from oracles import walk_segmentations, walk_separatrices
from test_compliance import array_cases
from test_gradient import closed_vpath, edge_id, ring
from sftopo import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    build_gradient,
    enforce_compliance,
    ascending_segmentation,
    descending_segmentation,
    extract_separatrices,
)
from sftopo.gradient import _successors, _walk_arrays
from sftopo.order import _pointer_jump


def compliant(tri, f):
    g = build_gradient(tri, f)
    enforce_compliance(tri, f, g)
    return g


class TestSegmentation:
    def test_f0_descending_two_basins(self, grid33, f0):
        g = compliant(grid33, f0)
        labels = descending_segmentation(g)
        assert set(labels) == {0, 2}
        assert labels[0] == 0 and labels[2] == 2
        assert len(labels) == 9

    def test_descending_labels_are_minima(self):
        tri = ImplicitGridTriangulation((8, 8))
        f = OrderField(np.random.default_rng(31).random(64))
        g = compliant(tri, f)
        labels = descending_segmentation(g)
        assert set(labels) <= set(g.critical_ids(0))

    def test_ascending_labels_are_critical_cells(self, grid33, f0):
        g = compliant(grid33, f0)
        labels = ascending_segmentation(g)
        assert len(labels) == 8
        assert set(labels) <= set(g.critical_ids(2)) | {-1}


def assert_segmentations_match_walks(tri, f):
    """Both segmentations equal the per-simplex walks, before and after
    compliance; returns the ascending labels of the compliant one."""
    g = build_gradient(tri, f)
    for cancel in (False, True):
        if cancel:
            enforce_compliance(tri, f, g)
        desc, asc = walk_segmentations(tri, g)
        assert np.array_equal(descending_segmentation(g), desc)
        assert np.array_equal(ascending_segmentation(g), asc)
    return asc


class TestWalksThatLeaveTheDomain:
    """-1 is the one code for a walk that leaves the domain: the walk
    table's extra last slot holds it, pointer doubling ends exactly the
    walks that leave at it, and no segmentation label is the extra
    slot's index ``len(via)``."""

    @pytest.mark.parametrize("dims", [(12, 9), (5, 4, 4)])
    def test_grids_and_shuffled_explicit_copies(self, dims):
        grid = ImplicitGridTriangulation(dims)
        rng = np.random.default_rng(list(dims))
        for tri in (grid, shuffled_copy(grid, rng)):
            for make in (random_field, tie_heavy_field):
                f = make(tri, rng)
                for g in (build_gradient(tri, f), compliant(tri, f)):
                    left = walk_segmentations(tri, g)[1] == -1
                    assert left.any()
                    for ascending, labels in (
                            (False, descending_segmentation(g)),
                            (True, ascending_segmentation(g))):
                        rows, via = _walk_arrays(g, ascending)
                        nxt = _successors(rows, via)
                        assert nxt[-1] == -1
                        ends = _pointer_jump(nxt)
                        assert np.array_equal(
                            ends[:-1] == -1, left if ascending
                            else np.zeros(len(via), dtype=bool))
                        assert not (labels == len(via)).any()


class TestSegmentationMatchesWalks:
    def test_grids_and_explicit_copies(self):
        rng = np.random.default_rng(12)
        for dims in ((12, 9), (5, 4, 4)):
            grid = ImplicitGridTriangulation(dims)
            copy = preconditioned(ExplicitTriangulation(
                grid.point_array(), grid.simplex_array(grid.dim)))
            for make in (random_field, tie_heavy_field):
                f = make(grid, rng)
                for tri in (grid, copy):
                    # the grids have a boundary that some walks drain to
                    assert (assert_segmentations_match_walks(tri, f)
                            == -1).any()

    def test_closed_sphere(self, octahedron_sub2):
        rng = np.random.default_rng(13)
        for make in (random_field, tie_heavy_field):
            asc = assert_segmentations_match_walks(
                octahedron_sub2, make(octahedron_sub2, rng))
            assert (asc >= 0).all()


def test_segmentations_refuse_closed_vpaths():
    """A (0, 1) loop around a triangle and a (1, 2) loop around the
    interior vertex of a 3x3 grid raise instead of never returning."""
    tri = ImplicitGridTriangulation((3, 3))
    loop = closed_vpath(tri, 0, [edge_id(tri, 0, 1), edge_id(tri, 1, 4),
                                 edge_id(tri, 0, 4)])
    with pytest.raises(ValueError):
        descending_segmentation(loop)
    with pytest.raises(ValueError):
        ascending_segmentation(closed_vpath(tri, 1, ring(tri, 1, 4)))


def test_separatrices_refuse_closed_vpaths():
    """The same two loops make ``extract_separatrices`` raise too."""
    tri = ImplicitGridTriangulation((3, 3))
    loop = closed_vpath(tri, 0, [edge_id(tri, 0, 1), edge_id(tri, 1, 4),
                                 edge_id(tri, 0, 4)])
    with pytest.raises(ValueError):
        extract_separatrices(loop)
    with pytest.raises(ValueError):
        extract_separatrices(closed_vpath(tri, 1, ring(tri, 1, 4)))


def test_separatrices_match_walks(octahedron_sub2):
    """The lock-step separatrices equal the root-by-root walks of
    ``tests/oracles.py`` in kind, ends and point bytes, on raw and
    compliant gradients of grids, their explicit copies in grid and in
    shuffled vertex order, and a sphere."""
    cases = list(array_cases(octahedron_sub2))
    rng = np.random.default_rng(14)
    for dims in ((12, 9), (5, 4, 4)):
        copy = shuffled_copy(ImplicitGridTriangulation(dims), rng)
        cases += [(copy, make(copy, rng))
                  for make in (random_field, tie_heavy_field)]
    kinds, open_ends = set(), 0
    for tri, f in cases:
        g = build_gradient(tri, f)
        for cancel in (False, True):
            if cancel:
                enforce_compliance(tri, f, g)
            got, want = extract_separatrices(g), walk_separatrices(g)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a.kind, a.source, a.target) == \
                    (b.kind, b.source, b.target)
                assert a.points.shape == b.points.shape
                assert a.points.tobytes() == b.points.tobytes()
            kinds |= {s.kind for s in got}
            open_ends += sum(s.target is None for s in got)
    assert kinds == {"min-saddle", "saddle-max", "saddle-saddle"}
    assert open_ends > 0


class TestSeparatrices:
    def test_octahedron_two_minima(self, octahedron):
        f = OrderField(np.array([2.0, 5.0, 3.0, 4.0, 0.0, 1.0]))
        g = compliant(octahedron, f)
        seps = extract_separatrices(g)
        down = [s for s in seps if s.kind == "min-saddle"]
        up = [s for s in seps if s.kind == "saddle-max"]
        assert sorted(s.target for s in down) == [(0, 4), (0, 5)]
        assert len(up) == 2
        assert all(s.target == (2, g.critical_ids(2)[0]) for s in up)

    def test_geometry_shape(self, octahedron):
        f = OrderField(np.array([2.0, 5.0, 3.0, 4.0, 0.0, 1.0]))
        g = compliant(octahedron, f)
        for s in extract_separatrices(g):
            assert s.points.ndim == 2 and s.points.shape[1] == 3
            assert len(s.points) >= 2

    def test_min_saddle_endpoints(self, grid33, f0):
        g = compliant(grid33, f0)
        for s in extract_separatrices(g):
            if s.kind == "min-saddle":
                # starts at the saddle edge barycenter, ends at a minimum
                dim, e = s.source
                assert dim == 1
                assert s.target[1] in {0, 2}
                end = grid33.vertex_point(s.target[1])
                assert np.allclose(s.points[-1], end)

    def test_3d_saddle_connector_emitted(self):
        tri = ImplicitGridTriangulation((5, 5, 5))
        f = two_bump_field((5, 5, 5), seed=1)
        g = compliant(tri, f)
        seps = extract_separatrices(g)
        kinds = {s.kind for s in seps}
        assert "saddle-saddle" in kinds
        for s in seps:
            if s.kind == "saddle-saddle":
                assert s.source[0] == 2 and s.target[0] == 1


def test_pipeline_scales_to_64x64():
    """Gradient, compliance, separatrices and both segmentations of a
    random 64x64 field stay well within seconds."""
    tri = ImplicitGridTriangulation((64, 64))
    f = random_field(tri, np.random.default_rng(64))
    start = time.perf_counter()
    g = compliant(tri, f)
    seps = extract_separatrices(g)
    desc = descending_segmentation(g)
    asc = ascending_segmentation(g)
    elapsed = time.perf_counter() - start
    assert seps and len(desc) == 64 * 64 and len(asc) == 2 * 63 * 63
    assert elapsed < 10.0

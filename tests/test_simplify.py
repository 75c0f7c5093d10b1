"""Persistence-driven field simplification."""

import numpy as np
import pytest

from conftest import octahedron_mesh, preconditioned, two_bump_field
from sftopo import (
    CLASS_ESSENTIAL,
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    SimplificationError,
    SimplificationRequest,
    build_diagram,
    build_gradient,
    enforce_compliance,
    extract_critical_points,
    select_by_persistence,
    simplify_field,
)
from sftopo import simplify


def extrema(tri, field):
    cps = extract_critical_points(tri, field)
    return {cp.vertex for cp in cps if cp.index in (0, tri.dim)}


class TestSelection:
    def test_f0_threshold_3(self, grid33, f0):
        req = select_by_persistence(build_diagram(grid33, f0), 3.0)
        assert req.preserved == {0, 8}
        assert req.unremovable_conflicts == []

    def test_f0_threshold_1_keeps_all(self, grid33, f0):
        req = select_by_persistence(build_diagram(grid33, f0), 1.0)
        assert req.preserved == {0, 2, 8}

    def test_saddle_saddle_conflict_detected(self):
        tri = ImplicitGridTriangulation((5, 5, 5))
        f = two_bump_field((5, 5, 5), seed=1)
        g = build_gradient(tri, f)
        enforce_compliance(tri, f, g)
        d = build_diagram(tri, f, g)
        req = select_by_persistence(d, 1e9)
        assert req.unremovable_conflicts
        with pytest.raises(SimplificationError, match="saddle-saddle"):
            simplify_field(tri, f, req)


class TestSimplify:
    def test_f0_flattening(self, grid33, f0):
        out = simplify_field(grid33, f0, SimplificationRequest(
            frozenset({0, 8})))
        assert out.values[2] == 4.0
        # vertex 2 ordered just above the saddle vertex 1
        assert out.ranks[2] == out.ranks[1] + 1
        assert extrema(grid33, out) == {0, 8}
        d = build_diagram(grid33, out)
        assert [(p.birth_vertex, p.death_vertex, p.cls) for p in d.pairs] \
            == [(0, 8, CLASS_ESSENTIAL)]

    def test_input_untouched(self, grid33, f0):
        before = f0.values.copy()
        simplify_field(grid33, f0, SimplificationRequest(frozenset({0, 8})))
        assert np.array_equal(f0.values, before)

    @staticmethod
    def random_tris(octahedron_sub2):
        return [ImplicitGridTriangulation((8, 8)),
                ImplicitGridTriangulation((4, 4, 4)), octahedron_sub2]

    def test_random_exactness(self, octahedron_sub2):
        rng = np.random.default_rng(41)
        for tri in self.random_tris(octahedron_sub2):
            n = tri.simplex_count(0)
            for _ in range(5):
                f = OrderField(rng.random(n))
                d = build_diagram(tri, f)
                tau = rng.uniform(0.0, 1.0)
                req = select_by_persistence(d, tau)
                out = simplify_field(tri, f, req)
                assert extrema(tri, out) == req.preserved

    def test_unchanged_vertices_keep_their_order(self, octahedron_sub2):
        """Vertices whose value simplification leaves alone stay in the
        same relative order."""
        rng = np.random.default_rng(43)
        for tri in self.random_tris(octahedron_sub2):
            n = tri.simplex_count(0)
            for _ in range(5):
                f = OrderField(rng.random(n))
                req = select_by_persistence(build_diagram(tri, f),
                                            rng.uniform(0.0, 0.5))
                out = simplify_field(tri, f, req)
                kept = np.flatnonzero(out.values == f.values)
                assert len(kept) < n
                by_old = kept[np.argsort(f.ranks[kept])]
                by_new = kept[np.argsort(out.ranks[kept])]
                assert np.array_equal(by_old, by_new)

    def test_disconnected_domain(self):
        """Each connected component needs its own preserved minimum and
        maximum."""
        points, cells = octahedron_mesh()
        tri = preconditioned(ExplicitTriangulation(
            np.vstack([points, points + 3.0]), np.vstack([cells, cells + 6])))
        f = OrderField(np.arange(12.0))
        with pytest.raises(SimplificationError, match="component"):
            simplify_field(tri, f, SimplificationRequest(frozenset({0, 11})))
        keep = frozenset({0, 5, 6, 11})
        out = simplify_field(tri, f, SimplificationRequest(keep))
        assert extrema(tri, out) == keep


class TestErrors:
    def test_empty_request(self, grid33, f0):
        with pytest.raises(SimplificationError, match="empty"):
            simplify_field(grid33, f0, SimplificationRequest(frozenset()))

    def test_no_minimum(self, grid33, f0):
        with pytest.raises(SimplificationError, match="minimum"):
            simplify_field(grid33, f0, SimplificationRequest(frozenset({8})))

    def test_no_maximum(self, grid33, f0):
        with pytest.raises(SimplificationError, match="maximum"):
            simplify_field(grid33, f0, SimplificationRequest(frozenset({0})))

    def test_refused_when_the_sweeps_run_out(self, monkeypatch):
        """A request that removes extrema is refused, naming both
        extremum sets, when no sweep may run."""
        tri = ImplicitGridTriangulation((6, 6))
        f = OrderField(np.random.default_rng(9).random(36))
        req = select_by_persistence(build_diagram(tri, f), 0.3)
        assert set(req.preserved) < extrema(tri, f)
        monkeypatch.setattr(simplify, "_MAX_SWEEPS", 0)
        with pytest.raises(SimplificationError,
                           match="^flattening did not stabilize on the "
                           "preserved extremum set within 0 sweeps"):
            simplify_field(tri, f, req)

    def test_non_extremum(self, grid33, f0):
        with pytest.raises(SimplificationError, match="not extrema"):
            simplify_field(grid33, f0,
                           SimplificationRequest(frozenset({0, 4, 8})))

"""Invariant suite: every check runs whatever the input size, and the
contour-tree check tests invariants that hold on every contour tree."""

from dataclasses import replace

import numpy as np

from conftest import random_field
from sftopo import (
    ImplicitGridTriangulation,
    OrderField,
    build_merge_tree,
    combine_contour_tree,
)
from sftopo.checks import _contour_tree_faults, run_checks

CONTOUR_CHECK = "contour tree is a tree whose arcs span their vertices"


def test_acyclicity_runs_on_large_grid():
    tri = ImplicitGridTriangulation((64, 64))
    assert sum(tri.simplex_count(k) for k in range(3)) == 24067
    x, y = np.meshgrid(np.arange(64) / 10.0, np.arange(64) / 10.0)
    field = OrderField((np.sin(x) * np.cos(y) + 0.01 * x).ravel())
    results = {r.name: r for r in run_checks(tri, field)}
    acyclic = results["gradient acyclic (exhaustive)"]
    assert acyclic.ok and acyclic.detail == ""


def test_contour_tree_check_allows_arcs_without_vertices(octahedron_sub2):
    """Random fields have arcs between adjacent saddles that own no
    vertex; the contour-tree check still passes on them."""
    rng = np.random.default_rng(31)
    empty_arcs = 0
    for tri in (ImplicitGridTriangulation((9, 7)), octahedron_sub2):
        for _ in range(3):
            f = random_field(tri, rng)
            ct = combine_contour_tree(build_merge_tree(tri, f, "join"),
                                      build_merge_tree(tri, f, "split"))
            empty_arcs += len(ct.arcs) - len(set(ct.vertex_arc.tolist()))
            results = {r.name: r for r in run_checks(tri, f)}
            assert results[CONTOUR_CHECK].ok, results[CONTOUR_CHECK].detail
    assert empty_arcs > 0


def test_contour_tree_faults_detected():
    tri = ImplicitGridTriangulation((9, 7))
    f = random_field(tri, np.random.default_rng(32))
    ct = combine_contour_tree(build_merge_tree(tri, f, "join"),
                              build_merge_tree(tri, f, "split"))
    assert _contour_tree_faults(ct, f.ranks) == []
    # the dropped arc also strands its extremum and its vertices
    assert _contour_tree_faults(replace(ct, arcs=ct.arcs[:-1]), f.ranks) \
        == [f"{len(ct.arcs) - 1} arcs for {len(ct.nodes)} nodes",
            "the arcs do not connect the nodes",
            "an extremum node is not a leaf", "a vertex maps to no arc"]
    saddle = next(v for v, kind in ct.node_types.items() if kind == "saddle")
    types = {**ct.node_types, saddle: "min"}
    assert _contour_tree_faults(replace(ct, node_types=types), f.ranks) \
        == ["an extremum node is not a leaf"]
    top = int(f.order[-1])
    arc = ct.vertex_arc.copy()
    arc[top] = 0                # the lowest arc ends below the maximum
    assert _contour_tree_faults(replace(ct, vertex_arc=arc), f.ranks) \
        == ["a vertex lies outside its arc's rank span"]
    arc[top] = -1
    assert _contour_tree_faults(replace(ct, vertex_arc=arc), f.ranks) \
        == ["a vertex maps to no arc"]

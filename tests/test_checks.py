"""Invariant suite: every check runs whatever the input size, and the
contour-tree check tests invariants that hold on every contour tree."""

import time
from dataclasses import replace

import numpy as np

import pytest

from conftest import midpoint_subdivide, octahedron_mesh, random_field, \
    shuffled_copy
from oracles import uf_extremum_pairs
from sftopo import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    build_diagram,
    build_merge_tree,
    combine_contour_tree,
)
from sftopo import checks
from sftopo.checks import (
    _contour_tree_faults,
    _maximum_pairs,
    _minimum_pairs,
    run_checks,
)
from sftopo.trees import CLASS_MIN_SADDLE, CLASS_SADDLE_MAX

CONTOUR_CHECK = "contour tree is a tree whose arcs span their vertices"
PAIRS_CHECK = "diagram extremum pairs match a union-find recomputation"


def test_acyclicity_runs_on_large_grid():
    tri = ImplicitGridTriangulation((64, 64))
    assert sum(tri.simplex_count(k) for k in range(3)) == 24067
    x, y = np.meshgrid(np.arange(64) / 10.0, np.arange(64) / 10.0)
    field = OrderField((np.sin(x) * np.cos(y) + 0.01 * x).ravel())
    results = {r.name: r for r in run_checks(tri, field)}
    acyclic = results["gradient acyclic (exhaustive)"]
    assert acyclic.ok and acyclic.detail == ""


def test_run_checks_requests_only_the_tables_it_reads():
    """On fresh explicit meshes every check passes without storing the
    vertex co-face and link arrays that no stage reads."""
    grid = ImplicitGridTriangulation((5, 4, 4))
    meshes = [
        ExplicitTriangulation(grid.point_array(), grid.simplex_array(3)),
        ExplicitTriangulation(
            *midpoint_subdivide(*midpoint_subdivide(*octahedron_mesh()))),
    ]
    rng = np.random.default_rng(33)
    for tri in meshes:
        results = run_checks(tri, random_field(tri, rng))
        assert all(r.ok for r in results), [r.name for r in results
                                            if not r.ok]
        assert ("link_csr",) not in tri._store
        assert not [key for key in tri._store if key[:2] == ("coface_csr", 0)]


def test_run_checks_128_squared_in_seconds():
    """The whole suite on a random 128x128 field takes about 1 s on a
    2-core VM."""
    tri = ImplicitGridTriangulation((128, 128))
    f = random_field(tri, np.random.default_rng(34))
    start = time.perf_counter()
    results = run_checks(tri, f)
    assert time.perf_counter() - start < 5.0
    assert all(r.ok for r in results)


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


def test_extremum_pairs_match_the_vertex_sweep(octahedron_sub2):
    """The D0 minimum pairs and the edge-wise maximum sweep equal the
    plain union-find sweep on random and tie-heavy fields: 2D and 3D
    grids, their shuffled explicit copies and a subdivided
    octahedron."""
    rng = np.random.default_rng(36)
    tris = [octahedron_sub2]
    for dims in ((12, 9), (5, 4, 4)):
        grid = ImplicitGridTriangulation(dims)
        tris += [grid, shuffled_copy(grid, rng)]
    pairs = 0
    for tri in tris:
        for _ in range(2):
            v = rng.random(tri.simplex_count(0))
            for f in (OrderField(v), OrderField(np.round(4 * v))):
                got = sorted(_minimum_pairs(tri, f))
                assert got == sorted(uf_extremum_pairs(tri, f, True))
                assert sorted(_maximum_pairs(tri, f)) == sorted(
                    uf_extremum_pairs(tri, f, False))
                pairs += len(got)
    assert pairs > 100


@pytest.mark.parametrize("cls", [CLASS_MIN_SADDLE, CLASS_SADDLE_MAX])
def test_altered_extremum_pair_fails_the_check(monkeypatch, cls):
    """A diagram whose first minimum (maximum) pair dies at another
    saddle fails the recomputation check, and only that check."""
    tri = ImplicitGridTriangulation((9, 7))
    f = random_field(tri, np.random.default_rng(37))
    diagram = build_diagram(tri, f)
    i = next(i for i, p in enumerate(diagram.pairs) if p.cls == cls)
    p = diagram.pairs[i]
    # the saddle is the death of a minimum pair, the birth of a maximum's
    saddle = "death_vertex" if cls == CLASS_MIN_SADDLE else "birth_vertex"
    other = next(q for q in diagram.pairs
                 if q.cls == cls and getattr(q, saddle) != getattr(p, saddle))
    bad = replace(diagram, pairs=list(diagram.pairs))
    bad.pairs[i] = replace(p, **{saddle: getattr(other, saddle)})
    monkeypatch.setattr(checks, "build_diagram", lambda *a, **k: bad)
    results = {r.name: r for r in run_checks(tri, f)}
    assert [name for name, r in results.items() if not r.ok] == [PAIRS_CHECK]


def test_gradient_checks_read_the_gradient_compliance_leaves(monkeypatch):
    """The pairing and acyclicity checks run on the gradient that
    compliance edits, the one morse-smale writes: a compliance that
    breaks one pair fails the pairing check.  The checks are listed in
    the same order as ever."""
    tri = ImplicitGridTriangulation((9, 7))
    f = random_field(tri, np.random.default_rng(38))
    real = checks.enforce_compliance

    def breaking(tri, field, grad, *args):
        report = real(tri, field, grad, *args)
        e = grad.pair_up[0][grad.pair_up[0] >= 0][0]
        grad.pair_down[1][e] = -1
        return report

    names = [r.name for r in run_checks(tri, f)]
    assert names[:6] == [
        "pseudo-manifold",
        "critical points include a minimum and a maximum",
        "gradient pairing valid",
        "gradient acyclic (exhaustive)",
        "every interior critical point matched to a star simplex",
        "no spurious interior critical simplices",
    ]
    monkeypatch.setattr(checks, "enforce_compliance", breaking)
    results = run_checks(tri, f)
    assert [r.name for r in results] == names
    assert [r.name for r in results if not r.ok] == ["gradient pairing valid"]

"""Shared fixtures: closed-surface meshes, grid fields, field factories."""

import numpy as np
import pytest

from sftopo import ExplicitTriangulation, ImplicitGridTriangulation, \
    OrderField, TriangulationError
from sftopo.triangulation.base import QUERY_KINDS


def preconditioned(tri):
    """Request every query kind that applies to the triangulation."""
    for kind in QUERY_KINDS:
        try:
            tri.precondition(kind)
        except TriangulationError:
            pass
    return tri


def octahedron_mesh():
    points = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0],
        [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ], dtype=np.float64)
    cells = np.array([
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
    ], dtype=np.int64)
    return points, cells


def midpoint_subdivide(points, cells):
    """Split every triangle into 4 via edge midpoints (1-to-4)."""
    points = [np.asarray(p, dtype=np.float64) for p in points]
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = len(points)
            points.append((points[a] + points[b]) / 2.0)
        return mid[key]

    out = []
    for a, b, c in cells:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]])
    return np.array(points), np.array(out, dtype=np.int64)


@pytest.fixture(scope="session")
def octahedron():
    return preconditioned(ExplicitTriangulation(*octahedron_mesh()))


@pytest.fixture(scope="session")
def octahedron_sub1():
    return preconditioned(
        ExplicitTriangulation(*midpoint_subdivide(*octahedron_mesh())))


@pytest.fixture(scope="session")
def octahedron_sub2():
    p, c = midpoint_subdivide(*octahedron_mesh())
    return preconditioned(ExplicitTriangulation(*midpoint_subdivide(p, c)))


#: Grid dims on which implicit grids are compared with explicit rebuilds.
EQUIVALENCE_DIMS = [(2, 2), (3, 5), (16, 2), (2, 2, 2), (3, 4, 2), (4, 4, 4)]


F0_VALUES = np.array([0, 4, 2, 5, 6, 7, 8, 9, 10], dtype=np.float64)


@pytest.fixture(scope="session")
def grid33():
    return ImplicitGridTriangulation((3, 3))


@pytest.fixture
def f0():
    return OrderField(F0_VALUES.copy())


def random_field(tri, rng):
    """Random injective scalar field (distinct values, default offsets)."""
    n = tri.simplex_count(0)
    return OrderField(rng.permutation(n).astype(np.float64))


def tie_heavy_field(tri, rng):
    """Values 0-2 with random injective offsets: many ties, so links
    split often, on both sides at once included."""
    n = tri.simplex_count(0)
    return OrderField(rng.integers(0, 3, n).astype(np.float64),
                      rng.permutation(n))


def shuffled_copy(grid, rng):
    """An explicit copy of ``grid`` with its vertex ids permuted."""
    perm = rng.permutation(grid.simplex_count(0))
    points = np.empty_like(grid.point_array())
    points[perm] = grid.point_array()
    return ExplicitTriangulation(points, perm[grid.simplex_array(grid.dim)])


def array_cases(sphere):
    """(triangulation, field) pairs: a random and a tie-heavy field on
    12x9 and 5x4x4 grids, each also on an explicit copy of its grid,
    and the same two kinds of field on the closed ``sphere``."""
    rng = np.random.default_rng(21)
    for dims in ((12, 9), (5, 4, 4)):
        grid = ImplicitGridTriangulation(dims)
        copy = preconditioned(ExplicitTriangulation(
            grid.point_array(), grid.simplex_array(grid.dim)))
        for make in (random_field, tie_heavy_field):
            f = make(grid, rng)
            yield grid, f
            yield copy, f
    for make in (random_field, tie_heavy_field):
        yield sphere, make(sphere, rng)


def two_bump_field(dims, seed=0):
    """3D grid field shaped as the distance to a horizontal circle.

    Its sub-level sets grow a solid ring that closes into a loop (a
    1-cycle is born at a 1-saddle) and later fill in through the middle
    (the loop dies at a 2-saddle), producing an interior (1, 2) pair.
    """
    w, h, d = dims
    cx, cy, cz = (w - 1) / 2.0, (h - 1) / 2.0, (d - 1) / 2.0
    radius = min(cx, cy) * 0.7
    rng = np.random.default_rng(seed)
    values = np.empty(w * h * d)
    i = 0
    for k in range(d):
        for j in range(h):
            for x in range(w):
                rho = np.hypot(x - cx, j - cy)
                values[i] = np.hypot(rho - radius, (k - cz) * 1.1)
                i += 1
    values += rng.random(values.size) * 1e-6   # injectivity jitter
    return OrderField(values)


_CRITERIA = {
    "test_criterion_1_implicit_explicit_oracle":
        "implicit grids match explicit rebuilds on every query",
    "test_criterion_2_euler_relation":
        "Euler relation holds on closed surfaces",
    "test_criterion_3_star_property":
        "every interior critical point has a critical star simplex",
    "test_criterion_4_pl_compliance":
        "compliant gradients mirror PL critical counts and stay acyclic",
    "test_criterion_5_diagram_oracle":
        "extremum pairs match an independent union-find sweep",
    "test_criterion_6_saddle_saddle_pairs":
        "(1,2) pairs match GF(2) boundary reduction",
    "test_criterion_7_unified_simplification":
        "simplification preserves exactly the requested features",
    "test_criterion_8_cached_speedup":
        "preconditioned traversal is at least 2x faster",
    "test_criterion_9_cli_determinism":
        "CLI outputs are byte-identical across runs and thread counts",
}


def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per acceptance criterion."""
    seen = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "location", ("", 0, ""))[2].split("[")[0]
            if name in _CRITERIA:
                seen[name] = outcome == "passed" and seen.get(name, True)
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for i, (name, blurb) in enumerate(sorted(_CRITERIA.items()), start=1):
        if name not in seen:
            continue
        verdict = "PASS" if seen[name] else "FAIL"
        terminalreporter.write_line(f"criterion {i}: {verdict} — {blurb}")


def torus_mesh(nu=6, nv=6):
    """Flat triangulated torus: (nu x nv) periodic grid, Freudenthal
    diagonals; not simply connected."""
    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    points = np.zeros((nu * nv, 3))
    for i in range(nu):
        for j in range(nv):
            points[vid(i, j)] = (i, j, 0)
    cells = []
    for i in range(nu):
        for j in range(nv):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            cells.append([vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)])
    return points, np.array(cells, dtype=np.int64)

"""Acceptance gate: nine end-to-end criteria over the whole pipeline.

Each test is summarized as one pass/fail line in the terminal summary
(see conftest.py).  The criteria lean on the independent reference
implementations in oracles.py rather than on the library itself.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sftopo
from conftest import (
    F0_VALUES,
    midpoint_subdivide,
    octahedron_mesh,
    preconditioned,
    random_field,
    two_bump_field,
)
from oracles import (
    assert_equivalent,
    reduction_vertex_pairs,
    uf_extremum_pairs,
    vpath_graph_acyclic,
)
from test_io import OCTA_OFF
from sftopo import (
    CLASS_ESSENTIAL,
    CLASS_MIN_SADDLE,
    CLASS_SADDLE_MAX,
    CLASS_SADDLE_SADDLE,
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    SimplexRef,
    build_diagram,
    build_gradient,
    enforce_compliance,
    extract_critical_points,
    select_by_persistence,
    simplify_field,
)


def surface_fixtures():
    p, c = octahedron_mesh()
    p1, c1 = midpoint_subdivide(p, c)
    p2, c2 = midpoint_subdivide(p1, c1)
    return [preconditioned(ExplicitTriangulation(*m))
            for m in ((p, c), (p1, c1), (p2, c2))]


def test_criterion_1_implicit_explicit_oracle():
    """Implicit grids answer every query like the explicit rebuild."""
    start = time.perf_counter()
    dims_list = list(itertools.product(range(2, 17), repeat=2)) \
        + list(itertools.product(range(2, 9), repeat=3))
    for dims in dims_list:
        g = ImplicitGridTriangulation(dims)
        ex = preconditioned(
            ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim)))
        assert_equivalent(g, ex)
    assert time.perf_counter() - start < 60.0


def test_criterion_2_euler_relation():
    """#min - #saddle (with multiplicity) + #max = 2 on closed surfaces."""
    rng = np.random.default_rng(101)
    for tri in surface_fixtures():
        for _ in range(50):
            cps = extract_critical_points(tri, random_field(tri, rng))
            total = sum(cp.multiplicity * (-1) ** cp.index for cp in cps)
            assert total == 2


def test_criterion_3_star_property():
    """Every interior critical point owns a critical simplex in its star."""
    rng = np.random.default_rng(102)
    domains = surface_fixtures() + [ImplicitGridTriangulation((6, 6, 6))]
    for tri in domains:
        for _ in range(50):
            f = random_field(tri, rng)
            grad = build_gradient(tri, f)
            for cp in extract_critical_points(tri, f):
                if cp.boundary:
                    continue
                if cp.index == 0:
                    assert grad.is_critical(0, cp.vertex)
                else:
                    star = tri.cofaces(SimplexRef(0, cp.vertex), cp.index)
                    assert any(grad.is_critical(cp.index, s) for s in star)


def test_criterion_4_pl_compliance():
    """After cancellation the critical simplices mirror the PL critical
    points exactly on closed surfaces, and the gradient stays acyclic."""
    rng = np.random.default_rng(103)
    for tri in surface_fixtures():
        for _ in range(50):
            f = random_field(tri, rng)
            grad = build_gradient(tri, f)
            report = enforce_compliance(tri, f, grad)
            assert report.compliant
            pl = {}
            for cp in extract_critical_points(tri, f):
                pl[cp.index] = pl.get(cp.index, 0) + cp.multiplicity
            for k in range(3):
                assert len(grad.critical_ids(k)) == pl.get(k, 0)
            assert vpath_graph_acyclic(tri, grad)


def test_criterion_5_diagram_oracle():
    """Extremum pairs match an independent union-find sweep, by vertex."""
    rng = np.random.default_rng(104)
    runs = [(ImplicitGridTriangulation((16, 16)), 100),
            (ImplicitGridTriangulation((6, 6, 6)), 20)]
    for tri, trials in runs:
        for _ in range(trials):
            f = random_field(tri, rng)
            d = build_diagram(tri, f)
            got_min = sorted((p.birth_vertex, p.death_vertex)
                             for p in d.pairs if p.cls == CLASS_MIN_SADDLE)
            got_max = sorted((p.death_vertex, p.birth_vertex)
                             for p in d.pairs if p.cls == CLASS_SADDLE_MAX)
            assert got_min == sorted(uf_extremum_pairs(tri, f, True))
            assert got_max == sorted(uf_extremum_pairs(tri, f, False))


def test_criterion_6_saddle_saddle_pairs():
    """(1,2) pairs match full GF(2) boundary reduction on 3D fields."""
    found = 0
    for dims in ((5, 5, 5), (5, 5, 4), (4, 5, 5)):
        for seed in (1, 2):
            tri = ImplicitGridTriangulation(dims)
            f = two_bump_field(dims, seed=seed)
            grad = build_gradient(tri, f)
            enforce_compliance(tri, f, grad)
            d = build_diagram(tri, f, grad)
            got = {(p.birth_vertex, p.death_vertex) for p in d.pairs
                   if p.cls == CLASS_SADDLE_SADDLE}
            assert got == reduction_vertex_pairs(tri, f, 1)
            found += len(got)
    assert found > 0        # the construction must actually produce pairs


def test_criterion_7_unified_simplification():
    """Simplified fields keep exactly the preserved extrema and a
    consistent diagram on random fields; F0 collapses to one pair."""
    # F0 fixture, threshold 3
    t33 = ImplicitGridTriangulation((3, 3))
    f0 = OrderField(F0_VALUES.copy())
    out = simplify_field(
        t33, f0, select_by_persistence(build_diagram(t33, f0), 3.0))
    d0 = build_diagram(t33, out)
    assert [(p.birth_value, p.death_value, p.cls) for p in d0.pairs] \
        == [(0.0, 10.0, CLASS_ESSENTIAL)]
    assert (out.values[2], f0.values[2]) == (4.0, 2.0)

    # random fields and thresholds
    tri = ImplicitGridTriangulation((16, 16))
    rng = np.random.default_rng(105)
    for _ in range(10):
        f = OrderField(rng.random(256))
        d = build_diagram(tri, f)
        tau = rng.uniform(0.0, 1.0)
        req = select_by_persistence(d, tau)
        out = simplify_field(tri, f, req)
        d2 = build_diagram(tri, out)

        # PL extrema = preserved set, exactly
        cps = extract_critical_points(tri, out)
        extrema = {cp.vertex for cp in cps if cp.index in (0, tri.dim)}
        assert extrema == req.preserved

        # diagram = original minus the removed pairs: removed pairs are
        # gone, the essential pair and every untouched pair survive
        # vertex-exactly, and any surviving pair whose saddle fell in a
        # flattened region reappears with the same extremum and an
        # edited saddle vertex
        new_keys = {(p.birth_vertex, p.death_vertex) for p in d2.pairs}
        new_by_min = {p.birth_vertex: p for p in d2.pairs
                      if p.cls == CLASS_MIN_SADDLE}
        new_by_max = {p.death_vertex: p for p in d2.pairs
                      if p.cls == CLASS_SADDLE_MAX}
        edited = set(np.nonzero(out.values != f.values)[0])
        assert len(d2.pairs) == sum(
            1 for p in d.pairs
            if p.cls == CLASS_ESSENTIAL or p.persistence >= tau)
        for p in d.pairs:
            key = (p.birth_vertex, p.death_vertex)
            if p.cls == CLASS_ESSENTIAL:
                assert key in new_keys
            elif p.persistence < tau:
                assert key not in new_keys
            elif key not in new_keys:
                if p.cls == CLASS_MIN_SADDLE:
                    q = new_by_min.get(p.birth_vertex)
                    saddle = q.death_vertex if q else None
                else:
                    q = new_by_max.get(p.death_vertex)
                    saddle = q.birth_vertex if q else None
                assert q is not None
                assert saddle in edited


def test_criterion_8_cached_speedup():
    """A stored link array makes a second traversal >= 2x faster."""
    start = time.perf_counter()
    g = ImplicitGridTriangulation((27, 27, 27))
    ex = ExplicitTriangulation(g.point_array(), g.simplex_array(g.dim))
    assert ex.simplex_count(3) >= 100000

    t0 = time.perf_counter()
    ex.precondition("vertex_links")
    total_first = sum(len(ex.vertex_link(v))
                      for v in range(ex.simplex_count(0)))
    first = time.perf_counter() - t0

    t0 = time.perf_counter()
    total_second = sum(len(ex.vertex_link(v))
                       for v in range(ex.simplex_count(0)))
    second = time.perf_counter() - t0

    assert total_first == total_second
    assert first >= 2.0 * second
    assert time.perf_counter() - start < 120.0


def run_python(args, cwd, **kwargs):
    """Run a fresh interpreter on the same ``sftopo`` tree as this
    process: its source root goes first on an absolute PYTHONPATH, so a
    relative PYTHONPATH or an uninstalled package still resolve from
    ``cwd``.  ``kwargs`` go to ``subprocess.run``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sftopo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, **kwargs)


def run_cli(args, cwd, **kwargs):
    """Run the CLI in a subprocess, as ``run_python`` does."""
    return run_python(["-m", "sftopo.cli"] + args, cwd, **kwargs)


SETUP_AND_STAGES = """
import sys
import numpy as np
from sftopo import ImplicitGridTriangulation, OrderField, build_diagram, \
    io, select_by_persistence, simplify_field
from sftopo.checks import run_checks

tri, field = io.load(io.DatasetSpec(mesh="octa.off", values="octa.txt",
                                    offsets="octa.offsets"))
rng = np.random.default_rng(5)
grid = ImplicitGridTriangulation((16, 16))
f = OrderField(rng.random(256))
simplify_field(grid, f, select_by_persistence(build_diagram(grid, f), 0.2))
cube = ImplicitGridTriangulation((6, 6, 6))
f = OrderField(np.round(3 * rng.random(216)), rng.permutation(216))
assert all(r.ok for r in run_checks(cube, f))
print("numpy.ma" in sys.modules)
"""


def test_setup_and_stages_never_import_numpy_ma(tmp_path):
    """Loading an OFF mesh with offsets, simplifying a grid field,
    building a field with offsets and running ``check`` on a 6x6x6 grid
    import no ``numpy.ma``, which a plain ``np.unique`` imports on numpy
    2.4 (its hash path asks ``np.ma.is_masked``).  The run is a fresh
    interpreter, so that no other test's imports are counted."""
    (tmp_path / "octa.off").write_text(OCTA_OFF)
    (tmp_path / "octa.txt").write_text("0\n1\n2\n3\n4\n5\n")
    (tmp_path / "octa.offsets").write_text("5\n4\n3\n2\n1\n0\n")
    got = run_python(["-c", SETUP_AND_STAGES], str(tmp_path), timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout == "False\n"


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical CLI outputs across reruns and thread counts."""
    f2d = tmp_path / "f2d.txt"
    f2d.write_text("".join(
        f"{v:.17g}\n" for v in np.random.default_rng(106).random(256)))
    f3d = tmp_path / "f3d.txt"
    f3d.write_text("".join(
        f"{v:.17g}\n" for v in two_bump_field((5, 5, 5), seed=1).values))
    jobs = [
        (["persistence-diagram", "--grid", "16x16", "--values", str(f2d)],
         ["d2.csv"]),
        (["critical-points", "--grid", "16x16", "--values", str(f2d)],
         ["cp.csv"]),
        (["persistence-curve", "--grid", "16x16", "--values", str(f2d)],
         ["c.csv"]),
        (["contour-tree", "--grid", "16x16", "--values", str(f2d)],
         ["t.csv"]),
        (["morse-smale", "--grid", "16x16", "--values", str(f2d)],
         ["ms.obj", "ms.obj.desc.labels", "ms.obj.asc.labels"]),
        (["simplify", "--threshold", "0.5", "--grid", "16x16",
          "--values", str(f2d)], ["s.txt", "s.txt.offsets"]),
        (["persistence-diagram", "--grid", "5x5x5", "--values", str(f3d)],
         ["d3.csv"]),
        (["morse-smale", "--grid", "5x5x5", "--values", str(f3d)],
         ["ms3.obj", "ms3.obj.desc.labels", "ms3.obj.asc.labels"]),
    ]
    for args, outputs in jobs:
        snapshots = []
        for run, threads in enumerate(("1", "4", "1")):
            outdir = tmp_path / f"run{run}"
            outdir.mkdir(exist_ok=True)
            out = outdir / outputs[0]
            proc = run_cli(args + ["--threads", threads, "-o", str(out)],
                           tmp_path)
            assert proc.returncode == 0, proc.stderr
            snapshots.append([
                (outdir / name).read_bytes() for name in outputs])
        assert snapshots[0] == snapshots[1] == snapshots[2], args[0]

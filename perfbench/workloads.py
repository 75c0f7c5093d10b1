"""Benchmark workloads: seeded inputs, the staged pipeline, and its checks.

A workload is one triangulation plus a stream of seeded fields, like a
time series analysed on one mesh.  Each field goes through a fixed list
of stage calls into the public ``sftopo`` functions; every call is made
through ``run.call`` so that the worker can time it, contain its
failures and, when tracing, record a span for it.  ``verify`` checks the
stage outputs afterwards, outside the timed region, against the
independent oracles in ``tests/oracles.py``; ``cli_job`` describes the
matching CLI subcommand and how to compare its output files with the
in-process result.

Field ``i`` of a run with seed ``s`` is a fixed base field (frame ``i``
of a fixed scene, for the 2D grids) plus noise drawn from
``numpy.random.default_rng([s, i])``, so that every seed sees the same
mix of work; ``sftopo`` only ever receives the generated arrays.
"""

from __future__ import annotations

import os

import numpy as np

import oracles
import sftopo
from sftopo import io as sfio
from sftopo.checks import run_checks
from sftopo.triangulation.base import QUERY_KINDS


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def _scene(bumps=8, seed=2018):
    """The moving Gaussians of the 2D workloads, the same for every run:
    sign and size of each bump, its width, and a circular orbit."""
    rng = np.random.default_rng(seed)
    return {"amp": rng.choice([-1.0, 1.0], bumps)
            * rng.uniform(0.5, 1.0, bumps),
            "sigma": rng.uniform(0.08, 0.16, bumps),
            "centre": rng.uniform(0.25, 0.75, (bumps, 2)),
            "radius": rng.uniform(0.05, 0.2, bumps),
            "speed": rng.uniform(0.05, 0.15, bumps),
            "phase": rng.uniform(0.0, 2 * np.pi, bumps)}


SCENE = _scene()


def gaussian_frame(dims, t, rng, noise=0.01):
    """Frame ``t`` of 8 Gaussians moving on the unit square, plus
    N(0, noise) drawn from ``rng``."""
    w, h = dims
    y, x = np.mgrid[0:h, 0:w]
    x = x / (w - 1)
    y = y / (h - 1)
    f = np.zeros((h, w))
    s = SCENE
    angle = s["speed"] * t + s["phase"]
    cx = s["centre"][:, 0] + s["radius"] * np.cos(angle)
    cy = s["centre"][:, 1] + s["radius"] * np.sin(angle)
    for k in range(len(angle)):
        f += s["amp"][k] * np.exp(-((x - cx[k]) ** 2 + (y - cy[k]) ** 2)
                                  / (2 * s["sigma"][k] ** 2))
    return (f + rng.normal(0.0, noise, f.shape)).ravel()


def two_bump(dims):
    """Distance to a horizontal circle, the ring field of tests/conftest.py:
    a 1-cycle is born at a 1-saddle and dies at a 2-saddle."""
    w, h, d = dims
    cx, cy, cz = (w - 1) / 2.0, (h - 1) / 2.0, (d - 1) / 2.0
    radius = min(cx, cy) * 0.7
    z, y, x = np.mgrid[0:d, 0:h, 0:w]
    rho = np.hypot(x - cx, y - cy)
    return np.hypot(rho - radius, (z - cz) * 1.1).ravel()


def sphere_mesh(levels):
    """Octahedron, midpoint-subdivided ``levels`` times, on the unit sphere."""
    points = [np.array(p, dtype=np.float64) for p in (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]
    cells = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    for _ in range(levels):
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
            out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        cells = out
    pts = np.array(points)
    return pts / np.linalg.norm(pts, axis=1)[:, None], np.array(cells)


def write_off(path, points, cells):
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(points)} {len(cells)} 0\n")
        for p in points:
            fh.write("%.17g %.17g %.17g\n" % tuple(p))
        for c in cells:
            fh.write("3 %d %d %d\n" % tuple(c))


def precondition_all(tri):
    """Request every query kind the triangulation supports."""
    for kind in QUERY_KINDS:
        try:
            tri.precondition(kind)
        except sftopo.TriangulationError:
            pass                # kind not applicable in this dimension
    return tri


# --------------------------------------------------------------------------
# Independent checks (the oracles module is imported, never copied)
# --------------------------------------------------------------------------


def _extrema(tri, field):
    """(minima, maxima) by direct comparison with the vertex neighbours."""
    ranks = field.ranks
    mins, maxs = set(), set()
    for v in range(len(field)):
        nb = ranks[tri.vertex_neighbors(v)]
        if (nb > ranks[v]).all():
            mins.add(v)
        elif (nb < ranks[v]).all():
            maxs.add(v)
    return mins, maxs


def _check_extremum_pairs(diagram, want):
    """Extremum pairs of ``diagram`` equal the union-find oracle's."""
    got_min = sorted((p.birth_vertex, p.death_vertex) for p in diagram.pairs
                     if p.cls == sftopo.CLASS_MIN_SADDLE)
    got_max = sorted((p.death_vertex, p.birth_vertex) for p in diagram.pairs
                     if p.cls == sftopo.CLASS_SADDLE_MAX)
    if got_min != sorted(want["min_pairs"]):
        return "min-saddle pairs differ from the union-find oracle"
    if got_max != sorted(want["max_pairs"]):
        return "saddle-max pairs differ from the union-find oracle"
    return None


def _oracle_truth(tri, field):
    """Oracle extremum pairs and the extrema they imply."""
    min_pairs = oracles.uf_extremum_pairs(tri, field, True)
    max_pairs = oracles.uf_extremum_pairs(tri, field, False)
    mins = {m for m, _ in min_pairs} | {int(field.order[0])}
    maxs = {m for m, _ in max_pairs} | {int(field.order[-1])}
    return {"min_pairs": min_pairs, "max_pairs": max_pairs,
            "mins": mins, "maxs": maxs}


def _euler(tri):
    """Euler characteristic from the simplex counts."""
    return sum((-1) ** k * tri.simplex_count(k) for k in range(tri.dim + 1))


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    """One triangulation, a seeded field stream and a staged pipeline."""

    name = ""
    cli_command = ""
    #: Seconds one field takes, checks and CLI step included, on a 2-core
    #: VM with Python 3.11; sizes a run's batch (see ``batch``).
    field_s = 1.0

    def __init__(self, seed):
        self.seed = seed

    def batch(self, seconds):
        """Number of fields a run analyses: about ``seconds`` of work on
        the VM that ``field_s`` was measured on.  It depends on
        ``seconds`` alone, not on the clock, so that two runs with the
        same seed attempt the same stage calls and fail the same ones.
        It is even, so that grid3d-diagram's two noise levels get half
        each."""
        return max(2, 2 * round(seconds / (2 * self.field_s)))

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def setup(self):
        """Build and precondition the triangulation (timed as set-up)."""
        raise NotImplementedError

    def values(self, i):
        raise NotImplementedError

    def group(self, i):
        """Input family of field ``i``; medians are taken per family."""
        return 0

    def pipeline(self, run, tri, values):
        raise NotImplementedError

    def verify(self, tri, out):
        """{stage key: failure detail} for every stage output the oracles
        reject; empty when every output is correct.  Only called when
        every stage call of the field returned."""
        raise NotImplementedError

    def dataset_args(self, workdir):
        """CLI arguments naming the triangulation."""
        raise NotImplementedError

    def dataset_spec(self, workdir, values_path):
        raise NotImplementedError

    def cli_job(self, run, out, workdir):
        """(extra CLI args, output file names, compare) for this field;
        ``compare(workdir)`` returns a failure detail or None."""
        raise NotImplementedError

    # shared stage sequences ------------------------------------------

    def _critical(self, run, tri, values):
        f = run.call("order.OrderField", sftopo.OrderField, values)
        cps = run.call(
            "critical.extract_critical_points",
            sftopo.extract_critical_points, tri, f,
            counts=lambda r: {"points": len(r)})
        return f, cps

    def _compliant_gradient(self, run, tri, f, cps):
        grad = run.call(
            "gradient.build_gradient", sftopo.build_gradient, tri, f,
            counts=lambda g: {"critical_simplices": sum(
                len(g.critical_ids(k)) for k in range(tri.dim + 1))})
        if grad is not None:      # compliance edits the gradient in place
            run.record("gradient.critical_counts", [
                len(grad.critical_ids(k)) for k in range(tri.dim + 1)])
        run.call(
            "compliance.enforce_compliance", sftopo.enforce_compliance,
            tri, f, grad, cps,
            counts=lambda r: {"cancelled": len(r.cancelled),
                              "spurious_left": sum(
                                  len(v) for v in r.spurious.values())})
        return grad

    def _verify_field(self, tri, out, bad):
        """Check the order and the critical points; return the oracle's
        extremum pairs and extrema for the later checks."""
        f = out["order.OrderField"]
        if not (np.diff(f.values[f.order]) >= 0).all():
            bad["order.OrderField"] = "order is not ascending in value"
        truth = _oracle_truth(tri, f)
        cps = out["critical.extract_critical_points"]
        mins = {c.vertex for c in cps if c.index == 0}
        maxs = {c.vertex for c in cps if c.index == tri.dim}
        if mins != truth["mins"] or maxs != truth["maxs"]:
            bad["critical.extract_critical_points"] = \
                "extrema differ from the union-find oracle"
        return truth

    def _verify_gradient(self, tri, out, bad):
        born = out["gradient.critical_counts"]
        if sum((-1) ** k * n for k, n in enumerate(born)) != _euler(tri):
            bad["gradient.build_gradient"] = \
                "critical simplex counts break the Euler relation"
        grad = out["gradient.build_gradient"]
        if not sftopo.pairing_is_valid(grad):
            bad["compliance.enforce_compliance"] = "gradient pairing invalid"
        elif not oracles.vpath_graph_acyclic(tri, grad):
            bad["compliance.enforce_compliance"] = "V-path graph has a cycle"


class Grid2DScan(Workload):
    name = "grid2d-scan"
    cli_command = "persistence-diagram"
    dims = (48, 48)
    field_s = 2.5

    def setup(self):
        return precondition_all(sftopo.ImplicitGridTriangulation(self.dims))

    def values(self, i):
        return gaussian_frame(self.dims, i, self.rng(i))

    def pipeline(self, run, tri, values):
        f, cps = self._critical(run, tri, values)
        join = run.call("trees.build_merge_tree", sftopo.build_merge_tree,
                        tri, f, "join", key="join")
        split = run.call("trees.build_merge_tree", sftopo.build_merge_tree,
                         tri, f, "split", key="split")
        run.call("trees.combine_contour_tree", sftopo.combine_contour_tree,
                 join, split)
        diagram = run.call(
            "trees.build_diagram", sftopo.build_diagram, tri, f,
            counts=lambda d: {"pairs": len(d.pairs)})
        run.call("trees.persistence_curve", sftopo.persistence_curve, diagram)

    def verify(self, tri, out):
        bad = {}
        truth = self._verify_field(tri, out, bad)
        for key, want in (("join", truth["mins"]), ("split", truth["maxs"])):
            if set(out[key].leaves) != want:
                bad[key] = f"{key}-tree leaves differ from the oracle extrema"
        ct = out["trees.combine_contour_tree"]
        if len(ct.arcs) != len(ct.nodes) - 1:
            bad["trees.combine_contour_tree"] = \
                f"{len(ct.arcs)} arcs on {len(ct.nodes)} nodes"
        diagram = out["trees.build_diagram"]
        detail = _check_extremum_pairs(diagram, truth)
        if detail:
            bad["trees.build_diagram"] = detail
        counts = [c for _, c in out["trees.persistence_curve"]]
        if counts[0] != len(diagram.pairs) or \
                any(a < b for a, b in zip(counts, counts[1:])):
            bad["trees.persistence_curve"] = "curve is not non-increasing"
        return bad

    def dataset_args(self, workdir):
        return ["--grid", "x".join(map(str, self.dims))]

    def dataset_spec(self, workdir, values_path):
        return sfio.DatasetSpec(grid=self.dims, values=values_path)

    def cli_job(self, run, out, workdir):
        diagram = out["trees.build_diagram"]
        expected = os.path.join(workdir, "expected.csv")
        run.call("io.write_diagram_csv", sfio.write_diagram_csv,
                 expected, diagram)
        return [], ["out.csv"], lambda: _same_bytes(
            workdir, [("out.csv", "expected.csv")])


class Grid3DDiagram(Grid2DScan):
    name = "grid3d-diagram"
    dims = (6, 6, 6)
    field_s = 1.6
    noise = (0.05, 0.3)         # alternating, field by field

    def values(self, i):
        base = two_bump(self.dims)
        sigma = self.noise[self.group(i)]
        return base + self.rng(i).normal(0.0, sigma, base.size)

    def group(self, i):
        return i % len(self.noise)

    def pipeline(self, run, tri, values):
        f, cps = self._critical(run, tri, values)
        grad = self._compliant_gradient(run, tri, f, cps)
        run.call(
            "trees.build_diagram", sftopo.build_diagram, tri, f, grad,
            counts=lambda d: {
                "pairs": len(d.pairs),
                "saddle_saddle_pairs": sum(
                    p.cls == sftopo.CLASS_SADDLE_SADDLE for p in d.pairs)})
        run.call("morse.extract_separatrices", sftopo.extract_separatrices,
                 grad, counts=lambda s: {"separatrices": len(s)})

    def verify(self, tri, out):
        bad = {}
        truth = self._verify_field(tri, out, bad)
        self._verify_gradient(tri, out, bad)
        diagram = out["trees.build_diagram"]
        detail = _check_extremum_pairs(diagram, truth)
        got = {(p.birth_vertex, p.death_vertex) for p in diagram.pairs
               if p.cls == sftopo.CLASS_SADDLE_SADDLE}
        want = oracles.reduction_vertex_pairs(
            tri, out["order.OrderField"], 1)
        if not detail and got != want:
            detail = (f"(1,2) pairs differ from GF(2) reduction: "
                      f"{len(got)} found, {len(want)} expected, "
                      f"{len(got ^ want)} differ")
        if detail:
            bad["trees.build_diagram"] = detail
        _verify_separatrices(out, bad)
        return bad


class Grid2DMorse(Grid2DScan):
    name = "grid2d-morse"
    cli_command = "morse-smale"
    dims = (24, 24)
    field_s = 1.4

    def pipeline(self, run, tri, values):
        f, cps = self._critical(run, tri, values)
        grad = self._compliant_gradient(run, tri, f, cps)
        run.call("morse.extract_separatrices", sftopo.extract_separatrices,
                 grad, counts=lambda s: {"separatrices": len(s)})
        run.call("morse.descending_segmentation",
                 sftopo.descending_segmentation, grad)
        run.call("morse.ascending_segmentation",
                 sftopo.ascending_segmentation, grad)

    def verify(self, tri, out):
        bad = {}
        self._verify_field(tri, out, bad)
        self._verify_gradient(tri, out, bad)
        _verify_separatrices(out, bad)
        grad = out["gradient.build_gradient"]
        desc = out["morse.descending_segmentation"]
        if not all(grad.is_critical(0, int(v)) for v in np.unique(desc)):
            bad["morse.descending_segmentation"] = \
                "a label is not a critical vertex"
        asc = out["morse.ascending_segmentation"]
        if not all(v == -1 or grad.is_critical(tri.dim, int(v))
                   for v in np.unique(asc)):
            bad["morse.ascending_segmentation"] = \
                "a label is not a critical cell"
        return bad

    def cli_job(self, run, out, workdir):
        exp = os.path.join(workdir, "expected.obj")
        run.call("io.write_separatrices_obj", sfio.write_separatrices_obj,
                 exp, out["morse.extract_separatrices"])
        run.call("io.write_labels", sfio.write_labels, exp + ".desc.labels",
                 out["morse.descending_segmentation"])
        run.call("io.write_labels", sfio.write_labels, exp + ".asc.labels",
                 out["morse.ascending_segmentation"])
        names = ["", ".desc.labels", ".asc.labels"]
        return [], ["out.obj"], lambda: _same_bytes(
            workdir, [("out.obj" + s, "expected.obj" + s) for s in names])


class MeshSimplify(Workload):
    name = "mesh-simplify"
    cli_command = "simplify"
    levels = 3
    threshold = 0.1
    field_s = 1.25

    def __init__(self, seed):
        super().__init__(seed)
        self.points, self.cells = sphere_mesh(self.levels)

    def setup(self):
        return precondition_all(
            sftopo.ExplicitTriangulation(self.points, self.cells))

    def values(self, i):
        x, y, z = self.points.T
        return x + 0.5 * y ** 2 - z ** 3 + \
            self.rng(i).normal(0.0, 0.05, len(x))

    def pipeline(self, run, tri, values):
        f, cps = self._critical(run, tri, values)
        diagram = run.call("trees.build_diagram", sftopo.build_diagram,
                           tri, f, counts=lambda d: {"pairs": len(d.pairs)})
        req = run.call("simplify.select_by_persistence",
                       sftopo.select_by_persistence, diagram, self.threshold)
        run.call(
            "simplify.simplify_field", sftopo.simplify_field, tri, f, req,
            counts=lambda _: {"removed_extrema": sum(
                c.index in (0, tri.dim) for c in cps) - len(req.preserved)})
        run.call("checks.run_checks", run_checks, tri, f)

    def verify(self, tri, out):
        bad = {}
        truth = self._verify_field(tri, out, bad)
        detail = _check_extremum_pairs(out["trees.build_diagram"], truth)
        if detail:
            bad["trees.build_diagram"] = detail
        req = out["simplify.select_by_persistence"]
        f = out["order.OrderField"]
        ends = {int(f.order[0]), int(f.order[-1])}
        if not ends <= req.preserved or req.unremovable_conflicts:
            bad["simplify.select_by_persistence"] = \
                "request drops a global extremum or has conflicts"
        mins, maxs = _extrema(tri, out["simplify.simplify_field"])
        if mins | maxs != set(req.preserved):
            bad["simplify.simplify_field"] = \
                "extrema of the simplified field differ from preserved"
        failed = [r for r in out["checks.run_checks"] if not r.ok]
        if failed:
            bad["checks.run_checks"] = "; ".join(
                f"{r.name} ({r.detail})" for r in failed)
        return bad

    def dataset_args(self, workdir):
        path = os.path.join(workdir, "mesh.off")
        if not os.path.exists(path):
            write_off(path, self.points, self.cells)
        return ["--mesh", path]

    def dataset_spec(self, workdir, values_path):
        return sfio.DatasetSpec(mesh=os.path.join(workdir, "mesh.off"),
                                values=values_path)

    def cli_job(self, run, out, workdir):
        want = out["simplify.simplify_field"]

        def compare():
            path = os.path.join(workdir, "out.txt")
            values = run.call("io.read_field", sfio.read_field, path)
            offsets = run.call("io.read_offsets", sfio.read_offsets,
                               path + ".offsets")
            if values is None or offsets is None:
                return "CLI output unreadable"
            if not (np.array_equal(values, want.values)
                    and np.array_equal(offsets, want.offsets)):
                return "CLI simplified field differs from in-process result"
            return None

        return ["--threshold", repr(self.threshold)], ["out.txt"], compare


class Grid3DPermutation(Grid3DDiagram):
    """Random-permutation fields on a 5x5x5 grid.  Not a benchmark
    workload: the self-test feeds it to show that a crash inside a stage
    is contained.  Field ``i`` is ``default_rng(seed + i)``."""

    name = "grid3d-perm5"
    dims = (5, 5, 5)
    field_s = 4.0               # a crashing field runs into the memory cap

    def values(self, i):
        return np.random.default_rng(self.seed + i).permutation(
            125).astype(np.float64)


def _verify_separatrices(out, bad):
    grad = out["gradient.build_gradient"]
    for s in out["morse.extract_separatrices"]:
        if not grad.is_critical(*s.source):
            bad["morse.extract_separatrices"] = \
                f"separatrix source {s.source} is not critical"
            return


def _same_bytes(workdir, pairs):
    for got, want in pairs:
        with open(os.path.join(workdir, got), "rb") as a, \
                open(os.path.join(workdir, want), "rb") as b:
            if a.read() != b.read():
                return f"CLI {got} differs from the in-process result"
    return None


WORKLOADS = {w.name: w for w in (
    Grid2DScan, Grid2DMorse, Grid3DDiagram, MeshSimplify, Grid3DPermutation)}

"""File formats: OFF meshes, scalar field / offset files, CSV and OBJ output.

Meshes are ASCII OFF.  Scalar fields are one ASCII real per line or raw
little-endian 32/64-bit floats; offset files hold one ASCII integer per
line.  A file that breaks its format raises ``DataError``.  Diagrams and
critical points are written as CSV, separatrices as Wavefront OBJ
polylines, segmentations as one label per line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .order import OrderField
from .triangulation import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    Triangulation,
)


class DataError(Exception):
    """Unreadable or inconsistent input data."""


def _lines(path):
    """Significant (line_number, text) pairs of an ASCII file: text
    after ``#`` and blank lines are skipped."""
    try:
        with open(path, "r") as fh:
            for ln, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if body:
                    yield ln, body
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file ({exc.reason})")


def read_off(path: str):
    """Parse an ASCII OFF file into (points, cells) arrays.

    Faces may be triangles or tetrahedra (OFF is commonly abused for
    the latter); all faces in one file must have the same arity, and
    every vertex must lie in some face.
    """
    stream = ((ln, body.split()) for ln, body in _lines(path))
    try:
        ln, fields = next(stream)
    except StopIteration:
        raise DataError(f"{path}: empty file")
    if fields == ["OFF"]:
        try:
            ln, fields = next(stream)
        except StopIteration:
            raise DataError(f"{path}: line {ln}: missing element counts")
    if len(fields) != 3:
        raise DataError(
            f"{path}: line {ln}: expected 'nVertices nFaces nEdges', "
            f"got {' '.join(fields)!r}"
        )
    try:
        nv, nf = int(fields[0]), int(fields[1])
    except ValueError:
        raise DataError(f"{path}: line {ln}: non-integer element count")
    if nv < 0 or nf < 0:
        raise DataError(f"{path}: line {ln}: negative element count")
    points = np.zeros((nv, 3), dtype=np.float64)
    for i in range(nv):
        try:
            ln, fields = next(stream)
        except StopIteration:
            raise DataError(f"{path}: unexpected end of file in vertex list")
        if len(fields) < 3:
            raise DataError(
                f"{path}: line {ln}: vertex needs 3 coordinates"
            )
        try:
            points[i] = [float(x) for x in fields[:3]]
        except ValueError:
            raise DataError(f"{path}: line {ln}: bad coordinate")
    cells = []
    arity = None
    for _ in range(nf):
        try:
            ln, fields = next(stream)
        except StopIteration:
            raise DataError(f"{path}: unexpected end of file in face list")
        try:
            row = [int(x) for x in fields]
        except ValueError:
            raise DataError(f"{path}: line {ln}: bad face index")
        if not row or len(row) != row[0] + 1:
            raise DataError(
                f"{path}: line {ln}: face arity header does not match "
                f"the number of indices"
            )
        if row[0] not in (3, 4):
            raise DataError(
                f"{path}: line {ln}: only triangle/tetrahedron cells are "
                f"supported (got {row[0]} vertices)"
            )
        if arity is None:
            arity = row[0]
        elif row[0] != arity:
            raise DataError(f"{path}: line {ln}: mixed cell arities")
        if any(v < 0 or v >= nv for v in row[1:]):
            raise DataError(f"{path}: line {ln}: vertex index out of range")
        cells.append(row[1:])
    cells = np.asarray(cells, dtype=np.int64)
    unused = np.flatnonzero(np.bincount(cells.ravel(), minlength=nv) == 0)
    if len(unused):
        raise DataError(f"{path}: {len(unused)} of {nv} vertices lie in "
                        f"no face, the first is vertex {unused[0]}")
    return points, cells


def read_field(path: str, fmt: str = "ascii") -> np.ndarray:
    """Read a scalar field file (one value per vertex)."""
    if fmt == "ascii":
        out = []
        for ln, body in _lines(path):
            try:
                out.append(float(body))
            except ValueError:
                raise DataError(
                    f"{path}: line {ln}: not a real number: {body!r}"
                )
        return np.asarray(out, dtype=np.float64)
    if fmt in ("f32", "f64"):
        dtype = np.dtype("<f4" if fmt == "f32" else "<f8")
        size = os.path.getsize(path)
        if size % dtype.itemsize:
            raise DataError(f"{path}: {size} bytes is not a whole number "
                            f"of {fmt} values")
        return np.fromfile(path, dtype=dtype).astype(np.float64)
    raise DataError(f"unknown field format: {fmt!r}")


def read_offsets(path: str) -> np.ndarray:
    """Read a tie-breaking offsets file (one integer per vertex)."""
    out = []
    for ln, body in _lines(path):
        try:
            out.append(int(body))
        except ValueError:
            raise DataError(f"{path}: line {ln}: not an integer: {body!r}")
        if not -1 << 63 <= out[-1] < 1 << 63:
            raise DataError(f"{path}: line {ln}: outside int64: {body}")
    return np.asarray(out, dtype=np.int64)


def write_field(path: str, values: np.ndarray, fmt: str = "ascii") -> None:
    if fmt == "ascii":
        with open(path, "w") as fh:
            for v in values:
                fh.write("%.17g\n" % v)
    elif fmt in ("f32", "f64"):
        dtype = "<f4" if fmt == "f32" else "<f8"
        np.asarray(values).astype(dtype).tofile(path)
    else:
        raise DataError(f"unknown field format: {fmt!r}")


def write_offsets(path: str, offsets: np.ndarray) -> None:
    """One offset per line, by ``write_labels``."""
    write_labels(path, offsets)


@dataclass
class DatasetSpec:
    """Where a dataset comes from: an OFF mesh or a regular grid, plus
    a field file and optional offsets."""

    mesh: str | None = None
    grid: tuple | None = None
    values: str | None = None
    offsets: str | None = None
    fmt: str = "ascii"


def load(spec: DatasetSpec):
    """Build (triangulation, order field) from a dataset description."""
    if (spec.mesh is None) == (spec.grid is None):
        raise DataError("exactly one of mesh path / grid dims is required")
    if spec.mesh is not None:
        points, cells = read_off(spec.mesh)
        tri = ExplicitTriangulation(points, cells)
    else:
        tri = ImplicitGridTriangulation(spec.grid)
    if spec.values is None:
        raise DataError("a scalar field file is required")
    values = read_field(spec.values, spec.fmt)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        kinds = [k for k, hit in (("NaN", np.isnan), ("infinite", np.isinf))
                 if hit(values[bad]).any()]
        raise DataError(
            f"{spec.values}: {len(bad)} {' or '.join(kinds)} value(s), "
            f"first at vertex {bad[0]}"
        )
    if len(values) != tri.simplex_count(0):
        raise DataError(
            f"field length {len(values)} does not match vertex count "
            f"{tri.simplex_count(0)}"
        )
    offsets = None
    if spec.offsets is not None:
        offsets = read_offsets(spec.offsets)
        if len(offsets) != len(values):
            raise DataError(
                f"offsets length {len(offsets)} does not match vertex "
                f"count {len(values)}"
            )
    try:
        field = OrderField(values, offsets)
    except ValueError as exc:
        raise DataError(str(exc))
    return tri, field


def write_diagram_csv(path: str, diagram) -> None:
    with open(path, "w") as fh:
        fh.write("birthVertex,deathVertex,birthValue,deathValue,"
                 "persistence,pairClass\n")
        for p in diagram.pairs:
            fh.write("%d,%d,%.17g,%.17g,%.17g,%s\n" % (
                p.birth_vertex, p.death_vertex, p.birth_value,
                p.death_value, p.persistence, p.class_label(diagram.dim)))


def write_curve_csv(path: str, curve) -> None:
    with open(path, "w") as fh:
        fh.write("threshold,pairs\n")
        for t, c in curve:
            fh.write("%.17g,%d\n" % (t, c))


def write_critical_points_csv(path: str, tri: Triangulation, cps) -> None:
    with open(path, "w") as fh:
        fh.write("vertexId,x,y,z,index,multiplicity,value,isBoundary\n")
        for cp in cps:
            x, y, z = tri.vertex_point(cp.vertex)
            fh.write("%d,%.17g,%.17g,%.17g,%d,%d,%.17g,%d\n" % (
                cp.vertex, x, y, z, cp.index, cp.multiplicity, cp.value,
                int(cp.boundary)))


def write_contour_tree_csv(path: str, tree, field: OrderField) -> None:
    """Arcs as CSV rows; node degrees recoverable from the arc list."""
    with open(path, "w") as fh:
        fh.write("arcId,downVertex,upVertex,downValue,upValue,nVertices\n")
        sizes = np.bincount(tree.vertex_arc, minlength=len(tree.arcs))
        for i, (lo, hi) in enumerate(tree.arcs):
            fh.write("%d,%d,%d,%.17g,%.17g,%d\n" % (
                i, lo, hi, field.values[lo], field.values[hi], sizes[i]))


_OBJ_RUN = 1 << 16      # points per formatting call of the OBJ writer


def _write_obj_run(fh, seps, first_object, first_point) -> None:
    """One `%` call formats the `v` records of ``seps``, one their `l`
    records; each object then writes its slice of both."""
    sizes = [len(sep.points) for sep in seps]
    points = np.concatenate([np.asarray(sep.points).reshape(-1, 3)
                             for sep in seps])
    v = ("v %.17g %.17g %.17g\n" * len(points)) \
        % tuple(points.ravel().tolist())
    ends = np.flatnonzero(np.frombuffer(v.encode(), dtype=np.uint8) == 10)
    cuts = [0] + (ends[np.cumsum(sizes) - 1] + 1).tolist()
    lines = ("".join("l" + " %d" * m + "\n" for m in sizes)
             % tuple(range(first_point + 1, first_point + len(points) + 1))
             ).splitlines(keepends=True)
    for i, sep in enumerate(seps):
        fh.write("o %s_%d\n%s%s" % (
            sep.kind.replace("-", "_"), first_object + i,
            v[cuts[i]:cuts[i + 1]], lines[i]))


def write_separatrices_obj(path: str, separatrices) -> None:
    """Polylines as OBJ `v`/`l` records, one object per separatrix.

    The objects are formatted in runs: a run holds the separatrices
    whose first point falls in one block of ``_OBJ_RUN`` points, so the
    formatting calls stay few and their arguments small."""
    seps = list(separatrices)
    first = np.zeros(len(seps) + 1, dtype=np.int64)
    np.cumsum([len(sep.points) for sep in seps], dtype=np.int64,
              out=first[1:])
    runs = np.flatnonzero(np.diff(first[:-1] // _OBJ_RUN)) + 1
    cuts = [0] + runs.tolist() + [len(seps)]
    with open(path, "w") as fh:
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a < b:
                _write_obj_run(fh, seps[a:b], a, int(first[a]))


def write_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join("%d\n" % v for v in np.asarray(labels).tolist()))

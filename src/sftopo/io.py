"""File formats: OFF meshes, scalar field / offset files, CSV and OBJ output.

Meshes are ASCII OFF.  Scalar fields are one ASCII real per line or raw
little-endian 32/64-bit floats; offset files hold one ASCII integer per
line.  A file that breaks its format raises ``DataError``.  Diagrams and
critical points are written as CSV, separatrices as Wavefront OBJ
polylines (one `%` call per separatrix), segmentations as one label per
line.
"""

from __future__ import annotations

import os
import re
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
    every vertex must lie in some face.  The header may be any of
    ``[ST][C][N]OFF``; the texture, colour and normal fields after a
    vertex's coordinates and a colour of up to 4 numbers after a face's
    indices are read past.
    """
    stream = ((ln, body.split()) for ln, body in _lines(path))
    try:
        ln, fields = next(stream)
    except StopIteration:
        raise DataError(f"{path}: empty file")
    header = re.fullmatch(r"(?:ST)?C?N?(4?n?)OFF", fields[0])
    if header and len(fields) == 1:
        if header[1]:
            raise DataError(f"{path}: line {ln}: {fields[0]} vertices are "
                            f"not 3D")
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
            row = [int(x) for x in fields[:int(fields[0]) + 1]]
        except ValueError:
            raise DataError(f"{path}: line {ln}: bad face index")
        if not row or len(row) != row[0] + 1:
            raise DataError(
                f"{path}: line {ln}: face arity header does not match "
                f"the number of indices"
            )
        try:
            colour = [float(x) for x in fields[len(row):]]
        except ValueError:
            raise DataError(f"{path}: line {ln}: bad face colour")
        if len(colour) > 4:
            raise DataError(f"{path}: line {ln}: {len(colour)} numbers "
                            f"after the face's indices, a colour has at "
                            f"most 4")
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
    """One row per critical point, its coordinates read from one
    ``point_array`` gather."""
    vertices = np.array([cp.vertex for cp in cps], dtype=np.int64)
    points = tri.point_array().take(vertices, axis=0).tolist()
    with open(path, "w") as fh:
        fh.write("vertexId,x,y,z,index,multiplicity,value,isBoundary\n")
        for cp, (x, y, z) in zip(cps, points):
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


def write_separatrices_obj(path: str, separatrices) -> None:
    """Polylines as OBJ `v`/`l` records, one object per separatrix,
    each formatted by one `%` call."""
    first = 1
    with open(path, "w") as fh:
        for i, sep in enumerate(separatrices):
            m = len(sep.points)
            coords = np.asarray(sep.points).ravel().tolist()
            fh.write(("o %s_%d\n" + "v %.17g %.17g %.17g\n" * m
                      + "l" + " %d" * m + "\n")
                     % (sep.kind.replace("-", "_"), i, *coords,
                        *range(first, first + m)))
            first += m


def write_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join("%d\n" % v for v in np.asarray(labels).tolist()))

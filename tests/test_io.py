"""File parsing, serialization, and dataset loading."""

import re

import numpy as np
import pytest

import oracles
from conftest import F0_VALUES, midpoint_subdivide, octahedron_mesh, \
    preconditioned, random_field, shuffled_copy, tie_heavy_field
from sftopo import DataError, DatasetSpec, ExplicitTriangulation, \
    ImplicitGridTriangulation, build_gradient, enforce_compliance, \
    extract_critical_points, extract_separatrices, load, read_field, \
    read_off, read_offsets
from sftopo.cli import main
from sftopo.io import write_critical_points_csv, write_field, \
    write_offsets, write_separatrices_obj

OCTA_OFF = """OFF
6 8 12
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""


def coloured(off):
    """``off`` as a COFF file: an RGBA colour on every vertex, and on
    the faces a colour of 0, 1, 3 and 4 numbers in turn."""
    head, counts, *rest = off.splitlines()
    nv = int(counts.split()[0])
    tails = ["", " 7", " 255 0 0", " 0.5 0.5 0.5 1"]
    return "\n".join(["COFF", counts]
                     + [v + " 0.25 0.5 0.75 1" for v in rest[:nv]]
                     + [f + tails[i % 4] for i, f in enumerate(rest[nv:])]
                     ) + "\n"


class TestOff:
    def test_octahedron_roundtrip(self, tmp_path):
        path = tmp_path / "octa.off"
        path.write_text(OCTA_OFF)
        points, cells = read_off(str(path))
        want_p, want_c = octahedron_mesh()
        assert np.array_equal(points, want_p)
        assert np.array_equal(np.sort(cells, axis=1),
                              np.sort(want_c, axis=1))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "m.off"
        path.write_text("OFF\n# a comment\n\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
                        "3 0 1 2\n")
        points, cells = read_off(str(path))
        assert len(points) == 3 and len(cells) == 1

    @pytest.mark.parametrize("header", ["COFF", "STCNOFF", "NOFF", "STOFF"])
    def test_colours_and_header_keywords(self, tmp_path, header):
        path = tmp_path / "octa.off"
        path.write_text(coloured(OCTA_OFF).replace("COFF", header, 1))
        plain = tmp_path / "plain.off"
        plain.write_text(OCTA_OFF)
        for got, want in zip(read_off(str(path)), read_off(str(plain))):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("body,needle", [
        ("", "empty"),
        ("OFF\nnope nope nope\n", "line 2"),
        ("OFF\n3 1 0\n0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "line 3"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n", "out of range"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "arity"),
        ("COFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "arity"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 1 1 1 1 1\n",
         "5 numbers after"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 red\n", "colour"),
        ("4OFF\n3 1 0\n0 0 0 0\n1 0 0 0\n0 1 0 0\n3 0 1 2\n", "not 3D"),
        ("nOFF\n3\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "not 3D"),
        ("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n4 0 1 2 3\n",
         "mixed"),
        ("OFF\n-1 1 0\n3 0 1 2\n", "negative"),
        ("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n5 5 5\n3 0 1 2\n",
         "vertex 3"),
        (b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 \xff\n3 0 1 2\n", "not a text"),
    ])
    def test_parse_errors(self, tmp_path, body, needle):
        path = tmp_path / "bad.off"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        with pytest.raises(DataError, match=needle):
            read_off(str(path))


class TestFieldFiles:
    def test_ascii(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.5\n# note\n\n-2\n3e2\n")
        assert list(read_field(str(path))) == [1.5, -2.0, 300.0]

    def test_ascii_error_has_line_number(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.0\nbogus\n")
        with pytest.raises(DataError, match="line 2"):
            read_field(str(path))

    @pytest.mark.parametrize("fmt", ["ascii", "f32", "f64"])
    def test_write_read_roundtrip(self, tmp_path, fmt):
        path = tmp_path / "f.bin"
        values = np.array([0.0, 1.25, -3.5, 1e6])
        write_field(str(path), values, fmt)
        assert np.array_equal(read_field(str(path), fmt), values)

    def test_ascii_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "f.txt"
        values = np.random.default_rng(0).random(50)
        write_field(str(path), values, "ascii")
        assert np.array_equal(read_field(str(path)), values)

    @pytest.mark.parametrize("read,body,needle", [
        (read_field, b"1.0\n\xff\xfe\n", "not a text file"),
        (read_offsets, b"1\n\xff\xfe\n", "not a text file"),
        (read_offsets, b"1\n99999999999999999999\n", "line 2: outside int64"),
        (read_offsets, b"-9223372036854775809\n", "line 1: outside int64"),
        (lambda p: read_field(p, "f64"), bytes(12), "not a whole number"),
        (lambda p: read_field(p, "f32"), bytes(6), "not a whole number"),
    ])
    def test_read_errors(self, tmp_path, read, body, needle):
        path = tmp_path / "bad.bin"
        path.write_bytes(body)
        with pytest.raises(DataError, match=needle):
            read(str(path))

    def test_offsets(self, tmp_path):
        path = tmp_path / "o.txt"
        write_offsets(str(path), np.array([2, 0, 1]))
        assert list(read_offsets(str(path))) == [2, 0, 1]
        path.write_text("1\nx\n")
        with pytest.raises(DataError, match="line 2"):
            read_offsets(str(path))


class TestLoad:
    def write_values(self, tmp_path, values):
        path = tmp_path / "vals.txt"
        path.write_text("".join(f"{v}\n" for v in values))
        return str(path)

    def test_grid(self, tmp_path):
        vals = self.write_values(tmp_path, F0_VALUES)
        tri, field = load(DatasetSpec(grid=(3, 3), values=vals))
        assert tri.dim == 2 and len(field) == 9
        assert field.values[8] == 10.0

    def test_mesh(self, tmp_path):
        off = tmp_path / "octa.off"
        off.write_text(OCTA_OFF)
        vals = self.write_values(tmp_path, range(6))
        tri, field = load(DatasetSpec(mesh=str(off), values=vals))
        assert tri.simplex_count(2) == 8

    def test_length_mismatch(self, tmp_path):
        vals = self.write_values(tmp_path, range(8))
        with pytest.raises(DataError, match="does not match"):
            load(DatasetSpec(grid=(3, 3), values=vals))

    def test_bad_offsets(self, tmp_path):
        vals = self.write_values(tmp_path, F0_VALUES)
        offs = tmp_path / "offs.txt"
        offs.write_text("".join("0\n" for _ in range(9)))
        with pytest.raises(DataError, match="injective"):
            load(DatasetSpec(grid=(3, 3), values=vals, offsets=str(offs)))

    @pytest.mark.parametrize("fmt", ["ascii", "f64"])
    def test_nan_rejected(self, tmp_path, fmt):
        path = tmp_path / "vals.bin"
        values = F0_VALUES.copy()
        values[4] = np.nan
        write_field(str(path), values, fmt)
        with pytest.raises(DataError, match="NaN"):
            load(DatasetSpec(grid=(3, 3), values=str(path), fmt=fmt))

    @pytest.mark.parametrize("fmt", ["ascii", "f64"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_rejected(self, tmp_path, fmt, bad):
        path = tmp_path / "vals.bin"
        values = F0_VALUES.copy()
        values[[3, 6]] = bad
        write_field(str(path), values, fmt)
        with pytest.raises(DataError, match="2 infinite value"):
            load(DatasetSpec(grid=(3, 3), values=str(path), fmt=fmt))

    def test_source_required(self, tmp_path):
        vals = self.write_values(tmp_path, F0_VALUES)
        with pytest.raises(DataError):
            load(DatasetSpec(values=vals))


TRIANGLE = "0 0 0\n1 0 0\n0 1 0\n"


class TestRefusals:
    """Each refusal of a malformed file or a bad argument, by its text."""

    @pytest.mark.parametrize("off,offsets,needle", [
        ("OFF\n", None, "line 1: missing element counts"),
        ("OFF\n3 1\n", None,
         "line 2: expected 'nVertices nFaces nEdges', got '3 1'"),
        ("OFF\n3 1 0\n0 0 0\n", None,
         "unexpected end of file in vertex list"),
        ("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n", None,
         "line 4: bad coordinate"),
        ("OFF\n3 1 0\n" + TRIANGLE, None,
         "unexpected end of file in face list"),
        ("OFF\n3 1 0\n" + TRIANGLE + "3 0 1 x\n", None,
         "line 6: bad face index"),
        ("OFF\n5 1 0\n" + TRIANGLE + "1 1 0\n0 0 1\n5 0 1 2 3 4\n", None,
         "line 8: only triangle/tetrahedron cells are supported "
         "(got 5 vertices)"),
        ("OFF\n0 0 0\n", None, "cell list must be non-empty and uniform"),
        (OCTA_OFF, "0\n1\n2\n3\n4\n",
         "offsets length 5 does not match vertex count 6"),
    ])
    def test_through_cli(self, tmp_path, capsys, off, offsets, needle):
        """A file the loader refuses is a data error: exit 2, one line."""
        mesh, values = tmp_path / "m.off", tmp_path / "v.txt"
        mesh.write_text(off)
        values.write_text("".join(f"{v}\n" for v in range(6)))
        args = ["info", "--mesh", str(mesh), "--values", str(values)]
        if offsets is not None:
            (tmp_path / "o.txt").write_text(offsets)
            args += ["--offsets", str(tmp_path / "o.txt")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("sftopo: error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("call,needle", [
        (lambda path: load(DatasetSpec(grid=(3, 3))),
         "a scalar field file is required"),
        (lambda path: read_field(path, "f16"),
         "unknown field format: 'f16'"),
        (lambda path: write_field(path, np.zeros(3), "f16"),
         "unknown field format: 'f16'"),
    ])
    def test_api(self, tmp_path, call, needle):
        with pytest.raises(DataError, match=re.escape(needle)):
            call(str(tmp_path / "f.bin"))


def level3_sphere():
    """The octahedron, midpoint-subdivided three times: 258 vertices."""
    points, cells = octahedron_mesh()
    for _ in range(3):
        points, cells = midpoint_subdivide(points, cells)
    return preconditioned(ExplicitTriangulation(points, cells))


class TestSeparatricesObj:
    @pytest.mark.parametrize("domain,make", [
        ((9, 7), random_field),
        ((9, 7), tie_heavy_field),
        ((128, 128), random_field),
        ((20, 20, 20), random_field),
        ("sphere", random_field),
        ("empty", None),
    ], ids=["9x7", "9x7-ties", "128x128", "20x20x20", "sphere", "empty"])
    def test_bytes_match_run_writer(self, tmp_path, domain, make):
        """One `%` call per separatrix writes the bytes of the oracle's
        runs of 65,536 points; 128x128 crosses a run boundary and
        20x20x20 has saddle-saddle polylines."""
        seps = []
        if domain != "empty":
            tri = level3_sphere() if domain == "sphere" \
                else ImplicitGridTriangulation(domain)
            f = make(tri, np.random.default_rng(7))
            grad = build_gradient(tri, f)
            enforce_compliance(tri, f, grad)
            seps = extract_separatrices(grad)
        if domain == (128, 128):
            assert sum(len(s.points) for s in seps) > oracles._OBJ_RUN
        if domain == (20, 20, 20):
            assert any(s.kind == "saddle-saddle" for s in seps)
        got, want = tmp_path / "got.obj", tmp_path / "want.obj"
        write_separatrices_obj(str(got), iter(seps))
        oracles.write_separatrices_obj(str(want), seps)
        assert got.read_bytes() == want.read_bytes()


class TestCriticalPointsCsv:
    @pytest.mark.parametrize("domain,make", [
        ((9, 7), random_field),
        ((48, 48), tie_heavy_field),
        ((6, 5, 4), random_field),
        ("shuffled 12x12x12", random_field),
        ("sphere", random_field),
        ("empty", None),
    ], ids=["9x7", "48x48-ties", "6x5x4", "shuffled-12x12x12", "sphere",
            "empty"])
    def test_bytes_match_per_point_writer(self, tmp_path, domain, make):
        """One ``point_array`` gather writes the bytes of the oracle's
        ``vertex_point`` query per point; the shuffled mesh's vertex ids
        are not in grid order, and the sphere's coordinates are not
        whole numbers."""
        tri, cps = ImplicitGridTriangulation((2, 2)), []
        if domain == "sphere":
            tri = level3_sphere()
        elif domain == "shuffled 12x12x12":
            tri = shuffled_copy(ImplicitGridTriangulation((12, 12, 12)),
                                np.random.default_rng(3))
        elif domain != "empty":
            tri = ImplicitGridTriangulation(domain)
        if make is not None:
            cps = extract_critical_points(
                tri, make(tri, np.random.default_rng(7)))
            assert len(cps) > 5
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_critical_points_csv(str(got), tri, cps)
        oracles.write_critical_points_csv(str(want), tri, cps)
        assert got.read_bytes() == want.read_bytes()

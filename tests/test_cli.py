"""Command-line interface: exit codes, golden outputs, round trips."""

import resource
import time

import numpy as np
import pytest

from conftest import F0_VALUES
from test_acceptance import run_cli
from test_io import OCTA_OFF, coloured
from test_triangulation import non_manifold_fan
from sftopo import checks
from sftopo.cli import main
from sftopo.io import write_field

F0_DIAGRAM_CSV = """birthVertex,deathVertex,birthValue,deathValue,persistence,pairClass
2,1,2,4,2,0-1
0,8,0,10,10,essential
"""

F0_CURVE_CSV = """threshold,pairs
0,2
2,2
10,1
"""

F0_CRITICAL_CSV = """vertexId,x,y,z,index,multiplicity,value,isBoundary
0,0,0,0,0,1,0,1
1,1,0,0,1,1,4,1
2,2,0,0,0,1,2,1
8,2,2,0,2,1,10,1
"""

F0_TREE_CSV = """arcId,downVertex,upVertex,downValue,upValue,nVertices
0,0,1,0,4,2
1,2,1,2,4,1
2,1,8,4,10,6
"""


@pytest.fixture
def f0_file(tmp_path):
    path = tmp_path / "f0.txt"
    path.write_text("".join(f"{v:g}\n" for v in F0_VALUES))
    return str(path)


def f0_args(f0_file):
    return ["--grid", "3x3", "--values", f0_file]


class TestExitCodes:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self, f0_file):
        assert main(["info", "--bogus"] + f0_args(f0_file)) == 1

    def test_mesh_and_grid_exclusive(self, f0_file):
        assert main(["info", "--mesh", "m.off"] + f0_args(f0_file)) == 1

    def test_bad_grid_string(self, f0_file):
        assert main(["info", "--grid", "3xx", "--values", f0_file]) == 1

    def test_missing_values_file(self, tmp_path):
        assert main(["info", "--grid", "3x3", "--values",
                     str(tmp_path / "none.txt")]) == 2

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1\n2\n3\n")
        assert main(["info", "--grid", "3x3", "--values", str(path)]) == 2

    def test_cell_with_repeated_vertex(self, tmp_path):
        mesh = tmp_path / "degenerate.off"
        mesh.write_text(OCTA_OFF.replace("3 1 2 5", "3 1 1 5"))
        values = tmp_path / "v.txt"
        values.write_text("".join(f"{v}\n" for v in range(6)))
        assert main(["critical-points", "--mesh", str(mesh), "--values",
                     str(values), "-o", str(tmp_path / "cp.csv")]) == 2

    def test_vertex_in_no_face(self, tmp_path):
        mesh = tmp_path / "unused.off"
        mesh.write_text(OCTA_OFF.replace("6 8 12", "7 8 12")
                        .replace("0 0 -1\n", "0 0 -1\n5 5 5\n"))
        values = tmp_path / "v.txt"
        values.write_text("".join(f"{v}\n" for v in range(7)))
        assert main(["check", "--mesh", str(mesh), "--values",
                     str(values)]) == 2

    @staticmethod
    def fan_args(tmp_path):
        """Three triangles on edge (0, 1), under values that pair
        triangle (0, 1, 3) with that edge."""
        points, cells = non_manifold_fan()
        mesh = tmp_path / "fan.off"
        mesh.write_text(f"OFF\n{len(points)} {len(cells)} 0\n"
                        + "".join(f"{x:g} {y:g} {z:g}\n" for x, y, z in points)
                        + "".join(f"3 {a} {b} {c}\n" for a, b, c in cells))
        values = tmp_path / "fan.txt"
        values.write_text("2\n4\n3\n0\n1\n")
        return ["--mesh", str(mesh), "--values", str(values)]

    def test_fan_morse_smale_is_a_data_error(self, tmp_path, capsys):
        """An ascending walk has no single next step across a facet with
        three co-facets: exit 2, naming the facet."""
        out = str(tmp_path / "sep.obj")
        assert main(["morse-smale", "-o", out]
                    + self.fan_args(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "sftopo: error: facet 0 (vertices [0, 1]) has 3 co-facets; "
            "ascending walks need at most two\n")

    def test_fan_check_fails_pseudo_manifold(self, tmp_path, capsys):
        """``check`` reports the fan as a pseudo-manifold failure, exit
        3, and skips the compliance checks instead of raising."""
        assert main(["check"] + self.fan_args(tmp_path)) == 3
        got = capsys.readouterr()
        assert got.err == ""
        failed = [line for line in got.out.splitlines()
                  if line.startswith("[FAIL]")]
        assert failed == ["[FAIL] pseudo-manifold  (1 facets with >2 cofaces)"]
        assert got.out.count("skipped: facet 0 (vertices [0, 1])") == 2

    def test_bowtie_contour_tree_is_a_data_error(self, tmp_path, capsys):
        """On two triangles sharing only vertex 0, vertex 0 is both the
        minimum and a saddle: ``contour-tree`` exits 2, naming it, and
        ``check`` reports that invariant as skipped and exits 0."""
        mesh = tmp_path / "bowtie.off"
        mesh.write_text("OFF\n5 2 0\n0 0 0\n1 0 0\n0 1 0\n-1 0 0\n"
                        "0 -1 0\n3 0 1 2\n3 0 3 4\n")
        values = tmp_path / "bowtie.txt"
        values.write_text("0\n1\n2\n3\n4\n")
        args = ["--mesh", str(mesh), "--values", str(values)]
        out = str(tmp_path / "ct.csv")
        assert main(["contour-tree", "-o", out] + args) == 2
        assert capsys.readouterr().err.startswith(
            "sftopo: error: vertex 0 is both an extremum and a saddle")
        assert main(["check"] + args) == 0
        assert "skipped: vertex 0 is both" in capsys.readouterr().out

    def test_two_triangles(self, tmp_path, capsys):
        """Two disjoint triangles, values 0 to 5, have boundary and
        Euler characteristic 2: ``contour-tree`` exits 2, and the
        diagram has one essential row per triangle."""
        mesh = tmp_path / "two.off"
        mesh.write_text("OFF\n6 2 0\n0 0 0\n1 0 0\n0 1 0\n5 0 0\n"
                        "6 0 0\n5 1 0\n3 0 1 2\n3 3 4 5\n")
        values = tmp_path / "two.txt"
        values.write_text("".join(f"{v}\n" for v in range(6)))
        args = ["--mesh", str(mesh), "--values", str(values)]
        out = tmp_path / "out.csv"
        assert main(["contour-tree", "-o", str(out)] + args) == 2
        assert "Euler characteristic 2" in capsys.readouterr().err
        assert main(["persistence-diagram", "-o", str(out)] + args) == 0
        assert out.read_text().splitlines()[1:] == [
            "0,2,0,2,2,essential", "3,5,3,5,2,essential"]

    def test_unknown_log_level(self, f0_file, monkeypatch, capsys):
        monkeypatch.setenv("SFTOPO_LOG", "bogus")
        assert main(["info"] + f0_args(f0_file)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SFTOPO_LOG" in err

    def test_nan_threshold(self, f0_file, tmp_path):
        out = str(tmp_path / "s.txt")
        assert main(["simplify", "--threshold", "nan", "-o", out]
                    + f0_args(f0_file)) == 1

    @pytest.mark.parametrize("fmt", ["ascii", "f64"])
    def test_nan_field(self, tmp_path, fmt):
        path = tmp_path / "nan.bin"
        values = np.arange(25, dtype=np.float64)
        values[12] = np.nan
        write_field(str(path), values, fmt)
        out = str(tmp_path / "d.csv")
        assert main(["persistence-diagram", "--grid", "5x5", "--values",
                     str(path), "--format", fmt, "-o", out]) == 2

    @pytest.mark.parametrize("fmt", ["ascii", "f64"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_field(self, tmp_path, fmt, bad):
        path = tmp_path / "inf.bin"
        values = np.arange(25, dtype=np.float64)
        values[[3, 12]] = bad
        write_field(str(path), values, fmt)
        out = str(tmp_path / "d.csv")
        assert main(["persistence-diagram", "--grid", "5x5", "--values",
                     str(path), "--format", fmt, "-o", out]) == 2

    def test_internal_error(self, f0_file, monkeypatch, capsys):
        def broken(tri, field):
            raise RuntimeError("boom")
        monkeypatch.setattr("sftopo.cli.extract_critical_points", broken)
        out = f0_args(f0_file) + ["-o", "unused.csv"]
        assert main(["critical-points"] + out) == 4
        assert capsys.readouterr().err == \
            "sftopo: internal error: RuntimeError: boom\n"

    def test_invariant_failure_exit_code(self, f0_file, monkeypatch):
        monkeypatch.setattr(
            "sftopo.cli.run_checks",
            lambda tri, field: [
                checks.CheckResult("forced failure", False)],
        )
        assert main(["check"] + f0_args(f0_file)) == 3

    def test_success(self, f0_file):
        assert main(["info"] + f0_args(f0_file)) == 0


SUBCOMMANDS = ["info", "critical-points", "persistence-diagram",
               "persistence-curve", "contour-tree", "morse-smale",
               "simplify", "check"]


class TestUsage:
    """Usage errors exit 1 with one ``sftopo: error:`` line; ``--help``
    exits 0."""

    @pytest.mark.parametrize("args,message", [
        (["info", "--grid", "4"], "--grid expects WxH or WxHxD, got '4'"),
        (["info", "--grid", "1x4"], "--grid dims must all be >= 2"),
        (["info"], "one of --mesh / --grid is required"),
        (["info", "--grid", "3x3", "--threads", "0"],
         "--threads must be >= 1"),
        (["simplify", "--grid", "3x3", "-o", "out", "--threshold", "abc"],
         "argument --threshold: invalid float value: 'abc'"),
        (["simplify", "--grid", "3x3", "-o", "out", "--threshold", "nan"],
         "--threshold must be a number, got nan"),
    ])
    def test_usage_error(self, tmp_path, capsys, args, message):
        """The values path does not exist: each refusal comes before
        any file is read."""
        values = ["--values", str(tmp_path / "none.txt")]
        assert main(args + values) == 1
        got = capsys.readouterr()
        assert got.err == f"sftopo: error: {message}\n"
        assert got.out == ""

    @pytest.mark.parametrize("args", [[]] + [[sub] for sub in SUBCOMMANDS])
    def test_help(self, capsys, args):
        assert main(args + ["--help"]) == 0
        got = capsys.readouterr()
        assert got.out.startswith("usage: sftopo") and got.err == ""


F0_INFO = """dimension: 2
vertices: 9
edges: 16
triangles: 8
boundary facets: 8
field range: [0, 10]
"""


class TestInfo:
    def test_grid(self, f0_file, capsys):
        assert main(["info"] + f0_args(f0_file)) == 0
        assert capsys.readouterr().out == F0_INFO

    def test_closed_mesh(self, tmp_path, capsys):
        off = tmp_path / "octa.off"
        off.write_text(OCTA_OFF)
        vals = tmp_path / "octa_vals.txt"
        vals.write_text("2\n5\n3\n4\n0\n1\n")
        assert main(["info", "--mesh", str(off),
                     "--values", str(vals)]) == 0
        assert "boundary facets: 0\n" in capsys.readouterr().out

    def test_coloured_mesh(self, tmp_path, capsys):
        vals = tmp_path / "octa_vals.txt"
        vals.write_text("2\n5\n3\n4\n0\n1\n")
        out = []
        for name, body in (("octa", OCTA_OFF), ("coff", coloured(OCTA_OFF))):
            off = tmp_path / f"{name}.off"
            off.write_text(body)
            assert main(["info", "--mesh", str(off),
                         "--values", str(vals)]) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1]


class TestGoldenOutputs:
    def run_to(self, tmp_path, f0_file, sub, *extra):
        out = str(tmp_path / "out")
        rc = main([sub] + f0_args(f0_file) + list(extra) + ["-o", out])
        assert rc == 0
        with open(out) as fh:
            return out, fh.read()

    def test_diagram(self, tmp_path, f0_file):
        _, text = self.run_to(tmp_path, f0_file, "persistence-diagram")
        assert text == F0_DIAGRAM_CSV

    def test_curve(self, tmp_path, f0_file):
        _, text = self.run_to(tmp_path, f0_file, "persistence-curve")
        assert text == F0_CURVE_CSV

    def test_critical_points(self, tmp_path, f0_file):
        _, text = self.run_to(tmp_path, f0_file, "critical-points")
        assert text == F0_CRITICAL_CSV

    def test_contour_tree(self, tmp_path, f0_file):
        _, text = self.run_to(tmp_path, f0_file, "contour-tree")
        assert text == F0_TREE_CSV

    def test_morse_smale_outputs(self, tmp_path, f0_file):
        out, text = self.run_to(tmp_path, f0_file, "morse-smale")
        assert text.startswith("o ")
        assert "l " in text
        desc = open(out + ".desc.labels").read().split()
        assert sorted(set(desc)) == ["0", "2"]
        assert len(open(out + ".asc.labels").read().split()) == 8


class TestSimplifyPipeline:
    def test_roundtrip_classification(self, tmp_path, f0_file):
        out = str(tmp_path / "simplified.txt")
        rc = main(["simplify", "--threshold", "3"] + f0_args(f0_file)
                  + ["-o", out])
        assert rc == 0
        cp_out = str(tmp_path / "cp.csv")
        rc = main(["critical-points", "--grid", "3x3", "--values", out,
                   "--offsets", out + ".offsets", "-o", cp_out])
        assert rc == 0
        rows = open(cp_out).read().strip().splitlines()[1:]
        indices = [int(r.split(",")[4]) for r in rows]
        assert sorted(indices) == [0, 2]    # 1 min, 1 max, no saddle

    def test_check_passes_on_fixtures(self, tmp_path, f0_file):
        assert main(["check"] + f0_args(f0_file)) == 0
        off = tmp_path / "octa.off"
        off.write_text(OCTA_OFF)
        vals = tmp_path / "octa_vals.txt"
        vals.write_text("2\n5\n3\n4\n0\n1\n")
        assert main(["check", "--mesh", str(off),
                     "--values", str(vals)]) == 0


class TestSaddleSaddleCli:
    """3D persistence reads its (1,2) pairs by one reduction of the
    stored gradient: no deep recursion, no runaway memory or time."""

    CAP = 1 << 30               # address-space cap of the child, bytes

    def run_capped(self, args, tmp_path):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.CAP, self.CAP))

        start = time.perf_counter()
        proc = run_cli(args, tmp_path, preexec_fn=cap, timeout=120)
        return proc, time.perf_counter() - start

    @pytest.mark.parametrize("n", [16, 24])
    def test_persistence_diagram_on_random_grids(self, tmp_path, n):
        values = tmp_path / "f.txt"
        np.savetxt(values, np.random.default_rng(n).random(n ** 3))
        out = tmp_path / "d.csv"
        proc, took = self.run_capped(
            ["persistence-diagram", "--grid", f"{n}x{n}x{n}",
             "--values", str(values), "-o", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert ",1-2\n" in out.read_text()
        assert took < 30.0

    def test_simplify_refuses_saddle_saddle_pairs(self, tmp_path):
        """A random 3D field has (1,2) pairs below the threshold, which
        flattening cannot remove: a data error, at once."""
        values = tmp_path / "f.txt"
        np.savetxt(values, np.random.default_rng(12).random(12 ** 3))
        args = ["simplify", "--grid", "12x12x12", "--values", str(values),
                "-o", str(tmp_path / "s.txt")]
        proc, took = self.run_capped(args + ["--threshold", "0.05"],
                                     tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "saddle-saddle pairs" in proc.stderr
        assert took < 30.0
        proc, _ = self.run_capped(args + ["--threshold", "0"], tmp_path)
        assert proc.returncode == 0, proc.stderr

"""Command-line front end.

One subcommand per pipeline stage plus an invariant checker::

    sftopo info              --grid 16x16 --values f.txt
    sftopo critical-points   --mesh m.off --values f.txt -o cp.csv
    sftopo persistence-diagram ... -o d.csv
    sftopo persistence-curve   ... -o c.csv
    sftopo contour-tree        ... -o t.csv
    sftopo morse-smale         ... -o sep.obj
    sftopo simplify --threshold 3 ... -o simplified.txt
    sftopo check ...

Each subcommand is one entry of ``_COMMANDS``: its help text and its
run function.  ``main`` parses the arguments, refuses a usage error
before any file is read, loads the dataset once and calls
``run(args, tri, field)``, which returns an exit code, or None for
success.

Exit codes: 0 success, 1 usage error, 2 data error, 3 invariant
failure, 4 internal error (a fault in sftopo itself, reported as one
line on stderr).  Log verbosity via the SFTOPO_LOG environment
variable.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from . import io as sfio
from .checks import run_checks
from .compliance import enforce_compliance
from .critical import extract_critical_points
from .gradient import _lower_star_gradient, build_gradient
from .morse import (
    ascending_segmentation,
    descending_segmentation,
    extract_separatrices,
)
from .simplify import SimplificationError, select_by_persistence, \
    simplify_field
from .trees import (
    DomainTopologyError,
    build_diagram,
    build_merge_tree,
    combine_contour_tree,
    persistence_curve,
)
from .triangulation import TriangulationError

log = logging.getLogger("sftopo")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_grid(text):
    parts = text.lower().split("x")
    if len(parts) not in (2, 3):
        raise _UsageError(f"--grid expects WxH or WxHxD, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--grid expects integer dims, got {text!r}")
    if any(d < 2 for d in dims):
        raise _UsageError("--grid dims must all be >= 2")
    return dims


def _add_dataset_args(sub):
    src = sub.add_argument_group("input")
    src.add_argument("--mesh", help="ASCII OFF mesh file")
    src.add_argument("--grid", help="regular grid dims, WxH or WxHxD")
    src.add_argument("--values", required=True,
                     help="scalar field file (one value per vertex)")
    src.add_argument("--offsets",
                     help="tie-breaking offsets file (one int per vertex)")
    src.add_argument("--format", default="ascii",
                     choices=("ascii", "f32", "f64"),
                     help="field file encoding (default: ascii)")
    sub.add_argument("--threads", type=int, default=os.cpu_count(),
                     help="accepted for compatibility; has no effect")


def _build_parser():
    parser = _Parser(prog="sftopo",
                     description="topological analysis of PL scalar fields")
    subs = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, (help_text, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        _add_dataset_args(sub)
        if name not in ("info", "check"):
            sub.add_argument("-o", "--output", required=True,
                             help="output file path")
        if name == "simplify":
            sub.add_argument("--threshold", type=float, required=True,
                             help="persistence threshold")
    return parser


def _load(args):
    spec = sfio.DatasetSpec(
        mesh=args.mesh,
        grid=_parse_grid(args.grid) if args.grid else None,
        values=args.values,
        offsets=args.offsets,
        fmt=args.format,
    )
    if spec.mesh is not None and spec.grid is not None:
        raise _UsageError("--mesh and --grid are mutually exclusive")
    if spec.mesh is None and spec.grid is None:
        raise _UsageError("one of --mesh / --grid is required")
    return sfio.load(spec)


def _diagram(tri, field):
    # in 3D any gradient asks for the (1,2) pairs; the stored one is free
    grad = _lower_star_gradient(tri, field) if tri.dim == 3 else None
    return build_diagram(tri, field, grad)


def _cmd_info(args, tri, field):
    names = ["vertices", "edges", "triangles", "tetrahedra"]
    print(f"dimension: {tri.dim}")
    for k in range(tri.dim + 1):
        print(f"{names[k]}: {tri.simplex_count(k)}")
    print(f"boundary facets: {tri.boundary_facets().sum()}")
    print(f"field range: [{field.values.min():.17g}, "
          f"{field.values.max():.17g}]")


def _cmd_critical_points(args, tri, field):
    sfio.write_critical_points_csv(args.output, tri,
                                   extract_critical_points(tri, field))


def _cmd_persistence_diagram(args, tri, field):
    sfio.write_diagram_csv(args.output, _diagram(tri, field))


def _cmd_persistence_curve(args, tri, field):
    sfio.write_curve_csv(args.output, persistence_curve(_diagram(tri, field)))


def _cmd_contour_tree(args, tri, field):
    join = build_merge_tree(tri, field, "join")
    split = build_merge_tree(tri, field, "split")
    sfio.write_contour_tree_csv(args.output, combine_contour_tree(join, split),
                                field)


def _cmd_morse_smale(args, tri, field):
    grad = build_gradient(tri, field)
    enforce_compliance(tri, field, grad)
    sfio.write_separatrices_obj(args.output, extract_separatrices(grad))
    sfio.write_labels(args.output + ".desc.labels",
                      descending_segmentation(grad))
    sfio.write_labels(args.output + ".asc.labels",
                      ascending_segmentation(grad))


def _cmd_simplify(args, tri, field):
    req = select_by_persistence(_diagram(tri, field), args.threshold)
    out = simplify_field(tri, field, req)
    sfio.write_field(args.output, out.values, args.format)
    sfio.write_offsets(args.output + ".offsets", out.offsets)


def _cmd_check(args, tri, field):
    results = run_checks(tri, field)
    failed = 0
    for r in results:
        status = "pass" if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        print(f"[{status}] {r.name}{suffix}")
        failed += not r.ok
    print(f"{len(results) - failed}/{len(results)} invariants hold")
    return EXIT_INVARIANT if failed else None


# subcommand -> (help text, run(args, tri, field))
_COMMANDS = {
    "info": ("print dataset summary", _cmd_info),
    "critical-points": ("classify vertices, write CSV", _cmd_critical_points),
    "persistence-diagram": ("write the persistence diagram CSV",
                            _cmd_persistence_diagram),
    "persistence-curve": ("write the persistence curve CSV",
                          _cmd_persistence_curve),
    "contour-tree": ("write the contour tree arcs CSV", _cmd_contour_tree),
    "morse-smale": ("write separatrices (OBJ) and segmentations",
                    _cmd_morse_smale),
    "simplify": ("remove low-persistence pairs, write new field",
                 _cmd_simplify),
    "check": ("run the cross-module invariant suite", _cmd_check),
}


def main(argv=None) -> int:
    name = os.environ.get("SFTOPO_LOG", "WARNING")
    if not isinstance(logging.getLevelName(name.upper()), int):
        print(f"sftopo: error: SFTOPO_LOG must name a logging level, "
              f"got {name!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=name.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if args.threads is not None and args.threads < 1:
            raise _UsageError("--threads must be >= 1")
        if math.isnan(getattr(args, "threshold", 0.0)):
            raise _UsageError("--threshold must be a number, got nan")
        run = _COMMANDS[args.command][1]
        return run(args, *_load(args)) or EXIT_OK
    except _UsageError as exc:
        print(f"sftopo: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:       # argparse --help
        return EXIT_OK if not exc.code else EXIT_USAGE
    except (sfio.DataError, TriangulationError, DomainTopologyError,
            SimplificationError, OSError) as exc:
        print(f"sftopo: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"sftopo: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

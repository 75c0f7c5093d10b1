"""Benchmark of the sftopo pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid2d-scan --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  The run measures set-up in separate
child processes, then starts a worker process (worker.py) that analyses
seeded fields one after another, closed loop.  The batch is fixed by
the workload and ``--seconds``: as many fields as take about that long
on a 2-core VM (``Workload.field_s``), so that two runs with the same
seed attempt and fail the same stage calls however fast the host runs
at the time.  Each field's stage outputs are checked against the
oracles in ``tests/oracles.py`` and the workload's CLI subcommand is run
on the stored field.  A worker that dies or stops reporting is killed and
replaced; the stage call it was in counts as failed.

The report goes to standard output; its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones, taken from spans that this file
records around each stage call (written to ``perfbench/traces/``).
Both kinds of run time every stage call; ``trace.overhead_s`` is what
the traced run adds on top, the evaluation of the stage counts.

The end-to-end times are scaled to a fixed host speed (see ``REF_S``).

``attempted`` and ``failed`` count stage calls.  ``correct`` is false
when any failure is not one of the KNOWN_DEFECTS below; those are still
counted in ``failed`` and in ``ok_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 15            # set-up is short and noisy: report a median

#: Nominal time of worker.reference_s's job (about its median on a
#: 2-core VM with Python 3.11).  On a shared host the speed of execution
#: can drift by a fifth over tens of seconds (CPU time moves with wall
#: time, so it is not waiting), and a run's stage times move with the
#: job's.  The end-to-end times are therefore divided by the host's
#: slowdown, the job's median time in the same run over REF_S (rates
#: multiplied); the report prints them as measured too.
REF_S = 0.012

#: Failures the program shows today, as (workload, stage, detail regex).
#: They count as failed stage calls but do not make a run incorrect.
KNOWN_DEFECTS = (
    ("grid3d-diagram", "trees.build_diagram",
     r"\(1,2\) pairs differ from GF\(2\) reduction: .*"),
    ("mesh-simplify", "checks.run_checks",
     r"contour-tree arcs partition the vertices \([^()]*\)"),
)

END_TO_END = {
    "setup_s": "s",
    "field_p50_s": "s",
    "vertices_per_s": "1/s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Per-field stage time metrics: the stage-name prefixes each one sums.
STAGE_TIMES = {
    "order.field_s": ("order.",),
    "critical.extract_s": ("critical.",),
    "gradient.build_s": ("gradient.",),
    "compliance.enforce_s": ("compliance.",),
    "trees.merge_s": ("trees.build_merge_tree",),
    "trees.contour_s": ("trees.combine_contour_tree",),
    "trees.diagram_s": ("trees.build_diagram",),
    "trees.curve_s": ("trees.persistence_curve",),
    "morse.separatrices_s": ("morse.extract_separatrices",),
    "morse.segmentation_s": ("morse.descending_segmentation",
                             "morse.ascending_segmentation"),
    "simplify.select_s": ("simplify.select_by_persistence",),
    "simplify.simplify_s": ("simplify.simplify_field",),
    "checks.run_s": ("checks.",),
    "io.load_s": ("io.load", "io.read"),
    "io.write_s": ("io.write",),
    "cli.run_s": ("cli.",),
}

#: Counts a stage call reports, as "<layer>.<count>", from the run's
#: first field so that they repeat exactly from run to run.
COUNTS = (
    "critical.points", "gradient.critical_simplices", "compliance.cancelled",
    "compliance.spurious_left", "trees.pairs", "trees.saddle_saddle_pairs",
    "morse.separatrices", "simplify.removed_extrema",
)

LAYERS = ("triangulation", "order", "critical", "gradient", "compliance",
          "trees", "morse", "simplify", "checks", "io", "cli")


#: Per-layer metrics and their units.  The triangulation layer has no
#: span of its own: grids answer queries inside the other layers' calls,
#: and the mesh builds its tables in set-up.
PER_LAYER = {
    "triangulation.setup_s": "s", "triangulation.simplices": "count",
    **{name: "s" for name in STAGE_TIMES},
    **{name: "count" for name in COUNTS},
    **{f"{layer}.self_s": "s" for layer in LAYERS[1:]},
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.coverage": "frac", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# --------------------------------------------------------------------------
# Worker processes
# --------------------------------------------------------------------------


def _worker_cmd(args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--field-limit", str(args.field_limit), *extra]


def _start(cmd):
    # own session, so that a kill also reaches the CLI child it may run
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)


def _stop(proc, grace=0.0):
    """Wait ``grace`` seconds for the process to end, then kill its group."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def measure_setup(args):
    """Set up in fresh processes; each sample includes ``import sftopo``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = _start(_worker_cmd(args, "--setup-only"))
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            _stop(proc)
            raise BenchError("set-up did not finish within 120 s")
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"set-up failed (exit code {proc.returncode})")
        samples.append(json.loads(out.splitlines()[-1]))
    return samples


def _pump(stream, lines):
    for line in stream:
        lines.put(line)
    lines.put(None)


def run_fields(args, workdir):
    """Field records and worker crashes of one measured run."""
    fields, crashes = [], []
    first = 0
    while True:
        proc = _start(_worker_cmd(
            args, "--seconds", str(args.seconds), "--first-field", str(first),
            "--trace", str(args.trace), "--workdir", workdir))
        lines = queue.Queue()
        reader = threading.Thread(target=_pump, args=(proc.stdout, lines),
                                  daemon=True)
        reader.start()
        stage, hung, set_up = None, False, False
        try:
            while True:
                try:
                    line = lines.get(timeout=args.field_limit + 30)
                except queue.Empty:
                    hung = True
                    break
                if line is None:
                    break
                msg = json.loads(line)
                if msg["kind"] == "setup":
                    set_up = True
                elif msg["kind"] == "stage":
                    stage = msg
                elif msg["kind"] == "field":
                    fields.append(msg)
                    first, stage = msg["id"] + 1, None
        finally:
            _stop(proc, 0 if hung else 10)
            reader.join()
        if proc.returncode == 0 and not hung:
            break
        if not set_up:
            raise BenchError(
                f"worker failed before set-up (exit code {proc.returncode})")
        field = stage["field"] if stage else first
        crashes.append({
            "field": field, "name": stage["name"] if stage else "worker",
            "ok": False,
            "error": (f"no report for {args.field_limit + 30:.0f} s" if hung
                      else f"worker died (exit code {proc.returncode})")})
        first = field + 1
    return fields, crashes


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _group_median(pairs):
    """Mean over input families of the median within each family, from
    (family, value) pairs; a plain median when there is one family."""
    groups = {}
    for g, x in pairs:
        groups.setdefault(g, []).append(x)
    return statistics.fmean(_median(v) for v in groups.values()) \
        if groups else float("nan")


def _known(workload, rec):
    return any(w == workload and s == rec["name"]
               and re.fullmatch(pat, rec.get("error", ""))
               for w, s, pat in KNOWN_DEFECTS)


def _self_time(span, children):
    """Span duration minus the part of it that its children cover."""
    covered, end = 0.0, span[0]
    for a, b in sorted(children):
        a, b = max(a, end), min(b, span[1])
        if b > a:
            covered += b - a
            end = b
    return span[1] - span[0] - covered


def build_spans(fields):
    """One root span per field (pipeline) and per CLI step, one child span
    per stage call, the stage's counts attached."""
    spans = []
    for f in fields:
        for root in ("field", "cli"):
            recs = [r for r in f["records"] if r["root"] == root]
            if root == "field":
                start, end = f["t0"], f["t1"]
            elif recs:
                start, end = recs[0]["t0"], recs[-1]["t1"]
            else:
                continue
            parent = len(spans)
            spans.append({"id": parent, "name": f"bench.{root}",
                          "field": f["id"], "parent": None,
                          "start": start, "end": end})
            for r in recs:
                spans.append({"id": len(spans), "name": r["name"],
                              "field": f["id"], "parent": parent,
                              "start": r["t0"], "end": r["t1"],
                              "ok": r["ok"], "counts": r.get("counts", {})})
    return spans


def trace_metrics(fields, spans):
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    per_field = {}              # field id -> layer -> self time
    coverage = []
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        own = _self_time((s["start"], s["end"]), kids)
        if s["name"] == "bench.field":
            coverage.append(1.0 - own / (s["end"] - s["start"]))
        else:
            layer = s["name"].split(".")[0]
            slot = per_field.setdefault(s["field"], {})
            slot[layer] = slot.get(layer, 0.0) + own
    group = {f["id"]: f["group"] for f in fields}
    out = {}
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = _group_median(
            [(group[i], v.get(layer, 0.0)) for i, v in per_field.items()])
    out["trace.coverage"] = min(coverage) if coverage else float("nan")
    done = [f for f in fields if f["complete"]]
    out["trace.overhead_s"] = (
        _group_median([(f["group"], f["t1"] - f["t0"]) for f in done])
        - _group_median([(f["group"], f["untraced_s"]) for f in done]))
    for name, prefixes in STAGE_TIMES.items():
        out[name] = _group_median([(f["group"], sum(
            r["t1"] - r["t0"] for r in f["records"]
            if r["name"].startswith(prefixes))) for f in done])
    counts = {}
    for r in fields[0]["records"] if fields else []:
        layer = r["name"].split(".")[0]
        for k, v in r.get("counts", {}).items():
            counts[f"{layer}.{k}"] = counts.get(f"{layer}.{k}", 0) + v
    out.update({name: counts.get(name, 0) for name in COUNTS})
    return out


def compute(args, setups, fields, crashes):
    records = [r for f in fields for r in f["records"]] + crashes
    failures = [r for r in records if not r["ok"]]
    done = [f for f in fields if f["complete"]]
    walls = [(f["group"], f["t1"] - f["t0"]) for f in done]
    vertices = setups[0]["vertices"]
    cli = [(f["group"], r["t1"] - r["t0"]) for f in fields
           for r in f["records"] if r["name"].startswith("cli.")]
    rss = [f["rss_mb"] for f in fields]
    raw = {
        "setup_s": _median([s["setup_s"] for s in setups]),
        "field_p50_s": _group_median(walls),
        "vertices_per_s": vertices * len(fields) / sum(
            f["t1"] - f["t0"] for f in fields),
        "cli_s": _group_median(cli),
    }
    slow = _median([r for f in fields for r in f["ref_s"]]) / REF_S
    m = {name: v / slow if END_TO_END[name] == "s" else v * slow
         for name, v in raw.items()}
    m.update({
        "peak_rss_mb": max(rss),
        "ok_frac": 1.0 - len(failures) / len(records),
    })
    layer = {
        "triangulation.setup_s": _median([s["tri_setup_s"] for s in setups]),
        "triangulation.simplices": setups[0]["simplices"],
    }
    for name in LAYERS:
        layer[f"{name}.failed"] = sum(
            1 for r in failures if r["name"].split(".")[0] == name)
    spans = build_spans(fields) if args.trace else []
    if args.trace:
        layer.update(trace_metrics(fields, spans))
    samples = {"setup_s": len(setups), "field_p50_s": len(walls),
               "vertices_per_s": len(fields), "cli_s": len(cli),
               "peak_rss_mb": len(rss), "ok_frac": len(records)}
    return m, raw, slow, layer, records, failures, samples, spans


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------


def report(args, prov, m, raw, layer, failures, samples):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{prov['fields']} fields in {prov['run_s']:.1f} s  "
          f"nproc {prov['nproc']}  python {prov['python']}  "
          f"numpy {prov['numpy']}")
    print(f"end-to-end (host {prov['host_slowdown']:.4f} times slower "
          f"than REF_S assumes; times scaled back):")
    for name, unit in END_TO_END.items():
        measured = f"  as measured {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:<16} {m[name]:>14.6g} {unit:<5} "
              f"(n={samples[name]}){measured}")
    print(f"  {'failed_frac':<16} {1.0 - m['ok_frac']:>14.6g} frac")
    if args.trace:
        print("per layer (median per field; counts from the first field):")
        for lname in LAYERS:
            row = {k: v for k, v in layer.items()
                   if k.split(".")[0] == lname}
            print(f"  {lname:<14}" + "  ".join(
                f"{k.split('.', 1)[1]}={v:.4g}" for k, v in row.items()))
        cover = layer["trace.coverage"]
        print(f"  stage spans cover {100 * cover:.2f} % of the field span "
              f"at worst ({'at least' if cover >= 0.95 else 'BELOW'} 95 %); "
              f"counts add {layer['trace.overhead_s']:+.4f} s per field")
    for r in failures[:20]:
        tag = "known defect" if _known(args.workload, r) else "FAILED"
        print(f"  {tag}: field {r.get('field', '?')} {r['name']}: "
              f"{r.get('error', '')}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more failed stage calls")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="size of the batch: the fields the workload "
                         "analyses in about this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--field-limit", type=float, default=30.0,
                    help="time limit of one field's pipeline, seconds")
    args = ap.parse_args(argv)

    for need in ("src/sftopo/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"run.py: {need} not found under {ROOT}", file=sys.stderr)
            return 2
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        setups = measure_setup(args)
        started = time.monotonic()
        fields, crashes = run_fields(args, workdir)
        run_s = time.monotonic() - started
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not fields:
        print("run.py: no field was analysed", file=sys.stderr)
        return 2
    for f in fields:
        for r in f["records"]:
            r["field"] = f["id"]
    m, raw, slow, layer, records, failures, samples, spans = compute(
        args, setups, fields, crashes)
    prov = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "run_s": run_s, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": setups[0]["numpy"], "fields": len(fields),
            "samples": samples, "host_slowdown": slow,
            "known_defects": sum(_known(args.workload, r) for r in failures)}
    report(args, prov, m, raw, layer, failures, samples)
    if args.trace:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces",
                            f"{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"provenance": prov, "spans": spans}, fh)
    print(json.dumps({"provenance": prov}))
    metrics = layer if args.trace else m
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": all(_known(args.workload, r) for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload process: set-up, then a fixed batch of seeded fields.

run.py starts one worker per workload run, and a fresh one after a worker
dies.  The worker caps its own address space with ``resource.setrlimit``,
gives every field a time limit, and reports to its parent one JSON object
per line on standard output (library output is sent to standard error):

* ``setup``: set-up time, its triangulation part and the simplex count;
* ``stage``: the stage call about to start, so that a crash can be blamed;
* ``field``: the field's wall time, its stage records, any failures and
  the times of the reference job run before its pipeline and before its
  checks (``reference_s``).

A stage call fails when it raises (``SystemError``, ``MemoryError`` and
``RecursionError`` included), when the field's time limit expires, or
when the oracle rejects its output; the loop then goes on with the next
field.  An exception raised by the oracle check itself is recorded as a
failed call ``bench.verify``.

Every run times each stage call and reports it; what ``--trace 1`` adds
is the evaluation of each stage's counts.  A traced run analyses every
field twice, without and with the counts, so that their cost
(``trace.overhead_s``) is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Address-space cap of a worker and its CLI children.  A workload's
#: worker peaks near 160 MB of address space; a runaway field (the
#: self-test's permutation field) reaches the cap within a few seconds.
MEM_CAP_MB = 512


class FieldTimeout(BaseException):
    """The field's time limit expired inside a stage call.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it."""


def _expire(signum, frame):
    raise FieldTimeout("field time limit expired")


class FieldRun:
    """Stage calls of one field: outputs, failures and stage records.

    Every call is timed; ``counts`` (a function of the result) is only
    evaluated when tracing.  After the first failed call the remaining
    calls of the field are skipped.
    """

    def __init__(self, emit, field_id, traced):
        self.emit = emit
        self.field_id = field_id
        self.traced = traced
        self.root = "field"
        self.out = {}
        self.records = []
        self.current = None     # record of the stage call made last
        self.failed = False

    def call(self, name, fn, *args, counts=None, key=None):
        if self.failed:
            return None
        rec = self.current = {"name": name, "key": key or name,
                              "root": self.root, "ok": True}
        self.records.append(rec)
        try:
            self.emit({"kind": "stage", "field": self.field_id,
                       "name": name})
            rec["t0"] = time.perf_counter()
            result = fn(*args)
            rec["t1"] = time.perf_counter()
            if self.traced and counts is not None:
                rec["counts"] = counts(result)
        except (Exception, FieldTimeout) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.out[rec["key"]] = result
        return result

    def fail(self, error, name=None):
        """Fail the field and skip its remaining calls.  The failure is
        recorded as a call ``name`` or, without one, on the stage call
        made last (``bench.between_calls`` when there was none)."""
        if self.failed:
            return              # a consequence of the first failure
        rec = self.current
        if name is not None or rec is None:
            rec = {"name": name or "bench.between_calls", "key": None,
                   "root": self.root}
            self.records.append(rec)
        now = time.perf_counter()
        rec.setdefault("t0", now)
        rec.setdefault("t1", now)
        rec.update(ok=False, error=error[:300])
        self.failed = True

    def record(self, key, value):
        """Keep a value computed between stage calls for ``verify``."""
        self.out[key] = value

    def reject(self, bad):
        """Mark the records whose output the oracle rejected."""
        for rec in self.records:
            if rec["ok"] and rec["key"] in bad:
                rec["ok"] = False
                rec["error"] = bad[rec["key"]][:300]


def _run_pipeline(wl, tri, values, emit, field_id, traced, limit):
    run = FieldRun(emit, field_id, traced)
    gc.collect()                # no earlier field's garbage in this one
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        wl.pipeline(run, tri, values)
    except (Exception, FieldTimeout) as exc:
        # raised between two stage calls: blame the last one made
        run.fail(f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return run, t0, time.perf_counter()


def _guarded(run, root, limit, fn, name=None):
    """Run ``fn`` (the oracle check or the CLI step of a field) under the
    field time limit, with ``root`` as the records' root; an exception
    fails the field (see ``FieldRun.fail``) instead of the worker."""
    run.root, run.current = root, None
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        fn()
    except (Exception, FieldTimeout) as exc:
        run.fail(f"{type(exc).__name__}: {exc}", name)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _timed_untraced(wl, tri, values, emit, field_id, args):
    _, a, b = _run_pipeline(wl, tri, values, emit, field_id, False,
                            args.field_limit)
    return b - a


def _cli_step(wl, run, values, workdir, limit):
    """Store the field, run the workload's CLI subcommand on it in a child
    process and compare its output files with the in-process result."""
    # imported here, not at the top: set-up time includes importing sftopo
    from sftopo import io as sfio
    import sftopo
    import numpy as np

    dataset = wl.dataset_args(workdir)
    path = os.path.join(workdir, "field.txt")
    run.call("io.write_field", sfio.write_field, path, values)
    loaded = run.call("io.load", sfio.load, wl.dataset_spec(workdir, path))
    if loaded is not None and not np.array_equal(loaded[1].values, values):
        run.reject({"io.load": "stored field does not read back exactly"})
        return
    if run.failed:
        return
    extra, outputs, compare = wl.cli_job(run, run.out, workdir)
    # the child imports the very package this process imported, whatever
    # the working directory
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(sftopo.__file__))))
    name = "cli." + wl.cli_command
    cmd = [sys.executable, "-m", "sftopo.cli", wl.cli_command,
           *dataset, "--values", path, *extra,
           "-o", os.path.join(workdir, outputs[0])]
    proc = run.call(name, functools.partial(
        subprocess.run, cwd=workdir, env=env, capture_output=True, text=True,
        timeout=limit), cmd)
    if proc is None:
        return
    if proc.returncode != 0:
        run.reject({name: f"exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-200:]}"})
        return
    detail = compare()
    if detail:
        run.reject({name: detail})


_REF_EDGES = [divmod(n * 7919 % 9_000_001, 3000) for n in range(6000)]


def reference_s():
    """Time of a fixed reference job that runs no sftopo code: a dict
    loop, a numpy sort and a union-find over a fixed edge list.  Timed
    between fields, it tells run.py how fast the shared host runs at that
    moment (see ``REF_S`` there)."""
    import numpy as np
    t = time.perf_counter()
    acc = {}
    for n in range(20000):
        k = n % 251
        acc[k] = acc.get(k, 0) + (n ^ k)
    x = np.sin(np.arange(40000.0))
    np.cumsum(x[np.argsort(x)])
    parent = list(range(3000))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in sorted(_REF_EDGES, key=lambda e: e[0] * 7 + e[1]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return time.perf_counter() - t


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="size of the batch: the fields the workload "
                         "analyses in about this many seconds")
    ap.add_argument("--first-field", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--field-limit", type=float, default=30.0,
                    help="time limit of one field's pipeline, seconds")
    ap.add_argument("--workdir", help="directory for the CLI step's files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cap = MEM_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _expire)
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)               # stray prints must not corrupt the protocol

    def emit(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                    HERE]
    t0 = time.perf_counter()
    import sftopo               # noqa: F401  (imports numpy too)
    imported = time.perf_counter() - t0
    import numpy
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    t1 = time.perf_counter()
    tri = wl.setup()
    t2 = time.perf_counter()
    emit({"kind": "setup", "setup_s": imported + t2 - t1,
          "tri_setup_s": t2 - t1, "numpy": numpy.__version__,
          "vertices": tri.simplex_count(0),
          "simplices": sum(tri.simplex_count(k) for k in range(tri.dim + 1))})
    if args.setup_only:
        return 0

    for i in range(args.first_field, wl.batch(args.seconds)):
        values = wl.values(i)
        refs = [reference_s()]
        untraced = None
        if args.trace:
            # the untraced run goes first for two fields, then last for
            # two, so that warm caches favour neither side of the overhead
            # (and the order also alternates within grid3d-diagram's two
            # noise levels)
            untraced_first = i // 2 % 2 == 0
            if untraced_first:
                untraced = _timed_untraced(wl, tri, values, emit, i, args)
            run, a, b = _run_pipeline(wl, tri, values, emit, i, True,
                                      args.field_limit)
            if not untraced_first:
                untraced = _timed_untraced(wl, tri, values, emit, i, args)
        else:
            run, a, b = _run_pipeline(wl, tri, values, emit, i, False,
                                      args.field_limit)
        complete = not run.failed
        if complete:
            refs.append(reference_s())
            _guarded(run, "verify", args.field_limit,
                     lambda: run.reject(wl.verify(tri, run.out)),
                     name="bench.verify")
            _guarded(run, "cli", args.field_limit,
                     lambda: _cli_step(wl, run, values, args.workdir,
                                       args.field_limit))
        emit({"kind": "field", "id": i, "group": wl.group(i),
              "t0": a, "t1": b, "ref_s": refs,
              "complete": complete, "untraced_s": untraced,
              "records": run.records, "rss_mb": _rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())

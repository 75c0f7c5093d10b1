"""Self-test of the benchmark's fault containment.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the metrics run.py prints, then makes
two short runs of run.py, each of which must still exit 0 and print a
result, with the faults counted as failed stage calls and the run going
on with the next field:

* ``grid3d-perm5``: random-permutation fields on a 5x5x5 grid.  With seed
  0, field 1 makes the recursive V-path extraction raise SystemError or,
  under the worker's 512 MB memory cap, MemoryError.
* ``grid2d-morse`` with a 0.3 s field limit: fields time out.
"""

import json
import re
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    prov = json.loads(lines[-2])["provenance"]
    return result, prov, proc.stdout


def check_benchmark_json():
    sys.path.insert(0, HERE)
    import run as bench
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, units in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        assert named == units, (key, set(named) ^ set(units))
    print("BENCHMARK.json matches the metrics run.py prints")


def main():
    check_benchmark_json()
    result, prov, text = run("--workload", "grid3d-perm5", "--seed", "0",
                             "--seconds", "12")
    assert re.search(r"field 1 trees.build_diagram: "
                     r"(SystemError|MemoryError|RecursionError)", text), text
    assert prov["fields"] >= 3, prov        # went on after the crash
    assert result["failed"] >= 1 and not result["correct"], result
    print("crash contained:", result["failed"], "of", result["attempted"],
          "stage calls failed over", prov["fields"], "fields")

    result, prov, text = run("--workload", "grid2d-morse", "--seed", "0",
                             "--seconds", "2", "--field-limit", "0.3")
    assert "FieldTimeout" in text, text
    assert prov["fields"] >= 2, prov
    assert result["failed"] == prov["fields"], result   # one per field
    print("timeouts contained:", result["failed"], "of", prov["fields"],
          "fields timed out")
    return 0


if __name__ == "__main__":
    sys.exit(main())

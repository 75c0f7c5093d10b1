"""Invariant suite: every check runs, whatever the input size."""

import numpy as np

from sftopo import ImplicitGridTriangulation, OrderField
from sftopo.checks import run_checks


def test_acyclicity_runs_on_large_grid():
    tri = ImplicitGridTriangulation((64, 64))
    assert sum(tri.simplex_count(k) for k in range(3)) == 24067
    x, y = np.meshgrid(np.arange(64) / 10.0, np.arange(64) / 10.0)
    field = OrderField((np.sin(x) * np.cos(y) + 0.01 * x).ravel())
    results = {r.name: r for r in run_checks(tri, field)}
    acyclic = results["gradient acyclic (exhaustive)"]
    assert acyclic.ok and acyclic.detail == ""

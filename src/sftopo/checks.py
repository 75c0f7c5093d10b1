"""Cross-module invariant suite backing the ``check`` subcommand.

Each check tests a structural property of the pipeline and reports
pass/fail with a short diagnostic; together they exercise the
triangulation, classification, gradient, tree, and diagram layers
against one another on the given dataset.  The checks read the critical
points and merge trees from the field's store, where the rest of the
pipeline left them; ``_uf_extremum_pairs`` stays an independent
recomputation of the extremum pairs that reads no store.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .compliance import enforce_compliance
from .critical import extract_critical_points
from .gradient import build_gradient, gradient_is_acyclic, pairing_is_valid
from .order import OrderField
from .trees import (
    CLASS_ESSENTIAL,
    CLASS_MIN_SADDLE,
    CLASS_SADDLE_MAX,
    DomainTopologyError,
    build_diagram,
    build_merge_tree,
    combine_contour_tree,
    persistence_curve,
)
from .triangulation import Triangulation, validate_pseudo_manifold


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _uf_extremum_pairs(tri, field, ascending):
    """Union-find sweep pairing extrema with merge vertices (Elder rule)."""
    n = len(field)
    ranks = field.ranks.tolist()
    sweep = field.order if ascending else field.order[::-1]
    parent = list(range(n))
    oldest = list(range(n))
    before = [False] * n
    offsets, ids = tri.neighbor_csr()
    offsets, ids = offsets.tolist(), ids.tolist()

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def older(a, b):
        return (ranks[a] < ranks[b]) == ascending

    pairs = []
    for v in sweep.tolist():
        roots = []
        for u in ids[offsets[v]:offsets[v + 1]]:
            if before[u]:
                r = find(u)
                if r not in roots:
                    roots.append(r)
        if roots:
            winner = roots[0]
            for r in roots[1:]:
                if older(oldest[r], oldest[winner]):
                    winner = r
            for r in roots:
                if r != winner:
                    pairs.append((oldest[r], v))
                parent[r] = v
            oldest[v] = oldest[winner]
        before[v] = True
    return pairs


def _contour_tree_faults(ct, ranks):
    """The contour-tree invariants that fail, each in a few words.

    Linear-time tests: the arcs form a tree on the nodes, minima and
    maxima are leaves, and every vertex lies within the rank span of
    the arc it maps to.  An arc may own no vertex (two adjacent
    saddles), so arcs need not partition the vertices.
    """
    faults = []
    if len(ct.arcs) != len(ct.nodes) - 1:
        faults.append(f"{len(ct.arcs)} arcs for {len(ct.nodes)} nodes")
    parent = {v: v for v in ct.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = Counter()
    for lo, hi in ct.arcs:
        parent.setdefault(lo, lo)
        parent.setdefault(hi, hi)
        parent[find(lo)] = find(hi)
        degree[lo] += 1
        degree[hi] += 1
    if len({find(v) for v in parent}) != 1:
        faults.append("the arcs do not connect the nodes")
    if any(degree[v] != 1 for v, kind in ct.node_types.items()
           if kind in ("min", "max")):
        faults.append("an extremum node is not a leaf")
    arcs = np.array(ct.arcs, dtype=np.int64).reshape(-1, 2)
    arc = ct.vertex_arc
    if not ((arc >= 0) & (arc < len(arcs))).all():
        faults.append("a vertex maps to no arc")
    elif not ((ranks[arcs[arc, 0]] <= ranks)
              & (ranks <= ranks[arcs[arc, 1]])).all():
        faults.append("a vertex lies outside its arc's rank span")
    return faults


def run_checks(tri: Triangulation, field: OrderField) -> list:
    """Run every invariant check; returns a list of CheckResult."""
    results = []
    d = tri.dim

    bad = validate_pseudo_manifold(tri)
    results.append(CheckResult(
        "pseudo-manifold", not bad,
        "" if not bad else f"{len(bad)} facets with >2 cofaces"))

    cps = extract_critical_points(tri, field)
    per_index = {}
    for cp in cps:
        per_index[cp.index] = per_index.get(cp.index, 0) + cp.multiplicity
    ok = per_index.get(0, 0) >= 1 and per_index.get(d, 0) >= 1
    results.append(CheckResult(
        "critical points include a minimum and a maximum", ok,
        f"counts per index: {dict(sorted(per_index.items()))}"))

    grad = build_gradient(tri, field)
    results.append(CheckResult("gradient pairing valid",
                               pairing_is_valid(grad)))
    results.append(CheckResult("gradient acyclic (exhaustive)",
                               gradient_is_acyclic(grad)))

    report = enforce_compliance(tri, field, grad, cps)
    results.append(CheckResult(
        "every interior critical point matched to a star simplex",
        not report.match_failures,
        "" if not report.match_failures
        else f"{len(report.match_failures)} unmatched"))
    spurious = sum(len(v) for v in report.spurious.values())
    has_boundary = bool(tri.boundary_facets().any())
    # the cancellation guarantee is for closed surfaces; elsewhere the
    # residue is reported but does not fail the suite
    ok = spurious == 0 or has_boundary or d == 3
    results.append(CheckResult(
        "no spurious interior critical simplices", ok,
        f"{spurious} left (closed domain: {not has_boundary})"))

    join = build_merge_tree(tri, field, "join")
    split = build_merge_tree(tri, field, "split")
    mins = sorted(cp.vertex for cp in cps if cp.index == 0)
    maxs = sorted(cp.vertex for cp in cps if cp.index == d)
    results.append(CheckResult(
        "join-tree leaves are the minima", sorted(join.leaves) == mins))
    results.append(CheckResult(
        "split-tree leaves are the maxima", sorted(split.leaves) == maxs))

    name = "contour tree is a tree whose arcs span their vertices"
    try:
        ct = combine_contour_tree(join, split)
        faults = _contour_tree_faults(ct, field.ranks)
        results.append(CheckResult(
            name, not faults,
            "; ".join(faults) or
            f"{len(ct.arcs)} arcs over {len(ct.nodes)} nodes"))
    except DomainTopologyError as exc:
        results.append(CheckResult(name, True, f"skipped: {exc}"))

    diagram = build_diagram(tri, field, grad=None)
    got_min = sorted((p.birth_vertex, p.death_vertex) for p in diagram.pairs
                     if p.cls == CLASS_MIN_SADDLE)
    got_max = sorted((p.death_vertex, p.birth_vertex) for p in diagram.pairs
                     if p.cls == CLASS_SADDLE_MAX)
    oracle_min = sorted(_uf_extremum_pairs(tri, field, True))
    oracle_max = sorted(_uf_extremum_pairs(tri, field, False))
    results.append(CheckResult(
        "diagram extremum pairs match a union-find recomputation",
        got_min == oracle_min and got_max == oracle_max))
    ess = [p for p in diagram.pairs if p.cls == CLASS_ESSENTIAL]
    results.append(CheckResult(
        "essential pair spans the global extrema",
        len(ess) == 1
        and ess[0].birth_vertex == int(field.order[0])
        and ess[0].death_vertex == int(field.order[-1])))

    curve = persistence_curve(diagram)
    counts = [c for _, c in curve]
    results.append(CheckResult(
        "persistence curve is non-increasing",
        all(a >= b for a, b in zip(counts, counts[1:]))))
    return results

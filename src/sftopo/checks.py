"""Cross-module invariant suite backing the ``check`` subcommand.

Each check tests a structural property of the pipeline and reports
pass/fail with a short diagnostic; together they exercise the
triangulation, classification, gradient, tree, and diagram layers
against one another on the given dataset.  The checks read the critical
points and merge trees from the field's store, where the rest of the
pipeline left them.

Three results are independent recomputations, which read neither the
merge trees nor the diagram they test:

- the minimum pairs, ``_minimum_pairs``: the D0 step of Discrete Morse
  Sandwich (Guillou, Vidal & Tierny, arXiv:2206.13932), a union-find
  over minima along the critical edges of the field's stored raw
  gradient;
- the maximum pairs, ``_maximum_pairs``: a union-find sweep down the
  vertex order.  Both union-finds are ``order._find``, the one the merge
  trees run on too.  The mirror of the D0 step would need the gradient of
  the negated field, whose build alone costs more than the sweep: on a
  random 32³ grid on a 2-core VM, 0.3-0.4 s against 0.08 s;
- the essential pairs, ``_component_extrema``: the lowest and highest
  vertex of each connected component, labelled over the edges.

The pairing and acyclicity checks run on the gradient that compliance
leaves, the one ``morse-smale`` writes; where compliance refuses the
domain, the gradient is left as built.  Acyclicity
(``gradient_is_acyclic``) is exhaustive, and the contour-tree faults are
array tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compliance import enforce_compliance
from .critical import _components, extract_critical_points
from .gradient import (
    _critical_by_key,
    _lower_star_gradient,
    build_gradient,
    gradient_is_acyclic,
    pairing_is_valid,
)
from .morse import descending_segmentation
from .order import OrderField, _find
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


def _minimum_pairs(tri, field):
    """(minimum, saddle vertex) pairs by the D0 step of Discrete Morse
    Sandwich (Guillou, Vidal & Tierny, arXiv:2206.13932).

    The critical edges of the field's stored raw gradient, in simplex
    key order (``_critical_by_key``), join the minima that their two
    ends descend to.  A union-find over the minima keeps the oldest, the
    lowest in rank, as each root; an edge that joins two roots pairs the
    younger minimum with its own highest vertex.
    """
    grad = _lower_star_gradient(tri, field)
    dims, sids, keys = _critical_by_key(grad)
    edges = grad.verts[1].take(sids[dims == 1], axis=0)
    saddles = field.order[keys[dims == 1, -1]]
    # minima are indexed by rank, so that the older of two is the lower
    minima = np.flatnonzero(grad.pair_up[0] < 0)
    minima = minima[np.argsort(field.ranks[minima])]
    index = np.empty(len(field), dtype=np.int64)
    index[minima] = np.arange(len(minima))
    ends = index[descending_segmentation(grad)[edges]]
    parent = list(range(len(minima)))
    pairs = []
    for a, b, v in zip(ends[:, 0].tolist(), ends[:, 1].tolist(),
                       saddles.tolist()):
        a, b = _find(parent, a), _find(parent, b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            pairs.append((minima.item(b), v))
    return pairs


def _maximum_pairs(tri, field):
    """(maximum, saddle vertex) pairs by a union-find sweep down the
    vertex order (Elder rule).

    Each edge is listed under its lower end, so a vertex meets exactly
    its already swept neighbours.  A component's root is its maximum,
    the first vertex swept into it; where roots meet, the highest
    survives, and every other pairs with the vertex.
    """
    ranks = field.ranks
    edges = tri.simplex_array(1)
    up = ranks[edges[:, 1]] > ranks[edges[:, 0]]
    low = np.where(up, edges[:, 0], edges[:, 1])
    at = len(field) - 1 - ranks[low]        # the lower end's sweep step
    highs = np.where(up, edges[:, 1], edges[:, 0])[np.argsort(at)].tolist()
    bounds = np.zeros(len(field) + 1, dtype=np.int64)
    np.cumsum(np.bincount(at, minlength=len(field)), out=bounds[1:])
    bounds = bounds.tolist()
    rank = ranks.tolist().__getitem__
    parent = list(range(len(field)))
    pairs = []
    for v, i, j in zip(field.order[::-1].tolist(), bounds, bounds[1:]):
        if j - i == 1:
            parent[v] = highs[i]
        elif j > i:
            roots = {_find(parent, u) for u in highs[i:j]}
            winner = max(roots, key=rank)
            for r in roots:
                if r != winner:
                    parent[r] = winner
                    pairs.append((r, v))
            parent[v] = winner
    return pairs


def _component_extrema(tri, field):
    """Sorted (lowest, highest) vertex pairs of the connected
    components, labelled by ``critical._components`` over the edges."""
    n = len(field)
    label = _components(n, *tri.simplex_array(1).T)
    low = np.full(n, n)
    high = np.full(n, -1)
    np.minimum.at(low, label, field.ranks)
    np.maximum.at(high, label, field.ranks)
    comps = high >= 0
    return sorted(zip(field.order[low[comps]].tolist(),
                      field.order[high[comps]].tolist()))


def _contour_tree_faults(ct, ranks):
    """The contour-tree invariants that fail, each in a few words.

    Tests on arrays: the arcs form a tree on the nodes (the nodes and
    arc ends share one ``critical._components`` label over the vertex
    ids), minima and maxima are leaves (degrees by ``bincount``), and
    every vertex lies within the rank span of the arc it maps to.  An
    arc may own no vertex (two adjacent saddles), so arcs need not
    partition the vertices.
    """
    faults = []
    if len(ct.arcs) != len(ct.nodes) - 1:
        faults.append(f"{len(ct.arcs)} arcs for {len(ct.nodes)} nodes")
    arcs = np.array(ct.arcs, dtype=np.int64).reshape(-1, 2)
    ends = np.concatenate((np.array(ct.nodes, dtype=np.int64), arcs.ravel()))
    label = _components(len(ranks), arcs[:, 0], arcs[:, 1])[ends]
    if not len(label) or (label != label[0]).any():
        faults.append("the arcs do not connect the nodes")
    degree = np.bincount(arcs.ravel(), minlength=len(ranks))
    extrema = [v for v, kind in ct.node_types.items()
               if kind in ("min", "max")]
    if (degree[extrema] != 1).any():
        faults.append("an extremum node is not a leaf")
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

    # the gradient checks read the gradient compliance leaves, but are
    # listed before compliance's results
    grad = build_gradient(tri, field)
    matched = "every interior critical point matched to a star simplex"
    spurious = "no spurious interior critical simplices"
    try:
        report = enforce_compliance(tri, field, grad, cps)
    except DomainTopologyError as exc:
        # a facet with three or more co-facets, which the pseudo-manifold
        # check above already fails; the gradient is left as built
        compliance = [CheckResult(name, True, f"skipped: {exc}")
                      for name in (matched, spurious)]
    else:
        left = sum(len(v) for v in report.spurious.values())
        has_boundary = bool(tri.boundary_facets().any())
        compliance = [
            CheckResult(matched, not report.match_failures,
                        "" if not report.match_failures
                        else f"{len(report.match_failures)} unmatched"),
            # the cancellation guarantee is for closed surfaces;
            # elsewhere the residue is reported but does not fail the
            # suite
            CheckResult(spurious, left == 0 or has_boundary or d == 3,
                        f"{left} left (closed domain: {not has_boundary})"),
        ]
    results.append(CheckResult("gradient pairing valid",
                               pairing_is_valid(grad)))
    results.append(CheckResult("gradient acyclic (exhaustive)",
                               gradient_is_acyclic(grad)))
    results += compliance

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
    oracle_min = sorted(_minimum_pairs(tri, field))
    oracle_max = sorted(_maximum_pairs(tri, field))
    results.append(CheckResult(
        "diagram extremum pairs match a union-find recomputation",
        got_min == oracle_min and got_max == oracle_max))
    ess = sorted((p.birth_vertex, p.death_vertex) for p in diagram.pairs
                 if p.cls == CLASS_ESSENTIAL)
    results.append(CheckResult(
        "essential pair spans the global extrema",
        ess == _component_extrema(tri, field)))

    curve = persistence_curve(diagram)
    counts = [c for _, c in curve]
    results.append(CheckResult(
        "persistence curve is non-increasing",
        all(a >= b for a, b in zip(counts, counts[1:]))))
    return results

"""Merge trees, contour tree, and persistence diagram/curve.

Join (sub-level) and split (sur-level) trees are computed by a
union-find sweep over the total vertex order; the contour tree combines
them by leaf pruning.  Persistence pairs follow the elder rule: when
two components merge, the younger extremum dies at the merge vertex.
In 3D, saddle-saddle pairs are extracted from a discrete gradient by
visiting critical triangles in ascending order and pairing each with
the highest critical edge its saddle-connectors reach an odd number of
times, reversing a connector after each pairing (on a scratch copy).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .gradient import (
    DiscreteGradient,
    _vpath_counts,
    extract_vpath,
    reverse_vpath,
)
from .order import OrderField
from .triangulation import Triangulation


class DomainTopologyError(Exception):
    """The domain is not simply connected; the contour tree is undefined."""


def _check_simply_connected(tri: Triangulation) -> None:
    """Refuse domains whose Euler characteristic betrays a loop.

    A simply connected surface has characteristic 2 (closed) or 1
    (with boundary); a 3D domain with boundary has characteristic 1.
    Closed 3-manifolds all have characteristic 0, where this test is
    uninformative and the pruning stall acts as the only backstop.
    """
    for kind in ("edge_list", "triangle_list"):
        tri.precondition(kind)
    chi = sum(
        (-1) ** k * tri.simplex_count(k) for k in range(tri.dim + 1)
    )
    if tri.dim == 2:
        ok = (1, 2)
    else:
        # closed 3-manifolds always have characteristic 0 (test blind);
        # any 3D domain with boundary must look like a ball
        d = tri.dim
        tri.precondition("boundary_triangles")
        from .triangulation import SimplexRef
        has_boundary = any(
            tri.is_boundary(SimplexRef(d - 1, i))
            for i in range(tri.simplex_count(d - 1))
        )
        ok = (1,) if has_boundary else (0,)
    if chi not in ok:
        raise DomainTopologyError(
            f"domain is not simply connected (Euler characteristic {chi}); "
            "the contour tree is undefined here"
        )


@dataclass
class MergeTree:
    """Augmented merge tree over all vertices.

    ``succ[v]`` is the vertex at which the component headed by ``v``
    was absorbed (the parent toward the root; -1 for the root) and
    ``n_children[v]`` the number of components that merged at ``v``
    (0 for leaves, >= 2 for merge saddles).
    """

    variant: str                 # "join" or "split"
    field: OrderField
    tri: Triangulation
    succ: np.ndarray
    n_children: np.ndarray
    root: int
    leaves: list
    saddles: list                # (vertex, multiplicity = k - 1)


def build_merge_tree(
    tri: Triangulation, field: OrderField, variant: str
) -> MergeTree:
    """Union-find sweep building the join or split tree.

    The join tree sweeps ascending and its leaves are the minima; the
    split tree sweeps descending with leaves at the maxima.
    """
    if variant not in ("join", "split"):
        raise ValueError("variant must be 'join' or 'split'")
    if len(field) != tri.simplex_count(0):
        raise ValueError("field length does not match vertex count")
    tri.precondition("edge_list")
    n = len(field)
    sweep = field.order if variant == "join" else field.order[::-1]
    offsets, ids = tri.neighbor_csr()
    offsets, ids = offsets.tolist(), ids.tolist()
    before = [False] * n
    parent = list(range(n))
    head = list(range(n))        # current head vertex per component root

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    succ = [-1] * n
    n_children = [0] * n
    leaves, saddles = [], []
    for v in sweep.tolist():
        roots = []
        for u in ids[offsets[v]:offsets[v + 1]]:
            if before[u]:
                r = find(u)
                if r not in roots:
                    roots.append(r)
        k = len(roots)
        n_children[v] = k
        if k == 0:
            leaves.append(v)
        elif k >= 2:
            saddles.append((v, k - 1))
        for r in roots:
            succ[head[r]] = v
            parent[r] = v
        head[v] = v
        before[v] = True
    return MergeTree(variant, field, tri, np.array(succ, dtype=np.int64),
                     np.array(n_children, dtype=np.int64), int(sweep[-1]),
                     leaves, saddles)


def persistence_pairs_extrema(tree: MergeTree) -> list:
    """Elder-rule pairs (extremum vertex, merge vertex) from a merge tree.

    At each merge the oldest extremum survives and every other
    component's extremum pairs with the merge vertex, so a saddle
    merging k components emits k-1 pairs and the final survivor stays
    unpaired.
    """
    field = tree.field
    ranks = field.ranks
    ascending = tree.variant == "join"
    children = {}
    for v in range(len(field)):
        s = tree.succ[v]
        if s >= 0:
            children.setdefault(int(s), []).append(v)
    sweep = field.order if ascending else field.order[::-1]
    best = {}                    # head vertex -> surviving extremum
    pairs = []
    for v in sweep:
        v = int(v)
        ch = children.get(v, [])
        if not ch:
            best[v] = v
            continue
        extrema = sorted((best.pop(c) for c in ch), key=lambda x: ranks[x],
                         reverse=not ascending)
        pairs.extend((e, v) for e in extrema[1:])
        best[v] = extrema[0]
    return pairs


# --------------------------------------------------------------------------
# Contour tree
# --------------------------------------------------------------------------


@dataclass
class ContourTree:
    """Reduced contour tree plus per-vertex arc assignment.

    ``nodes`` are vertex ids; ``arcs`` are (lower node, upper node)
    index-free vertex pairs, ordered by (lower rank, upper rank);
    ``vertex_arc[v]`` is the arc index every vertex maps to.
    """

    nodes: list
    node_types: dict             # vertex -> "min"|"max"|"saddle"|"regular"
    arcs: list
    vertex_arc: np.ndarray


def combine_contour_tree(join: MergeTree, split: MergeTree) -> ContourTree:
    """Leaf-pruning combination of the join and split trees.

    Raises DomainTopologyError when the domain is not simply connected,
    detected through the Euler characteristic (2 for a closed surface,
    1 for a domain with boundary) or, as a backstop, a pruning stall.
    """
    _check_simply_connected(join.tri)
    field = join.field
    n = len(field)
    ranks = field.ranks
    jup = join.succ.copy()
    sdown = split.succ.copy()
    jd = join.n_children.copy()
    sd = split.n_children.copy()
    jch = [set() for _ in range(n)]
    sch = [set() for _ in range(n)]
    for v in range(n):
        if jup[v] >= 0:
            jch[jup[v]].add(v)
        if sdown[v] >= 0:
            sch[sdown[v]].add(v)
    removed = np.zeros(n, dtype=bool)
    alive = n
    up_arcs = [[] for _ in range(n)]     # arcs (v, w) stored at v
    down_arcs = [[] for _ in range(n)]

    def is_lower_leaf(x):
        return jd[x] == 0 and sd[x] <= 1 and jup[x] >= 0

    def is_upper_leaf(x):
        return sd[x] == 0 and jd[x] <= 1 and sdown[x] >= 0

    queue = deque(
        x for x in map(int, field.order)
        if is_lower_leaf(x) or is_upper_leaf(x)
    )
    while queue and alive > 1:
        x = queue.popleft()
        if removed[x]:
            continue
        if is_lower_leaf(x):
            y = int(jup[x])
            up_arcs[x].append(y)
            down_arcs[y].append(x)
            jch[y].discard(x)
            jd[y] -= 1
            z = int(sdown[x])
            if sd[x] == 1:
                (c,) = sch[x]
                sdown[c] = z
                if z >= 0:
                    sch[z].discard(x)
                    sch[z].add(c)
                queue.append(int(c))
            elif z >= 0:
                sch[z].discard(x)
                sd[z] -= 1
            touched = (y, z) if z >= 0 else (y,)
        elif is_upper_leaf(x):
            y = int(sdown[x])
            down_arcs[x].append(y)
            up_arcs[y].append(x)
            sch[y].discard(x)
            sd[y] -= 1
            z = int(jup[x])
            if jd[x] == 1:
                (c,) = jch[x]
                jup[c] = z
                if z >= 0:
                    jch[z].discard(x)
                    jch[z].add(c)
                queue.append(int(c))
            elif z >= 0:
                jch[z].discard(x)
                jd[z] -= 1
            touched = (y, z) if z >= 0 else (y,)
        else:
            continue
        removed[x] = True
        alive -= 1
        for t in touched:
            if not removed[t] and (is_lower_leaf(t) or is_upper_leaf(t)):
                queue.append(int(t))
    if alive > 1:
        raise DomainTopologyError(
            "contour tree combination stalled: the domain is not simply "
            "connected (a sub-level and sur-level component pair meets "
            "more than once)"
        )

    # up_arcs/down_arcs describe the augmented tree; reduce regular chains
    up_deg = np.array([len(a) for a in up_arcs])
    down_deg = np.array([len(a) for a in down_arcs])
    is_node = (up_deg != 1) | (down_deg != 1)
    node_list = sorted(np.nonzero(is_node)[0], key=lambda v: ranks[v])
    node_types = {}
    for v in node_list:
        v = int(v)
        if down_deg[v] == 0:
            node_types[v] = "min"
        elif up_deg[v] == 0:
            node_types[v] = "max"
        else:
            node_types[v] = "saddle"
    arcs = []
    vertex_arc = np.full(n, -1, dtype=np.int64)
    for v in node_list:
        for w in up_arcs[int(v)]:
            interior = []
            while not is_node[w]:
                interior.append(int(w))
                w = up_arcs[int(w)][0]
            arcs.append((int(v), int(w), interior))
    arcs.sort(key=lambda a: (ranks[a[0]], ranks[a[1]]))
    for i, (lo, hi, interior) in enumerate(arcs):
        for v in interior:
            vertex_arc[v] = i
    # nodes map to their lowest incident arc (by arc index)
    for i, (lo, hi, _) in enumerate(arcs):
        for v in (lo, hi):
            if vertex_arc[v] < 0:
                vertex_arc[v] = i
    arcs = [(lo, hi) for lo, hi, _ in arcs]
    return ContourTree([int(v) for v in node_list], node_types, arcs,
                       vertex_arc)


# --------------------------------------------------------------------------
# Persistence diagram and curve
# --------------------------------------------------------------------------

#: pair class ranks, used for deterministic diagram ordering
CLASS_MIN_SADDLE = 0
CLASS_SADDLE_SADDLE = 1
CLASS_SADDLE_MAX = 2
CLASS_ESSENTIAL = 3


@dataclass(frozen=True)
class PersistencePair:
    birth_vertex: int
    death_vertex: int
    birth_value: float
    death_value: float
    cls: int

    @property
    def persistence(self) -> float:
        return self.death_value - self.birth_value

    def class_label(self, dim: int) -> str:
        if self.cls == CLASS_ESSENTIAL:
            return "essential"
        if self.cls == CLASS_MIN_SADDLE:
            return "0-1"
        if self.cls == CLASS_SADDLE_SADDLE:
            return "1-2"
        return f"{dim - 1}-{dim}"


@dataclass
class PersistenceDiagram:
    pairs: list
    dim: int
    unpaired_saddles: list = dc_field(default_factory=list)
    missing_saddle_pairs: bool = False


def _saddle_saddle_pairs(grad: DiscreteGradient) -> tuple:
    """(1,2) pairs from a 3D gradient, plus the 2-saddles left unpaired.

    Critical triangles are visited in ascending filtration order; each
    pairs with the highest critical edge reached by an odd number of
    saddle-connectors, after which one connector is reversed on the
    scratch gradient so later visits see the updated connectivity.
    """
    field = grad.field
    scratch = grad.copy()
    key = field.simplex_key
    edges = {e: key(grad.verts[1][e]) for e in grad.critical_ids(1)}
    taus = sorted(grad.critical_ids(2), key=lambda t: key(grad.verts[2][t]))
    unpaired = set(edges)
    pairs, leftover = [], []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100000))
    try:
        for tau in taus:
            memo = {}
            counts = _vpath_counts(scratch, 1, tau, unpaired, memo)
            cands = [e for e, c in counts.items() if c % 2 == 1]
            if not cands:
                leftover.append(tau)
                continue
            e = max(cands, key=lambda e: edges[e])
            path = extract_vpath(scratch, 1, tau, e)
            reverse_vpath(scratch, path)
            unpaired.discard(e)
            pairs.append((e, tau))
    finally:
        sys.setrecursionlimit(limit)
    return pairs, leftover


def build_diagram(
    tri: Triangulation,
    field: OrderField,
    grad: DiscreteGradient | None = None,
) -> PersistenceDiagram:
    """Persistence diagram of the field.

    Minimum/saddle pairs come from the join tree, saddle/maximum pairs
    from the split tree, plus the essential (global minimum, global
    maximum) pair.  On 3D domains a discrete gradient is needed for the
    (1,2) pairs; without one the diagram is emitted with
    ``missing_saddle_pairs`` set.
    """
    join = build_merge_tree(tri, field, "join")
    split = build_merge_tree(tri, field, "split")
    values = field.values
    pairs = []
    for b, d in persistence_pairs_extrema(join):
        pairs.append(PersistencePair(b, d, float(values[b]),
                                     float(values[d]), CLASS_MIN_SADDLE))
    for d, b in persistence_pairs_extrema(split):
        pairs.append(PersistencePair(b, d, float(values[b]),
                                     float(values[d]), CLASS_SADDLE_MAX))
    gmin = int(field.order[0])
    gmax = int(field.order[-1])
    pairs.append(PersistencePair(gmin, gmax, float(values[gmin]),
                                 float(values[gmax]), CLASS_ESSENTIAL))
    diagram = PersistenceDiagram([], tri.dim)
    if tri.dim == 3:
        if grad is None:
            diagram.missing_saddle_pairs = True
        else:
            ss, leftover = _saddle_saddle_pairs(grad)
            for e, t in ss:
                b = grad.max_vertex(1, e)
                d = grad.max_vertex(2, t)
                if b == d:
                    continue        # diagonal point, zero persistence
                pairs.append(PersistencePair(
                    b, d, float(values[b]), float(values[d]),
                    CLASS_SADDLE_SADDLE))
            diagram.unpaired_saddles = leftover
    pairs.sort(key=lambda p: (p.cls, p.birth_value, p.birth_vertex))
    diagram.pairs = pairs
    return diagram


def persistence_curve(diagram: PersistenceDiagram) -> list:
    """(threshold, pairs with persistence >= threshold), ascending.

    One sorted sweep: the count at ``t`` is the number of persistences
    from ``t``'s insertion point on.  A NaN persistence is never >= a
    threshold, so it is left out of the sweep.
    """
    pers = sorted(x for x in (p.persistence for p in diagram.pairs)
                  if x == x)
    thresholds = [0.0] + [t for t in sorted(set(pers)) if t > 0.0]
    return [(t, len(pers) - bisect_left(pers, t)) for t in thresholds]

"""Merge trees, contour tree, and persistence diagram/curve.

Join (sub-level) and split (sur-level) trees are built from arrays,
after the monotone paths and pointer doubling of Carr, Weber, Sewell &
Ahrens (IEEE LDAV 2016).  Every vertex points to its lowest lower
neighbour, and pointer doubling labels it with the minimum its steepest
descent ends at, its region.  A descent path stays below the vertex it
starts from, so at every level each vertex of the sub-level set is
joined inside it to its region's minimum: the sub-level components are
unions of regions.  Regions are then joined in one sweep, at the
vertices whose lower link is split, read from the link components that
the critical points use (``critical.link_components``).  Each component
of such a link gives one representative, the other end of its root
half-edge, and the sweep joins the regions of the representatives and
of the vertex.  This is exact: a lower-link component is connected
below its vertex, so it lies in one sub-level component.  A vertex with
a connected lower link therefore joins one component and merges none,
and at a split link the components that meet are those of the
representatives (the vertex's own region lies in one of them, since
its steepest descent starts in its lower link).  A representative in
the vertex's own region joins nothing and is dropped before the sweep.
The same sweep records the elder-rule persistence pairs: when
components merge, the oldest extremum survives and each younger one
dies at the merge vertex.  The split tree is the same construction
on the reversed order, with upper links.  The contour tree combines
the two trees by leaf pruning (Carr, Snoeyink & Axen, CGTA 24(2),
2003) in batched rounds on arrays, after the same LDAV paper: each
round prunes every lower (then every upper) leaf at once, extends each
up its chain of one-child vertices and splices the pruned chains out of
the other tree, all by pointer doubling.  Round pairs run while each
leaves at most half the tree nodes (vertices with other than one child
in either tree) it started with, so at most log2(nodes) + 1 of them
run.  Zigzag trees lose only a few nodes per pair; the first pair that
does not halve them leaves the rest to be pruned one leaf at a time
from a queue.  A vertex that is an extremum of one tree and a merge of
the other (the shared vertex of a bowtie) has no place in a contour
tree, which is refused.
In 3D, saddle-saddle pairs come from the field's stored lower-star
gradient (``gradient._lower_star_gradient``), which nothing edits, by
one GF(2) reduction of its Morse complex (Guillou, Vidal & Tierny,
"Discrete Morse Sandwich", arXiv:2206.13932): the boundary of a
critical triangle is the set of critical edges that an odd number of
its descending V-paths reach, and the triangles, in ascending order,
are reduced by their highest edge.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .critical import _link_counts, link_components
from .gradient import (
    DiscreteGradient,
    _critical_by_key,
    _lower_star_gradient,
    _vpath_counts,
)
from .order import OrderField, _find, _pointer_jump, stored
from .triangulation import DomainTopologyError, Triangulation

log = logging.getLogger(__name__)


def _check_simply_connected(tri: Triangulation) -> None:
    """Refuse domains whose Euler characteristic betrays a loop or a
    second component.

    A domain with boundary must look like a disc or a ball,
    characteristic 1; a closed surface like a sphere, 2.  Closed
    3-manifolds all have characteristic 0, where this test is
    uninformative and the pruning stall acts as the only backstop.
    """
    chi = sum(
        (-1) ** k * tri.simplex_count(k) for k in range(tri.dim + 1)
    )
    ok = 1 if tri.boundary_facets().any() else (2 if tri.dim == 2 else 0)
    if chi != ok:
        raise DomainTopologyError(
            f"domain is not simply connected (Euler characteristic {chi}); "
            "the contour tree is undefined here"
        )


def _check_link_extrema(tri: Triangulation, field: OrderField) -> None:
    """Refuse a vertex that is an extremum on one side of its link and a
    saddle on the other: an empty lower link with a split upper link, or
    the mirror case.  Its node would be a leaf of one merge tree and a
    merge of the other, which no contour tree holds.  This cannot happen
    on a manifold, whose vertex links are connected; on a bowtie it does.
    """
    n_lower, n_upper = _link_counts(tri, field)
    bad = np.flatnonzero(((n_lower == 0) & (n_upper >= 2))
                         | ((n_upper == 0) & (n_lower >= 2)))
    if len(bad):
        raise DomainTopologyError(
            f"vertex {bad[0]} is both an extremum and a saddle (its link "
            "is disconnected); the contour tree is undefined here"
        )


@dataclass
class MergeTree:
    """Augmented merge tree over all vertices.

    ``succ[v]`` is the vertex at which the component headed by ``v``
    was absorbed (the parent toward the root; -1 for the root) and
    ``n_children[v]`` the number of components that merged at ``v``
    (0 for leaves, >= 2 for merge saddles).  ``pairs`` lists the
    elder-rule (extremum, merge vertex) pairs in sweep order, the
    extrema of one merge from oldest to youngest.  The field's store
    shares one tree among all callers: ``succ`` and ``n_children`` are
    read-only, and ``leaves``, ``saddles`` and ``pairs`` are tuples.
    """

    variant: str                 # "join" or "split"
    field: OrderField
    tri: Triangulation
    succ: np.ndarray
    n_children: np.ndarray
    root: int
    leaves: tuple
    saddles: tuple               # (vertex, multiplicity = k - 1)
    pairs: tuple                 # (extremum, merge vertex)


@stored
def build_merge_tree(
    tri: Triangulation, field: OrderField, variant: str
) -> MergeTree:
    """The join or split tree, from steepest-descent regions.

    Built once per field, triangulation and variant, and kept in the
    field's store, which refuses a field of the wrong length; later
    calls return the same tree.

    The join tree's leaves are the minima; the split tree is the same
    construction on the reversed order, with leaves at the maxima.

    1. Every vertex points to its lowest lower neighbour (a vertex with
       none is a leaf), and pointer doubling labels it with the leaf its
       steepest descent ends at, its region.
    2. Every vertex whose lower link has k >= 2 components (see
       ``critical.link_components``) gets one representative per
       component, the other end of the component's root half-edge; a
       representative in the vertex's own region is dropped.
    3. A union-find over regions (``order._find``) runs over the
       representatives, grouped by vertex in sweep order.  A vertex
       whose own region and representatives meet k >= 2 components is a
       saddle.  Region ids ascend with age and each merge links under
       the smallest root, so a component's root is its oldest extremum:
       that one survives, and the others pair with the merge vertex,
       from oldest to youngest.
    4. The leaves and saddles form a merge forest.  A vertex's node is
       the highest forest ancestor of its region's leaf that is not
       above the vertex, found by binary lifting; its ``succ`` is the
       next vertex of that node, or after the last one the saddle the
       node merges into (-1 at a root).

    Python loops only over the representatives; the rest is numpy.
    """
    if variant not in ("join", "split"):
        raise ValueError("variant must be 'join' or 'split'")
    n = len(field)
    join = variant == "join"
    if join:
        sweep, rank = field.order, field.ranks
    else:
        sweep, rank = field.order[::-1], n - 1 - field.ranks
    ends = tri.simplex_array(1)
    a, b = ends.T
    a_high = rank[a] > rank[b]
    high, low = np.where(a_high, a, b), np.where(a_high, b, a)

    # steepest descent, then each vertex's region minimum
    below = np.full(n, n, dtype=np.int64)
    np.minimum.at(below, high, rank[low])
    is_leaf = below == n
    label = np.arange(n, dtype=np.int64)
    label[~is_leaf] = sweep[below[~is_leaf]]
    leaves = sweep[is_leaf[sweep]]
    region = np.full(n, -1, dtype=np.int64)
    region[leaves] = np.arange(len(leaves))   # ascending age
    region = region[_pointer_jump(label)]

    # a representative per component of a split lower link (the upper
    # link, in the split tree's reversed order), by region
    lower, link_roots = link_components(tri, field)
    half = ends.ravel()
    h = link_roots[lower[link_roots] == join]
    at = half[h]
    r_at, r_rep = region[at], region[half[h ^ 1]]
    keep = np.flatnonzero((np.bincount(at, minlength=n)[at] >= 2)
                          & (r_at != r_rep))
    keep = keep[np.argsort(rank[at[keep]])]
    at, r_at, r_rep = at[keep], r_at[keep], r_rep[keep]

    # union-find over regions by age; forest nodes are the leaves, then
    # saddles
    leaves = leaves.tolist()
    node_vertex = list(leaves)
    parent = list(range(len(leaves)))
    head = list(range(len(leaves)))     # current node of each root
    saddles, pairs, below_node, above_node = [], [], [], []
    ends_group = np.append(at[1:] != at[:-1], True)
    roots = []
    for v, rv, rr, last in zip(at.tolist(), r_at.tolist(), r_rep.tolist(),
                               ends_group.tolist()):
        if not roots:
            roots.append(_find(parent, rv))
        r = _find(parent, rr)
        if r not in roots:
            roots.append(r)
        if not last:
            continue            # more components of v's link to come
        if len(roots) > 1:
            node = len(node_vertex)
            node_vertex.append(v)
            saddles.append((v, len(roots) - 1))
            elder, *younger = sorted(roots)
            pairs.extend((leaves[r], v) for r in younger)
            for r in roots:
                below_node.append(head[r])
                above_node.append(node)
                parent[r] = elder
            head[elder] = node
        roots = []

    # component node of every vertex by binary lifting up the forest
    node_vertex = np.array(node_vertex, dtype=np.int64)
    node_rank = rank[node_vertex]
    up = np.arange(len(node_vertex), dtype=np.int64)
    up[below_node] = above_node
    jumps = [up]
    while True:
        nxt = jumps[-1][jumps[-1]]
        if (nxt == jumps[-1]).all():
            break
        jumps.append(nxt)
    comp = region
    for jump in reversed(jumps):
        cand = jump[comp]
        comp = np.where(node_rank[cand] <= rank, cand, comp)

    # succ: the next vertex of the same node, else the node's parent
    by_node = np.argsort(comp * n + rank)
    same = comp[by_node[1:]] == comp[by_node[:-1]]
    succ = np.empty(n, dtype=np.int64)
    succ[by_node[:-1]] = np.where(same, by_node[1:], -1)
    tail = by_node[np.append(~same, True)]
    top = up[comp[tail]]
    succ[tail] = np.where(top == comp[tail], -1, node_vertex[top])
    n_children = np.ones(n, dtype=np.int64)
    n_children[is_leaf] = 0
    if saddles:
        v, k = np.array(saddles, dtype=np.int64).T
        n_children[v] = k + 1
    succ.flags.writeable = n_children.flags.writeable = False
    return MergeTree(variant, field, tri, succ, n_children, int(sweep[-1]),
                     tuple(leaves), tuple(saddles), tuple(pairs))


def persistence_pairs_extrema(tree: MergeTree) -> list:
    """Elder-rule pairs (extremum vertex, merge vertex) of a merge tree.

    At each merge the oldest extremum survives and every other
    component's extremum pairs with the merge vertex, so a saddle
    merging k components emits k-1 pairs and the final survivor stays
    unpaired.  The pairs are the ones the tree's sweep recorded, in
    sweep order and from oldest to youngest within one merge.
    """
    return list(tree.pairs)


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
    node_types: dict             # vertex -> "min"|"max"|"saddle"
    arcs: list
    vertex_arc: np.ndarray


def _chain_last(first, pos):
    """Pointer doubling along chains through a vertex set.

    ``pos[v]`` is ``v``'s index in the set, -1 outside it (``pos[-1]``
    must be -1 so that -1 passes as a vertex outside it), and
    ``first[k]`` the vertex after the set's k-th one on its chain.
    Returns for every member the index of the last member on its
    chain, whose ``first`` is the chain's first vertex outside the set.
    """
    step = pos[first]
    last = step < 0
    step[last] = np.flatnonzero(last)
    return _pointer_jump(step)


def _prune_round(a, succ, n_ch, ids, lo, hi, pos):
    """Prune every current leaf of tree ``a`` (0 lower, 1 upper) at once.

    A leaf is a vertex with no child in tree ``a``, a successor there,
    and at most one child in the other tree ``b``.  Pruning one leaves
    the others leaves, and a vertex whose one child in ``a`` is pruned
    becomes one if it has at most one child in ``b``, so each leaf is
    extended up its chain of such vertices.  Every pruned vertex records
    its augmented arc to its successor in ``a``; in ``b`` the pruned
    vertices form chains, each spliced out by linking its one outside
    child, if any, to the chain's first ancestor outside it.  ``pos`` is
    scratch space, -1 everywhere on entry and on return, so that a round
    costs time in the vertices ``ids`` alive only.  Returns the
    vertices still alive.
    """
    b = 1 - a
    sa, sb, na, nb = succ[a], succ[b], n_ch[a], n_ch[b]
    up = sa[ids]
    ok = (up >= 0) & (nb[ids] <= 1)
    kids = na[ids]
    leaf = ids[ok & (kids == 0)]
    chain = ids[ok & (kids == 1)]
    pos[chain] = np.arange(len(chain))
    below = ids[pos[up] >= 0]            # the one child of each chain vertex
    first = np.empty(len(chain), dtype=np.int64)
    first[pos[sa[below]]] = below
    ends = first[_chain_last(first, pos)]
    pos[chain] = -1
    pos[leaf] = 0                        # marks the leaves a chain may end at
    p = np.concatenate([leaf, chain[pos[ends] == 0]])
    pos[leaf] = -1

    y = sa[p]
    lo[p], hi[p] = (p, y) if a == 0 else (y, p)
    np.subtract.at(na, y, 1)
    pos[p] = np.arange(len(p))
    first = sb[p]
    top = first[_chain_last(first, pos)]
    gone = pos[ids] >= 0
    hang = ids[~gone & (pos[sb[ids]] >= 0)]
    sb[hang] = top[pos[sb[hang]]]
    pos[p] = -1
    np.subtract.at(nb, top[nb[p] == 0], 1)   # top -1 hits the spare slot
    return ids[~gone]


def _prune_queue(succ, n_ch, ids, ranks, lo, hi):
    """Prune the vertices ``ids`` left alive one leaf at a time.

    Runs on Python lists over ``ids`` renumbered from 0, so its set-up
    is O(len(ids)) in Python however large the field.  Every vertex
    alive waits in a queue, in ascending order; one that is a leaf
    when it leaves the queue is pruned, and queues the neighbours it
    may have turned into leaves.  Each tree keeps per-vertex child
    counts and child-id sums, so a vertex with one child left names it
    by its sum.
    """
    m = len(ids)
    new = np.full(len(succ[0]), -1, dtype=np.int64)
    new[ids] = np.arange(m)
    # a root's -1 reads new's spare slot, still -1, and then adds into
    # the sums' own spare slot
    succ = [new[s[ids]] for s in succ]
    ch_sum = []
    for s in succ:
        sums = np.zeros(m + 1, dtype=np.int64)
        np.add.at(sums, s, np.arange(m))
        ch_sum.append(sums.tolist())
    succ = [s.tolist() for s in succ]
    n_ch = [c[ids].tolist() for c in n_ch]
    x_lo, x_hi = [-1] * m, [-1] * m     # the arc of each vertex pruned
    queue = deque(np.argsort(ranks[ids]).tolist())
    alive = m

    def leaf_kind(x):
        """0 for a lower leaf, 1 for an upper leaf, else None."""
        for a in (0, 1):
            if n_ch[a][x] == 0 and n_ch[1 - a][x] <= 1 and succ[a][x] >= 0:
                return a
        return None

    while queue and alive > 1:
        x = queue.popleft()
        a = None if x_lo[x] >= 0 else leaf_kind(x)
        if a is None:
            continue
        b = 1 - a
        # x leaves tree a, whose edge to y becomes an arc ...
        y = succ[a][x]
        x_lo[x], x_hi[x] = (x, y) if a == 0 else (y, x)
        n_ch[a][y] -= 1
        ch_sum[a][y] -= x
        # ... and is spliced out of tree b
        z = succ[b][x]
        if n_ch[b][x] == 1:
            c = ch_sum[b][x]
            succ[b][c] = z
            if z >= 0:
                ch_sum[b][z] += c - x
            queue.append(c)
        elif z >= 0:
            n_ch[b][z] -= 1
            ch_sum[b][z] -= x
        alive -= 1
        for t in (y, z):
            if t >= 0 and x_lo[t] < 0 and leaf_kind(t) is not None:
                queue.append(t)
    if alive > 1:
        raise DomainTopologyError(
            "contour tree combination stalled: the domain is not simply "
            "connected (a sub-level and sur-level component pair meets "
            "more than once)"
        )
    x_lo, x_hi = np.array(x_lo), np.array(x_hi)
    done = x_lo >= 0
    lo[ids[done]], hi[ids[done]] = ids[x_lo[done]], ids[x_hi[done]]


def combine_contour_tree(join: MergeTree, split: MergeTree) -> ContourTree:
    """Leaf-pruning combination of the join and split trees.

    A lower leaf (a join-tree leaf with at most one split-tree child)
    is pruned into an augmented arc to its join-tree successor and
    spliced out of the split tree; an upper leaf is the mirror case.
    Rounds prune every lower leaf at once, then every upper leaf, each
    by pointer doubling (``_prune_round``).  A tree node is a vertex
    with other than one child in either tree.  Round pairs run while
    each leaves at most half the nodes alive before it, so at most
    log2(nodes) + 1 pairs run, each O(alive).  The first pair that does
    not halve them, as on zigzag trees, which lose only a few nodes per
    pair, hands the rest to the one-leaf-at-a-time queue
    (``_prune_queue``), which also refuses a stall.  The queue stays
    for those inputs only: zigzag strips, on which rounds alone would
    scan every vertex alive to prune a few nodes, and domains that
    stall; the grid and sphere fields tried all finish in the rounds.
    The regular chains of the augmented tree are then reduced to arcs
    between nodes by pointer doubling, and arcs sorted by their (lower,
    upper) ranks.

    Raises DomainTopologyError when the domain is not simply connected,
    detected through the Euler characteristic (2 for a closed surface,
    1 for a domain with boundary) or, as a backstop, a pruning stall,
    and when a vertex is both an extremum and a saddle.
    """
    _check_simply_connected(join.tri)
    field = join.field
    _check_link_extrema(join.tri, field)
    n = len(field)
    ranks = field.ranks
    # index 0 is the join tree (succ points up), 1 the split tree; a
    # spare last slot lets -1 index a vertex that is never read
    succ = [np.append(t.succ, -1) for t in (join, split)]
    n_ch = [np.append(t.n_children, 0) for t in (join, split)]
    lo = np.full(n, -1, dtype=np.int64)     # augmented arc of each pruned x
    hi = np.full(n, -1, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)      # vertices alive
    pos = np.full(n + 1, -1, dtype=np.int64)
    rounds, start = 0, np.inf       # tree nodes alive before a pair
    while len(ids) > 1:
        nodes = np.count_nonzero((n_ch[0][ids] != 1) | (n_ch[1][ids] != 1))
        if 2 * nodes > start:
            break
        start = nodes
        for a in (0, 1):
            ids = _prune_round(a, succ, n_ch, ids, lo, hi, pos)
        rounds += 2
    left = len(ids) if len(ids) > 1 else 0
    log.debug("contour tree: %d vertices, %d batched rounds, "
              "%d vertices left to the sequential queue", n, rounds, left)
    if left:
        _prune_queue(succ, n_ch, ids, ranks, lo, hi)

    # (lo, hi) is the augmented tree; reduce its regular chains
    done = lo >= 0
    lo, hi = lo[done], hi[done]
    up_deg = np.bincount(lo, minlength=n)
    down_deg = np.bincount(hi, minlength=n)
    is_node = (up_deg != 1) | (down_deg != 1)
    reg = np.flatnonzero(~is_node)
    pos[reg] = np.arange(len(reg))
    up = np.empty(n, dtype=np.int64)
    down = np.empty(n, dtype=np.int64)
    up[lo], down[hi] = hi, lo    # read only at regular vertices
    top = np.arange(n)
    first = up[reg]
    top[reg] = first[_chain_last(first, pos)]
    # an arc starts with the augmented arc above its lower node, so the
    # lowest regular vertex of each chain names its arc
    start = is_node[lo]
    arc_lo, arc_hi, arc_first = lo[start], top[hi[start]], hi[start]
    order = np.argsort(ranks[arc_lo] * n + ranks[arc_hi])
    arc_lo, arc_hi = arc_lo[order], arc_hi[order]
    arc_of = np.empty(n, dtype=np.int64)
    arc_of[arc_first[order]] = np.arange(len(order))
    vertex_arc = np.full(n, len(order), dtype=np.int64)
    vertex_arc[reg] = arc_of[reg[_chain_last(down[reg], pos)]]
    # nodes map to their lowest incident arc (by arc index)
    np.minimum.at(vertex_arc, np.stack([arc_lo, arc_hi], axis=1),
                  np.arange(len(order))[:, None])
    nodes = np.flatnonzero(is_node)
    nodes = nodes[np.argsort(ranks[nodes])]
    types = np.full(len(nodes), "saddle", dtype=object)
    types[up_deg[nodes] == 0] = "max"
    types[down_deg[nodes] == 0] = "min"
    nodes = nodes.tolist()
    node_types = dict(zip(nodes, types.tolist()))
    return ContourTree(nodes, node_types,
                       list(zip(arc_lo.tolist(), arc_hi.tolist())),
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
    missing_saddle_pairs: bool = False


def _saddle_saddle_pairs(raw: DiscreteGradient) -> list:
    """(1,2) pairs of a 3D gradient, as the highest vertices of their
    edge and triangle.

    A GF(2) column reduction of the Morse complex, which reads the
    gradient and writes nothing.  A critical triangle's column is the
    set of critical edges reached by an odd number of its descending
    V-paths, counted by ``_vpath_counts`` with one memo for all
    triangles.  Columns are taken in ascending simplex key order
    (``_critical_by_key``, whose key rows also give the highest
    vertices) and reduced by their highest edge: a column that ends
    non-empty pairs with that edge, an empty one leaves its triangle
    unpaired.
    """
    dims, sids, keys = _critical_by_key(raw)
    top = raw.field.order[keys[:, -1]]
    edges, taus = (sids[dims == k].tolist() for k in (1, 2))
    edge_tops, tau_tops = (top[dims == k].tolist() for k in (1, 2))
    height = {e: i for i, e in enumerate(edges)}
    memo, reduced, pairs = {}, {}, []
    for tau, tau_top in zip(taus, tau_tops):
        col = {height[e] for e, c in
               _vpath_counts(raw, 1, tau, height, memo).items() if c % 2}
        while col and max(col) in reduced:
            col ^= reduced[max(col)]
        if col:
            reduced[max(col)] = col
            pairs.append((edge_tops[max(col)], tau_top))
    return pairs


def build_diagram(
    tri: Triangulation,
    field: OrderField,
    grad: DiscreteGradient | None = None,
) -> PersistenceDiagram:
    """Persistence diagram of the field.

    Minimum/saddle pairs come from the join tree, saddle/maximum pairs
    from the split tree, plus one essential (lowest vertex, highest
    vertex) pair per connected component.  On 3D domains a gradient
    passed as ``grad`` asks for the (1,2) pairs too.  They are read
    from the field's stored lower-star gradient, never from ``grad``'s
    own pairing, which compliance may have cancelled; without ``grad``
    the diagram is emitted with ``missing_saddle_pairs`` set.  Every
    class gives (birth vertex, death vertex, class) rows, which become
    pairs in one place, sorted by class, birth value and birth vertex.
    """
    join_tree = build_merge_tree(tri, field, "join")
    split_tree = build_merge_tree(tri, field, "split")
    join = persistence_pairs_extrema(join_tree)
    split = persistence_pairs_extrema(split_tree)
    # each component keeps one minimum unpaired, so one join-tree root
    # means a connected domain, which skips the pointer jump over every
    # vertex below
    if len(join_tree.leaves) - len(join) == 1:
        essential = [(int(field.order[0]), int(field.order[-1]))]
    else:
        # a split-tree root is its component's lowest vertex, and the
        # join-tree root above it the component's highest
        lows = np.flatnonzero(split_tree.succ < 0)
        up = np.where(join_tree.succ < 0, np.arange(len(field)),
                      join_tree.succ)
        essential = zip(lows.tolist(), _pointer_jump(up)[lows].tolist())
    saddles = (_saddle_saddle_pairs(_lower_star_gradient(tri, field))
               if tri.dim == 3 and grad is not None else [])
    # rows are generated, not listed: a list of a tuple per pair slows
    # a large diagram, mostly in garbage collection
    rows = chain(((b, d, CLASS_MIN_SADDLE) for b, d in join),
                 ((b, d, CLASS_SADDLE_MAX) for d, b in split),
                 ((b, d, CLASS_ESSENTIAL) for b, d in essential),
                 # a diagonal point, of zero persistence, is left out
                 ((b, d, CLASS_SADDLE_SADDLE) for b, d in saddles if b != d))
    values = field.values
    pairs = [PersistencePair(b, d, float(values[b]), float(values[d]), cls)
             for b, d, cls in rows]
    pairs.sort(key=lambda p: (p.cls, p.birth_value, p.birth_vertex))
    return PersistenceDiagram(pairs, tri.dim, tri.dim == 3 and grad is None)


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

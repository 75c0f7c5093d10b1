"""Independent reference implementations used to validate the library.

Everything here recomputes results from first principles with
deliberately simple (slow) algorithms: elder-rule pairing by direct
union-find sweeps, augmented merge trees by a union-find sweep over
every vertex and neighbour, the contour tree by pruning one leaf at
a time from a queue, persistent homology by full GF(2)
boundary-matrix reduction, V-path acyclicity by explicit graph search,
V-path counts and the first descending V-path by plain recursion over
``tri.faces`` queries,
Morse-Smale segmentations by walking every simplex's V-path,
separatrices by one walk per critical simplex, the
deterministic V-paths out of an edge or facet by co-face queries,
level-set components by union-find over crossing edges, a triangulation
comparator keyed on vertex tuples rather than ids, vertex links by a
star walk, PL critical points by a union-find over each vertex's link,
grid edge classes by decoding edge ids, the steepest co-face gradient
by a per-simplex co-face scan and by an array kernel (the gradient the
heavy-cancellation compliance tests start from), the lower-star
gradient by a per-vertex ProcessLowerStars with two heaps, the
compliance matching's candidates by per-vertex star queries, its size
by Kuhn's search over those stars, and
compliance by a full rescan and sort of every arc after each
cancellation, alternating the saddle/maximum and saddle/saddle passes
until neither cancels anything, and the separatrix OBJ bytes by a
writer that formats the points of many separatrices in one `%` call
and cuts the text back per object, and the critical-points CSV bytes
by one ``vertex_point`` query per point.
"""

import heapq
import sys
from collections import deque
from itertools import combinations

import numpy as np

from sftopo import ContourTree, DiscreteGradient, DomainTopologyError, \
    MergeTree, PLCriticalPoint, SimplexRef, compliance, \
    extract_critical_points
from sftopo.gradient import VPath, _vpath_counts, reverse_vpath
from sftopo.morse import Separatrix
from sftopo.trees import _check_simply_connected


# --------------------------------------------------------------------------
# Simplex order, one simplex at a time
# --------------------------------------------------------------------------


def simplex_key(field, verts):
    """The vertex ranks of a simplex, sorted descending.  Compared as
    tuples, these keys are the simplex order of the lower-star gradient:
    a face, a prefix of its co-face's key, comes first."""
    return tuple(sorted((int(field.ranks[v]) for v in verts), reverse=True))


def top_vertex(field, verts):
    """The highest vertex of a simplex in the field's order."""
    return int(max(verts, key=lambda v: field.ranks[v]))


# --------------------------------------------------------------------------
# Triangulation equivalence
# --------------------------------------------------------------------------


def simplex_table(tri, dim):
    """id -> ascending vertex tuple for every dim-simplex."""
    return {i: tuple(tri.simplex_vertices(SimplexRef(dim, i)))
            for i in range(tri.simplex_count(dim))}


def assert_equivalent(ta, tb):
    """Both triangulations answer every query identically, compared
    through vertex tuples so ids are free to differ."""
    assert ta.dim == tb.dim
    d = ta.dim
    tables_a = {k: simplex_table(ta, k) for k in range(d + 1)}
    tables_b = {k: simplex_table(tb, k) for k in range(d + 1)}
    ids_b = {k: {v: i for i, v in tables_b[k].items()} for k in range(d + 1)}
    for k in range(d + 1):
        assert ta.simplex_count(k) == tb.simplex_count(k), f"count dim {k}"
        assert set(tables_a[k].values()) == set(tables_b[k].values()), \
            f"simplex sets differ in dim {k}"
    for k in range(d + 1):
        for i, verts in tables_a[k].items():
            sa = SimplexRef(k, i)
            sb = SimplexRef(k, ids_b[k][verts])
            assert ta.is_boundary(sa) == tb.is_boundary(sb), \
                f"boundary flag differs for {verts}"
            for kk in range(k):
                fa = {tables_a[kk][f] for f in ta.faces(sa, kk)}
                fb = {tables_b[kk][f] for f in tb.faces(sb, kk)}
                assert fa == fb, f"faces({verts}, {kk})"
            for ll in range(k + 1, d + 1):
                ca = {tables_a[ll][c] for c in ta.cofaces(sa, ll)}
                cb = {tables_b[ll][c] for c in tb.cofaces(sb, ll)}
                assert ca == cb, f"cofaces({verts}, {ll})"


def star_walk_link(tri, v):
    """The link of ``v`` by walking its star: for every d-cell around
    ``v``, the facet spanned by the cell's other vertices; ascending."""
    d = tri.dim
    link = []
    for c in tri.cofaces(SimplexRef(0, v), d):
        verts = tri.simplex_vertices(SimplexRef(d, c))
        opp = tuple(u for u in verts if u != v)
        for f in tri.faces(SimplexRef(d, c), d - 1):
            if tri.simplex_vertices(SimplexRef(d - 1, f)) == opp:
                link.append(f)
                break
    return sorted(link)


# --------------------------------------------------------------------------
# PL critical points by a union-find over one vertex's link
# --------------------------------------------------------------------------


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            return True
        return False

    def count(self):
        return sum(1 for x in self.parent if self.parent[x] == x)


def link_component_counts(tri, field, v):
    """Number of connected components of the lower and upper link of ``v``."""
    d = tri.dim
    lower = _UnionFind([])
    upper = _UnionFind([])
    for f in tri.vertex_link(v):
        verts = tri.simplex_vertices(SimplexRef(d - 1, f))
        lo = [u for u in verts if field.ranks[u] < field.ranks[v]]
        hi = [u for u in verts if field.ranks[u] > field.ranks[v]]
        for part, uf in ((lo, lower), (hi, upper)):
            for u in part:
                uf.parent.setdefault(u, u)
            for a, b in zip(part, part[1:]):
                uf.union(a, b)
    return lower.count(), upper.count()


def classify_vertex(tri, field, v):
    """Classify one vertex; return a list of PLCriticalPoint (0-2 items).

    The lower link decides a minimum (empty) or a saddle of index 1
    (split); the upper link a maximum (empty) or a saddle of index d-1
    (split).  In 2D a vertex with both links split is one saddle,
    counted on the lower side."""
    d = tri.dim
    n_lower, n_upper = link_component_counts(tri, field, v)
    value = float(field.values[v])
    boundary = tri.is_boundary(SimplexRef(0, v))
    out = []
    if n_lower == 0:
        out.append(PLCriticalPoint(v, 0, 1, value, boundary))
    elif n_lower >= 2:
        out.append(PLCriticalPoint(v, 1, n_lower - 1, value, boundary))
    if n_upper == 0:
        out.append(PLCriticalPoint(v, d, 1, value, boundary))
    elif n_upper >= 2 and (d == 3 or n_lower < 2):
        out.append(PLCriticalPoint(v, d - 1, n_upper - 1, value, boundary))
    return out


# --------------------------------------------------------------------------
# Grid edge classes by decoding an edge id
# --------------------------------------------------------------------------


EDGE_NAMES = {
    2: ("horizontal", "vertical", "diagonal"),
    3: ("axis_x", "axis_y", "axis_z", "diag_xy", "diag_xz", "diag_yz",
        "diag_xyz"),
}


def classify_edge_identifier(grid, e):
    """Invert the grid's edge identifier map: (class name, anchor coords)."""
    ci, *anchor = grid._decode(1, e)
    return EDGE_NAMES[grid.dim][ci], tuple(anchor[:grid.dim])


# --------------------------------------------------------------------------
# Elder-rule extremum pairs by plain union-find
# --------------------------------------------------------------------------


def uf_extremum_pairs(tri, field, ascending):
    """(extremum vertex, merge vertex) pairs from a sub- or sur-level
    sweep; the oldest component representative survives each merge."""
    n = len(field)
    ranks = field.ranks
    order = np.argsort(ranks)
    sweep = order if ascending else order[::-1]
    parent = list(range(n))
    oldest = list(range(n))
    seen = [False] * n

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def age(v):
        return ranks[v] if ascending else -ranks[v]

    pairs = []
    for v in sweep:
        v = int(v)
        roots = sorted({find(u) for u in tri.vertex_neighbors(v)
                        if seen[u]})
        if roots:
            winner = min(roots, key=lambda r: age(oldest[r]))
            for r in roots:
                if r != winner:
                    pairs.append((oldest[r], v))
                parent[r] = v
            oldest[v] = oldest[winner]
        seen[v] = True
    return pairs


# --------------------------------------------------------------------------
# Augmented merge tree by a union-find sweep over every vertex
# --------------------------------------------------------------------------


def sweep_merge_tree(tri, field, variant):
    """The join or split tree by a union-find sweep in vertex order.

    Each swept vertex finds the distinct components of its already
    swept neighbours: none makes it a leaf, two or more a saddle.  Each
    component root keeps its oldest extremum; at a merge the oldest of
    them survives and the others pair with the merge vertex, from
    oldest to youngest.  A root is always the last vertex swept into
    its component, so it is its own succ-tree node.  Same contract as
    ``sftopo.build_merge_tree``.
    """
    n = len(field)
    ascending = variant == "join"
    sweep = field.order if ascending else field.order[::-1]
    age = field.ranks.tolist() if ascending else (-field.ranks).tolist()
    offsets, ids = tri.neighbor_csr()
    offsets, ids = offsets.tolist(), ids.tolist()
    before = [False] * n
    parent = list(range(n))
    oldest = list(range(n))      # oldest extremum per component root

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    succ = [-1] * n
    n_children = [0] * n
    leaves, saddles, pairs = [], [], []
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
        elif k == 1:
            oldest[v] = oldest[roots[0]]
        else:
            saddles.append((v, k - 1))
            extrema = sorted((oldest[r] for r in roots), key=age.__getitem__)
            oldest[v] = extrema[0]
            pairs.extend((e, v) for e in extrema[1:])
        for r in roots:
            succ[r] = v
            parent[r] = v
        before[v] = True
    return MergeTree(variant, field, tri, np.array(succ, dtype=np.int64),
                     np.array(n_children, dtype=np.int64), int(sweep[-1]),
                     tuple(leaves), tuple(saddles), tuple(pairs))


# --------------------------------------------------------------------------
# Contour tree by a sequential leaf-pruning queue
# --------------------------------------------------------------------------


def prune_contour_tree(join, split):
    """Leaf-pruning combination of the join and split trees, one
    vertex at a time from a queue.  Same contract as
    ``sftopo.combine_contour_tree``.

    A lower leaf (a join-tree leaf with at most one split-tree child)
    and an upper leaf (the mirror case) are pruned by one routine with
    the two trees' roles swapped.  Each tree keeps per-vertex child
    counts and child-id sums, so a vertex with one child left names it
    by its sum.  Every pruned vertex records the one augmented arc to
    its successor; the regular chains of that augmented tree are then
    reduced to arcs between nodes.

    Raises DomainTopologyError when the domain is not simply connected,
    detected through the Euler characteristic (2 for a closed surface,
    1 for a domain with boundary) or, as a backstop, a pruning stall.
    """
    _check_simply_connected(join.tri)
    field = join.field
    n = len(field)
    ranks = field.ranks
    # index 0 is the join tree (succ points up), 1 the split tree
    succ, n_ch, ch_sum = [], [], []
    for tree in (join, split):
        has = tree.succ >= 0
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, tree.succ[has], np.flatnonzero(has))
        succ.append(tree.succ.tolist())
        n_ch.append(tree.n_children.tolist())
        ch_sum.append(sums.tolist())
    removed = [False] * n
    alive = n
    lo, hi = [-1] * n, [-1] * n          # the augmented arc of each pruned x

    def leaf_kind(x):
        """0 for a lower leaf, 1 for an upper leaf, else None."""
        for a in (0, 1):
            if n_ch[a][x] == 0 and n_ch[1 - a][x] <= 1 and succ[a][x] >= 0:
                return a
        return None

    queue = deque(x for x in field.order.tolist() if leaf_kind(x) is not None)
    while queue and alive > 1:
        x = queue.popleft()
        a = None if removed[x] else leaf_kind(x)
        if a is None:
            continue
        b = 1 - a
        # x leaves tree a, whose edge to y becomes an arc ...
        y = succ[a][x]
        lo[x], hi[x] = (x, y) if a == 0 else (y, x)
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
        removed[x] = True
        alive -= 1
        for t in (y, z):
            if t >= 0 and not removed[t] and leaf_kind(t) is not None:
                queue.append(t)
    if alive > 1:
        raise DomainTopologyError(
            "contour tree combination stalled: the domain is not simply "
            "connected (a sub-level and sur-level component pair meets "
            "more than once)"
        )

    # (lo, hi) is the augmented tree; reduce its regular chains
    lo, hi = np.array(lo), np.array(hi)
    pruned = lo >= 0
    lo, hi = lo[pruned], hi[pruned]
    up_deg = np.bincount(lo, minlength=n)
    down_deg = np.bincount(hi, minlength=n)
    is_node = ((up_deg != 1) | (down_deg != 1)).tolist()
    up = np.full(n, -1, dtype=np.int64)
    up[lo] = hi                  # the one upper neighbour of a regular vertex
    up = up.tolist()
    arcs = []
    for v, w in zip(lo.tolist(), hi.tolist()):
        if not is_node[v]:
            continue
        interior = []
        while not is_node[w]:
            interior.append(w)
            w = up[w]
        arcs.append((v, w, interior))
    arcs.sort(key=lambda arc: (ranks[arc[0]], ranks[arc[1]]))
    vertex_arc = np.full(n, len(arcs), dtype=np.int64)
    for i, (_, _, interior) in enumerate(arcs):
        vertex_arc[interior] = i
    # nodes map to their lowest incident arc (by arc index)
    ends = np.array([arc[:2] for arc in arcs], dtype=np.int64).reshape(-1, 2)
    np.minimum.at(vertex_arc, ends, np.arange(len(arcs))[:, None])
    nodes = np.flatnonzero(is_node)
    nodes = nodes[np.argsort(ranks[nodes])].tolist()
    node_types = {v: "min" if down_deg[v] == 0 else
                  "max" if up_deg[v] == 0 else "saddle" for v in nodes}
    return ContourTree(nodes, node_types, [arc[:2] for arc in arcs],
                       vertex_arc)


# --------------------------------------------------------------------------
# Level-set components by union-find over crossing edges
# --------------------------------------------------------------------------


def level_set_components(tri, field, t):
    """Number of connected components of the level set at ``t``.

    ``t`` is a level in rank units: vertex ``v`` lies below it iff
    ``ranks[v] < t``.  The PL level set meets each edge with one end on
    either side once, and is connected inside each d-cell, so crossing
    edges that share a cell (a triangle in 2D, a tetrahedron in 3D) lie
    on the same component.
    """
    below = field.ranks < t
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cell in tri.simplex_array(tri.dim).tolist():
        crossing = [(a, b) for a, b in combinations(cell, 2)
                    if below[a] != below[b]]
        for e in crossing:
            parent.setdefault(e, e)
        for e in crossing[1:]:
            parent[find(e)] = find(crossing[0])
    return len({find(e) for e in parent})


# --------------------------------------------------------------------------
# Persistent homology by GF(2) boundary reduction
# --------------------------------------------------------------------------


def reduction_pairs(tri, field):
    """All persistence pairs of the simplexwise sub-level filtration.

    Returns a list of ((dim_b, id_b), (dim_d, id_d)) simplex pairs from
    the standard column-reduction algorithm over GF(2); unpaired
    columns (essential classes) are omitted.
    """
    d = tri.dim
    cells = []
    for k in range(d + 1):
        for i in range(tri.simplex_count(k)):
            verts = tri.simplex_vertices(SimplexRef(k, i))
            cells.append((simplex_key(field, verts), k, i))
    cells.sort()
    pos = {(k, i): p for p, (_, k, i) in enumerate(cells)}
    columns = []
    for _, k, i in cells:
        if k == 0:
            columns.append(set())
        else:
            columns.append({pos[(k - 1, f)]
                            for f in tri.faces(SimplexRef(k, i), k - 1)})
    low_of = {}
    pairs = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            other = low_of.get(low)
            if other is None:
                break
            col ^= columns[other]
        if col:
            low = max(col)
            low_of[low] = j
            _, kb, ib = cells[low]
            _, kd, id_ = cells[j]
            pairs.append(((kb, ib), (kd, id_)))
    return pairs


def reduction_vertex_pairs(tri, field, dim_birth):
    """(birth max-vertex, death max-vertex) of (dim, dim+1) reduction
    pairs, with diagonal pairs dropped.

    A pair whose birth and death simplices share the same order-maximal
    vertex has zero persistence in the PL field and no critical-point
    interpretation; those are artifacts of the simplexwise filtration.
    """
    out = set()
    for (kb, ib), (kd, id_) in reduction_pairs(tri, field):
        if kb != dim_birth:
            continue
        b = top_vertex(field, tri.simplex_vertices(SimplexRef(kb, ib)))
        dv = top_vertex(field, tri.simplex_vertices(SimplexRef(kd, id_)))
        if b != dv:
            out.add((b, dv))
    return out


# --------------------------------------------------------------------------
# V-path counts between two critical simplices, and the first V-path
# --------------------------------------------------------------------------


def _vpath_children(grad, dim, high):
    """(low, next_high) continuations of a descending (dim, dim+1) walk
    at ``high``: the dim-faces of ``high`` from one ``tri.faces`` query,
    ids ascending as its contract gives them, other than the face
    paired with ``high``, each followed by the simplex paired above it
    (-1 for none)."""
    paired = grad.pair_down[dim + 1][high]
    up = grad.pair_up[dim]
    return [(low, int(up[low]))
            for low in grad.tri.faces(SimplexRef(dim + 1, high), dim)
            if low != paired]


def vpath_counts(grad, dim, upper):
    """``{lower: n}``: the number ``n`` of distinct descending V-paths
    from ``upper`` ((dim+1)-simplex) to each critical dim-simplex
    ``lower`` they reach, by memoized recursion over
    ``_vpath_children``, one frame per pair of the path, under a raised
    recursion limit that is restored on return.  No guard against a
    closed V-path."""
    up, down = grad.pair_up[dim], grad.pair_down[dim]
    memo = {}

    def counts(high):
        if high not in memo:
            total = {}
            for low, nxt in _vpath_children(grad, dim, high):
                if nxt >= 0:
                    reached = counts(nxt)
                elif up[low] < 0 and down[low] < 0:
                    reached = {low: 1}
                else:
                    reached = {}
                for end, n in reached.items():
                    total[end] = total.get(end, 0) + n
            memo[high] = total
        return memo[high]

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100000))
    try:
        return counts(upper)
    finally:
        sys.setrecursionlimit(limit)


def count_vpaths(grad, dim, upper, lower):
    """Number of distinct descending V-paths from critical ``upper``
    ((dim+1)-simplex) to critical ``lower`` (dim-simplex), read from
    ``vpath_counts``; the reference for ``gradient._vpath_counts``."""
    return vpath_counts(grad, dim, upper).get(lower, 0)


def extract_vpath(grad, dim, upper, lower):
    """First descending V-path from ``upper`` to ``lower`` (DFS order
    over ``_vpath_children``), by plain recursion, one frame per pair
    of the path, and with no guard against a closed V-path; the
    reference for ``gradient._first_vpath``.  Long paths need a raised
    recursion limit."""

    def dfs(high, acc):
        for low, nxt in _vpath_children(grad, dim, high):
            if low == lower:
                return acc
            if nxt >= 0:
                got = dfs(nxt, acc + [(low, nxt)])
                if got is not None:
                    return got
        return None

    pairs = dfs(upper, [])
    if pairs is None:
        return None
    return VPath(dim, int(upper), int(lower), pairs)


# --------------------------------------------------------------------------
# V-path acyclicity by explicit graph search
# --------------------------------------------------------------------------


def vpath_graph_acyclic(tri, grad):
    """Cycle-freedom of the V-path digraph, one dimension at a time.

    Nodes are k-simplices; sigma -> sigma' when sigma pairs with a
    (k+1)-simplex tau and sigma' is another facet of tau.  The gradient
    is acyclic iff every such digraph is.
    """
    for k in range(tri.dim):
        n = tri.simplex_count(k)
        adj = [[] for _ in range(n)]
        for s in range(n):
            t = int(grad.pair_up[k][s])
            if t < 0:
                continue
            for f in tri.faces(SimplexRef(k + 1, t), k):
                if f != s:
                    adj[s].append(f)
        state = [0] * n
        for s in range(n):
            if state[s]:
                continue
            stack = [(s, iter(adj[s]))]
            state[s] = 1
            while stack:
                v, it = stack[-1]
                advanced = False
                for u in it:
                    if state[u] == 1:
                        return False
                    if state[u] == 0:
                        state[u] = 1
                        stack.append((u, iter(adj[u])))
                        advanced = True
                        break
                if not advanced:
                    state[v] = 2
                    stack.pop()
    return True


# --------------------------------------------------------------------------
# Morse-Smale segmentations by per-simplex walks
# --------------------------------------------------------------------------


def walk_segmentations(tri, grad):
    """(descending, ascending) segmentations, one walk per simplex.

    Each vertex walks its (0, 1) V-path through ``tri.simplex_vertices``
    and each d-cell its (d-1, d) V-path through ``tri.cofaces``, one
    step at a time, with no memo; neither reads ``grad.verts`` or
    ``tri.cofacet_ids``.  A d-cell whose walk leaves through a boundary
    facet is labelled -1.
    """
    d = tri.dim
    up, down = grad.pair_up[0], grad.pair_down[d]
    desc = []
    for v in range(tri.simplex_count(0)):
        while up[v] >= 0:
            a, b = tri.simplex_vertices(SimplexRef(1, int(up[v])))
            v = b if a == v else a
        desc.append(v)
    asc = []
    for c in range(tri.simplex_count(d)):
        while c >= 0 and down[c] >= 0:
            facet = SimplexRef(d - 1, int(down[c]))
            others = [t for t in tri.cofaces(facet, d) if t != c]
            c = others[0] if others else -1
        asc.append(c)
    return np.array(desc, dtype=np.int64), np.array(asc, dtype=np.int64)


# --------------------------------------------------------------------------
# Separatrices by one walk per critical simplex
# --------------------------------------------------------------------------


def _polyline(head, odd, even, tail=None):
    """Rows ``head, odd[0], even[0], odd[1], even[1], ..., tail``."""
    m = len(odd)
    out = np.empty((2 * m + 1 + (tail is not None), 3))
    out[0] = head
    out[1:2 * m:2] = odd
    out[2:2 * m + 1:2] = even
    if tail is not None:
        out[-1] = tail
    return out


def walk_separatrices(grad):
    """``extract_separatrices`` root by root: the per-simplex walks
    ``_walks_down`` and ``_walks_up`` out of every critical edge and
    facet, and in 3D the recursive ``extract_vpath`` from every critical
    triangle to every critical edge it reaches, each polyline cut from
    barycentres of every simplex."""
    tri, d = grad.tri, grad.tri.dim
    points = tri.point_array()
    center = [points] + [points[rows].mean(axis=1) for rows in grad.verts[1:]]

    def split(pairs):
        """The two columns of a list of (low, high) pairs."""
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T

    def polyline(k, root, m, odd, even, end):
        """k-simplex ``root``, then m-simplex ``odd[i]`` and k-simplex
        ``even[i]`` in turn, then m-simplex ``end`` unless it is None."""
        return _polyline(center[k][root], center[m][odd], center[k][even],
                         None if end is None else center[m][end])

    out = []
    for e in grad.critical_ids(1):
        for path in _walks_down(grad, e):
            out.append(Separatrix("min-saddle", (1, e), (0, path.lower),
                                  polyline(1, e, 0, *split(path.pairs),
                                           path.lower)))
    for sigma in grad.critical_ids(d - 1):
        for path in _walks_up(grad, sigma):
            facets, cells = split(path.pairs[::-1])     # in walk order
            end = path.upper
            out.append(Separatrix(
                "saddle-max", (d - 1, sigma), None if end is None else (d, end),
                polyline(d - 1, sigma, d, cells, facets, end)))
    if d == 3:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 100000))
        edges = grad.critical_ids(1)
        try:
            for tau in grad.critical_ids(2):
                for e in edges:
                    path = extract_vpath(grad, 1, tau, e)
                    if path is not None:
                        out.append(Separatrix(
                            "saddle-saddle", (2, tau), (1, e),
                            polyline(2, tau, 1, *split(path.pairs), e)))
        finally:
            sys.setrecursionlimit(limit)
    return out


# --------------------------------------------------------------------------
# Deterministic V-path walks by per-simplex queries
# --------------------------------------------------------------------------


def _walks_down(grad, e):
    """Descending (0, 1) V-paths from edge ``e``, one per vertex.  Each
    step finds the edge paired above its vertex among ``tri.cofaces``
    by ``pair_down[1]``, not ``pair_up[0]``, and crosses to that edge's
    other vertex by ``tri.simplex_vertices``."""
    tri = grad.tri
    out = []
    for v in tri.simplex_vertices(SimplexRef(1, e)):
        pairs = []
        while True:
            up = [t for t in tri.cofaces(SimplexRef(0, v), 1)
                  if grad.pair_down[1][t] == v]
            if not up:
                break
            (edge,) = up
            pairs.append((int(v), int(edge)))
            v = next(u for u in tri.simplex_vertices(SimplexRef(1, edge))
                     if u != v)
        out.append(VPath(0, int(e), int(v), pairs))
    return out


def _walks_up(grad, sigma):
    """Ascending (d-1, d) V-paths from facet ``sigma``, one per co-face,
    walked with ``tri.cofaces``; ``upper`` is None where a walk leaves
    the domain."""
    tri, d = grad.tri, grad.tri.dim
    out = []
    for start in tri.cofaces(SimplexRef(d - 1, sigma), d):
        pairs = []
        tau, upper = start, None
        while True:
            low = int(grad.pair_down[d][tau])
            if low < 0:
                upper = int(tau)
                break
            pairs.append((low, int(tau)))
            nxt = [c for c in tri.cofaces(SimplexRef(d - 1, low), d)
                   if c != tau]
            if not nxt:
                break
            tau = nxt[0]
        pairs.reverse()
        out.append(VPath(d - 1, upper, int(sigma), pairs))
    return out


# --------------------------------------------------------------------------
# Steepest co-face gradient, by a per-simplex scan and by an array kernel
# --------------------------------------------------------------------------


def steepest_coface_gradient(tri, field):
    """(pair_up, pair_down) lists of arrays, built simplex by simplex.

    An unpaired k-simplex pairs with the admissible (k+1)-co-face (its
    extra vertex below every vertex of the simplex) whose lowest vertex
    is lowest; ``tri.cofaces`` lists co-faces by ascending id, so a tie
    would go to the lowest id.  A simplex already paired down is skipped.
    """
    d = tri.dim
    ranks = field.ranks
    up = [np.full(tri.simplex_count(k), -1, dtype=np.int64)
          for k in range(d + 1)]
    down = [np.full(tri.simplex_count(k), -1, dtype=np.int64)
            for k in range(d + 1)]
    for k in range(d):
        for sid in range(tri.simplex_count(k)):
            if down[k][sid] >= 0:
                continue
            low_min = min(ranks[v] for v in
                          tri.simplex_vertices(SimplexRef(k, sid)))
            best_rank, best_tid = None, -1
            for tid in tri.cofaces(SimplexRef(k, sid), k + 1):
                extra = min(ranks[v] for v in
                            tri.simplex_vertices(SimplexRef(k + 1, tid)))
                if extra < low_min and (best_rank is None
                                        or extra < best_rank):
                    best_rank, best_tid = extra, tid
            if best_tid >= 0:
                up[k][sid] = best_tid
                down[k + 1][best_tid] = sid
    return up, down


def steepest_gradient(tri, field):
    """The steepest co-face gradient as a ``DiscreteGradient``, built by
    an array kernel.

    A co-face admits exactly one of its faces, the one opposite its
    lowest vertex, so each pass reads that face from ``facet_ids`` for
    every co-face at once, sorts the (face, co-face minimum, co-face id)
    triples and keeps the first co-face of every face that is not
    already paired down.  It equals ``steepest_coface_gradient`` and
    leaves many spurious critical simplices, thousands of cancellations
    on a 12x12x12 grid, for the compliance tests that need them.
    """
    grad = DiscreteGradient(tri, field)
    ranks = field.ranks
    for k in range(tri.dim):
        high = grad.verts[k + 1]
        ids = np.arange(len(high), dtype=np.int64)
        low_col = np.argmin(ranks[high], axis=1)
        face = tri.facet_ids(k + 1)[ids, low_col]
        coface_min = ranks[high[ids, low_col]]
        order = np.lexsort((ids, coface_min, face))
        first = np.ones(len(order), dtype=bool)
        first[1:] = face[order[1:]] != face[order[:-1]]
        tid = order[first]
        sid = face[tid]
        free = grad.pair_down[k][sid] < 0
        sid, tid = sid[free], tid[free]
        grad.pair_up[k][sid] = tid
        grad.pair_down[k + 1][tid] = sid
    return grad


# --------------------------------------------------------------------------
# Discrete gradient by ProcessLowerStars, one vertex at a time
# --------------------------------------------------------------------------


def lower_star_gradient(tri, field):
    """(pair_up, pair_down) lists of arrays by ProcessLowerStars (Robins,
    Wood & Sheppard, IEEE TPAMI 33(8), 2011), one vertex at a time.

    The lower star of ``v`` holds the simplices whose highest vertex is
    ``v``, found by ``tri.cofaces`` and keyed by ``simplex_key``
    (sorted vertex ranks, highest first).  ``v`` pairs with its lowest
    edge; then a heap of simplices with one unassigned face in the star
    pairs its first entry with that face, and when it is empty a heap of
    simplices with none makes its first entry critical.
    """
    d, ranks = tri.dim, field.ranks
    up = [np.full(tri.simplex_count(k), -1, dtype=np.int64)
          for k in range(d + 1)]
    down = [np.full(tri.simplex_count(k), -1, dtype=np.int64)
            for k in range(d + 1)]
    for v in range(tri.simplex_count(0)):
        key = {}
        for k in range(1, d + 1):
            for s in tri.cofaces(SimplexRef(0, v), k):
                got = simplex_key(field,
                                  tri.simplex_vertices(SimplexRef(k, s)))
                if got[0] == ranks[v]:
                    key[(k, s)] = got
        if not key:
            continue                            # a minimum
        faces = {c: [(0, v)] if c[0] == 1 else
                 [(c[0] - 1, f) for f in tri.faces(SimplexRef(*c), c[0] - 1)
                  if (c[0] - 1, f) in key] for c in key}
        cofaces = {}
        for c, fs in faces.items():
            for f in fs:
                cofaces.setdefault(f, []).append(c)
        done = set()

        def unassigned(c):
            return [f for f in faces[c] if f not in done]

        def pair(low, high):
            up[low[0]][low[1]] = high[1]
            down[high[0]][high[1]] = low[1]
            done.update((low, high))

        one, zero = [], []

        def push_cofaces(c):
            for h in cofaces.get(c, ()):
                if h not in done and len(unassigned(h)) == 1:
                    heapq.heappush(one, (key[h], h))

        edge = min((c for c in key if c[0] == 1), key=key.get)
        pair((0, v), edge)
        for c in key:
            if c[0] == 1 and c != edge:
                heapq.heappush(zero, (key[c], c))
        push_cofaces(edge)
        while one or zero:
            while one:
                _, alpha = heapq.heappop(one)
                if alpha in done:
                    continue
                rest = unassigned(alpha)
                if not rest:
                    heapq.heappush(zero, (key[alpha], alpha))
                    continue
                pair(rest[0], alpha)
                push_cofaces(alpha)
                push_cofaces(rest[0])
            if zero:
                _, gamma = heapq.heappop(zero)
                if gamma not in done:
                    done.add(gamma)             # critical
                    push_cofaces(gamma)
    return up, down


# --------------------------------------------------------------------------
# Compliance matching candidates by per-vertex star queries
# --------------------------------------------------------------------------


def star_simplices(tri, field, v, dim):
    """The dim-simplices in the star of vertex ``v``, from
    ``tri.cofaces``, in descending ``simplex_key`` order of their
    ``tri.simplex_vertices``."""
    star = [v] if dim == 0 else tri.cofaces(SimplexRef(0, v), dim)
    return sorted(star, reverse=True, key=lambda s: simplex_key(
        field, tri.simplex_vertices(SimplexRef(dim, s))))


def max_star_matching(tri, grad, critical_points):
    """Size of a maximum matching of the interior critical points, one
    slot per unit of multiplicity, to the critical simplices of their
    index in their vertex's star, from ``tri.cofaces``: Kuhn's
    augmenting-path search from every slot in turn, by recursion over
    plain dicts; the reference for the count of
    ``compliance._Matching``."""
    stars = []
    for cp in critical_points:
        if cp.boundary:
            continue
        k, v = cp.index, cp.vertex
        star = [v] if k == 0 else tri.cofaces(SimplexRef(0, v), k)
        stars += [[(k, s) for s in star if grad.is_critical(k, s)]] \
            * cp.multiplicity
    holder = {}

    def augment(i, seen):
        for key in stars[i]:
            if key not in seen:
                seen.add(key)
                if key not in holder or augment(holder[key], seen):
                    holder[key] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(stars)))


# --------------------------------------------------------------------------
# Saddle/maximum cancellation by rescanning every arc
# --------------------------------------------------------------------------


def _value(grad, dim, sid):
    verts = grad.tri.simplex_vertices(SimplexRef(dim, sid))
    return float(grad.field.values[top_vertex(grad.field, verts)])


def _copying_release(matching, dims_sids):
    """``_Matching.release`` that saves copies of the matching's arrays
    and restores them on failure, instead of undoing its logged changes."""
    banned = set(dims_sids)
    saved = (matching.slot_of.copy(), matching.sid_of.copy())
    for k, s in banned:
        x = matching.base[k] + s
        i = matching.slot_of[x]
        if i < 0:
            continue
        matching.slot_of[x] = matching.sid_of[i] = -1
        if not matching._augment(int(i), banned):
            matching.slot_of, matching.sid_of = saved
            return False
    return True


def rescan_facet_cancellation(grad, matching):
    """Saddle/maximum cancellations, one full rescan per cancellation.

    Every round traces every interior critical facet, keeps each cell
    it reaches by exactly one walk unless both ends are matched, sorts
    the arcs by (weight, facet, cell) and cancels the first arc whose
    ends the matching can release, restoring copies of the matching
    after every release that fails.  Stops when no arc can be cancelled.
    Same contract as ``sftopo.compliance._cancel_facet_pairs``.
    """
    tri, d = grad.tri, grad.tri.dim
    cancelled = []
    while True:
        arcs = []
        for sigma in grad.critical_ids(d - 1):
            if tri.is_boundary(SimplexRef(d - 1, sigma)):
                continue
            ends = {}
            for path in _walks_up(grad, sigma):
                if path.upper is not None:
                    ends.setdefault(path.upper, []).append(path)
            for tau, paths in ends.items():
                if len(paths) > 1 or tri.is_boundary(SimplexRef(d, tau)):
                    continue
                if matching.is_matched(d - 1, sigma) and \
                        matching.is_matched(d, tau):
                    continue
                w = abs(_value(grad, d, tau) - _value(grad, d - 1, sigma))
                arcs.append((w, sigma, tau, paths[0]))
        arcs.sort(key=lambda a: a[:3])
        for w, sigma, tau, path in arcs:
            if _copying_release(matching, [(d - 1, sigma), (d, tau)]):
                reverse_vpath(grad, path)
                cancelled.append((d - 1, sigma, tau))
                break
        else:
            return cancelled


def rescan_connector_cancellation(grad, matching):
    """Saddle/saddle cancellations (3D), one full rescan per cancellation.

    Every round counts the descending V-paths of every interior critical
    triangle to the interior critical edges with a fresh memo, keeps the
    edges reached by exactly one path unless both ends are matched,
    sorts the arcs by (weight, edge, triangle) and cancels the first arc
    whose ends the matching can release, reversing the depth-first path
    of the recursive ``extract_vpath`` above.  Same contract as
    ``sftopo.compliance._cancel_connector_pairs``.

    This is the oracle of the cancellation order, so it counts with the
    package's ``gradient._vpath_counts``, which ``count_vpaths`` checks
    on its own: a per-simplex count in every round would multiply the
    time of the longest rescan tests several times over.
    """
    tri = grad.tri
    cancelled = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100000))
    try:
        while True:
            edges = {e for e in grad.critical_ids(1)
                     if not tri.is_boundary(SimplexRef(1, e))}
            memo = {}
            arcs = []
            for tau in grad.critical_ids(2):
                if tri.is_boundary(SimplexRef(2, tau)):
                    continue
                for e, mult in _vpath_counts(grad, 1, tau, edges,
                                             memo).items():
                    if mult != 1 or (matching.is_matched(2, tau)
                                     and matching.is_matched(1, e)):
                        continue
                    w = abs(_value(grad, 2, tau) - _value(grad, 1, e))
                    arcs.append((w, e, tau))
            arcs.sort()
            for w, e, tau in arcs:
                if _copying_release(matching, [(1, e), (2, tau)]):
                    reverse_vpath(grad, extract_vpath(grad, 1, tau, e))
                    cancelled.append((1, e, tau))
                    break
            else:
                return cancelled
    finally:
        sys.setrecursionlimit(limit)


def alternating_compliance(tri, field, grad):
    """``enforce_compliance`` by rescans: a saddle/maximum pass, then in
    3D a saddle/saddle pass, repeating both until the saddle/saddle pass
    cancels nothing; returns the same report."""
    cps = extract_critical_points(tri, field)
    matching = compliance._Matching(grad, cps)
    cancelled = rescan_facet_cancellation(grad, matching)
    more = rescan_connector_cancellation(grad, matching) \
        if tri.dim == 3 else []
    while more:
        cancelled += more
        more = rescan_facet_cancellation(grad, matching)
        more += rescan_connector_cancellation(grad, matching)
    return compliance._report(matching, cps, cancelled)


_OBJ_RUN = 1 << 16      # points per formatting call of the OBJ writer


def _write_obj_run(fh, seps, first_object, first_point) -> None:
    """One `%` call formats the `v` records of ``seps``, one their `l`
    records; each object then writes its slice of both."""
    sizes = [len(sep.points) for sep in seps]
    points = np.concatenate([np.asarray(sep.points).reshape(-1, 3)
                             for sep in seps])
    v = ("v %.17g %.17g %.17g\n" * len(points)) \
        % tuple(points.ravel().tolist())
    ends = np.flatnonzero(np.frombuffer(v.encode(), dtype=np.uint8) == 10)
    cuts = [0] + (ends[np.cumsum(sizes) - 1] + 1).tolist()
    lines = ("".join("l" + " %d" * m + "\n" for m in sizes)
             % tuple(range(first_point + 1, first_point + len(points) + 1))
             ).splitlines(keepends=True)
    for i, sep in enumerate(seps):
        fh.write("o %s_%d\n%s%s" % (
            sep.kind.replace("-", "_"), first_object + i,
            v[cuts[i]:cuts[i + 1]], lines[i]))


def write_separatrices_obj(path: str, separatrices) -> None:
    """Polylines as OBJ `v`/`l` records, one object per separatrix.

    The objects are formatted in runs: a run holds the separatrices
    whose first point falls in one block of ``_OBJ_RUN`` points, so the
    formatting calls stay few and their arguments small."""
    seps = list(separatrices)
    first = np.zeros(len(seps) + 1, dtype=np.int64)
    np.cumsum([len(sep.points) for sep in seps], dtype=np.int64,
              out=first[1:])
    runs = np.flatnonzero(np.diff(first[:-1] // _OBJ_RUN)) + 1
    cuts = [0] + runs.tolist() + [len(seps)]
    with open(path, "w") as fh:
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a < b:
                _write_obj_run(fh, seps[a:b], a, int(first[a]))


def write_critical_points_csv(path: str, tri, cps) -> None:
    """Critical points as CSV rows, each point's coordinates from its
    own ``tri.vertex_point`` query."""
    with open(path, "w") as fh:
        fh.write("vertexId,x,y,z,index,multiplicity,value,isBoundary\n")
        for cp in cps:
            x, y, z = tri.vertex_point(cp.vertex)
            fh.write("%d,%.17g,%.17g,%.17g,%d,%d,%.17g,%d\n" % (
                cp.vertex, x, y, z, cp.index, cp.multiplicity, cp.value,
                int(cp.boundary)))

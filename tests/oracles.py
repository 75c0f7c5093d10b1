"""Independent reference implementations used to validate the library.

Everything here recomputes results from first principles with
deliberately simple (slow) algorithms: elder-rule pairing by direct
union-find sweeps, persistent homology by full GF(2) boundary-matrix
reduction, V-path acyclicity by explicit graph search, level-set
components by union-find over crossing edges, and a triangulation
comparator keyed on vertex tuples rather than ids.
"""

from itertools import combinations

import numpy as np

from sftopo import SimplexRef


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
            cells.append((field.simplex_key(verts), k, i))
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
        b = field.max_vertex(tri.simplex_vertices(SimplexRef(kb, ib)))
        dv = field.max_vertex(tri.simplex_vertices(SimplexRef(kd, id_)))
        if b != dv:
            out.add((b, dv))
    return out


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

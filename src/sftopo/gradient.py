"""Discrete gradient field on a triangulation, driven by a vertex order.

Each simplex is either *critical* or paired with exactly one face or
co-face one dimension away.  The pairing is built dimension by
dimension: an unpaired i-simplex pairs with the steepest admissible
(i+1)-co-face, where admissible means the co-face's extra vertex comes
before every vertex of the simplex in the total order (so the i-simplex
is the highest i-face of the co-face).  Among admissible co-faces the
one whose extra vertex is lowest wins, which makes the construction
order-independent and embarrassingly parallel.

V-paths (alternating face/pair sequences) are the discrete integral
lines; cancelling a pair of critical simplices reverses the unique
V-path between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .order import OrderField
from .triangulation import SimplexRef, Triangulation


class DiscreteGradient:
    """Simplex pairing of a discrete gradient field.

    Attributes
    ----------
    pair_up:
        ``pair_up[k][s]`` is the (k+1)-simplex paired above k-simplex
        ``s``, or -1.  ``pair_up[d]`` is all -1.
    pair_down:
        ``pair_down[k][s]`` is the (k-1)-simplex paired below ``s``,
        or -1.  ``pair_down[0]`` is all -1.
    verts:
        ``verts[k]`` is the ``(n_k, k+1)`` array of simplex vertex ids.
    """

    def __init__(self, tri: Triangulation, field: OrderField):
        self.tri = tri
        self.field = field
        d = tri.dim
        self.verts = [tri.simplex_array(k) for k in range(d + 1)]
        self.pair_up = [
            np.full(tri.simplex_count(k), -1, dtype=np.int64)
            for k in range(d + 1)
        ]
        self.pair_down = [
            np.full(tri.simplex_count(k), -1, dtype=np.int64)
            for k in range(d + 1)
        ]

    def is_critical(self, dim: int, sid: int) -> bool:
        return (self.pair_up[dim][sid] < 0) and (self.pair_down[dim][sid] < 0)

    def critical_ids(self, dim: int) -> list:
        up, down = self.pair_up[dim], self.pair_down[dim]
        return [int(i) for i in np.nonzero((up < 0) & (down < 0))[0]]

    def critical_simplices(self) -> dict:
        """dim -> ascending list of critical simplex ids."""
        return {k: self.critical_ids(k) for k in range(self.tri.dim + 1)}

    def simplex_value(self, dim: int, sid: int) -> float:
        return float(self.field.values[self.max_vertex(dim, sid)])

    def max_vertex(self, dim: int, sid: int) -> int:
        row = self.verts[dim][sid]
        return int(row[np.argmax(self.field.ranks[row])])

    def copy(self) -> "DiscreteGradient":
        g = object.__new__(DiscreteGradient)
        g.tri, g.field, g.verts = self.tri, self.field, self.verts
        g.pair_up = [a.copy() for a in self.pair_up]
        g.pair_down = [a.copy() for a in self.pair_down]
        return g


def _assign_range(tri, ranks, verts_low, verts_high, dim, lo, hi):
    """Pair unpaired dim-simplices in [lo, hi); returns [(sid, tid), ...]."""
    out = []
    for sid in range(lo, hi):
        low_min = ranks[verts_low[sid]].min()
        best_rank, best_tid = None, -1
        for tid in tri.cofaces(SimplexRef(dim, sid), dim + 1):
            extra = ranks[verts_high[tid]].min()
            if extra < low_min and (best_rank is None or extra < best_rank):
                best_rank, best_tid = extra, tid
        if best_tid >= 0:
            out.append((sid, best_tid))
    return out


def build_gradient(
    tri: Triangulation, field: OrderField, threads: int = 1
) -> DiscreteGradient:
    """Construct the discrete gradient of ``field`` on ``tri``.

    ``threads`` is accepted for compatibility and has no effect: a
    thread pool gave no measured speed-up on this pure-Python loop.
    """
    if len(field) != tri.simplex_count(0):
        raise ValueError("field length does not match vertex count")
    for kind in (
        "edge_list", "triangle_list", "vertex_edges", "edge_stars",
        "cell_edges", "cell_triangles", "triangle_edges",
        "vertex_triangles", "edge_triangles", "triangle_stars",
        "vertex_stars",
    ):
        tri.precondition(kind)
    grad = DiscreteGradient(tri, field)
    ranks = field.ranks
    d = tri.dim
    for k in range(d):
        n = tri.simplex_count(k)
        vl, vh = grad.verts[k], grad.verts[k + 1]
        already = grad.pair_down[k]
        for sid, tid in _assign_range(tri, ranks, vl, vh, k, 0, n):
            if already[sid] >= 0:
                continue
            grad.pair_up[k][sid] = tid
            grad.pair_down[k + 1][tid] = sid
    return grad


# --------------------------------------------------------------------------
# V-paths
# --------------------------------------------------------------------------


@dataclass
class VPath:
    """A gradient path between simplices of dimensions ``dim`` and ``dim+1``.

    ``pairs`` lists the gradient pairs crossed, walking down from the
    ``upper`` end toward the ``lower`` end; the full simplex walk is
    ``upper, l1, h1, ..., lr, hr, lower``.  ``upper`` is None when an
    ascending walk leaves the domain through the boundary; ``lower`` is
    None when a descending walk does.
    """

    dim: int
    upper: int | None
    lower: int | None
    pairs: list = dc_field(default_factory=list)


def trace_up_from_facet(grad: DiscreteGradient, sigma: int) -> list:
    """Ascending (d-1, d) V-paths from critical (d-1)-simplex ``sigma``.

    Returns one VPath per d-co-face of ``sigma`` (at most two); the
    walks are deterministic because a (d-1)-simplex of a pseudo-manifold
    has at most two d-co-faces.
    """
    tri, d = grad.tri, grad.tri.dim
    out = []
    for start in tri.cofaces(SimplexRef(d - 1, sigma), d):
        pairs = []
        tau, prev = start, sigma
        upper = None
        while True:
            low = grad.pair_down[d][tau]
            if low < 0:
                upper = int(tau)
                break
            pairs.append((int(low), int(tau)))
            nxt = [c for c in tri.cofaces(SimplexRef(d - 1, low), d)
                   if c != tau]
            if not nxt:      # boundary facet: the walk leaves the domain
                break
            prev, tau = low, nxt[0]
        pairs.reverse()
        out.append(VPath(d - 1, upper, int(sigma), pairs))
    return out


def trace_down_from_edge(grad: DiscreteGradient, e: int) -> list:
    """Descending (0, 1) V-paths from critical edge ``e`` (one per endpoint)."""
    tri = grad.tri
    out = []
    for v in tri.simplex_vertices(SimplexRef(1, e)):
        pairs = []
        cur = int(v)
        while grad.pair_up[0][cur] >= 0:
            nxt_e = int(grad.pair_up[0][cur])
            pairs.append((cur, nxt_e))
            a, b = tri.simplex_vertices(SimplexRef(1, nxt_e))
            cur = int(b if a == cur else a)
        out.append(VPath(0, int(e), cur, pairs))
    return out


def _descend_children(grad, dim, high):
    """(low, next_high) continuations of a descending (dim, dim+1) walk."""
    tri = grad.tri
    paired = grad.pair_down[dim + 1][high]
    out = []
    for low in tri.faces(SimplexRef(dim + 1, high), dim):
        if low == paired:
            continue
        nxt = grad.pair_up[dim][low]
        out.append((int(low), int(nxt)))
    return out


def _vpath_counts(grad, dim, high, targets, memo):
    """Descending V-path counts from (dim+1)-simplex ``high`` to each
    dim-simplex in ``targets``; ``memo`` may be shared across roots."""
    got = memo.get(high)
    if got is not None:
        return got
    memo[high] = {}  # DFS guard; gradient acyclicity makes this safe
    total = {}
    for low, nxt in _descend_children(grad, dim, high):
        if low in targets:
            total[low] = total.get(low, 0) + 1
        elif nxt >= 0:
            for e, c in _vpath_counts(grad, dim, nxt, targets, memo).items():
                total[e] = total.get(e, 0) + c
    memo[high] = total
    return total


def count_vpaths(grad: DiscreteGradient, dim: int, upper: int,
                 lower: int) -> int:
    """Number of distinct descending V-paths from critical ``upper``
    ((dim+1)-simplex) to critical ``lower`` (dim-simplex)."""
    return _vpath_counts(grad, dim, upper, {lower}, {}).get(lower, 0)


def extract_vpath(grad: DiscreteGradient, dim: int, upper: int,
                  lower: int) -> VPath | None:
    """First descending V-path from ``upper`` to ``lower`` (DFS order)."""

    def dfs(high, acc):
        for low, nxt in _descend_children(grad, dim, high):
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


def reverse_vpath(grad: DiscreteGradient, path: VPath) -> None:
    """Cancel the pair (path.lower, path.upper) by reversing the path."""
    k = path.dim
    lows = [l for l, _ in path.pairs] + [path.lower]
    highs = [path.upper] + [h for _, h in path.pairs]
    for l, h in path.pairs:
        grad.pair_up[k][l] = -1
        grad.pair_down[k + 1][h] = -1
    for l, h in zip(lows, highs):
        grad.pair_up[k][l] = h
        grad.pair_down[k + 1][h] = l


def gradient_is_acyclic(grad: DiscreteGradient) -> bool:
    """Exhaustive check that no V-path loops back on itself."""
    d = grad.tri.dim
    for k in range(d):
        n = grad.tri.simplex_count(k + 1)
        state = np.zeros(n, dtype=np.int8)  # 0 new, 1 active, 2 done

        def visit(high):
            stack = [(high, None)]
            while stack:
                h, it = stack[-1]
                if it is None:
                    if state[h] == 1:
                        return False
                    if state[h] == 2:
                        stack.pop()
                        continue
                    state[h] = 1
                    it = iter(_descend_children(grad, k, h))
                    stack[-1] = (h, it)
                advanced = False
                for low, nxt in it:
                    if nxt >= 0:
                        if state[nxt] == 1:
                            return False
                        if state[nxt] == 0:
                            stack.append((nxt, None))
                            advanced = True
                            break
                if not advanced:
                    state[h] = 2
                    stack.pop()
            return True

        for h in range(n):
            if state[h] == 0 and not visit(h):
                return False
    return True


def pairing_is_valid(grad: DiscreteGradient) -> bool:
    """Each simplex is critical or in exactly one face/co-face pair."""
    tri = grad.tri
    for k in range(tri.dim + 1):
        up, down = grad.pair_up[k], grad.pair_down[k]
        if np.any((up >= 0) & (down >= 0)):
            return False
        for sid in np.nonzero(up >= 0)[0]:
            if grad.pair_down[k + 1][up[sid]] != sid:
                return False
            if int(sid) not in tri.faces(SimplexRef(k + 1, int(up[sid])), k):
                return False
        for sid in np.nonzero(down >= 0)[0]:
            if grad.pair_up[k - 1][down[sid]] != sid:
                return False
    return True

"""Discrete gradient field on a triangulation, driven by a vertex order.

Each simplex is either *critical* or paired with exactly one face or
co-face one dimension away.  The pairing is ProcessLowerStars (Robins,
Wood & Sheppard, IEEE TPAMI 33(8), 2011), as in TTK.  Every simplex
lies in the *lower star* of its owner, its highest vertex in the total
order, and each lower star is paired on its own, by simplex key (the
sorted vertex ranks, highest first; a shorter key, a face, first).  The
owner pairs with its steepest lower edge, or is a minimum if it has
none.  Then each step takes the first simplex of the star with exactly
one unassigned face in the star and pairs the two, or, if there is
none, makes the first simplex with no unassigned face critical.  No two
simplices share a key, so no simplex id decides a pair.  On the random
fields of the tests, each interior PL critical point of index k and
multiplicity m owns exactly m critical k-simplices, so the gradient of
a closed surface is already PL-compliant, and compliance is left with
the critical simplices that boundary vertices own.

``_rank_keys`` is the one definition of the simplex key, over arrays.
The lower-star slots read it, and so does ``_critical_by_key``, the
critical simplices in key order, which compliance, the 3D diagram's
(1,2) reduction and ``check``'s minimum pairs read in turn.

The construction is an array kernel that runs every lower star at once.
All simplices of dimension >= 1 are sorted into one array of *slots*,
by owner and then by key; a slot's faces in its star are its
``Triangulation.facet_ids`` row without the face opposite its owner.
Each numpy round counts the unassigned faces of every live slot with
one gather and takes one step of the sequential algorithm in every
star that is not yet finished.  A step assigns one or two slots, so
the largest star sets the number of rounds: on grids, a maximum's
star of 12 slots in 2D and 74 in 3D takes 6 and 37 rounds.

The field's store (``order.stored``) keeps the gradient built this
way, with read-only arrays, as long as the field lives.  The
persistence diagram reads its (1,2) pairs from it, ``check`` its
critical edges (``checks._minimum_pairs``), and
``build_gradient`` hands every caller a fresh copy, which compliance
edits in place.

V-paths (alternating face/pair sequences) are the discrete integral
lines; cancelling a pair of critical simplices reverses the unique
V-path between them.  The descending (0, 1) and ascending (d-1, d)
walks are deterministic and share one shape, a pair ``(rows, via)``:
a step from node ``x`` crosses row ``via[x]`` to its other entry,
which is -1 where the walk leaves the domain; -1 is the one code for
that end in every walk table.  ``_successors`` takes that step for
every node at once, ``_walk_ends`` doubles it into the one table of
every node's end, and ``_lockstep_walks`` follows the walks out of
many roots together, one gather per step; compliance's saddle/maximum
cancellation steps along the one walk it reverses.  Other descending
walks branch; they read the triangulation's ``facet_ids``, each row
sorted so that children come in ascending id order, so no walk queries
the triangulation per simplex.
Descending V-paths are counted by an explicit-stack post-order, and the
first path to a given end is read from those counts, so walks of any
length need no recursion; no walk in the package recurses.  Acyclicity
is checked on the same arrays.  The (0, 1) and (d-1, d) V-path digraphs
are the two deterministic walks, so ``_walk_ends`` finds a closed
V-path in either, as it does for the segmentations.  Only the 3D
(1, 2) digraph, which branches, and a (d-1, d) digraph on a facet with
three or more co-facets, where the ascending walk has no single next
step, are peeled from their sources; the ascending walk itself
refuses such a facet with ``DomainTopologyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .order import OrderField, _pointer_jump, stored
from .triangulation import DomainTopologyError, Triangulation


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

    ``verts`` are the triangulation's stored ``simplex_array`` rows,
    shared by every field and read-only; copies share them.
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
        """Ascending list of the critical ``dim``-simplex ids."""
        return np.flatnonzero(
            np.maximum(self.pair_up[dim], self.pair_down[dim]) < 0).tolist()

    def copy(self) -> "DiscreteGradient":
        g = object.__new__(DiscreteGradient)
        g.tri, g.field, g.verts = self.tri, self.field, self.verts
        g.pair_up = [a.copy() for a in self.pair_up]
        g.pair_down = [a.copy() for a in self.pair_down]
        return g


def _first_of_runs(keys) -> np.ndarray:
    """Mask of the entries of ``keys`` that differ from the one before."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def _rank_keys(field: OrderField, rows) -> tuple:
    """``(ranks, rest)``: the simplex keys of ``rows``, a list of arrays
    of vertex ids with one simplex per row, of any dimensions up to d.

    ``ranks`` holds the vertex ranks of every row, sorted along the row
    and padded in front with -1 to d + 1 columns.  ``rest`` is the
    ranks below each row's highest, + 1, in base n, the second highest
    first, so that the padding, 0, puts a shorter key first; it stays
    below ``n ** d``, which ``facet_ids`` checks fits in int64.
    Ordered by ``(ranks[:, -1], rest)``, simplices are in simplex key
    order: by their vertex ranks, highest first, a face before its
    co-faces.

    The rows are sorted by a bubble network of column-wise min/max
    swaps, far faster than a sort along rows this short, on one array
    of columns, which ``ranks`` views transposed.  Pass ``i`` settles
    column ``i``, and its last swap writes that column's maxima back in
    place; the last swap of all writes column 0's minima.  With d >= 2,
    no swap reads a column after it is written back."""
    n, width = len(field), max(r.shape[1] for r in rows)
    cols = np.full((width, sum(map(len, rows))), -1, dtype=np.int64)
    a = 0
    for r in rows:
        cols[:r.shape[1], a:a + len(r)] = field.ranks[r.T]
        a += len(r)
    c = list(cols)
    for i in range(width - 1, 0, -1):
        for j in range(i):
            lo = np.minimum(c[j], c[j + 1], out=cols[0] if i == 1 else None)
            c[j + 1] = np.maximum(c[j], c[j + 1],
                                  out=cols[i] if j + 1 == i else None)
            c[j] = lo
    rest = cols[-2] + 1
    for col in cols[-3::-1]:
        rest *= n
        rest += col + 1
    return cols.T, rest


def _critical_by_key(grad: DiscreteGradient) -> tuple:
    """``(dims, sids, keys)``: the critical simplices of every dimension
    in ascending (dimension, simplex key) order, and their ``ranks``
    rows from ``_rank_keys``.

    Two plain argsorts, far faster than a lexsort: one of ``rest``, then
    one of the dimension, the highest rank and that place."""
    n = len(grad.field)
    sids = [(np.maximum(up, down) < 0).nonzero()[0]
            for up, down in zip(grad.pair_up, grad.pair_down)]
    dims = np.arange(len(sids)).repeat([len(s) for s in sids])
    keys, rest = _rank_keys(grad.field, [
        v.take(s, axis=0) for v, s in zip(grad.verts, sids)])
    place = np.empty(len(dims), dtype=np.int64)
    place[rest.argsort()] = np.arange(len(dims))
    at = ((dims * n + keys[:, -1]) * len(dims) + place).argsort()
    return dims[at], np.concatenate(sids)[at], keys.take(at, axis=0)


def _lower_star_slots(grad: DiscreteGradient) -> tuple:
    """``(base, order, owner, faces)``: every k-simplex with k >= 1 as a
    slot of its owner's lower star, in star order.

    Slot ``(k, s)`` has flat id ``base[k] + s``; ``order`` lists the flat
    ids by owner, then by simplex key (``_rank_keys``).  ``owner[i]`` is
    the owner of slot ``order[i]``, and ``faces[i]`` the positions in
    ``order`` of its faces in the lower star, padded with
    ``len(order)``.  Those faces are its ``facet_ids`` row without the
    column opposite the owner; an edge's only one, the owner itself, is
    left out.
    """
    tri, field, d = grad.tri, grad.field, grad.tri.dim
    base = np.cumsum([0, 0] + [len(grad.verts[k]) for k in range(1, d + 1)])
    n_slots = base[-1]
    ranks, rest = _rank_keys(field, grad.verts[1:])
    owner = field.order[ranks[:, -1]]
    faces = np.full((n_slots, d), -1, dtype=np.int64)
    for k in range(2, d + 1):
        at = slice(base[k], base[k + 1])
        keep = grad.verts[k] != owner[at, None]
        faces[at, :k] = base[k - 1] + tri.facet_ids(k)[keep].reshape(-1, k)
    # sort by (owner, rank of the rest): two plain sorts of unique keys
    # are faster than a stable sort by owner
    pos = np.empty(n_slots + 1, dtype=np.int64)
    pos[np.argsort(rest)] = np.arange(n_slots)
    order = np.argsort(owner * n_slots + pos[:-1])
    pos[order] = np.arange(n_slots)
    pos[-1] = n_slots
    return base, order, owner[order], pos[faces.take(order, axis=0)]


@stored
def _lower_star_gradient(tri: Triangulation,
                         field: OrderField) -> DiscreteGradient:
    """The discrete gradient of ``field`` on ``tri`` by ProcessLowerStars,
    on every lower star at once (see the module docstring).

    Built once per field and triangulation and kept in the field's
    store, which refuses a field of the wrong length, with every array
    read-only; ``build_gradient`` hands out editable copies.
    """
    grad = DiscreteGradient(tri, field)
    base, order, owner, faces = _lower_star_slots(grad)
    d, n_slots = tri.dim, len(order)
    done = np.zeros(n_slots + 1, dtype=np.uint8)
    done[n_slots] = 1                   # the padding face
    # round 0: each vertex pairs with its first slot, its steepest lower
    # edge; a vertex with no slot is a minimum
    first = np.flatnonzero(_first_of_runs(owner))
    grad.pair_up[0][owner[first]] = order[first] - base[1]
    grad.pair_down[1][order[first] - base[1]] = owner[first]
    done[first] = 1
    # each later round is one heap pop of the sequential algorithm in
    # every star: the first slot with one unassigned face pairs with
    # it, or else the first slot with none becomes critical
    live = np.flatnonzero(done[:n_slots] == 0)
    star, cols = owner[live], [faces[live, j] for j in range(d)]
    busy = np.zeros(len(field), dtype=bool)
    uppers, lowers = [], []
    while len(live):
        got = [done[c] for c in cols]
        n_done = sum(got[1:], got[0])
        one = np.flatnonzero(n_done == d - 1)
        one = one[_first_of_runs(star[one])]
        busy[star[one]] = True
        zero = np.flatnonzero(n_done == d)
        zero = zero[~busy[star[zero]]]
        zero = zero[_first_of_runs(star[zero])]
        busy[star[one]] = False
        hi, lo = live[one], cols[0][one]
        for c, g in zip(cols[1:], got[1:]):
            lo = np.where(g[one] == 0, c[one], lo)
        done[hi] = done[lo] = done[live[zero]] = 1
        uppers.append(hi)
        lowers.append(lo)
        keep = done[live] == 0
        live, star, cols = live[keep], star[keep], [c[keep] for c in cols]
    hi = order[np.concatenate(uppers)]
    lo = order[np.concatenate(lowers)]
    dim = np.searchsorted(base, hi, side="right") - 1
    for k in range(2, d + 1):
        h, l = hi[dim == k] - base[k], lo[dim == k] - base[k - 1]
        grad.pair_up[k - 1][l] = h
        grad.pair_down[k][h] = l
    for arr in grad.pair_up + grad.pair_down:
        arr.flags.writeable = False
    return grad


def build_gradient(tri: Triangulation, field: OrderField) -> DiscreteGradient:
    """The discrete gradient of ``field`` on ``tri``, as a fresh copy that
    the caller may edit, of the one the field's store keeps."""
    return _lower_star_gradient(tri, field).copy()


# --------------------------------------------------------------------------
# V-paths
# --------------------------------------------------------------------------


@dataclass
class VPath:
    """A gradient path between simplices of dimensions ``dim`` and ``dim+1``.

    ``pairs`` lists the gradient pairs crossed, walking down from the
    ``upper`` end toward the ``lower`` end; the full simplex walk is
    ``upper, l1, h1, ..., lr, hr, lower``.  ``upper`` is None when an
    ascending walk leaves the domain through the boundary.
    """

    dim: int
    upper: int | None
    lower: int
    pairs: list = dc_field(default_factory=list)


def _walk_arrays(grad: DiscreteGradient, ascending: bool) -> tuple:
    """``(rows, via)`` of the (0, 1) walk, the edges and ``pair_up[0]``,
    or the (d-1, d) walk, the facets' co-faces and ``pair_down[d]``.

    An ascending walk has no single next step across a facet with three
    or more co-facets, so there it raises ``DomainTopologyError``, which
    names the first such facet.
    """
    if ascending:
        d = grad.tri.dim
        rows = grad.tri.cofacet_ids(d - 1)
        if rows.shape[1] > 2:
            f = int(np.argmax(rows[:, 2] >= 0))
            raise DomainTopologyError(
                f"facet {f} (vertices {grad.verts[d - 1][f].tolist()}) has "
                f"{int((rows[f] >= 0).sum())} co-facets; ascending walks "
                "need at most two")
        return rows, grad.pair_down[d]
    return grad.verts[1], grad.pair_up[0]


def _successors(rows, via) -> np.ndarray:
    """The walk's step for every node at once: a step from node ``x``
    crosses row ``via[x]`` to its other entry, -1 where it leaves the
    domain through a row with one entry, and an end, a node with
    ``via < 0``, maps to itself.  One extra last slot holds -1, so -1
    indexes it and maps to itself too.  ``rows`` has two columns.

    Rows are gathered with ``take``: on numpy 2.4, ``rows[i]`` on a 2D
    array is several times slower."""
    nxt = np.arange(len(via) + 1, dtype=np.int64)
    nxt[-1] = -1
    x = (via >= 0).nonzero()[0]
    a, b = rows.take(via[x], axis=0).T
    nxt[x] = np.where(a == x, b, a)
    return nxt


def _walk_ends(grad: DiscreteGradient, ascending: bool) -> np.ndarray:
    """The end of every node's walk, as ``_walk_arrays`` gives the walk,
    -1 where it leaves the domain, plus the extra last slot, which holds
    -1: pointer doubling over ``_successors``, which raises
    ``ValueError`` on a closed V-path."""
    return _pointer_jump(_successors(*_walk_arrays(grad, ascending)))


def _lockstep_walks(rows, via, roots) -> tuple:
    """The walks out of every root at once, one root being a list of
    one: ``(owner, ends, bounds, body)``.

    Walk ``i`` starts at an entry of ``rows[roots[owner[i]]]``, in root
    then row order.  Its nodes are ``body[bounds[i]:bounds[i + 1]]``
    followed by ``ends[i]``, -1 where it leaves the domain.  The ends
    come from pointer doubling over ``_successors``, which holds that -1
    already and refuses a closed V-path with ``ValueError``; the bodies
    then advance in lock-step, one gather per round over the walks
    still going (a walk at -1 has stopped), and are placed by step.
    """
    nxt = _successors(rows, via)
    entries = rows[np.asarray(roots, dtype=np.int64)]
    keep = entries >= 0                 # rows are padded at the end
    owner = np.nonzero(keep)[0]
    cur = entries[keep]
    ends = _pointer_jump(nxt)[cur]
    walk = np.arange(len(cur))
    walks, nodes = [], []
    while True:            # ends, since no walk closes into a cycle
        going = nxt[cur] != cur
        walk, cur = walk[going], cur[going]
        walks.append(walk)
        nodes.append(cur)
        if not len(walk):
            break
        cur = nxt[cur]
    step = np.repeat(np.arange(len(walks)), [len(w) for w in walks])
    walk = np.concatenate(walks)
    bounds = np.zeros(len(owner) + 1, dtype=np.int64)
    np.cumsum(np.bincount(walk, minlength=len(owner)), out=bounds[1:])
    body = np.empty(len(walk), dtype=np.int64)
    body[bounds[walk] + step] = np.concatenate(nodes)
    return owner, ends, bounds, body


def _descend_children(grad, dim, high):
    """(low, next_high) continuations of a descending (dim, dim+1) walk,
    in ascending ``low`` order."""
    paired = grad.pair_down[dim + 1][high]
    up = grad.pair_up[dim]
    return [(low, int(up[low]))
            for low in sorted(grad.tri.facet_ids(dim + 1)[high].tolist())
            if low != paired]


def _add_counts(total, counts):
    for e, c in counts.items():
        total[e] = total.get(e, 0) + c


def _vpath_counts(grad, dim, high, targets, memo):
    """Descending V-path counts from (dim+1)-simplex ``high`` to each
    dim-simplex in ``targets``; ``memo`` may be shared across roots.

    Each root is counted from scratch: callers pass critical roots, each
    once per memo, and a critical simplex is never a child, which is a
    paired ``pair_up`` entry, so no root is in the memo already.
    A post-order over an explicit stack: the counts of a simplex sum
    those of its children in child order, and a walk stops at a target.
    An entry is ``{}`` while its simplex is on the stack, so a walk that
    loops back adds nothing (gradient acyclicity makes this safe).
    """
    memo[high] = {}
    stack = [(high, {}, iter(_descend_children(grad, dim, high)))]
    while stack:
        h, total, children = stack[-1]
        for low, nxt in children:
            if low in targets:
                total[low] = total.get(low, 0) + 1
            elif nxt >= 0:
                got = memo.get(nxt)
                if got is None:
                    memo[nxt] = {}
                    stack.append(
                        (nxt, {}, iter(_descend_children(grad, dim, nxt))))
                    break
                _add_counts(total, got)
        else:
            stack.pop()
            memo[h] = total
            if stack:
                _add_counts(stack[-1][1], total)
    return memo[high]


def _first_vpath(grad, dim, upper, lower, memo) -> VPath | None:
    """First descending V-path from ``upper`` to ``lower`` in depth-first
    order, read from the counts ``_vpath_counts`` left in ``memo``.

    The walk steps into the first child that is ``lower`` or whose
    counts include it; on an acyclic gradient that child starts the
    depth-first path.
    """
    pairs, high = [], upper
    while True:
        for low, nxt in _descend_children(grad, dim, high):
            if low == lower:
                return VPath(dim, int(upper), int(lower), pairs)
            if nxt >= 0 and lower in memo.get(nxt, ()):
                pairs.append((low, nxt))
                high = nxt
                break
        else:
            return None


def reverse_vpath(grad: DiscreteGradient, path: VPath) -> None:
    """Cancel the pair (path.lower, path.upper) by reversing the path."""
    k = path.dim
    lows = [l for l, _ in path.pairs] + [path.lower]
    highs = [path.upper] + [h for _, h in path.pairs]
    for l, h in zip(lows, highs):
        grad.pair_up[k][l] = h
        grad.pair_down[k + 1][h] = l


def gradient_is_acyclic(grad: DiscreteGradient) -> bool:
    """Exhaustive check that no V-path loops back on itself.

    For each k, the V-path digraph on the (k+1)-simplices has an edge
    ``h -> pair_up[k][low]`` for every facet ``low`` of ``h`` other than
    ``pair_down[k+1][h]``.  For k = 0 each node has at most one
    successor, and the digraph is the descending (0, 1) walk; for
    k = d-1, when no facet has more than two co-facets, its reverse is
    the ascending (d-1, d) walk.  The walk's end table, ``_walk_ends``,
    refuses a closed V-path.  Any other digraph, the 3D (1, 2) one or a
    (d-1, d) one with a fan of three or more co-facets, is peeled by
    Kahn's algorithm, one frontier of in-degree-0 nodes at a time (in
    any column order of the facets); it is acyclic iff every node is
    peeled.
    """
    d = grad.tri.dim
    for k in range(d):
        if k == 0 or (k == d - 1 and grad.tri.cofacet_ids(k).shape[1] == 2):
            try:
                _walk_ends(grad, k > 0)
            except ValueError:
                return False
            continue
        rows = grad.tri.facet_ids(k + 1)
        succ = grad.pair_up[k][rows]
        succ[rows == grad.pair_down[k + 1][:, None]] = -1
        indeg = np.bincount(succ[succ >= 0], minlength=len(rows))
        frontier = np.flatnonzero(indeg == 0)
        peeled = 0
        while len(frontier):
            peeled += len(frontier)
            nxt = succ[frontier].ravel()
            nxt = nxt[nxt >= 0]
            np.subtract.at(indeg, nxt, 1)
            frontier = np.sort(nxt[indeg[nxt] == 0])
            frontier = frontier[_first_of_runs(frontier)]
        if peeled < len(rows):
            return False
    return True


def pairing_is_valid(grad: DiscreteGradient) -> bool:
    """Each simplex is critical or in exactly one face/co-face pair."""
    tri, d = grad.tri, grad.tri.dim
    for k in range(d + 1):
        up, down = grad.pair_up[k], grad.pair_down[k]
        if np.any((up >= 0) & (down >= 0)):
            return False
        sids = np.nonzero(up >= 0)[0]
        if len(sids):
            if k == d:
                return False
            tids = up[sids]
            if np.any(grad.pair_down[k + 1][tids] != sids):
                return False
            if not (tri.facet_ids(k + 1)[tids] == sids[:, None]).any(
                    axis=1).all():
                return False
        sids = np.nonzero(down >= 0)[0]
        if len(sids):
            if k == 0 or np.any(grad.pair_up[k - 1][down[sids]] != sids):
                return False
    return True

"""Sparse LU of the interior Newton system on NumPy alone.

The interior Jacobian of a problem keeps one sparsity pattern for the whole
solve, so its elimination tree is built once.  :class:`FrontTree` takes it
as (row, column) pairs, one per matrix entry, lays it out in CSC order and
orders the unknowns by nested dissection (George, 1973) on the chart
coordinates: the vertices of a node are split at the median of their wider
coordinate, the vertices of one side that have a neighbour on the other side
become the node's pivots (the separator), and the two remaining parts become
its children, down to leaves of at most ``LEAF_SIZE`` vertices, which are
all pivots.  Children are eliminated before their parent.

Each matrix on the pattern is then factored by the multifrontal method (Duff
& Reid, 1983).  The front of a node holds its pivots and its update set: the
not yet eliminated neighbours of its pivots and the update sets of its
children.  A front is the node's own matrix entries plus the Schur
complements of its children (extend-add); eliminating its pivots leaves the
Schur complement that goes to the parent.  The fronts of one tree height are
grouped into shape classes by their pivot counts, in bands ``LEAF_SIZE // 4``
wide, and each class is padded to the largest pivot and update counts of its
fronts (identity on padded pivots, zeros on padded updates), so fronts,
inverses and factor blocks hold mostly real entries and each class is one
batched inverse and a few batched matrix products.  The fronts of a class
exist only while it is eliminated: its buffer is filled with the padding,
its own matrix entries and then the Schur blocks of its children, child
classes in elimination order, and a Schur block is dropped once the last
class that reads it is assembled.  The extend-add uses relative indices
(Liu, 1992): per child front the tree keeps only where each update row
starts in the parent's buffer and which column each update is there, two
``int32`` arrays of shape (k, U), and expands them into the positions of
the Schur block entries when the parent is assembled.  The tree thus keeps
O(pairs + sum of k U) indices, not one per Schur block entry, and a
factorization holds its factor blocks, one class's fronts and the Schur
blocks still waiting for their parents, not the fronts of the whole tree.
The elimination pivots only inside a node's pivot block, which suits the
elliptic linearizations this package solves; a :class:`FrontMatrix` is
factored on its first solve and keeps its factors.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError
from .mesh import _offsets, _unique

__all__ = ["LEAF_SIZE", "FrontTree", "FrontMatrix"]

# largest leaf of the dissection; every vertex of a leaf is a pivot
LEAF_SIZE = 32


def _dissect(coords, ei, ej):
    """Nested dissection of the graph with edges ``(ei, ej)`` on the points
    ``coords``.  Returns the node owning each vertex as a pivot, the parent
    of each node (-1 at the root) and its depth; node numbers grow with
    depth, children of one parent are numbered together."""
    n = len(coords)
    # rank of each vertex along each chart coordinate, ties by vertex number
    crank = np.empty((2, n), dtype=np.intp)
    for axis in (0, 1):
        crank[axis, np.argsort(coords[:, axis], kind="stable")] = np.arange(n)
    owner = np.full(n, -1)
    label = np.zeros(n, dtype=np.intp)        # node of each undecided vertex
    parent, depth = [np.array([-1])], [np.array([0])]
    lo, hi, level = 0, 1, 0
    todo = np.arange(n)
    while len(todo):
        loc = label[todo] - lo
        size = np.bincount(loc, minlength=hi - lo)
        leaf = size[loc] <= LEAF_SIZE
        owner[todo[leaf]] = label[todo[leaf]]
        v, loc = todo[~leaf], loc[~leaf]
        if not len(v):
            break
        # median split along the wider chart coordinate of each node
        k = hi - lo
        ext = np.empty((2, k))
        for axis in (0, 1):
            c = coords[v, axis]
            top, bot = np.full(k, -np.inf), np.full(k, np.inf)
            np.maximum.at(top, loc, c)
            np.minimum.at(bot, loc, c)
            ext[axis] = top - bot
        wide = (ext[1] > ext[0]).astype(np.intp)
        order = np.argsort(loc * n + crank[wide[loc], v])
        first = np.cumsum(size) - size
        rank = np.empty(len(v), dtype=np.intp)
        rank[order] = np.arange(len(v)) - first[loc[order]]
        side = np.full(n, -1, dtype=np.int8)
        side[v] = rank >= size[loc] // 2
        # separator: the vertices of one side with a neighbour on the other
        # (the smaller of the two candidates); edges that touch a decided
        # vertex are dropped for good, which leaves no edge between two
        # nodes, as a separator takes one end of every crossing edge
        si, sj = side[ei], side[ej]
        live = (si >= 0) & (sj >= 0)
        ei, ej, cross = ei[live], ej[live], (si != sj)[live]
        on = np.zeros((2, n), dtype=bool)
        for end in (ei[cross], ej[cross]):
            on[side[end], end] = True
        count = np.stack([np.bincount(loc, weights=on[s, v], minlength=k)
                          for s in (0, 1)])
        pick = (count[1] < count[0]).astype(np.intp)
        sep = on[pick[loc], v]
        owner[v[sep]] = label[v[sep]]
        # the two sides that remain are the children
        v, loc, key = v[~sep], loc[~sep], 2 * loc[~sep] + side[v[~sep]]
        made = np.bincount(key, minlength=2 * k) > 0
        child = np.cumsum(made) - 1 + hi
        label[v] = child[key]
        lo, hi, level = hi, hi + int(made.sum()), level + 1
        parent.append(lo - k + np.nonzero(made)[0] // 2)
        depth.append(np.full(hi - lo, level))
        todo = v
    return owner, np.concatenate(parent), np.concatenate(depth)


def _grouped(key, bound):
    """Stable order of the non-negative integers ``key`` below ``bound``:
    NumPy radix-sorts 16-bit keys, several times faster than 64-bit ones."""
    return np.argsort(key.astype(np.int16) if bound < 2**15 else key, kind="stable")


class _Class:
    """The fronts of one shape class: ``k`` fronts of one tree height whose
    pivot counts share a band, padded to ``P`` pivots and ``U`` updates.
    While the class is eliminated its fronts live in a buffer of their own,
    front ``s`` at ``s * (P + U)**2``, with one spare slot at the end that
    takes what the children's padded update rows and columns add."""

    def __init__(self, height: int, k: int, P: int, U: int, pivots, updates,
                 pad, source, target, row_at, col_at, extend: list, release: list):
        self.height, self.k, self.P, self.U = height, k, P, U
        self.pivots = pivots      # (k, P) unknowns, padding -> n
        self.updates = updates    # (k, U) unknowns, padding -> n
        self.pad = pad            # buffer slots of the padded pivots' diagonal
        self.source = source      # CSC entries of this class
        self.target = target      # their buffer slots
        # where the Schur blocks (k, U, U) go in the parents' buffers: entry
        # (s, i, j) is added at min(row_at[s, i] + col_at[s, j], spare slot);
        # a padded update row or column holds the parent's spare slot
        self.row_at = row_at      # (k, U) first slot of each update row in the parent front
        self.col_at = col_at      # (k, U) column of each update in the parent front
        self.extend = extend      # [(child class, first, end)]: its fronts first:end
        self.release = release    # child classes whose Schur blocks are read last here


class FrontTree:
    """Nested-dissection tree of a pattern with the index maps of its fronts.
    ``rows`` and ``cols``, integer arrays of one shape, hold one (row,
    column) pair per matrix entry, -1 in either for a pair to drop; the tree
    keeps the CSC pattern (``indptr``, ``indices``) and each pair's ``slot``
    in it, ``len(indices)`` if dropped.  ``coords`` (n, 2) places the
    unknowns in the plane; the dissection uses the pattern of ``A + A^T``,
    so any square pattern is handled."""

    def __init__(self, rows, cols, coords):
        n = self.n = len(coords)
        # the key col n + row sorts in CSC order, a dropped pair's key n^2
        # after every kept one; a pair's slot is the rank of its key
        keys = np.multiply(cols, n, dtype=np.int64)
        keys += rows
        keys[(rows < 0) | (cols < 0)] = n * n
        keys = keys.ravel()
        order = np.argsort(keys, kind="stable")   # faster than quicksort here
        keys = keys[order]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        self.slot = np.empty(len(order), dtype=np.int32)
        self.slot[order] = np.cumsum(new, dtype=np.int32) - 1
        keys = keys[new]
        cols, rows = np.divmod(keys[keys < n * n], n)
        del order, new, keys
        self.indptr = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
        self.indices = rows.astype(np.int32)
        # the edges of A + A^T, each once
        off = rows != cols
        ei, ej = np.divmod(_unique(np.minimum(rows, cols)[off] * n
                                   + np.maximum(rows, cols)[off]), n)
        del off
        owner, parent, depth = _dissect(np.asarray(coords, dtype=float), ei, ej)
        nodes = len(parent)
        height = np.zeros(nodes, dtype=np.intp)
        for d in range(int(depth.max()), 0, -1):
            at = np.nonzero(depth == d)[0]
            np.maximum.at(height, parent[at], height[at] + 1)

        # update sets, deepest nodes first: the neighbours of a node's pivots
        # and its children's update sets, less what the node eliminates or
        # has eliminated (owned at its depth or deeper)
        di, dj = depth[owner[ei]], depth[owner[ej]]
        nb_node = np.concatenate([owner[ej[di < dj]], owner[ei[dj < di]]])
        nb_vert = np.concatenate([ei[di < dj], ej[dj < di]])
        nb_depth = depth[nb_node]
        keys, carry = [], np.empty(0, dtype=np.int64)
        for d in range(int(depth.max()), -1, -1):
            cn, cv = np.divmod(carry, n)
            cn = parent[cn]
            keep = depth[owner[cv]] < d
            sel = nb_depth == d
            carry = _unique(np.concatenate([nb_node[sel].astype(np.int64) * n + nb_vert[sel],
                                            cn[keep].astype(np.int64) * n + cv[keep]]))
            keys.append(carry)
        # (node, vertex) ascending: node numbers grow with depth
        ukeys = np.concatenate(keys[::-1])
        del keys, carry
        unode, uvert = np.divmod(ukeys, n)

        # local position of each vertex in its fronts
        p_count = np.bincount(owner, minlength=nodes)
        u_count = np.bincount(unode, minlength=nodes)
        order = _grouped(owner, nodes)
        prank = np.empty(n, dtype=np.intp)
        prank[order] = np.arange(n) - (np.cumsum(p_count) - p_count)[owner[order]]
        u_first = np.cumsum(u_count) - u_count
        urank = np.arange(len(ukeys)) - u_first[unode]

        # shape classes: the fronts of one height grouped by pivot count in
        # bands LEAF_SIZE // 4 wide, classes in elimination order (heights
        # ascending); within a class the fronts run by parent class, so the
        # Schur blocks that go to one parent class are consecutive, and two
        # siblings in one class are added first child first
        child = np.nonzero(parent >= 0)[0]
        band = -(-p_count // (LEAF_SIZE // 4))
        _, klass = np.unique(height * (band.max() + 1) + band, return_inverse=True)
        C = int(klass.max()) + 1
        pclass = np.full(nodes, C)                # the root's: none
        pclass[child] = klass[parent[child]]
        corder = np.lexsort((pclass, klass))
        k_c = np.bincount(klass, minlength=C)
        c_first = _offsets(k_c)
        slot = np.empty(nodes, dtype=np.intp)     # index within its class
        slot[corder] = np.arange(nodes) - c_first[klass[corder]]
        P_c = np.zeros(C, dtype=np.intp)
        U_c = np.zeros_like(P_c)
        np.maximum.at(P_c, klass, p_count)
        np.maximum.at(U_c, klass, u_count)
        M_c = P_c + U_c
        size = k_c * M_c * M_c                    # the spare slot of each class's buffer
        # int32 index maps; slots reach the pattern's size, row_at + col_at
        # twice the spare slot
        if max(2 * int(size.max()), len(rows)) >= 2**31:
            raise MemoryError("the pattern or one class's fronts exceed 2**30 entries")
        M = M_c[klass]
        front = slot * M * M                      # first slot of each front

        def local(f, v):
            """Position of vertex ``v`` in the front of node ``f``."""
            out = prank[v]
            up = owner[v] != f
            at = np.searchsorted(ukeys, f[up].astype(np.int64) * n + v[up])
            out[up] = P_c[klass[f[up]]] + urank[at]
            return out

        # each entry goes to the front of the deeper of its two owners,
        # entries grouped by class
        f = np.where(depth[owner[cols]] >= depth[owner[rows]], owner[cols], owner[rows])
        source = _grouped(klass[f], C)
        f = f[source]
        target = front[f] + local(f, rows[source]) * M[f] + local(f, cols[source])
        cut = _offsets(np.bincount(klass[f], minlength=C)).tolist()
        source, target = source.astype(np.int32), target.astype(np.int32)
        del f, rows, cols, ei, ej

        # where each update goes in its parent's front (the root has none)
        up_par = parent[unode]
        up_col = local(up_par, uvert)
        up_row = front[up_par] + up_col * M[up_par]
        del up_par
        by_class = _grouped(klass[owner], C)
        v_cut = _offsets(np.bincount(klass[owner], minlength=C)).tolist()
        u_order = _grouped(klass[unode], C)
        u_cut = _offsets(np.bincount(klass[unode], minlength=C)).tolist()
        spare = np.append(size, 0)                # the root has no parent
        runs = [[] for _ in range(C)]             # extend-add runs, by parent class
        drops = [[] for _ in range(C)]            # Schur blocks, by the last class reading them
        self.classes = []
        for c, (k, P, U) in enumerate(zip(k_c.tolist(), P_c.tolist(), U_c.tolist())):
            v = by_class[v_cut[c]:v_cut[c + 1]]
            piv = np.full((k, P), n)
            piv[slot[owner[v]], prank[v]] = v
            s, i = np.nonzero(piv == n)
            e = u_order[u_cut[c]:u_cut[c + 1]]
            at = slot[unode[e]], urank[e]
            upd = np.full((k, U), n)
            upd[at] = uvert[e]
            mine = corder[c_first[c]:c_first[c + 1]]
            row_at = np.repeat(spare[pclass[mine]].astype(np.int32), U).reshape(k, U)
            col_at = row_at.copy()
            row_at[at], col_at[at] = up_row[e], up_col[e]
            self.classes.append(_Class(
                int(height[mine[0]]), k, P, U, piv, upd,
                (s * (P + U) ** 2 + i * (P + U + 1)).astype(np.int32),
                source[cut[c]:cut[c + 1]], target[cut[c]:cut[c + 1]],
                row_at, col_at, runs[c], drops[c]))
            if U:
                lo = np.flatnonzero(np.diff(pclass[mine], prepend=-1)).tolist()
                for a, b in zip(lo, lo[1:] + [k]):
                    runs[pclass[mine[a]]].append((c, a, b))
                drops[pclass[mine[-1]]].append(c)

    def factor(self, data) -> list:
        """Block LU of the matrix with CSC values ``data``, per shape class
        the inverse pivot blocks and the blocks below and (times the
        inverses) right of them.  One class is eliminated at a time: only
        its fronts and the Schur blocks waiting for their parents are held."""
        data = np.asarray(data)
        blocks, schur = [], {}
        for c, g in enumerate(self.classes):
            M = g.P + g.U
            spare = g.k * M * M
            # take and put: NumPy's fancy indexing is slower on int32 maps
            buf = np.zeros(spare + 1)
            buf.put(g.pad, 1.0)
            buf.put(g.target, data.take(g.source))
            # extend-add: the positions of a run's Schur block entries are
            # expanded here; np.add.at adds them in order, so two siblings
            # in one run add first child first
            for kid, lo, hi in g.extend:
                t = self.classes[kid]
                at = t.row_at[lo:hi, :, None] + t.col_at[lo:hi, None, :]
                np.minimum(at, spare, out=at)
                np.add.at(buf, at.ravel(), schur[kid][lo:hi].ravel())
                del at
            for kid in g.release:
                del schur[kid]
            F = buf[:spare].reshape(g.k, M, M)
            inv = np.linalg.inv(F[:, :g.P, :g.P])
            upper = inv @ F[:, :g.P, g.P:]
            lower = F[:, g.P:, :g.P].copy()
            S = lower @ upper
            schur[c] = np.subtract(F[:, g.P:, g.P:], S, out=S)
            # free the fronts before the next class's, and let a released
            # Schur block go with its dict entry
            del buf, F, S
            blocks.append((inv, lower, upper))
        return blocks


class FrontMatrix:
    """A matrix on the pattern of a :class:`FrontTree`, given one value per
    pair of the tree: ``data`` holds its entries in CSC order, the values of
    each entry's pairs summed in pair order."""

    def __init__(self, tree: FrontTree, values):
        self.tree = tree
        self.data = np.bincount(tree.slot, weights=np.ravel(values),
                                minlength=len(tree.indices) + 1)[:-1]
        self._blocks = None

    @property
    def shape(self):
        return (self.tree.n, self.tree.n)

    def __matmul__(self, x):
        x = np.repeat(np.asarray(x, dtype=float), np.diff(self.tree.indptr))
        return np.bincount(self.tree.indices, weights=self.data * x, minlength=self.tree.n)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        cols = np.repeat(np.arange(self.tree.n), np.diff(self.tree.indptr))
        out[self.tree.indices, cols] = self.data
        return out

    def solve(self, rhs) -> np.ndarray:
        """``A^-1 rhs``.  The first solve factors the matrix and makes
        ``data`` read-only, so the kept factors cannot go stale; a singular
        pivot block raises ``SingularSystemError`` on every solve."""
        if self._blocks is None:
            try:
                self._blocks = self.tree.factor(self.data)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
            self.data.flags.writeable = False
        n = self.tree.n
        x = np.zeros(n + 1)                     # slot n: padding, kept 0
        x[:n] = rhs
        ws = []
        for g, (inv, lower, _) in zip(self.tree.classes, self._blocks):
            w = (inv @ x[g.pivots][..., None])[..., 0]
            x -= np.bincount(g.updates.ravel(), weights=(lower @ w[..., None]).ravel(),
                             minlength=n + 1)
            x[n] = 0.0
            ws.append(w)
        for g, (_, _, upper), w in zip(reversed(self.tree.classes),
                                       reversed(self._blocks), reversed(ws)):
            x[g.pivots] = w - (upper @ x[g.updates][..., None])[..., 0]
            x[n] = 0.0
        return x[:n]

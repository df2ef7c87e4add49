"""Sparse LU of the interior Newton system on NumPy alone.

The interior Jacobian of a problem keeps one sparsity pattern for the whole
solve, so its elimination tree is built once.  :class:`FrontTree` orders the
unknowns by nested dissection (George, 1973) on the chart coordinates: the
vertices of a node are split at the median of their wider coordinate, the
vertices of one side that have a neighbour on the other side become the
node's pivots (the separator), and the two remaining parts become its
children, down to leaves of at most ``LEAF_SIZE`` vertices, which are all
pivots.  Children are eliminated before their parent.

Each matrix on the pattern is then factored by the multifrontal method (Duff
& Reid, 1983).  The front of a node holds its pivots and its update set: the
not yet eliminated neighbours of its pivots and the update sets of its
children.  A front is the node's own matrix entries plus the Schur
complements of its children (extend-add); eliminating its pivots leaves the
Schur complement that goes to the parent.  Fronts of one tree height are
padded to one shape (identity on padded pivots, zeros on padded updates), so
each height is one batched inverse and a few batched matrix products.  The
fronts of a height exist only while it is eliminated: its buffer is filled
with the padding, its own matrix entries and then the Schur blocks of its
children, lower child heights first, through ``int32`` index maps made with
the tree, and a Schur block is dropped once the highest height that reads it
is assembled.  A factorization thus holds its factor blocks, one
height's fronts and the Schur blocks still waiting for their parents (Liu,
1992), not the fronts of the whole tree.  The elimination pivots only
inside a node's pivot block, which suits the elliptic linearizations this
package solves; a singular pivot block raises ``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _unique

__all__ = ["LEAF_SIZE", "FrontTree", "FrontMatrix", "FrontFactors"]

# largest leaf of the dissection; every vertex of a leaf is a pivot
LEAF_SIZE = 32


def _dissect(coords, ei, ej):
    """Nested dissection of the graph with edges ``(ei, ej)`` on the points
    ``coords``.  Returns the node owning each vertex as a pivot, the parent
    of each node (-1 at the root) and its depth; node numbers grow with
    depth, children of one parent are numbered together."""
    n = len(coords)
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
        order = np.lexsort((coords[v, wide[loc]], loc))
        first = np.cumsum(size) - size
        rank = np.empty(len(v), dtype=np.intp)
        rank[order] = np.arange(len(v)) - first[loc[order]]
        side = np.full(n, -1)
        side[v] = rank >= size[loc] // 2
        # separator: the vertices of one side with a neighbour on the other
        # (the smaller of the two candidates); edges that leave a node or
        # touch a decided vertex are dropped for good
        live = (side[ei] >= 0) & (side[ej] >= 0) & (label[ei] == label[ej])
        ei, ej = ei[live], ej[live]
        cross = side[ei] != side[ej]
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


def _offsets(counts):
    return np.concatenate([[0], np.cumsum(counts)])


@dataclass
class _Height:
    """Index maps of the fronts of one tree height, ``k`` fronts of ``P``
    padded pivots and ``U`` padded updates.  The fronts live in a buffer of
    their own, front ``s`` at ``s * (P + U)**2``, which the int32 maps
    index."""

    k: int
    P: int
    U: int
    pivots: np.ndarray        # (k, P) unknowns, padding -> n
    updates: np.ndarray       # (k, U) unknowns, padding -> n
    pad: np.ndarray           # buffer slots of the padded pivots' diagonal
    source: np.ndarray        # CSC entries of this height
    target: np.ndarray        # their buffer slots
    extend: list              # [(child height, Schur block entries, buffer slots)]
    release: list             # child heights whose Schur blocks are read last here


class FrontTree:
    """Nested-dissection tree of a square CSC pattern with the index maps
    of its fronts.  ``coords`` (n, 2) places the unknowns in the plane; the
    dissection uses the pattern of ``A + A^T``, so any square pattern is
    handled."""

    def __init__(self, indptr, indices, coords):
        self.indices = np.asarray(indices)
        n = self.n = len(indptr) - 1
        self.cols = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        rows = self.indices.astype(np.intp)
        cols = self.cols.astype(np.intp)
        off = rows != cols
        ei, ej = rows[off], cols[off]
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
        unode, uvert = np.divmod(ukeys, n)

        # local position of each vertex in its fronts
        p_count = np.bincount(owner, minlength=nodes)
        u_count = np.bincount(unode, minlength=nodes)
        order = np.argsort(owner, kind="stable")
        prank = np.empty(n, dtype=np.intp)
        prank[order] = np.arange(n) - (np.cumsum(p_count) - p_count)[owner[order]]
        u_first = np.cumsum(u_count) - u_count
        urank = np.arange(len(ukeys)) - u_first[unode]

        # fronts grouped by height, each group padded to one shape
        child = np.nonzero(parent >= 0)[0]
        sibling = np.zeros(nodes, dtype=np.intp)
        sibling[child] = np.arange(len(child)) - np.searchsorted(parent[child],
                                                                 parent[child])
        H = int(height.max()) + 1
        P_h = np.zeros(H, dtype=np.intp)
        U_h = np.zeros_like(P_h)
        np.maximum.at(P_h, height, p_count)
        np.maximum.at(U_h, height, u_count)
        M_h = P_h + U_h
        k_h = np.bincount(height)
        if max((k_h * M_h * M_h).max(), len(rows)) >= 2**31:   # the int32 index maps
            raise MemoryError("the pattern or one tree height's fronts exceed 2**31 entries")
        gorder = np.argsort(height, kind="stable")
        slot = np.empty(nodes, dtype=np.intp)     # index within its height
        slot[gorder] = np.arange(nodes) - (np.cumsum(k_h) - k_h)[height[gorder]]
        M = M_h[height]
        front = slot * M * M                      # first slot of each front

        def local(f, v):
            """Position of vertex ``v`` in the front of node ``f``."""
            out = prank[v]
            up = owner[v] != f
            at = np.searchsorted(ukeys, f[up].astype(np.int64) * n + v[up])
            out[up] = P_h[height[f[up]]] + urank[at]
            return out

        # each entry goes to the front of the deeper of its two owners,
        # entries grouped by height
        f = np.where(depth[owner[cols]] >= depth[owner[rows]], owner[cols], owner[rows])
        source = np.argsort(height[f], kind="stable")
        f = f[source]
        target = front[f] + local(f, rows[source]) * M[f] + local(f, cols[source])
        cut = _offsets(np.bincount(height[f], minlength=H)).tolist()
        source, target = source.astype(np.int32), target.astype(np.int32)

        # per height: the unknowns of the fronts, the identity on their
        # padded pivots, and the extend-add of their Schur blocks (k, U, U)
        # into the parents' fronts: the real entries of the children run by
        # (parent height, sibling rank), each run hitting distinct slots
        up_pos = local(parent[unode], uvert)      # the root has no update set
        last = np.full(H, -1)                     # highest height reading a Schur block
        np.maximum.at(last, height[child], height[parent[child]])
        runs = [[] for _ in range(H)]
        rank = np.empty(nodes, dtype=np.intp)
        self.heights = []
        for h, (k, P, U) in enumerate(zip(k_h.tolist(), P_h.tolist(), U_h.tolist())):
            mine = height[owner] == h
            piv = np.full((k, P), n)
            piv[slot[owner[mine]], prank[mine]] = np.nonzero(mine)[0]
            s, i = np.nonzero(piv == n)
            mine = height[unode] == h
            upd = np.full((k, U), n)
            upd[slot[unode[mine]], urank[mine]] = uvert[mine]

            kids = np.nonzero((height == h) & (parent >= 0))[0]
            key = height[parent[kids]] * 2 + sibling[kids]
            order = np.argsort(key, kind="stable")
            kids, key = kids[order], key[order]
            rank[kids] = np.arange(len(kids))
            pos = np.full((len(kids), U), -1, dtype=np.int32)
            pos[rank[unode[mine]], urank[mine]] = up_pos[mine]
            real = pos >= 0
            real = real[:, :, None] & real[:, None, :]
            p = parent[kids]
            row = (front[p][:, None] + pos * M[p][:, None]).astype(np.int32)
            into = (row[:, :, None] + pos[:, None, :])[real]
            cell = np.arange(U * U, dtype=np.int32).reshape(U, U)
            out = ((slot[kids] * U * U).astype(np.int32)[:, None, None] + cell)[real]
            groups, first = np.unique(key, return_index=True)
            bounds = _offsets(u_count[kids] ** 2)[np.append(first, len(key))].tolist()
            for g, lo, hi in zip(groups.tolist(), bounds, bounds[1:]):
                runs[g // 2].append((h, out[lo:hi], into[lo:hi]))
            self.heights.append(_Height(
                k, P, U, piv, upd, (s * (P + U) ** 2 + i * (P + U + 1)).astype(np.int32),
                source[cut[h]:cut[h + 1]], target[cut[h]:cut[h + 1]], runs[h],
                np.nonzero(last == h)[0].tolist()))

    def factor(self, data) -> "FrontFactors":
        """Eliminate every front of the matrix with CSC values ``data``, one
        tree height at a time: only that height's fronts and the Schur
        blocks still waiting for their parents are held."""
        data = np.asarray(data)
        blocks, schur = [], {}
        for h, g in enumerate(self.heights):
            M = g.P + g.U
            # take and put: NumPy's fancy indexing is slower on int32 maps
            buf = np.zeros(g.k * M * M)
            buf.put(g.pad, 1.0)
            buf.put(g.target, data.take(g.source))
            for c, source, target in g.extend:
                add = buf.take(target)
                add += schur[c].take(source)
                buf.put(target, add)
                del add
            for c in g.release:
                del schur[c]
            F = buf.reshape(g.k, M, M)
            inv = np.linalg.inv(F[:, :g.P, :g.P])
            upper = inv @ F[:, :g.P, g.P:]
            lower = F[:, g.P:, :g.P].copy()
            S = lower @ upper
            schur[h] = np.subtract(F[:, g.P:, g.P:], S, out=S).ravel()
            # free the fronts before the next height's, and let a released
            # Schur block go with its dict entry
            del buf, F, S
            blocks.append((inv, lower, upper))
        return FrontFactors(self, blocks)


class FrontFactors:
    """Block LU of a :class:`FrontTree` matrix: per height the inverse
    pivot blocks, the blocks below them and the blocks right of them
    multiplied by the inverses."""

    def __init__(self, tree: FrontTree, blocks):
        self.tree = tree
        self.blocks = blocks

    def solve(self, rhs) -> np.ndarray:
        n = self.tree.n
        x = np.zeros(n + 1)                     # slot n: padding, kept 0
        x[:n] = rhs
        ws = []
        for g, (inv, lower, _) in zip(self.tree.heights, self.blocks):
            w = (inv @ x[g.pivots][..., None])[..., 0]
            x -= np.bincount(g.updates.ravel(), weights=(lower @ w[..., None]).ravel(),
                             minlength=n + 1)
            x[n] = 0.0
            ws.append(w)
        for g, (_, _, upper), w in zip(reversed(self.tree.heights),
                                       reversed(self.blocks), reversed(ws)):
            x[g.pivots] = w - (upper @ x[g.updates][..., None])[..., 0]
            x[n] = 0.0
        return x[:n]


class FrontMatrix:
    """A matrix on the fixed CSC pattern of a :class:`FrontTree`:
    ``data`` holds the values in CSC order."""

    format = "csc"

    def __init__(self, tree: FrontTree, data):
        self.tree = tree
        self.data = np.asarray(data, dtype=float)

    @property
    def shape(self):
        return (self.tree.n, self.tree.n)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        return np.bincount(self.tree.indices, weights=self.data * x[self.tree.cols],
                           minlength=self.tree.n)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.tree.indices, self.tree.cols] = self.data
        return out

    def factor(self) -> FrontFactors:
        return self.tree.factor(self.data)

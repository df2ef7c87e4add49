"""The per-height multifrontal factorization against the single-buffer one.

``SingleBufferTree`` keeps, as a reference only, the former layout of
``ckgraph.frontal``: one buffer holding the fronts of every tree height at
once, filled before the first height is eliminated, with global index maps.
Both orders of operations add the same numbers in the same order, so the
factor blocks and the solves must agree bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.frontal import FrontFactors, FrontTree, _dissect
from ckgraph.mesh import _unique


class SingleBufferTree:
    """The former ``FrontTree``: the same dissection, heights and solve
    maps, with the fronts of all heights in one buffer of ``size`` slots."""

    def __init__(self, indptr, indices, coords):
        self.indices = np.asarray(indices)
        n = self.n = len(indptr) - 1
        self.cols = np.repeat(np.arange(n), np.diff(indptr))
        rows = self.indices.astype(np.intp)
        off = rows != self.cols
        ei, ej = rows[off], self.cols[off]
        owner, parent, depth = _dissect(np.asarray(coords, dtype=float), ei, ej)
        nodes = len(parent)
        height = np.zeros(nodes, dtype=np.intp)
        for d in range(int(depth.max()), 0, -1):
            at = np.nonzero(depth == d)[0]
            np.maximum.at(height, parent[at], height[at] + 1)

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
        ukeys = np.concatenate(keys[::-1])
        unode, uvert = np.divmod(ukeys, n)

        p_count = np.bincount(owner, minlength=nodes)
        u_count = np.bincount(unode, minlength=nodes)
        order = np.argsort(owner, kind="stable")
        prank = np.empty(n, dtype=np.intp)
        prank[order] = np.arange(n) - (np.cumsum(p_count) - p_count)[owner[order]]
        u_first = np.cumsum(u_count) - u_count
        urank = np.arange(len(ukeys)) - u_first[unode]

        child = np.nonzero(parent >= 0)[0]
        sibling = np.zeros(nodes, dtype=np.intp)
        sibling[child] = np.arange(len(child)) - np.searchsorted(parent[child],
                                                                 parent[child])
        P_h = np.zeros(height.max() + 1, dtype=np.intp)
        U_h = np.zeros_like(P_h)
        np.maximum.at(P_h, height, p_count)
        np.maximum.at(U_h, height, u_count)
        M_h = P_h + U_h
        k_h = np.bincount(height)
        gorder = np.argsort(height, kind="stable")
        slot = np.empty(nodes, dtype=np.intp)
        slot[gorder] = np.arange(nodes) - (np.cumsum(k_h) - k_h)[height[gorder]]
        h_off = np.concatenate([[0], np.cumsum(k_h * M_h * M_h)])
        self.size = int(h_off[-1])
        M = M_h[height]
        front = h_off[height] + slot * M * M

        def local(f, v):
            out = prank[v]
            up = owner[v] != f
            at = np.searchsorted(ukeys, f[up].astype(np.int64) * n + v[up])
            out[up] = P_h[height[f[up]]] + urank[at]
            return out

        r, c = rows, self.cols
        f = np.where(depth[owner[c]] >= depth[owner[r]], owner[c], owner[r])
        self._entries = front[f] + local(f, r) * M[f] + local(f, c)
        up_pos = local(parent[unode], uvert)

        self.heights, pad = [], []
        for h, (k, P, U) in enumerate(zip(k_h.tolist(), P_h.tolist(), U_h.tolist())):
            mine = height[owner] == h
            piv = np.full((k, P), n)
            piv[slot[owner[mine]], prank[mine]] = np.nonzero(mine)[0]
            mine = height[unode] == h
            at = slot[unode[mine]], urank[mine]
            upd = np.full((k, U), n)
            upd[at] = uvert[mine]
            node = np.empty(k, dtype=np.intp)
            node[slot[height == h]] = np.nonzero(height == h)[0]
            s = np.arange(P)
            diag = front[node][:, None] + s * (P + U + 1)
            pad.append(diag[s >= p_count[node][:, None]])
            pos = np.full((k, U), -1)
            pos[at] = up_pos[mine]
            real = (pos[:, :, None] >= 0) & (pos[:, None, :] >= 0)
            Mp = M[parent[node]][:, None, None]
            target = front[parent[node]][:, None, None] + pos[:, :, None] * Mp \
                + pos[:, None, :]
            first = sibling[node] == 0
            extend = []
            for part in (first, ~first):
                take = real & part[:, None, None]
                if take.any():
                    extend.append((np.flatnonzero(take), target[take]))
            self.heights.append(SimpleNamespace(offset=int(h_off[h]), k=k, P=P, U=U,
                                                pivots=piv, updates=upd, extend=extend))
        self._pad = np.concatenate(pad)

    def factor(self, data) -> FrontFactors:
        buf = np.zeros(self.size)
        buf[self._pad] = 1.0
        buf[self._entries] = data
        blocks = []
        for g in self.heights:
            M = g.P + g.U
            F = buf[g.offset:g.offset + g.k * M * M].reshape(g.k, M, M)
            inv = np.linalg.inv(F[:, :g.P, :g.P])
            upper = inv @ F[:, :g.P, g.P:]
            lower = F[:, g.P:, :g.P].copy()
            schur = (F[:, g.P:, g.P:] - lower @ upper).ravel()
            for source, target in g.extend:
                buf[target] += schur[source]
            blocks.append((inv, lower, upper))
        return FrontFactors(self, blocks)


def _csc(dense):
    """CSC arrays ``(indptr, rows, data)`` of ``dense`` on its nonzeros."""
    cols, rows = np.nonzero(dense.T)
    return np.searchsorted(cols, np.arange(len(dense) + 1)), rows, dense[rows, cols]


def _near_pattern(coords, rng):
    """Each point coupled to its six nearest neighbours, nonsymmetric
    values drawn from ``rng``, a dominant diagonal."""
    n = len(coords)
    d2 = ((coords[:, None] - coords[None]) ** 2).sum(axis=2)
    near = np.argsort(d2, axis=1)[:, :7]
    dense = np.zeros((n, n))
    dense[np.arange(n)[:, None], near] = rng.standard_normal(near.shape)
    dense[near, np.arange(n)[:, None]] += rng.standard_normal(near.shape)
    return dense + 10 * np.eye(n)


def _random_200():
    # the matrix of test_solver.py::test_linear_solve_contract
    rng = np.random.default_rng(0)
    coords = rng.uniform(size=(200, 2))
    return coords, _near_pattern(coords, rng)


def _two_row_strip():
    coords = np.stack(np.meshgrid(np.arange(60.0), [0.0, 1.0]), axis=-1).reshape(-1, 2)
    return coords, _near_pattern(coords, np.random.default_rng(2))


def _single_leaf():
    rng = np.random.default_rng(3)
    coords = rng.uniform(size=(20, 2))
    return coords, _near_pattern(coords, rng)


def _one_unknown():
    return np.zeros((1, 2)), np.array([[3.0]])


def _case(name):
    """``(indptr, rows, coords, data)`` of a named test matrix."""
    if name == "radial_sphere":
        # the benchmark's radial oracle: a round cap of radius 1, h = 0.025
        amb = ck.preset_ambient("euclidean_radial")
        mesh = ck.cap_mesh(1.0, 0.025, amb)
        r = np.linalg.norm(mesh.vertices, axis=1)
        prob = ck.Problem.create(amb, mesh, 0.0, -np.log(np.cos(r)) + np.log(np.cos(1.0)))
        asm = prob.assembly()
        J = asm.system(prob.phi, 1.0).jacobian
        t = J.tree
        indptr = np.searchsorted(t.cols, np.arange(t.n + 1))
        return indptr, t.indices, mesh.vertices[asm.interior], J.data
    coords, dense = {"random_200": _random_200, "two_row_strip": _two_row_strip,
                     "single_leaf": _single_leaf, "one_unknown": _one_unknown}[name]()
    indptr, rows, data = _csc(dense)
    return indptr, rows, coords, data


CASES = ["random_200", "radial_sphere", "two_row_strip", "one_unknown", "single_leaf"]


@pytest.mark.parametrize("name", CASES)
def test_factor_matches_single_buffer_reference(name):
    indptr, rows, coords, data = _case(name)
    tree, ref = FrontTree(indptr, rows, coords), SingleBufferTree(indptr, rows, coords)
    assert [(g.k, g.P, g.U) for g in tree.heights] == \
        [(g.k, g.P, g.U) for g in ref.heights]
    if name == "single_leaf":
        assert len(tree.heights) == 1 and tree.heights[0].k == 1
    elif name in ("random_200", "radial_sphere", "two_row_strip"):
        assert len(tree.heights) > 2
    got, want = tree.factor(data), ref.factor(data)
    for mine, theirs in zip(got.blocks, want.blocks):
        for a, b in zip(mine, theirs):
            assert a.shape == b.shape and np.array_equal(a, b)
    rhs = np.random.default_rng(5).standard_normal(tree.n)
    x = got.solve(rhs)
    assert np.array_equal(x, want.solve(rhs))
    A = np.zeros((tree.n, tree.n))
    A[rows, tree.cols] = data
    assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def _held_bytes(tree):
    """The most a per-height factorization of ``tree`` holds at once: while
    a height is eliminated, the factor blocks made so far and its own, its
    fronts, its Schur block and the Schur blocks of lower heights that a
    later height still reads."""
    hs = tree.heights
    last = {c: h for h, g in enumerate(hs) for c, _, _ in g.extend}
    held, done = 0, 0
    for h, g in enumerate(hs):
        blocks = g.k * g.P * (g.P + 2 * g.U)
        waiting = sum(hs[c].k * hs[c].U ** 2 for c in range(h) if last.get(c, -1) >= h)
        held = max(held, done + blocks + g.k * (g.P + g.U) ** 2 + g.k * g.U ** 2 + waiting)
        done += blocks
    return 8 * held


def test_factor_peak_bounded_by_tree_sizes(traced_peak):
    indptr, rows, coords, data = _case("radial_sphere")
    tree = FrontTree(indptr, rows, coords)
    bound = _held_bytes(tree) + 2**20           # slack: index gathers, small objects
    _, peak = traced_peak(tree.factor, data)
    ref = SingleBufferTree(indptr, rows, coords)
    _, ref_peak = traced_peak(ref.factor, data)
    assert peak <= bound < ref_peak

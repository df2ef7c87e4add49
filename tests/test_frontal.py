"""The multifrontal factorization in shape classes against a single buffer.

``SingleBufferTree`` is a reference layout for ``ckgraph.frontal``: the same
dissection, shape classes and solve maps as ``FrontTree``, with the fronts
of every class in one buffer, filled before the first class is eliminated,
and global index maps holding one buffer position per Schur block entry.
``FrontTree`` keeps only the positions of each child's update rows and
columns in its parent's front and fills one class's buffer at a time; both
add the same numbers in the same order, so the factor blocks and the solves
must agree bit for bit.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.frontal import LEAF_SIZE, FrontFactors, FrontTree, _dissect
from ckgraph.mesh import _unique


class SingleBufferTree:
    """The reference layout: ``FrontTree``'s classes with the fronts of all
    classes in one buffer of ``size`` slots."""

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

        # the classes: one height, pivot counts in one band LEAF_SIZE // 4
        # wide; fronts by parent class and node
        child = np.nonzero(parent >= 0)[0]
        sibling = np.zeros(nodes, dtype=np.intp)
        sibling[child] = np.arange(len(child)) - np.searchsorted(parent[child],
                                                                 parent[child])
        band = -(-p_count // (LEAF_SIZE // 4))
        _, klass = np.unique(height * (band.max() + 1) + band, return_inverse=True)
        C = klass.max() + 1
        pclass = np.full(nodes, C)
        pclass[child] = klass[parent[child]]
        corder = np.lexsort((pclass, klass))
        k_c = np.bincount(klass)
        c_first = np.concatenate([[0], np.cumsum(k_c)])
        slot = np.empty(nodes, dtype=np.intp)
        slot[corder] = np.arange(nodes) - c_first[klass[corder]]
        P_c = np.zeros(C, dtype=np.intp)
        U_c = np.zeros_like(P_c)
        np.maximum.at(P_c, klass, p_count)
        np.maximum.at(U_c, klass, u_count)
        M_c = P_c + U_c
        c_off = np.concatenate([[0], np.cumsum(k_c * M_c * M_c)])
        self.size = int(c_off[-1])
        M = M_c[klass]
        front = c_off[klass] + slot * M * M

        def local(f, v):
            out = prank[v]
            up = owner[v] != f
            at = np.searchsorted(ukeys, f[up].astype(np.int64) * n + v[up])
            out[up] = P_c[klass[f[up]]] + urank[at]
            return out

        r, c = rows, self.cols
        f = np.where(depth[owner[c]] >= depth[owner[r]], owner[c], owner[r])
        self._entries = front[f] + local(f, r) * M[f] + local(f, c)
        up_pos = local(parent[unode], uvert)

        self.classes, pad = [], []
        for g, (k, P, U) in enumerate(zip(k_c.tolist(), P_c.tolist(), U_c.tolist())):
            node = corder[c_first[g]:c_first[g + 1]]
            mine = klass[owner] == g
            piv = np.full((k, P), n)
            piv[slot[owner[mine]], prank[mine]] = np.nonzero(mine)[0]
            mine = klass[unode] == g
            at = slot[unode[mine]], urank[mine]
            upd = np.full((k, U), n)
            upd[at] = uvert[mine]
            s = np.arange(P)
            diag = front[node][:, None] + s * (P + U + 1)
            pad.append(diag[s >= p_count[node][:, None]])
            pos = np.full((k, U), -1)
            pos[at] = up_pos[mine]
            real = (pos[:, :, None] >= 0) & (pos[:, None, :] >= 0)
            Mp = M[parent[node]][:, None, None]
            target = front[parent[node]][:, None, None] + pos[:, :, None] * Mp \
                + pos[:, None, :]
            extend = []
            for rank in (0, 1):
                take = real & (sibling[node] == rank)[:, None, None]
                if take.any():
                    extend.append((np.flatnonzero(take), target[take]))
            self.classes.append(SimpleNamespace(
                offset=int(c_off[g]), height=int(height[node[0]]), k=k, P=P, U=U,
                pivots=piv, updates=upd, extend=extend))
        self._pad = np.concatenate(pad)

    def factor(self, data) -> FrontFactors:
        buf = np.zeros(self.size)
        buf[self._pad] = 1.0
        buf[self._entries] = data
        blocks = []
        for g in self.classes:
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


def _one_sided():
    # a structurally nonsymmetric pattern: each point coupled to its six
    # nearest neighbours in its own column only
    rng = np.random.default_rng(6)
    coords = rng.uniform(size=(150, 2))
    d2 = ((coords[:, None] - coords[None]) ** 2).sum(axis=2)
    near = np.argsort(d2, axis=1)[:, :7]
    dense = np.zeros((150, 150))
    dense[near, np.arange(150)[:, None]] = rng.standard_normal(near.shape)
    return coords, dense + 10 * np.eye(150)


def _one_unknown():
    return np.zeros((1, 2)), np.array([[3.0]])


@functools.lru_cache(maxsize=None)
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
                     "one_sided": _one_sided, "single_leaf": _single_leaf,
                     "one_unknown": _one_unknown}[name]()
    indptr, rows, data = _csc(dense)
    return indptr, rows, coords, data


CASES = ["random_200", "radial_sphere", "two_row_strip", "one_sided", "one_unknown",
         "single_leaf"]


@pytest.mark.parametrize("name", CASES)
def test_factor_matches_single_buffer_reference(name):
    indptr, rows, coords, data = _case(name)
    tree, ref = FrontTree(indptr, rows, coords), SingleBufferTree(indptr, rows, coords)
    assert [(g.height, g.k, g.P, g.U) for g in tree.classes] == \
        [(g.height, g.k, g.P, g.U) for g in ref.classes]
    for g, h in zip(tree.classes, ref.classes):
        assert np.array_equal(g.pivots, h.pivots) and np.array_equal(g.updates, h.updates)
    if name == "single_leaf":
        assert len(tree.classes) == 1 and tree.classes[0].k == 1
    elif name in ("random_200", "radial_sphere", "two_row_strip", "one_sided"):
        assert len({g.height for g in tree.classes}) > 2
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


def test_classes_pad_to_their_own_fronts():
    # every class is padded to its largest pivot and update counts, and a
    # class spans one pivot band of one height
    indptr, rows, coords, _ = _case("radial_sphere")
    tree = FrontTree(indptr, rows, coords)
    width = LEAF_SIZE // 4
    for g in tree.classes:
        p = (g.pivots < tree.n).sum(axis=1)
        u = (g.updates < tree.n).sum(axis=1)
        assert p.max() == g.P and u.max() == g.U
        assert len(set((-(-p // width)).tolist())) == 1
    heights = [g.height for g in tree.classes]
    assert heights == sorted(heights) and len(heights) > len(set(heights))


def test_class_without_pivots():
    # height 2 of the radial_sphere tree has nodes with an empty separator:
    # their class has no pivot block and passes its assembled fronts on as
    # Schur blocks
    indptr, rows, coords, data = _case("radial_sphere")
    tree = FrontTree(indptr, rows, coords)
    empty = [c for c, g in enumerate(tree.classes) if g.P == 0]
    assert [tree.classes[c].height for c in empty] == [2]
    g = tree.classes[empty[0]]
    assert g.k > 0 and g.U > 0
    inv, lower, upper = tree.factor(data).blocks[empty[0]]
    assert inv.shape == (g.k, 0, 0) and lower.shape == (g.k, g.U, 0) \
        and upper.shape == (g.k, 0, g.U)


def _index_entries(value):
    """Entries of the integer arrays that ``value`` keeps, in its attributes
    and in the lists, tuples and objects those hold."""
    if isinstance(value, np.ndarray):
        return value.size if value.dtype.kind in "iu" else 0
    if isinstance(value, (list, tuple)):
        return sum(_index_entries(v) for v in value)
    return sum(_index_entries(v) for v in getattr(value, "__dict__", {}).values())


def test_index_maps_linear_in_front_sizes():
    # one position per update row and column, not one per Schur block
    # entry: on radial_sphere the former layout, fronts padded per height
    # and two positions per Schur block entry, kept 827k entries against a
    # bound of 204k
    indptr, rows, coords, _ = _case("radial_sphere")
    tree = FrontTree(indptr, rows, coords)
    fronts = sum(g.k * (g.P + g.U) for g in tree.classes)
    assert _index_entries(tree) <= 4 * (len(rows) + fronts)


def _held_bytes(tree):
    """The most a factorization of ``tree`` holds at once.  While a class
    is assembled and eliminated: the factor blocks made so far, its fronts,
    the Schur blocks still waiting for a parent (its children's included),
    and the larger of one extend-add run's positions and sums (12 bytes an
    entry) and its own factor and Schur blocks."""
    cs = tree.classes
    last = {kid: c for c, g in enumerate(cs) for kid in g.release}
    held, done = 0, 0
    for c, g in enumerate(cs):
        waiting = sum(cs[kid].k * cs[kid].U ** 2 for kid in range(c) if last.get(kid, c) >= c)
        run = max([1.5 * (hi - lo) * cs[kid].U ** 2 for kid, lo, hi in g.extend], default=0)
        blocks = g.k * g.P * (g.P + 2 * g.U)
        held = max(held, done + g.k * (g.P + g.U) ** 2 + 1 + waiting
                   + max(run, blocks + g.k * g.U ** 2))
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

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
from ckgraph.frontal import LEAF_SIZE, FrontMatrix, FrontTree, _dissect
from ckgraph.mesh import _unique
from conftest import front_matrix


class SingleBufferTree:
    """The reference layout: ``FrontTree``'s classes with the fronts of all
    classes in one buffer of ``size`` slots.  Its subject is the buffer
    layout, so it takes its pattern from the ``FrontTree`` under test."""

    def __init__(self, tree, coords):
        n, self.indices, self.slot = tree.n, tree.indices, tree.slot
        self.n = n
        rows = self.indices.astype(np.intp)
        cols = np.repeat(np.arange(n), np.diff(tree.indptr))
        off = rows != cols
        ei, ej = rows[off], cols[off]
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

        r, c = rows, cols
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

    def factor(self, data) -> list:
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
        return blocks


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
def _radial_sphere():
    """The benchmark's radial oracle, a round cap of radius 1 at h = 0.025:
    its Jacobian at ``phi``, on the tree the assembly keeps, its number of
    elements and its interior coordinates."""
    amb = ck.preset_ambient("euclidean_radial")
    mesh = ck.cap_mesh(1.0, 0.025, amb)
    r = np.linalg.norm(mesh.vertices, axis=1)
    prob = ck.Problem.create(amb, mesh, 0.0, -np.log(np.cos(r)) + np.log(np.cos(1.0)))
    asm = prob.assembly()
    J, _ = asm.system(asm.residual(prob.phi, 1.0)[1])
    return J, mesh.n_triangles, mesh.vertices[asm.interior]


@functools.lru_cache(maxsize=None)
def _case(name):
    """``(tree, coords, data)`` of a named test matrix, its tree built from
    one pair per entry in CSC order, so ``data`` is the matrix's values."""
    if name == "radial_sphere":
        J, _, coords = _radial_sphere()
        cols = np.repeat(np.arange(J.tree.n), np.diff(J.tree.indptr))
        return FrontTree(J.tree.indices, cols, coords), coords, J.data
    coords, dense = {"random_200": _random_200, "two_row_strip": _two_row_strip,
                     "one_sided": _one_sided, "single_leaf": _single_leaf,
                     "one_unknown": _one_unknown}[name]()
    A = front_matrix(dense, coords)
    return A.tree, coords, A.data


CASES = ["random_200", "radial_sphere", "two_row_strip", "one_sided", "one_unknown",
         "single_leaf"]


@pytest.mark.parametrize("name", CASES)
def test_factor_matches_single_buffer_reference(name):
    tree, coords, data = _case(name)
    ref = SingleBufferTree(tree, coords)
    assert [(g.height, g.k, g.P, g.U) for g in tree.classes] == \
        [(g.height, g.k, g.P, g.U) for g in ref.classes]
    for g, h in zip(tree.classes, ref.classes):
        assert np.array_equal(g.pivots, h.pivots) and np.array_equal(g.updates, h.updates)
    if name == "single_leaf":
        assert len(tree.classes) == 1 and tree.classes[0].k == 1
    elif name in ("random_200", "radial_sphere", "two_row_strip", "one_sided"):
        assert len({g.height for g in tree.classes}) > 2
    for mine, theirs in zip(tree.factor(data), ref.factor(data)):
        for a, b in zip(mine, theirs):
            assert a.shape == b.shape and np.array_equal(a, b)
    rhs = np.random.default_rng(5).standard_normal(tree.n)
    A = FrontMatrix(tree, data)
    x = A.solve(rhs)
    assert np.array_equal(x, FrontMatrix(ref, data).solve(rhs))
    assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_classes_pad_to_their_own_fronts():
    # every class is padded to its largest pivot and update counts, and a
    # class spans one pivot band of one height
    tree, _, _ = _case("radial_sphere")
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
    tree, _, data = _case("radial_sphere")
    empty = [c for c, g in enumerate(tree.classes) if g.P == 0]
    assert [tree.classes[c].height for c in empty] == [2]
    g = tree.classes[empty[0]]
    assert g.k > 0 and g.U > 0
    inv, lower, upper = tree.factor(data)[empty[0]]
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
    tree, _, _ = _case("radial_sphere")
    fronts = sum(g.k * (g.P + g.U) for g in tree.classes)
    assert _index_entries(tree) <= 4 * (len(tree.indices) + fronts)


def test_assembly_tree_keeps_one_slot_per_element_pair():
    # the tree the assembly keeps has the index maps of the tree above and,
    # in place of its slot per entry, an int32 slot per element pair: on
    # radial_sphere 86400 for 32293 entries, so it keeps 226099 index
    # entries, above the rebuilt tree's bound of 193484
    J, nt, _ = _radial_sphere()
    kept, tree = J.tree, _case("radial_sphere")[0]
    assert kept.slot.dtype == np.int32 and kept.slot.shape == (9 * nt,)
    assert _index_entries(kept) - kept.slot.size == _index_entries(tree) - tree.slot.size


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
    tree, coords, data = _case("radial_sphere")
    bound = _held_bytes(tree) + 2**20           # slack: index gathers, small objects
    _, peak = traced_peak(tree.factor, data)
    ref = SingleBufferTree(tree, coords)
    _, ref_peak = traced_peak(ref.factor, data)
    assert peak <= bound < ref_peak


def _assert_pattern(tree, rows, cols):
    """The CSC pattern and the pair slots of ``tree`` against a dense brute
    force over the pairs ``(rows, cols)`` it was built from, -1 marking a
    dropped pair."""
    n, kept = tree.n, (rows >= 0) & (cols >= 0)
    dense = np.zeros((n, n), dtype=bool)
    for r, c in zip(rows[kept].tolist(), cols[kept].tolist()):
        dense[r, c] = True
    col_of, row_of = np.nonzero(dense.T)        # column by column, rows ascending
    assert tree.indptr.dtype == tree.indices.dtype == tree.slot.dtype == np.int32
    assert np.array_equal(tree.indptr, np.searchsorted(col_of, np.arange(n + 1)))
    assert np.array_equal(tree.indices, row_of)
    assert tree.slot.shape == rows.shape
    assert np.array_equal(row_of[tree.slot[kept]], rows[kept])
    assert np.array_equal(col_of[tree.slot[kept]], cols[kept])
    assert np.all(tree.slot[~kept] == len(row_of))


def _shuffled_pairs(dense, rng):
    """The nonzeros of ``dense`` as pairs in row order, then twice as many
    again drawn from them, shuffled; a fifth of the draws dropped, the row
    or the column marked -1."""
    rows, cols = np.nonzero(dense)
    pick = rng.integers(len(rows), size=2 * len(rows))
    rows = np.concatenate([rows, rows[pick]])
    cols = np.concatenate([cols, cols[pick]])
    drop = np.zeros(len(rows), dtype=bool)
    drop[-len(pick):] = rng.random(len(pick)) < 0.2
    half = rng.random(len(rows)) < 0.5
    rows[drop & half], cols[drop & ~half] = -1, -1
    order = rng.permutation(len(rows))
    return rows[order], cols[order]


def _mesh_file_pairs():
    """The assembly's tree on a relabelled mesh-file disk and the element
    pairs it was built from: row vertex a, column vertex b, element e, in
    that order, boundary vertices at -1."""
    amb = ck.preset_ambient("killing_flat")
    disk = ck.disk_mesh(0.4, 0.04, amb)
    rng = np.random.default_rng(9)
    perm = rng.permutation(disk.n_vertices)          # old label -> new label
    verts = np.empty_like(disk.vertices)
    verts[perm] = disk.vertices
    tris = perm[disk.triangles][rng.permutation(disk.n_triangles)]
    mesh = ck.mesh_from_arrays(verts, tris, [perm[l] for l in disk.boundary_loops], amb)
    asm = ck.Problem.create(amb, mesh, 1.0, -np.sqrt(0.84)).assembly()
    pos = np.full(mesh.n_vertices, -1)
    pos[asm.interior] = np.arange(len(asm.interior))
    tri = pos[mesh.triangles].T                       # (3, nt)
    return asm.tree, np.repeat(tri, 3, axis=0).ravel(), np.tile(tri, (3, 1)).ravel()


def test_pattern_matches_dense_brute_force():
    _assert_pattern(*_mesh_file_pairs())
    coords, dense = _one_sided()
    rows, cols = _shuffled_pairs(dense, np.random.default_rng(10))
    _assert_pattern(FrontTree(rows, cols, coords), rows, cols)


def test_repeated_pairs_sum_in_pair_order():
    # values of mixed magnitude, so another order of the sums rounds
    # differently; marked pairs add nothing
    coords, dense = _one_sided()
    rng = np.random.default_rng(11)
    rows, cols = _shuffled_pairs(dense, rng)
    values = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-8, 9, len(rows))
    A = FrontMatrix(FrontTree(rows, cols, coords), values)
    want = np.zeros(dense.shape)
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        if r >= 0 and c >= 0:
            want[r, c] += v
    assert np.array_equal(A.toarray(), want)
    back = FrontMatrix(FrontTree(rows[::-1], cols[::-1], coords), values[::-1])
    assert not np.array_equal(back.data, A.data)


def test_matrix_solved_twice_is_factored_once(factorizations):
    # the factors are made on the first solve and kept with the matrix,
    # whose values can no longer change under them
    tree, _, data = _case("random_200")
    A = FrontMatrix(tree, data)
    made = factorizations()
    A.data[0] = data[0]             # writable before the first solve
    rhs = np.random.default_rng(7).standard_normal(A.tree.n)
    x = A.solve(rhs)
    assert np.array_equal(A.solve(rhs), x) and made == [A.tree.n]
    with pytest.raises(ValueError, match="read-only"):
        A.data[0] = 0.0
    assert np.array_equal(A.data, data)


def test_singular_matrix_raises_on_every_solve(factorizations):
    # a singular pivot block keeps no factors: each solve tries again and
    # raises again
    tree = FrontTree(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]),
                     np.array([[0.0, 0.0], [1.0, 0.0]]))
    A = FrontMatrix(tree, np.ones(4))
    made = factorizations()
    for tries in (1, 2):
        with pytest.raises(ck.SingularSystemError, match="sparse factorization failed"):
            A.solve(np.array([1.0, 0.0]))
        assert len(made) == tries

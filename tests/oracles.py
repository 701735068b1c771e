"""Test oracles: exact-matrix helpers and independent counters that the
package itself does not need. The tests check the package's combinatorial
paths (root permutations, hyperplane-index sets, the canonical-chain scan,
the recursion's deletion rules) against these slower, more direct
computations.
"""

from functools import lru_cache

from coxchains.field import (
    ONE,
    ZERO,
    FieldScalar,
    Subspace,
    canonical_subspace,
    null_space,
    rref,
)
from coxchains.graphs import (
    classify_irreducible,
    connected_components,
    delete_vertex,
    longest_element_automorphism,
    standard_graph,
)
from coxchains.lattice import ChainOrbitCount, GroupActionTable
from coxchains.recursion import KCalculator, _graph_deletion


class SingularMatrixError(ValueError):
    pass


def full_space(ambient: int) -> Subspace:
    return canonical_subspace(identity_matrix(ambient), ambient)


def contains_vector(s: Subspace, v) -> bool:
    rows = [list(row) for row in s.basis]
    return len(rref(rows + [list(v)])) == len(s.basis)


def subspace_le(s: Subspace, other: Subspace) -> bool:
    """Containment s <= other of two subspaces of the same ambient space."""
    if s.ambient != other.ambient:
        raise ValueError("ambient dimension mismatch")
    return all(contains_vector(other, row) for row in s.basis)


def orthogonal_rows(s: Subspace):
    """Rows spanning the space of linear forms vanishing on s."""
    if s.dim == 0:
        return identity_matrix(s.ambient)
    return [list(row) for row in null_space(s.basis, s.ambient).basis]


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical form of the set intersection of two row-span subspaces."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    normals = orthogonal_rows(s1) + orthogonal_rows(s2)
    if not normals:
        return s1
    return null_space(normals, s1.ambient)


def mat_vec(m, v):
    return [sum((m[i][j] * v[j] for j in range(len(v))), ZERO) for i in range(len(m))]


def mat_mul(m1, m2):
    n = len(m2)
    cols = len(m2[0])
    return [
        [sum((m1[i][k] * m2[k][j] for k in range(n)), ZERO) for j in range(cols)]
        for i in range(len(m1))
    ]


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_inverse(m):
    n = len(m)
    aug = [
        [FieldScalar.of(x) for x in row]
        + [ONE if i == j else ZERO for j in range(n)]
        for i, row in enumerate(m)
    ]
    reduced = rref(aug)
    if len(reduced) < n or any(
        reduced[i][i] != ONE or any(not reduced[i][j].is_zero() for j in range(n) if j != i)
        for i in range(n)
    ):
        raise SingularMatrixError("matrix is not invertible")
    return [row[n:] for row in reduced]


def is_invertible(m) -> bool:
    try:
        mat_inverse(m)
        return True
    except SingularMatrixError:
        return False


def apply_matrix(m, s: Subspace) -> Subspace:
    """Canonical form of { m.x : x in s }; raises on singular m."""
    if len(m) != s.ambient:
        raise ValueError("matrix size does not match ambient dimension")
    if not is_invertible(m):
        raise SingularMatrixError("apply_matrix requires an invertible matrix")
    rows = [mat_vec(m, list(row)) for row in s.basis]
    return canonical_subspace(rows, s.ambient)


def fixed_space_of_group(model) -> Subspace:
    return null_space([list(r) for r in model.roots], model.ambient)


def essential_rank(model) -> int:
    return model.ambient - fixed_space_of_group(model).dim


def _root_frame(model):
    """Invertible column matrix [independent roots | group-fixed vectors]."""
    rows = []
    picked = []
    rank = essential_rank(model)
    for idx, r in enumerate(model.roots):
        if len(rref(rows + [list(r)])) > len(rows):
            rows.append(list(r))
            picked.append(idx)
        if len(rows) == rank:
            break
    fixed = [list(v) for v in fixed_space_of_group(model).basis]
    cols = rows + fixed
    frame = [[cols[j][i] for j in range(model.ambient)] for i in range(model.ambient)]
    return picked, fixed, frame


def matrix_of(model, perm):
    """The matrix of a matrix-model element, from its signed root
    permutation: perm[i] = s * (j + 1) maps root i to s * root j."""
    picked, fixed, frame = _root_frame(model)
    img_cols = []
    for idx in picked:
        x = perm[idx]
        root = model.roots[abs(x) - 1]
        img_cols.append([r if x > 0 else -r for r in root])
    img_cols.extend(fixed)
    img = [
        [img_cols[j][i] for j in range(model.ambient)]
        for i in range(model.ambient)
    ]
    return mat_mul(img, mat_inverse(frame))


def fixed_space(model, perm) -> Subspace:
    """Canonical kernel of (matrix(perm) - identity)."""
    mat = matrix_of(model, perm)
    ident = identity_matrix(model.ambient)
    rows = [
        [mat[i][j] - ident[i][j] for j in range(model.ambient)]
        for i in range(model.ambient)
    ]
    return null_space(rows, model.ambient)


def reflecting_hyperplanes(model):
    """One canonical hyperplane (the solution set of <root, x> = 0) per root."""
    out = []
    seen = set()
    for r in model.roots:
        h = null_space([list(r)], model.ambient)
        if h not in seen:
            seen.add(h)
            out.append(h)
    return out


def line_image(m: int, j: int, eps: int, k: int) -> int:
    """Image of line L_k of I2(m) under rotation by 2*pi*j/m, followed for
    eps = 1 by the reflection across L_0."""
    if eps == 0:
        return (k + 2 * j) % m
    return (2 * j - k) % m


def dihedral_table(m: int) -> GroupActionTable:
    """The action of I2(m) on its lattice V, L_0..L_{m-1}, 0 by index
    arithmetic on the lines, with the reflections across L_0 and L_1 as
    generators."""
    rows = []
    gen_rows = []
    for eps in (0, 1):
        for j in range(m):
            if eps == 1 and j in (0, 1):
                gen_rows.append(len(rows))
            rows.append((0, *(1 + line_image(m, j, eps, k) for k in range(m)), m + 1))
    return GroupActionTable(rows=rows, generator_rows=gen_rows)


def graph_automorphism(g) -> dict:
    """The longest-element automorphism transported onto g's own vertex ids."""
    label, iso = classify_irreducible(g)
    inv = {i: v for v, i in iso.items()}
    sigma = longest_element_automorphism(label)
    return {v: inv[sigma[iso[v]]] for v in g.vertices}


def set_partitions(n):
    """All partitions of {0, .., n-1} as frozensets of frozensets."""
    parts = [frozenset()]
    for x in range(n):
        nxt = []
        for p in parts:
            blocks = sorted(p, key=min)
            for i in range(len(blocks)):
                nxt.append(frozenset(
                    (b | {x}) if j == i else b for j, b in enumerate(blocks)
                ))
            nxt.append(p | {frozenset({x})})
        parts = nxt
    return parts


def maximal_chains(l):
    """All maximal chains as tuples of element indices, bottom excluded."""
    out = []

    def walk(elem, prefix):
        ups = l.covers[elem]
        if not ups:
            out.append(prefix)
            return
        for d in ups:
            walk(d, prefix + (d,))

    walk(l.bottom, ())
    return out


def count_chain_orbits_unionfind(l, table) -> ChainOrbitCount:
    """Independent counter: union-find over the full chain set."""
    chains = maximal_chains(l)
    index = {c: i for i, c in enumerate(chains)}
    parent = list(range(len(chains)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in table.generator_rows:
        row = table.rows[g]
        for c, i in index.items():
            j = index[tuple(row[e] for e in c)]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    buckets = {}
    for i in range(len(chains)):
        r = find(i)
        buckets[r] = buckets.get(r, 0) + 1
    sizes = tuple(sorted(buckets.values()))
    return ChainOrbitCount(total_chains=len(chains), orbit_count=len(buckets),
                           orbit_sizes=sizes)


def graph_deleted_labels(t, v):
    """The classified components left by deleting vertex v from the
    standard graph of t, ordered by smallest vertex id."""
    graph = delete_vertex(standard_graph(t), v)
    return [classify_irreducible(c)[0] for c in connected_components(graph)]


class GraphDeletionCalculator(KCalculator):
    """The recursion with every deletion, A, B and D included, read off the
    type's standard graph instead of the per-family rules, and with no
    bottom-up fill: each type recurses top-down, so the stack grows with the
    rank. Deletions are shared across instances, so fresh calculators repeat
    only arithmetic."""

    _deleted = staticmethod(lru_cache(maxsize=None)(_graph_deletion))

    def _fill_below(self, t):
        pass

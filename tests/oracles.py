"""Test oracles: exact-matrix helpers and independent counters that the
package itself does not need. The tests check the package's combinatorial
paths (root permutations, hyperplane-index sets, the lattice's orbit
transport, the memoized canonical-chain scan from atom stabilisers, the
recursion's deletion rules, the integer root closure) against these
slower, more direct computations, among them the root closure in exact
field arithmetic from its own table of simple roots, the full group action
table composed along a breadth-first closure of the whole group, the
lattice with every flat closed on integers by one null-vector test per
cover, a product lattice folded pairwise from its factors, line
stabilisers closed element by element, which the coset-by-coset listing
must list, the chain scan that reaches every canonical chain, Zaslavsky's
chamber count, which must be |W|, the gradedness check that the whole
build's per-flat cover check implies, and the orbits of each rank from hypset
images, whose coatom orbits the generators' line walk must count.
The recursion's label deletion rules are checked against deleting the
vertex from the type's standard graph and classifying the components that
remain. The series layer's integer EGF arithmetic is checked against
Cauchy products, long division and derivatives of ordinary Fraction
coefficients.
"""

import collections
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
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
    CoxeterGraph,
    TypeLabel,
    classify_irreducible,
    connected_components,
    longest_element_automorphism,
    standard_graph,
)
from coxchains.lattice import (
    ChainOrbitCount,
    IntersectionLattice,
    _echelon,
    _integer_lines,
    _lines,
    build_lattice_with_action,
    count_maximal_chains,
)
from coxchains.models import (
    DEFAULT_ELEMENT_CAP,
    ProductModel,
    UnsupportedModelError,
    reflection_count,
)
from coxchains.recursion import SWAP, KCalculator


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


@dataclass
class GroupActionTable:
    rows: list            # rows[g] = tuple, image index per lattice element
    generator_rows: list  # indices of generator rows within `rows`

    @property
    def group_order(self) -> int:
        return len(self.rows)


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


def size_histogram(sizes) -> dict:
    """{orbit size: number of orbits of that size}, sorted by size."""
    return dict(sorted(collections.Counter(sizes).items()))


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
    buckets = collections.Counter(map(find, range(len(chains))))
    return ChainOrbitCount(total_chains=len(chains), orbit_count=len(buckets),
                           size_counts=size_histogram(buckets.values()))


def delete_vertex(g: CoxeterGraph, v) -> CoxeterGraph:
    """The graph with vertex v and its edges removed."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v!r} not in graph")
    verts = tuple(x for x in g.vertices if x != v)
    edges = frozenset(e for e in g.edges if v not in e[:2])
    return CoxeterGraph(verts, edges)


def graph_deleted_labels(t, v):
    """The classified components left by deleting vertex v from the
    standard graph of t, ordered by smallest vertex id."""
    graph = delete_vertex(standard_graph(t), v)
    return [classify_irreducible(c)[0] for c in connected_components(graph)]


def _graph_deletion(t: TypeLabel, v: int):
    """(labels, fold) of deleting vertex v of any type, read off its
    standard graph by classifying the components that remain."""
    sigma = longest_element_automorphism(t)
    graph = delete_vertex(standard_graph(t), v)
    parts = [classify_irreducible(c) for c in connected_components(graph)]
    central = all(x == y for x, y in sigma.items())
    fold = None if sigma[v] != v or central else _fold(parts, sigma)
    return [label for label, _ in parts], fold


def _fold(parts, sigma):
    """The fold of sigma on the (label, iso) components left by deleting a
    vertex it fixes; sigma and every iso use the same vertex ids."""
    comp_of = {x: idx for idx, (_, iso) in enumerate(parts) for x in iso}
    if any(comp_of[sigma[x]] != idx for x, idx in comp_of.items()):
        return SWAP
    flags = []
    for label, iso in parts:
        gamma = {iso[x]: iso[sigma[x]] for x in iso}
        trivial = all(x == y for x, y in gamma.items())
        flags.append(not trivial and gamma != longest_element_automorphism(label))
    return tuple(flags)


_shared_graph_deletion = lru_cache(maxsize=None)(_graph_deletion)


class GraphDeletionCalculator(KCalculator):
    """The recursion with every deletion read off the type's standard graph
    (_graph_deletion) instead of the package's per-family label rules, and
    with no rank tables: each type, bar d included, recurses top-down, so
    the stack grows with the rank. Deletions are shared across instances,
    so fresh calculators repeat only arithmetic; `deleted` names the types
    whose deletions this calculator read."""

    def __init__(self):
        super().__init__()
        self.deleted = set()

    def _deleted(self, t, v):
        self.deleted.add(str(t))
        return _shared_graph_deletion(t, v)

    def _fill(self, t):
        pass

    def k_bar(self, n):
        if n < 2 or n % 2 or n in self.bar_memo:
            return super().k_bar(n)
        a = lambda i: self._k_type(TypeLabel("A", i)) if i >= 1 else 1
        value = a(n - 1) + sum(math.comb(n - 1, i) * self.k_bar(i) * a(n - 1 - i)
                               for i in range(2, n))
        closed = 2 * a(n + 1) - (n + 1) * a(n)
        if value != closed:
            raise AssertionError(f"bar d_{n}: recursion gives {value}, closed form gives {closed}")
        self.bar_memo[n] = value
        return value


def compose_perms(g: tuple, h: tuple) -> tuple:
    """Signed-permutation product g.h (apply h first, then g)."""
    out = []
    for x in h:
        j = abs(x) - 1
        y = g[j]
        out.append(y if x > 0 else -y)
    return tuple(out)


def group_bfs(model):
    """Breadth-first closure of an irreducible model's generators.

    Returns (perms, steps): the signed root permutations, identity first,
    and for each element after the identity the pair (parent position,
    generator index) it was first reached by, so
    perms[k] = gen_perms[g] . perms[parent].
    """
    identity = tuple(range(1, len(model.gen_perms[0]) + 1))
    seen = {identity}
    perms = [identity]
    steps = [None]
    start = 0
    while start < len(perms):
        end = len(perms)
        for parent in range(start, end):
            h = perms[parent]
            for g, gen in enumerate(model.gen_perms):
                prod = compose_perms(gen, h)
                if prod not in seen:
                    seen.add(prod)
                    perms.append(prod)
                    steps.append((parent, g))
                    if len(perms) > DEFAULT_ELEMENT_CAP:
                        raise UnsupportedModelError(
                            f"group closure exceeded the cap of {DEFAULT_ELEMENT_CAP} "
                            f"elements; this type is too large for brute force"
                        )
        start = end
    return perms, steps


def scalar_sign(x: FieldScalar) -> int:
    """Sign of the real number a + b*sqrt(5)."""
    if x.b == 0:
        return (x.a > 0) - (x.a < 0)
    if x.a == 0:
        return 1 if x.b > 0 else -1
    if x.a > 0 and x.b > 0:
        return 1
    if x.a < 0 and x.b < 0:
        return -1
    # opposite signs: compare a^2 against 5 b^2
    bigger_rational = x.a * x.a > 5 * x.b * x.b
    if x.a > 0:
        return 1 if bigger_rational else -1
    return -1 if bigger_rational else 1


def _canonical_sign(vec):
    for x in vec:
        s = scalar_sign(x)
        if s > 0:
            return tuple(vec), 1
        if s < 0:
            return tuple(-y for y in vec), -1
    raise ValueError("zero root")


def _dot(u, v) -> FieldScalar:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _q(x) -> FieldScalar:
    return FieldScalar.of(Fraction(x))


def _e_minus_e(amb, i, j):
    return [_q(1 if k == i else (-1 if k == j else 0)) for k in range(amb)]


def _e_plus_e(amb, i, j):
    return [_q(1 if k in (i, j) else 0) for k in range(amb)]


def field_simple_roots(t: TypeLabel):
    """Simple root coordinates per standard numbering (Bourbaki's for F4
    and E6) as exact `FieldScalar`s, written apart from the integer rows of
    `models`; returns (roots, ambient)."""
    fam, n = t.family, t.rank
    if fam == "A":
        amb = n + 1
        return [_e_minus_e(amb, i, i + 1) for i in range(n)], amb
    if fam == "B":
        amb = n
        roots = [[_q(1 if j == 0 else 0) for j in range(amb)]]
        for i in range(1, n):
            roots.append(_e_minus_e(amb, i - 1, i))
        return roots, amb
    if fam == "D":
        amb = n
        roots = [_e_minus_e(amb, i, i + 1) for i in range(n - 2)]
        roots.append(_e_minus_e(amb, n - 2, n - 1))
        roots.append(_e_plus_e(amb, n - 2, n - 1))
        return roots, amb
    if fam == "F":
        amb = 4
        half = Fraction(1, 2)
        return [
            _e_minus_e(amb, 1, 2),
            _e_minus_e(amb, 2, 3),
            [_q(0), _q(0), _q(0), _q(1)],
            [_q(half), _q(-half), _q(-half), _q(-half)],
        ], amb
    if fam == "E" and n == 6:
        amb = 8
        half = Fraction(1, 2)
        a1 = [_q(half), _q(-half), _q(-half), _q(-half), _q(-half), _q(-half), _q(-half), _q(half)]
        a2 = _e_plus_e(amb, 0, 1)
        # Bourbaki: alpha3 = e2-e1, alpha4 = e3-e2, ...
        a3 = [-x for x in _e_minus_e(amb, 0, 1)]
        a4 = [-x for x in _e_minus_e(amb, 1, 2)]
        a5 = [-x for x in _e_minus_e(amb, 2, 3)]
        a6 = [-x for x in _e_minus_e(amb, 3, 4)]
        return [a1, a2, a3, a4, a5, a6], amb
    if fam == "H":
        # tau/2 = (1 + sqrt5)/4 and 1/(2 tau) = (sqrt5 - 1)/4
        tau_half = FieldScalar.sqrt5_part(Fraction(1, 4), Fraction(1, 4))
        inv_2tau = FieldScalar.sqrt5_part(Fraction(-1, 4), Fraction(1, 4))
        half = _q(Fraction(1, 2))
        if n == 3:
            return [
                [ZERO, ONE, ZERO],
                [half, tau_half, inv_2tau],
                [ONE, ZERO, ZERO],
            ], 3
        return [
            [-ONE, ZERO, ZERO, ZERO],
            [tau_half, -half, -inv_2tau, ZERO],
            [ZERO, half, tau_half, -inv_2tau],
            [ZERO, inv_2tau, -half, tau_half],
        ], 4
    raise ValueError(f"no simple roots for {t}")


def field_root_closure(t):
    """The roots and generator permutations of a matrix type, closed in exact
    `FieldScalar` arithmetic from `field_simple_roots`: s_a(v) = v -
    (2<v,a>/<a,a>) a, one canonical-signed root per pair, with the same LIFO
    queue as the integer closure of `models`, so both give the same root
    order and signs."""
    simple, _ = field_simple_roots(t)
    mirrors = [(a, FieldScalar.of(2) / _dot(a, a)) for a in simple]
    roots = []
    index = {}
    queue = []

    def find(vec):
        canon, sign = _canonical_sign(vec)
        if canon not in index:
            index[canon] = len(roots)
            roots.append(list(canon))
            queue.append(len(roots) - 1)
        return sign * (index[canon] + 1)

    for r in simple:
        find(r)
    images = {}
    while queue:
        i = queue.pop()
        r = roots[i]
        images[i] = []
        for a, c in mirrors:
            k = _dot(r, a) * c
            images[i].append(find([x - k * y for x, y in zip(r, a)]))
    assert len(roots) == reflection_count(t)
    return roots, list(zip(*(images[i] for i in range(len(roots)))))


def _orbits(l: IntersectionLattice, blocks, elements) -> list:
    """The group's orbits on the given elements of one rank, each in the
    order found: a generator maps an element to the element whose hypset is
    the image of its own."""
    index = {l.hypsets[e]: e for e in elements}
    moves = [{e: index[sum(1 << g[i] % (len(g) // 2) for i in _lines(l.hypsets[e]))]
              for e in elements} for gens in blocks for g in gens]
    seen, orbits = set(), []
    for e in elements:
        if e not in seen:
            seen.add(e)
            orbit = [e]
            for x in orbit:
                for move in moves:
                    if move[x] not in seen:
                        seen.add(move[x])
                        orbit.append(move[x])
            orbits.append(orbit)
    return orbits


def bfs_orbits(l: IntersectionLattice, blocks) -> list:
    """The orbit record of a lattice under the generator blocks, from
    `_orbits` on each rank: per element, the least element of its orbit."""
    orbit = [None] * len(l.elements)
    for r in range(l.essential_rank + 1):
        for o in _orbits(l, blocks, [e for e, s in enumerate(l.rank) if s == r]):
            for e in o:
                orbit[e] = min(o)
    return orbit


def null_vectors(rows, pivots, width):
    """Integer basis of the vectors v with row . v = 0 for every row of a
    reduced echelon form, built without division: a free column f gets
    v[f] = the product of the pivot entries and, for each row, v[pivot] =
    -row[f] times the product of the other pivot entries."""
    heads = [row[p] for row, p in zip(rows, pivots)]
    before = list(itertools.accumulate(heads, operator.mul, initial=1))
    after = list(itertools.accumulate(reversed(heads), operator.mul, initial=1))
    others = [before[i] * after[-2 - i] for i in range(len(heads))]
    out = []
    for f in range(width):
        if f in pivots:
            continue
        v = [0] * width
        v[f] = before[-1]
        for row, p, o in zip(rows, pivots, others):
            v[p] = -row[f] * o
        out.append(v)
    return out


def null_vector_closure(vecs, lines, mask, span):
    """The covers (hypset, spanning roots) of the flat `mask` spanned by
    `span`, one echelon form per cover: the least root a off the flat and
    every later root orthogonal to all null vectors of span and a."""
    base = _echelon((), (), [row for i in span for row in lines[i]])
    seen, out = mask, []
    for a in range(len(vecs)):
        if seen >> a & 1:
            continue
        nulls = null_vectors(*_echelon(*base, lines[a]), len(vecs[0]))
        # every root below a is in `seen`, and a root already in another
        # cover of this flat lies in no other cover
        cover = mask | 1 << a
        for c in range(a + 1, len(vecs)):
            if not seen >> c & 1 and not any(
                    sum(map(operator.mul, vecs[c], v)) for v in nulls):
                cover |= 1 << c
        seen |= cover
        out.append((cover, span + (a,)))
    return out


def _validate_graded(l: IntersectionLattice):
    if l.rank.count(0) != 1:
        raise AssertionError("bottom element is not unique")
    if l.rank.count(l.essential_rank) != 1:
        raise AssertionError("top element is not unique")
    if any(l.rank[j] != r + 1 for r, ups in zip(l.rank, l.covers) for j in ups):
        raise AssertionError("cover relation skips a rank")
    if len(set().union(*l.covers)) != len(l.elements) - 1:  # all but the bottom
        raise AssertionError("non-bottom element with no cover below")


def closure_matrix_lattice(model) -> IntersectionLattice:
    """The matrix lattice with every flat closed on integers: rank by rank,
    a flat's covers are its closures with one more root by null vectors
    (`null_vector_closure`), each recorded as found. No flat's covers are
    carried along the generators."""
    lines = _integer_lines(model)
    vecs = [rows[0] for rows in lines]
    n = len(vecs)
    masks = [0]
    spans = [()]
    ids = {0: 0}
    ups = []
    for mask, span in zip(masks, spans):  # FIFO: rank r before rank r + 1
        flat_ups = []
        for cover, cover_span in null_vector_closure(vecs, lines, mask, span):
            if cover not in ids:
                ids[cover] = len(masks)
                masks.append(cover)
                spans.append(cover_span)
            flat_ups.append(ids[cover])
        ups.append(flat_ups)
    hyps = [tuple(i for i in range(n) if m >> i & 1) for m in masks]
    order = sorted(range(len(masks)), key=lambda f: (len(spans[f]), hyps[f]))
    position = [0] * len(order)
    for i, f in enumerate(order):
        position[f] = i
    rank = [len(spans[f]) for f in order]
    lattice = IntersectionLattice(
        kind="matrix",
        elements=[spans[f] for f in order],
        rank=rank,
        covers=[sorted(position[c] for c in ups[f]) for f in order],
        bottom=0,
        top=len(order) - 1,
        essential_rank=rank[-1],
        hypsets=[masks[f] for f in order],
    )
    _validate_graded(lattice)
    return lattice


def bits(mask: int) -> list:
    """The root indices in a hypset bitmask."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def hypset_row(perm, lattice) -> tuple:
    """The images of every lattice element under one signed root
    permutation, read off the permuted hypsets."""
    index = {s: i for i, s in enumerate(lattice.hypsets)}
    line_map = [abs(x) - 1 for x in perm]
    return tuple(index[sum(1 << line_map[i] for i in bits(mask))]
                 for mask in lattice.hypsets)


def action_table(model, lattice) -> GroupActionTable:
    """Action table of an irreducible model: generator rows from hypset
    images; every other row composed along the group's BFS, since
    g = gen . h acts as gen's row read at h's row."""
    gen_rows = [hypset_row(perm, lattice) for perm in model.gen_perms]
    _, steps = group_bfs(model)
    rows = [tuple(range(len(lattice.hypsets)))]
    for parent, g in steps[1:]:
        rows.append(operator.itemgetter(*rows[parent])(gen_rows[g]))
    # the BFS reaches each generator first, from the identity
    return GroupActionTable(rows=rows,
                            generator_rows=list(range(1, len(gen_rows) + 1)))


def product_table(flat, tab1, tab2) -> GroupActionTable:
    """Action table of the product of two factors, in the element order
    that `flat` from `pairwise_product_lattice` gives.

    blocks[i][j] is the position of (i, j); `order` reads an (i, j)-major
    list in position order. (g1, g2) acts as (g1, 1) after (1, g2), and one
    itemgetter per g2 composes the two in C. The second factor has rank
    >= 1, so every itemgetter here takes at least two items and returns a
    tuple.
    """
    n2 = len(tab2.rows[0])
    blocks = [flat[n2 * i:n2 * (i + 1)] for i in range(len(tab1.rows[0]))]
    order = operator.itemgetter(*sorted(range(len(flat)), key=flat.__getitem__))
    chain = itertools.chain.from_iterable
    acts2 = [
        operator.itemgetter(*order(list(chain(map(operator.itemgetter(*row2), blocks)))))
        for row2 in tab2.rows
    ]
    rows = []
    for row1 in tab1.rows:
        act1 = order(list(chain(map(blocks.__getitem__, row1))))
        rows += [act2(act1) for act2 in acts2]
    gen_rows = [g * len(tab2.rows) for g in tab1.generator_rows]
    gen_rows += list(tab2.generator_rows)
    return GroupActionTable(rows=rows, generator_rows=gen_rows)


def pairwise_product_lattice(lat1, lat2):
    """The product of a product lattice and an irreducible one, and `flat`,
    with flat[i * n2 + j] the position of the pair (i, j): one step of the
    pairwise fold that the one-pass `_product_lattice` must reproduce.
    Elements are ordered by rank, then factor indices, and an element is the
    tuple of its irreducible factors' element indices. The second factor's
    roots follow the first's, so its hypsets are shifted past them."""
    n2 = len(lat2.elements)
    shift = lat1.hypsets[lat1.top].bit_length()
    by_rank = [[j for j, s in enumerate(lat2.rank) if s == r]
               for r in range(lat2.essential_rank + 1)]
    pairs = []
    for t in range(lat1.essential_rank + len(by_rank)):  # each rank in (i, j) order
        for i, r in enumerate(lat1.rank):
            if 0 <= t - r < len(by_rank):
                pairs += zip(itertools.repeat(i), by_rank[t - r])
    flat = [0] * (len(lat1.elements) * n2)
    for pos, (i, j) in enumerate(pairs):
        flat[i * n2 + j] = pos
    lattice = IntersectionLattice(
        kind="product",
        elements=[lat1.elements[i] + (j,) for i, j in pairs],
        rank=[lat1.rank[i] + lat2.rank[j] for i, j in pairs],
        covers=[
            [flat[i2 * n2 + j] for i2 in lat1.covers[i]]
            + [flat[i * n2 + j2] for j2 in lat2.covers[j]]
            for i, j in pairs
        ],
        bottom=flat[lat1.bottom * n2 + lat2.bottom],
        top=flat[lat1.top * n2 + lat2.top],
        essential_rank=lat1.essential_rank + lat2.essential_rank,
        hypsets=[lat1.hypsets[i] | lat2.hypsets[j] << shift for i, j in pairs],
    )
    return lattice, flat


def point_lattice() -> IntersectionLattice:
    """The one-point lattice of the trivial group, where every fold starts."""
    return IntersectionLattice("product", [()], [0], [[]], 0, 0, 0, [0])


def folded_lattice(lats) -> IntersectionLattice:
    """The product of irreducible lattices folded pairwise from the
    one-point lattice (`pairwise_product_lattice`)."""
    lattice = point_lattice()
    for lat in lats:
        lattice, _ = pairwise_product_lattice(lattice, lat)
    return lattice


def point_table() -> GroupActionTable:
    """The action table of the trivial group on its one-point lattice."""
    return GroupActionTable(rows=[(0,)], generator_rows=[])


def lattice_and_table(model):
    """The lattice and its full action table: an irreducible model's table
    composed along its BFS, a product's from its factors' tables."""
    if not isinstance(model, ProductModel):
        lattice = build_lattice_with_action(model)[0]
        return lattice, action_table(model, lattice)
    lattice, table = point_lattice(), point_table()
    for f, _ in model.factors:
        lat2, tab2 = lattice_and_table(f)
        lattice, flat = pairwise_product_lattice(lattice, lat2)
        table = product_table(flat, table, tab2)
    return lattice, table


def count_chain_orbits_table(l, table) -> ChainOrbitCount:
    """The canonical-chain scan over the whole action table: a canonical
    prefix extends by a cover that no row of its stabiliser maps lower, and
    a canonical maximal chain contributes |W| / |Stab|."""
    rows = table.rows
    order = len(rows)
    sizes = []

    def extend(d, stab):
        ims = list(map(operator.itemgetter(d), stab))
        if min(ims) != d:
            return
        stab = list(itertools.compress(stab, map(d.__eq__, ims)))
        if not l.covers[d]:
            if order % len(stab):
                raise AssertionError("a chain stabiliser order does not divide |W|")
            sizes.append(order // len(stab))
        for up in l.covers[d]:
            extend(up, stab)

    for atom in l.covers[l.bottom] or [l.bottom]:
        extend(atom, rows)
    if sum(sizes) != count_maximal_chains(l):
        raise AssertionError("orbit sizes do not sum to the chain count")
    return ChainOrbitCount(total_chains=sum(sizes), orbit_count=len(sizes),
                           size_counts=size_histogram(sizes))


def line_orbits_table(l, table) -> int:
    """Number of orbits among the coatoms, along the generator rows."""
    coatoms = [i for i, r in enumerate(l.rank) if r == l.essential_rank - 1]
    seen = set()
    orbits = 0
    for c in coatoms:
        if c in seen:
            continue
        orbits += 1
        frontier = [c]
        seen.add(c)
        while frontier:
            e = frontier.pop()
            for g in table.generator_rows:
                im = table.rows[g][e]
                if im not in seen:
                    seen.add(im)
                    frontier.append(im)
    return orbits


def stabiliser_by_elements(generators, line, order):
    """|orbit| |Stab| of the line, and every element of its stabiliser,
    closed element by element: the Schreier generators t[c]^-1 . g . t[b]
    of a transversal t grown along the orbit, each kept only when it is not
    yet a member, and every listed element e extended by every kept s to
    e . s, with one membership probe per product. It stops as soon as
    |orbit| |Stab| passes `order`, as `_stabiliser` does."""
    size = len(generators[0])
    identity = tuple(range(size))
    transversal = {line: identity}
    inverses = {}  # orbit line c -> transversal[c]^-1
    orbit = [line]
    elements, members = [identity], {identity}
    kept, closed = [], 0  # every kept generator extends elements[:closed]

    def add(p):
        if p not in members:
            members.add(p)
            elements.append(p)

    for b in orbit:
        for g in generators:
            gu = operator.itemgetter(*transversal[b])(g)
            c = gu[line] % (size // 2)
            if c not in transversal:
                transversal[c] = gu
                orbit.append(c)
                continue
            if c not in inverses:
                inverses[c] = sorted(range(size), key=transversal[c].__getitem__)
            s = operator.itemgetter(*gu)(inverses[c])
            if s in members:
                continue
            kept.append(operator.itemgetter(*s))
            for e in elements[:closed]:
                add(kept[-1](e))
            while closed < len(elements) and len(orbit) * len(elements) <= order:
                closed += 1
                for act in kept:
                    add(act(elements[closed - 1]))
            if len(orbit) * len(elements) > order:
                return len(orbit) * len(elements), elements
    return len(orbit) * len(elements), elements


def scan_atoms_enumerating(covers, masks, blocks, orders, atoms):
    """The orbit sizes of the canonical maximal chains through the atoms, one
    per chain, reached prefix by prefix without a memo. A chain stabiliser
    maps a block to its part's elements, listed and narrowed at every
    prefix; a block the chain has not entered stands for its whole factor."""
    n = len(blocks[0][0]) // 2
    block_of = {i: b for b, gens in enumerate(blocks)
                for g in gens for i in range(n) if g[i] != i}
    order = math.prod(orders)
    out = []

    @lru_cache(maxsize=None)
    def stabiliser(line):
        return stabiliser_by_elements(blocks[block_of[line]], line, orders[block_of[line]])

    @lru_cache(maxsize=None)
    def orbit_of(line):
        orbit = [line]
        for c in orbit:
            orbit += {g[c] % n for g in blocks[block_of[line]]}.difference(orbit)
        return orbit

    def extend(x, stab):
        ups = covers[x]
        if not ups:
            s = math.prod(len(stab[b]) if b in stab else w for b, w in enumerate(orders))
            if order % s:
                raise AssertionError("a chain stabiliser order does not divide |W|")
            out.append(order // s)
            return
        if len(ups) == 1:  # whatever fixes x fixes its only cover
            return extend(ups[0], stab)
        cover_of = [0] * (2 * n)
        news = [_lines(masks[d] & ~masks[x]) for d in ups]
        for d, new in zip(ups, news):
            for i in new:
                cover_of[i] = cover_of[i + n] = d
        for d, new in zip(ups, news):
            a, b = new[0], block_of[new[0]]
            if b in stab:
                ims = [cover_of[g[a]] for g in stab[b]]
                if min(ims) == d:
                    extend(d, {**stab, b: [*itertools.compress(stab[b], map(d.__eq__, ims))]})
            elif min(cover_of[c] for c in orbit_of(a)) == d:
                extend(d, {**stab, b: stabiliser(a)[1]})

    for atom in atoms:
        line = masks[atom].bit_length() - 1
        extend(atom, {block_of[line]: stabiliser(line)[1]})
    return out


def count_chain_orbits_enumerating(l, action) -> ChainOrbitCount:
    """The canonical-chain scan from atom stabilisers, one chain at a time."""
    if not l.covers[l.bottom]:
        sizes = [1]
    else:
        atoms = sorted(min(o) for o in _orbits(l, action.blocks, l.covers[l.bottom]))
        sizes = scan_atoms_enumerating(
            l.covers, l.hypsets, action.blocks, action.orders, atoms)
    if sum(sizes) != count_maximal_chains(l):
        raise AssertionError("orbit sizes do not sum to the chain count")
    return ChainOrbitCount(total_chains=sum(sizes), orbit_count=len(sizes),
                           size_counts=size_histogram(sizes))


def ordinary_product(f, g) -> list:
    """Cauchy product of two ordinary coefficient lists, to the shorter's length."""
    n = min(len(f), len(g))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += f[i] * g[j]
    return out


def ordinary_quotient(f, g) -> list:
    """f / g by long division of ordinary coefficient lists; g[0] != 0."""
    out = []
    for k in range(min(len(f), len(g))):
        acc = f[k] - sum(g[j] * out[k - j] for j in range(1, k + 1))
        out.append(Fraction(acc) / g[0])
    return out


def ordinary_derivative(f) -> list:
    return [(k + 1) * f[k + 1] for k in range(len(f) - 1)] or [Fraction(0)]


def zaslavsky_chambers(l: IntersectionLattice) -> int:
    """Zaslavsky's chamber count of a central arrangement: the sum over its
    flats X of |mu(V, X)|, mu the Moebius function of the lattice from the
    bottom V, with mu(V, V) = 1 and mu(V, X) = -(the sum of mu(V, Y) over
    the flats Y below X), Y below X when its hypset is a proper subset of
    X's. A reflection arrangement has |W| chambers. Quadratic in the flats."""
    mu, below = [], []  # per flat in rank order: mu(V, X) and its hypset
    for x in sorted(range(len(l.hypsets)), key=l.rank.__getitem__):
        h = l.hypsets[x]
        mu.append(-sum(m for m, g in zip(mu, below) if g != h and not g & ~h) if mu else 1)
        below.append(h)
    return sum(map(abs, mu))

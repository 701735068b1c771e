"""Intersection lattices and brute-force orbit counting of maximal chains.

A lattice element is identified with the set of reflecting hyperplanes
containing it, which makes deduplication and the group action cheap: a
group element permutes root lines, hence hyperplane index sets. The closure
that finds the flats runs on plain integers: roots become primitive integer
rows (over Q(sqrt5) in coordinates over Q(phi), at twice the width), and
membership in a span is a zero test of integer dot products with
fraction-free null vectors. Exact `FieldScalar` arithmetic remains for
model construction and for each flat's basis, which is computed once after
the closure and written by the export, which builds the lattice alone
(`build_lattice`). The action table of an irreducible model, matrix or
dihedral, is computed from hypset images for the generators only; every
other row is composed from its parent's row along the group's
breadth-first closure, and a product composes its factors' tables.
Maximal chains are counted by rank DP. Chain orbits are counted by
visiting one chain per orbit: the canonical chain, which equals its own
lexicographically smallest image. A depth-first scan extends a canonical
prefix only by a cover that no element of the prefix's stabiliser moves
lower, narrowing the stabiliser as it goes; each canonical maximal chain
then contributes the orbit size |W| / |Stab|. The orbit sizes must sum to
the maximal-chain count, which certifies the scan and the action table
together.
"""

from __future__ import annotations

import itertools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .field import FIELD_QSQRT5, Subspace, null_space
from .models import DihedralModel, ProductModel, ReflectionModel, group_bfs


@dataclass
class IntersectionLattice:
    kind: str            # matrix | dihedral | product
    elements: list       # Subspace | dihedral name | factor index tuple
    rank: list           # codimension within the essential space
    covers: list         # covers[i] = indices of elements directly above i
    bottom: int
    top: int
    essential_rank: int
    hypsets: list | None = None  # irreducible models: containing-root sets

    def rank_sizes(self):
        sizes = [0] * (self.essential_rank + 1)
        for r in self.rank:
            sizes[r] += 1
        return tuple(sizes)


@dataclass
class GroupActionTable:
    rows: list            # rows[g] = tuple, image index per lattice element
    generator_rows: list  # indices of generator rows within `rows`

    @property
    def group_order(self) -> int:
        return len(self.rows)


@dataclass
class ChainOrbitCount:
    total_chains: int
    orbit_count: int
    orbit_sizes: tuple


def _primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row]


def _integer_lines(model: ReflectionModel):
    """Each root as a primitive integer vector, and integer rows whose
    Q-span is the root's line.

    Over Q a root is its own line. Over Q(sqrt5) a coordinate a + b*sqrt5
    is written (a - b) + 2b*phi with phi = (1 + sqrt5)/2, giving two
    rational coordinates, and the line through r is the Q-span of r and
    phi*r, where phi*(x0, x1) = (x1, x0 + x1). So the K-span of a set of
    roots is the Q-span of their rows, and one integer kernel serves both
    fields, at twice the width over Q(sqrt5).
    """
    realify = model.field == FIELD_QSQRT5
    vecs, lines = [], []
    for root in model.roots:
        if realify:
            coords = [q for x in root for q in (x.a - x.b, 2 * x.b)]
        else:
            coords = [x.a for x in root]
        scale = math.lcm(*(q.denominator for q in coords))
        vec = _primitive([int(q * scale) for q in coords])
        vecs.append(vec)
        if realify:
            pairs = zip(vec[::2], vec[1::2])
            lines.append([vec, [y for x0, x1 in pairs for y in (x1, x0 + x1)]])
        else:
            lines.append([vec])
    return vecs, lines


def _echelon(rows, pivots, new):
    """Add integer rows to a fraction-free reduced echelon form, in which
    every row is primitive and each pivot column is zero outside its pivot
    row. Returns new lists (rows, pivots); the arguments are not changed."""
    rows, pivots = list(rows), list(pivots)
    for row in new:
        for prow, p in zip(rows, pivots):
            x = row[p]
            if x:
                d = prow[p]
                row = [d * u - x * w for u, w in zip(row, prow)]
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        row = _primitive(row)
        d = row[p]
        for k, prow in enumerate(rows):
            x = prow[p]
            if x:
                rows[k] = _primitive([d * u - x * w for u, w in zip(prow, row)])
        rows.append(row)
        pivots.append(p)
    return rows, pivots


def _null_vectors(rows, pivots, width):
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


def _build_matrix_lattice(model: ReflectionModel) -> IntersectionLattice:
    """Build rank by rank: a flat's covers are its closures with one more
    root, each closed once from the flat's spanning roots and recorded as
    found.

    The closure runs on integers only (`_integer_lines`): the spanning rows
    plus the new root are brought to a fraction-free echelon form, and the
    cover is every root orthogonal to all of its null vectors. Flats are
    root-index bitmasks while building; each flat's exact `Subspace` is
    computed once at the end, from its spanning roots.
    """
    vecs, lines = _integer_lines(model)
    width = len(vecs[0])
    n = len(vecs)
    masks = [0]        # flat id -> bitmask of the roots containing the flat
    spans = [()]       # flat id -> independent roots spanning its normals
    ids = {0: 0}
    ups = []           # flat id -> ids of the flats covering it
    for mask, span in zip(masks, spans):  # FIFO: rank r before rank r + 1
        base = _echelon((), (), [row for i in span for row in lines[i]])
        seen = mask
        flat_ups = []
        for a in range(n):
            if seen >> a & 1:
                continue
            nulls = _null_vectors(*_echelon(*base, lines[a]), width)
            # every root below a is in `seen`, and a root already in another
            # cover of this flat lies in no other cover
            cover = mask | 1 << a
            for c in range(a + 1, n):
                if not seen >> c & 1 and not any(
                        sum(map(operator.mul, vecs[c], v)) for v in nulls):
                    cover |= 1 << c
            seen |= cover
            if cover not in ids:
                ids[cover] = len(masks)
                masks.append(cover)
                spans.append(span + (a,))
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
        elements=_flat_bases(model, [spans[f] for f in order]),
        rank=rank,
        covers=[sorted(position[c] for c in ups[f]) for f in order],
        bottom=0,
        top=len(order) - 1,
        essential_rank=rank[-1],
        hypsets=[frozenset(hyps[f]) for f in order],
    )
    _validate_graded(lattice)
    if rank.count(1) != n:
        raise AssertionError("rank-1 elements are not exactly the hyperplanes")
    return lattice


def _flat_bases(model: ReflectionModel, spans):
    """Each flat's exact `Subspace`, from its spanning roots. Equal scalars
    are stored once: E6's 4598 bases hold 161k entries but few values."""
    scalars = {}
    bases = []
    for span in spans:
        sub = null_space([model.roots[i] for i in span], model.ambient)
        basis = tuple(
            tuple(scalars.setdefault(x, x) for x in row)
            for row in sub.basis)
        bases.append(Subspace(sub.ambient, basis))
    return bases


def _validate_graded(l: IntersectionLattice):
    if sum(1 for r in l.rank if r == 0) != 1:
        raise AssertionError("bottom element is not unique")
    if sum(1 for r in l.rank if r == l.essential_rank) != 1:
        raise AssertionError("top element is not unique")
    has_parent = [False] * len(l.elements)
    for i, ups in enumerate(l.covers):
        for j in ups:
            if l.rank[j] != l.rank[i] + 1:
                raise AssertionError("cover relation skips a rank")
            has_parent[j] = True
        if not ups and l.rank[i] != l.essential_rank:
            raise AssertionError("non-top element with no cover above")
    for i, ok in enumerate(has_parent):
        if not ok and l.rank[i] != 0:
            raise AssertionError("non-bottom element with no cover below")


def _build_dihedral_lattice(model: DihedralModel) -> IntersectionLattice:
    m = model.m
    elements = ["V"] + [f"L{k}" for k in range(m)] + ["0"]
    rank = [0] + [1] * m + [2]
    covers = [list(range(1, m + 1))] + [[m + 1]] * m + [[]]
    return IntersectionLattice(
        kind="dihedral",
        elements=elements,
        rank=rank,
        covers=covers,
        bottom=0,
        top=m + 1,
        essential_rank=2,
        hypsets=[frozenset()] + [frozenset({k}) for k in range(m)]
        + [frozenset(range(m))],
    )


def _product_lattice(lat1, lat2):
    """The product of a product lattice and an irreducible one, and `flat`,
    with flat[i * n2 + j] the position of the pair (i, j). Elements are
    ordered by rank, then factor indices, and an element is the tuple of
    its irreducible factors' element indices."""
    n2 = len(lat2.elements)
    pairs = sorted(
        itertools.product(range(len(lat1.elements)), range(n2)),
        key=lambda p: (lat1.rank[p[0]] + lat2.rank[p[1]], p[0], p[1]),
    )
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
    )
    return lattice, flat


def _product_table(flat, tab1, tab2):
    """Action table of the product of two factors, in the element order
    that `flat` from `_product_lattice` gives.

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


def _action_table(model, lattice: IntersectionLattice):
    """Action table of an irreducible model: generator rows from hypset
    images; every other row composed along the group's BFS, since
    g = gen . h acts as gen's row read at h's row."""
    index = {s: i for i, s in enumerate(lattice.hypsets)}
    gen_rows = []
    for perm in model.gen_perms:
        line_map = [abs(x) - 1 for x in perm]
        gen_rows.append(tuple(
            index[frozenset(line_map[i] for i in hypset)]
            for hypset in lattice.hypsets
        ))
    _, steps = group_bfs(model)
    rows = [tuple(range(len(lattice.hypsets)))]
    for parent, g in steps[1:]:
        rows.append(operator.itemgetter(*rows[parent])(gen_rows[g]))
    # the BFS reaches each generator first, from the identity
    return GroupActionTable(rows=rows,
                            generator_rows=list(range(1, len(gen_rows) + 1)))


def _point():
    """The lattice and action table of the trivial group, which every
    product fold starts from."""
    lattice = IntersectionLattice(
        kind="product", elements=[()], rank=[0], covers=[[]],
        bottom=0, top=0, essential_rank=0,
    )
    return lattice, GroupActionTable(rows=[(0,)], generator_rows=[])


def build_lattice(model) -> IntersectionLattice:
    """Build the intersection lattice alone, without the action table."""
    if isinstance(model, ReflectionModel):
        return _build_matrix_lattice(model)
    if isinstance(model, DihedralModel):
        return _build_dihedral_lattice(model)
    if isinstance(model, ProductModel):
        lattice = _point()[0]
        for f, _ in model.factors:
            lattice, _ = _product_lattice(lattice, build_lattice(f))
        return lattice
    raise TypeError(f"not a reflection model: {model!r}")


def build_lattice_with_action(model):
    """Build the intersection lattice and the full group action table."""
    if not isinstance(model, ProductModel):
        lattice = build_lattice(model)
        return lattice, _action_table(model, lattice)
    lattice, table = _point()
    for f, _ in model.factors:
        lat2, tab2 = build_lattice_with_action(f)
        lattice, flat = _product_lattice(lattice, lat2)
        table = _product_table(flat, table, tab2)
    return lattice, table


def count_maximal_chains(l: IntersectionLattice) -> int:
    ways = [0] * len(l.elements)
    ways[l.bottom] = 1
    for i in sorted(range(len(l.elements)), key=lambda i: l.rank[i]):
        w = ways[i]
        if w:
            for j in l.covers[i]:
                ways[j] += w
    return ways[l.top]


def _scan_atoms(covers, rows, atoms):
    """Orbit sizes of the canonical maximal chains through the given atoms;
    `rows` is the whole action table."""
    order = len(rows)
    sizes = []

    def extend(d, stab):
        # stab holds the rows that fix the canonical chain below d
        # elementwise; the chain through d is canonical iff none maps d lower
        ims = list(map(operator.itemgetter(d), stab))
        if min(ims) != d:
            return
        stab = list(itertools.compress(stab, map(d.__eq__, ims)))
        if not covers[d]:
            if order % len(stab):
                raise AssertionError(
                    f"chain stabiliser of order {len(stab)} does not divide "
                    f"|W| = {order}")
            sizes.append(order // len(stab))
        for up in covers[d]:
            extend(up, stab)

    for atom in atoms:
        extend(atom, rows)
    return sizes


def _scan_atoms_job(args):
    return _scan_atoms(*args)


def count_chain_orbits(l: IntersectionLattice, table: GroupActionTable,
                       workers: int = 1) -> ChainOrbitCount:
    """Orbit count of the group action on maximal chains.

    Each orbit is visited once, at its canonical chain: the chain that
    equals its own lexicographically smallest image. A prefix of a
    canonical chain is canonical, and a canonical prefix p extends by a
    cover d to a canonical prefix exactly when no element of Stab(p) maps
    d below d; the stabiliser of the longer prefix is the part of Stab(p)
    that fixes d. A canonical maximal chain c contributes the orbit size
    |W| / |Stab(c)|. Two checks certify the result: every chain stabiliser
    order divides |W| (Lagrange), and the orbit sizes sum to the number of
    maximal chains. A table with a row missing fails them.
    The canonical atoms are found first and dealt round-robin to the
    workers, so the result is identical for any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rows = table.rows
    atoms = [a for a in l.covers[l.bottom]
             if min(map(operator.itemgetter(a), rows)) == a]
    if not l.covers[l.bottom]:
        atoms = [l.bottom]  # rank-0 lattice: the bottom is the only chain
    if workers == 1 or len(atoms) <= 1:
        sizes = _scan_atoms(l.covers, rows, atoms)
    else:
        chunks = [atoms[i::workers] for i in range(min(workers, len(atoms)))]
        jobs = [(l.covers, rows, c) for c in chunks]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            sizes = [s for part in pool.map(_scan_atoms_job, jobs) for s in part]
    sizes = tuple(sorted(sizes))
    total = sum(sizes)
    if total != count_maximal_chains(l):
        raise AssertionError("orbit sizes do not sum to the chain count")
    return ChainOrbitCount(total_chains=total, orbit_count=len(sizes),
                           orbit_sizes=sizes)


def orbit_count_of_lines(l: IntersectionLattice, table: GroupActionTable) -> int:
    """Number of group orbits among the coatoms (the lines of the lattice)."""
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


def lattice_to_json(l: IntersectionLattice) -> dict:
    """Stable JSON dump: elements with codim and exact basis rows, cover
    edges, and rank sizes."""
    elems = []
    for i, e in enumerate(l.elements):
        entry = {"index": i, "codim": l.rank[i]}
        if l.kind == "matrix":
            entry["basis"] = [[str(x) for x in row] for row in e.basis]
        elif l.kind == "product":
            entry["key"] = list(e)
        else:
            entry["key"] = str(e)
        elems.append(entry)
    edges = [[i, j] for i, ups in enumerate(l.covers) for j in sorted(ups)]
    return {
        "essential_rank": l.essential_rank,
        "rank_sizes": list(l.rank_sizes()),
        "elements": elems,
        "cover_edges": edges,
    }

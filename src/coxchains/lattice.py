"""Intersection lattices and brute-force orbit counting of maximal chains.

A lattice element is identified with the set of reflecting hyperplanes
containing it, which makes deduplication and the group action cheap: a
group element permutes root lines, hence hyperplane index sets. Maximal
chains are counted by rank DP. Chain orbits are counted by visiting one
chain per orbit: the canonical chain, which equals its own lexicographically
smallest image. A depth-first scan extends a canonical prefix only by a
cover that no element of the prefix's stabiliser moves lower, narrowing the
stabiliser as it goes; each canonical maximal chain then contributes the
orbit size |W| / |Stab|. The orbit sizes must sum to the maximal-chain
count, which certifies the scan and the action table together. The
union-find counter is a second, independent implementation that the tests
compare against.
"""

from __future__ import annotations

import itertools
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .field import ZERO, full_space, null_space
from .models import (
    DihedralModel,
    ProductModel,
    ReflectionModel,
    generate_group,
)


@dataclass
class IntersectionLattice:
    kind: str            # matrix | dihedral | product
    elements: list       # Subspace | dihedral name | factor index tuple
    rank: list           # codimension within the essential space
    covers: list         # covers[i] = indices of elements directly above i
    bottom: int
    top: int
    essential_rank: int
    hypsets: list | None = None  # matrix models: containing-hyperplane sets

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


def _dot_zero(u, v) -> bool:
    return sum((a * b for a, b in zip(u, v)), ZERO).is_zero()


def _containing_roots(roots, subspace):
    out = []
    for i, r in enumerate(roots):
        if all(_dot_zero(r, row) for row in subspace.basis):
            out.append(i)
    return frozenset(out)


def _build_matrix_lattice(model: ReflectionModel) -> IntersectionLattice:
    """Build rank by rank: a flat's covers are its closures with one more
    root, each closed once from the flat's spanning roots and recorded as
    found."""
    amb = model.ambient
    roots = model.roots
    # hypset -> (subspace, independent root indices spanning its normals)
    found = {frozenset(): (full_space(amb), ())}
    ups = {}
    queue = [frozenset()]
    for hypset in queue:  # FIFO, so rank r is done before rank r + 1
        span = found[hypset][1]
        seen = set(hypset)
        ups[hypset] = []
        for a in range(len(roots)):
            if a in seen:
                continue
            sub = null_space([roots[i] for i in span + (a,)], amb)
            cover = _containing_roots(roots, sub)
            seen |= cover
            ups[hypset].append(cover)
            if cover not in found:
                found[cover] = (sub, span + (a,))
                queue.append(cover)
    order = sorted(found, key=lambda s: (amb - found[s][0].dim, tuple(sorted(s))))
    index = {s: i for i, s in enumerate(order)}
    elements = [found[s][0] for s in order]
    rank = [amb - e.dim for e in elements]
    lattice = IntersectionLattice(
        kind="matrix",
        elements=elements,
        rank=rank,
        covers=[sorted(index[c] for c in ups[s]) for s in order],
        bottom=0,
        top=index[order[-1]],
        essential_rank=max(rank),
        hypsets=order,
    )
    _validate_graded(lattice)
    if rank.count(1) != len(roots):
        raise AssertionError("rank-1 elements are not exactly the hyperplanes")
    return lattice


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
    )


def _factor_key(lattice, i):
    """Factor element indices of element i, flattened across products."""
    return lattice.elements[i] if lattice.kind == "product" else (i,)


def _product_lattice(lat1, tab1, lat2, tab2):
    n2 = len(lat2.elements)
    pairs = sorted(
        itertools.product(range(len(lat1.elements)), range(n2)),
        key=lambda p: (lat1.rank[p[0]] + lat2.rank[p[1]], p[0], p[1]),
    )
    # flat[i * n2 + j] is the position of the pair (i, j)
    flat = [0] * (len(lat1.elements) * n2)
    for pos, (i, j) in enumerate(pairs):
        flat[i * n2 + j] = pos
    elements = [_factor_key(lat1, i) + _factor_key(lat2, j) for i, j in pairs]
    rank = [lat1.rank[i] + lat2.rank[j] for i, j in pairs]
    covers = [
        [flat[i2 * n2 + j] for i2 in lat1.covers[i]]
        + [flat[i * n2 + j2] for j2 in lat2.covers[j]]
        for i, j in pairs
    ]
    lattice = IntersectionLattice(
        kind="product",
        elements=elements,
        rank=rank,
        covers=covers,
        bottom=flat[lat1.bottom * n2 + lat2.bottom],
        top=flat[lat1.top * n2 + lat2.top],
        essential_rank=lat1.essential_rank + lat2.essential_rank,
    )

    # blocks[i][j] is the position of (i, j); `order` reads an (i, j)-major
    # list in pair order. (g1, g2) acts as (g1, 1) after (1, g2), and one
    # itemgetter per g2 composes the two in C. Factors have rank >= 1, so
    # every itemgetter here takes at least two items and returns a tuple.
    blocks = [flat[n2 * i:n2 * (i + 1)] for i in range(len(lat1.elements))]
    order = operator.itemgetter(*(n2 * i + j for i, j in pairs))
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
    table = GroupActionTable(rows=rows, generator_rows=gen_rows)
    return lattice, table


def _matrix_table(model: ReflectionModel, lattice: IntersectionLattice):
    index = {s: i for i, s in enumerate(lattice.hypsets)}
    elements = generate_group(model)
    rows = []
    gen_rows = []
    gen_perms = set(model.gen_perms)
    for pos, el in enumerate(elements):
        line_map = [abs(x) - 1 for x in el.perm]
        row = tuple(
            index[frozenset(line_map[i] for i in hypset)]
            for hypset in lattice.hypsets
        )
        rows.append(row)
        if el.perm in gen_perms:
            gen_rows.append(pos)
    return GroupActionTable(rows=rows, generator_rows=gen_rows)


def _dihedral_table(model: DihedralModel, lattice: IntersectionLattice):
    m = model.m
    rows = []
    gen_rows = []
    for pos, el in enumerate(generate_group(model)):
        row = [0] * (m + 2)
        row[m + 1] = m + 1
        for k in range(m):
            row[1 + k] = 1 + model.line_image(el, k)
        rows.append(tuple(row))
        # the reflections across line 0 and line 1 generate I2(m)
        if el.perm in ((0, 1), (1, 1)):
            gen_rows.append(pos)
    return GroupActionTable(rows=rows, generator_rows=gen_rows)


def build_lattice_with_action(model):
    """Build the intersection lattice and the full group action table."""
    if isinstance(model, ReflectionModel):
        lattice = _build_matrix_lattice(model)
        return lattice, _matrix_table(model, lattice)
    if isinstance(model, DihedralModel):
        lattice = _build_dihedral_lattice(model)
        return lattice, _dihedral_table(model, lattice)
    if isinstance(model, ProductModel):
        parts = [build_lattice_with_action(f) for f, _ in model.factors]
        if not parts:
            lattice = IntersectionLattice(
                kind="product", elements=[()], rank=[0], covers=[[]],
                bottom=0, top=0, essential_rank=0,
            )
            table = GroupActionTable(rows=[(0,)], generator_rows=[])
            return lattice, table
        lattice, table = parts[0]
        for lat2, tab2 in parts[1:]:
            lattice, table = _product_lattice(lattice, table, lat2, tab2)
        return lattice, table
    raise TypeError(f"not a reflection model: {model!r}")


def count_maximal_chains(l: IntersectionLattice) -> int:
    ways = [0] * len(l.elements)
    ways[l.bottom] = 1
    for i in sorted(range(len(l.elements)), key=lambda i: l.rank[i]):
        w = ways[i]
        if w:
            for j in l.covers[i]:
                ways[j] += w
    return ways[l.top]


def maximal_chains(l: IntersectionLattice):
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


def count_chain_orbits_unionfind(l: IntersectionLattice,
                                 table: GroupActionTable) -> ChainOrbitCount:
    """Independent oracle: union-find over the full chain set."""
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

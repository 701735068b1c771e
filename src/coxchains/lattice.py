"""Intersection lattices and brute-force orbit counting of maximal chains.

A lattice element is identified with the set of reflecting hyperplanes
containing it, kept as a bitmask of root indices (`hypsets`); a group
element permutes root lines, hence hypsets. Both builds of an irreducible
lattice, whole and lazy, certify its generators as signed permutations and
isometries of its roots (`_check_generators`), then close and certify
flats with one closer (`_factor_covers`) through the model's closure: on
plain integers for a matrix model (its integer root vectors made
primitive, over Q(sqrt5) each with its product with phi, each root off the
flat reduced once against the flat's fraction-free echelon form, the roots
of one residue line one cover) and by index for I2(m) (its lines, then its
top). The whole build closes one flat per W-orbit and carries the rest of
its orbit, with its covers, along the generators' line permutations,
checking the span each carried flat keeps. Exact `FieldScalar` arithmetic
serves the export's flat bases only. A product's roots are its factors'
roots in factor order, and its lattice is built in one pass over its
factors'. No W-orbit is recorded: hypsets' orbits are walked along the
generators' bit images by one walker (`_orbit_walks`), the generators
acting alone (`GeneratorAction`), one block per irreducible factor with
each factor's order. Chain orbits are counted from atom stabilisers listed
coset by coset (Dimino) from Schreier generators in their block; a block
the chain has not entered, or entered at a line it fixes, counts as its
factor's order. The count above a flat depends on the flat and the chain
stabiliser alone, kept as one interned part per block, so the scan is
memoized on the two: a product's scan visits its factors' states, not
their shuffles. States merge their counts as {orbit size: number of
orbits}, kept as `ChainOrbitCount.size_counts`, so A1^16 counts its 16!
orbits in one entry.

One driver (`_count_orbits`) counts the chain orbits above the canonical
atoms of the generators' atom-line orbits (`_scan_atoms`, which maps each
orbit of a state's covers once), over either path's covers and hypsets.
Every command's brute force is `count_chain_orbits_lazily`; `verify` also
walks the line orbits from the coatoms that scan closed
(`count_chain_and_line_orbits_lazily`). That scan closes a flat only when
it first reads its covers (`_Covers`), a product flat's joined from its
factors' flats, each closed and certified once per distinct factor model,
and certifies each state: the maximal chains above a flat, summed over its
canonical covers times their orbit lengths under the chain stabiliser, must
agree between stabilisers, and the state's orbit sizes sum to |W| / |Stab|
times them. The library's `count_chain_orbits` scans a whole lattice, built
by orbit transport, in one process unless asked for workers, and certifies
that the orbit sizes sum to its maximal chains.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .field import FIELD_QSQRT5, Subspace, null_space
from .models import (
    DihedralModel,
    ProductModel,
    ReflectionModel,
    group_order,
    phi_times,
)


@dataclass
class IntersectionLattice:
    kind: str            # matrix | dihedral | product
    elements: list       # spanning roots (the export: Subspace | name) | factor indices
    rank: list           # codimension within the essential space
    covers: list         # covers[i] = indices of elements directly above i
    bottom: int
    top: int
    essential_rank: int
    hypsets: list        # bitmask of the roots whose hyperplanes contain it

    def rank_sizes(self):
        return tuple(map(self.rank.count, range(self.essential_rank + 1)))


@dataclass
class GeneratorAction:
    """Generators as permutations p of the 2n signed roots, p[i] the image
    of point i: point i is root i and point i + n is -root i. `blocks` holds
    one list of generators per irreducible factor, in factor order, each
    moving its factor's roots only, and `orders` each factor's |W| from its
    type. The group is the direct product of the blocks."""

    blocks: list
    orders: list

    @property
    def group_order(self) -> int:
        return math.prod(self.orders)


@dataclass
class ChainOrbitCount:
    total_chains: int
    orbit_count: int
    size_counts: dict    # orbit size -> number of orbits of that size, by size


def _primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row]


def _integer_lines(model: ReflectionModel):
    """Per root, integer rows whose Q-span is the root's line: its vector
    made primitive and, over Q(sqrt5), that vector's product with phi. So
    the K-span of a set of roots is the Q-span of their rows, and one
    integer kernel serves both fields, at twice the width over Q(sqrt5)
    (see `ReflectionModel.vectors`)."""
    realify = model.field == FIELD_QSQRT5
    return [[v, phi_times(v)] if realify else [v] for v in map(_primitive, model.vectors)]


def _reduce(rows, pivots, row):
    """The row with every pivot column cleared by fraction-free steps."""
    for prow, p in zip(rows, pivots):
        x = row[p]
        if x:
            d = prow[p]
            row = [d * u - x * w for u, w in zip(row, prow)]
    return row


def _echelon(rows, pivots, new):
    """Add integer rows to a fraction-free reduced echelon form, in which
    every row is primitive and each pivot column is zero outside its pivot
    row. Returns new lists (rows, pivots); the arguments are not changed."""
    rows, pivots = list(rows), list(pivots)
    for row in new:
        row = _reduce(rows, pivots, row)
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


def _residue(rows, pivots, root):
    """A key of the root's line modulo the echelon form's span, None if the
    root lies in it: its row with the pivot columns cleared, unique up to a
    factor, or over Q(sqrt5) the 2x2 minors of its two rows, which fix the
    plane they span; made primitive, the first nonzero entry positive."""
    res = [_reduce(rows, pivots, row) for row in root]
    if len(res) == 2:
        u, v = res
        res = [[u[i] * v[j] - u[j] * v[i] for i, j in itertools.combinations(range(len(u)), 2)]]
    g = math.gcd(*res[0])
    if not g:
        return None
    g = g if next(filter(None, res[0])) > 0 else -g
    return tuple([x // g for x in res[0]])


def _closure(lines, base, mask, span):
    """The covers (hypset, spanning roots) of the flat `mask` spanned by
    `span`, whose echelon form is `base`, in the order of their least
    roots: each root off the flat is reduced once against base, and the
    roots of one residue (`_residue`) are one cover, spanned by span and
    its least root. A root in the span, possible only when mask is not
    closed, raises."""
    covers = {}  # residue -> [hypset, least root]
    for a in _lines((1 << len(lines)) - 1 & ~mask):
        key = _residue(*base, lines[a])
        if key is None:
            raise AssertionError("a root off a flat lies in its span")
        covers.setdefault(key, [mask, a])[0] |= 1 << a
    return [(cover, span + (a,)) for cover, a in covers.values()]


def _dihedral_closure(m, mask, span):
    """The covers of an I2(m) flat, as `_closure` gives a matrix flat's: the
    bottom's are the m lines, the only cover of a line is the top, spanned
    by the line and the least line off it, and the top has none. Two lines
    span the plane, so a flat holding two holds every line, or raises."""
    if not mask:
        return [(1 << k, (k,)) for k in range(m)]
    off = (1 << m) - 1 & ~mask
    if off and mask & mask - 1:
        raise AssertionError("a root off a flat lies in its span")
    return [((1 << m) - 1, span + ((off & -off).bit_length() - 1,))] if off else []


def _closure_of(model):
    """An irreducible model's root count and its closure: (mask, span) ->
    a thunk for the covers (hypset, spanning roots) of the flat `mask`
    spanned by `span`, a test that each root of `mask` lies in the span,
    and whether it is independent (one pivot per row of its roots)."""
    if isinstance(model, DihedralModel):
        return model.m, lambda mask, span: (
            lambda: _dihedral_closure(model.m, mask, span),
            lambda: len(set(span)) > 1 or not mask & ~sum(1 << i for i in set(span)),
            len(set(span)) == len(span) <= 2)
    lines = _integer_lines(model)

    def closure(mask, span):
        base = _echelon((), (), [row for i in span for row in lines[i]])
        return lambda: _closure(lines, base, mask, span), lambda: not any(
            any(_reduce(*base, row)) for i in _lines(mask & ~sum(1 << i for i in set(span)))
            for row in lines[i]), len(base[1]) == sum(len(lines[i]) for i in span)
    return len(lines), closure


def _check_covers(mask, rank, covers, full):
    """Certify a flat's covers, (hypset, rank) pairs: each holds it, they
    partition the roots off it up to `full`, each adds a root, so no scan
    climbs a flat to itself, and each is one rank above it. Failures are
    raised in that order, the first two cover by cover."""
    union, idle, skips = mask, False, False
    for cover, r in covers:
        if mask & ~cover:
            raise AssertionError("a cover of a flat does not hold it")
        if union & cover & ~mask:
            raise AssertionError("a root off a flat lies in two of its covers")
        union |= cover
        idle = idle or not cover & ~mask
        skips = skips or r != rank + 1
    if union != full:
        raise AssertionError("a root off a flat lies in none of its covers")
    if idle:
        raise AssertionError("a cover of a flat adds no root to it")
    if skips:
        raise AssertionError("a cover of a flat is not one rank above it")


def _irreducible_lattice(model) -> IntersectionLattice:
    """Build rank by rank, closing one flat per W-orbit (`_factor_covers`).

    In FIFO order, a flat no earlier orbit reached is closed and certified,
    and its orbit walked breadth-first along the generators' line
    permutations: p gives p(y) the covers p(c) of y's covers c, and a new
    flat the sorted image of y's span, in the record the closure reads.
    Each p, certified as a signed permutation and an isometry of the roots,
    maps flats to flats and covers to covers. The walk first reaches p(y)
    from a certified y, so the span p(y) keeps, perhaps recorded as a
    closed flat's cover, is checked there against the image of y's
    (`carried`). A flat's element is its spanning roots; `build_lattice`
    makes it a `Subspace`, or a dihedral flat's name.
    """
    _, closed, spans, carried = _factor_covers(model)
    gens = [[1 << abs(x) - 1 for x in p] for p in model.gen_perms]  # line i -> bit
    masks, hyps = [0], [[]]  # per flat: hypset, its roots
    ups, ids = {}, {0: 0}  # flat id -> ids of the flats covering it; hypset -> id

    def add(mask):
        if mask not in ids:
            ids[mask] = len(masks)
            masks.append(mask)
            hyps.append(_lines(mask))
        return ids[mask]

    def image(bits, y):  # of y's span
        return tuple(sorted(bits[i].bit_length() - 1 for i in spans[masks[y]]))

    def moved(bits, y):
        mask = sum(map(bits.__getitem__, hyps[y]))
        if mask not in spans:
            spans[mask] = image(bits, y)
        return add(mask)

    for f, mask in enumerate(masks):
        if f in ups:
            continue
        ups[f] = list(map(add, closed(mask)))
        walk = [f]
        for y in walk:
            for bits in gens:
                z = moved(bits, y)
                if z not in ups:
                    carried(masks[z], image(bits, y))
                    ups[z] = [moved(bits, c) for c in ups[y]]
                    walk.append(z)
    span = [spans[mask] for mask in masks]
    order = sorted(range(len(masks)), key=lambda f: (len(span[f]), hyps[f]))
    position = {f: i for i, f in enumerate(order)}
    rank = [len(span[f]) for f in order]
    return IntersectionLattice(
        kind="dihedral" if isinstance(model, DihedralModel) else "matrix",
        elements=[span[f] for f in order],
        rank=rank,
        covers=[sorted(position[c] for c in ups[f]) for f in order],
        bottom=0,
        top=len(order) - 1,
        essential_rank=rank[-1],
        hypsets=[masks[f] for f in order],
    )


def _flat_bases(model: ReflectionModel, spans):
    """Each flat's exact `Subspace`, from its spanning roots, which must be
    independent. Equal scalars are stored once: E6's 4598 bases hold 161k
    entries but few values."""
    scalars, bases = {}, []
    for span in spans:
        sub = null_space([model.roots[i] for i in span], model.ambient)
        if sub.dim != model.ambient - len(span):
            raise AssertionError("a flat was reached with dependent roots")
        basis = tuple(tuple(scalars.setdefault(x, x) for x in row) for row in sub.basis)
        bases.append(Subspace(sub.ambient, basis))
    return bases


def _product_lattice(lats) -> IntersectionLattice:
    """The product of irreducible lattices in one pass: element x is the
    tuple of its factors' element indices, x = sum of i_f * stride_f, and
    elements, ranks and hypsets grow factor by factor in index order. They
    are ordered as a pairwise fold from the first factor orders them: by
    the partial rank sums s_k, ..., s_1 (one int), then by index. x covers
    x + (c - i_f) * stride_f for each cover c of i_f in factor f."""
    keys, rank, hyps, sums = [()], [0], [0], [0]
    base, scale, shift = sum(l.essential_rank for l in lats) + 1, 1, 0
    for lat in lats:
        sums = [c + (r + s) * scale for c, r in zip(sums, rank) for s in lat.rank]
        keys = [k + (i,) for k in keys for i in range(len(lat.elements))]
        rank = [r + s for r in rank for s in lat.rank]
        hyps = [h | g << shift for h in hyps for g in lat.hypsets]
        scale, shift = scale * base, shift + lat.hypsets[lat.top].bit_length()
    strides = [math.prod(len(l.elements) for l in lats[f + 1:]) for f in range(len(lats))]
    order = sorted(range(len(keys)), key=sums.__getitem__)
    pos = sorted(range(len(order)), key=order.__getitem__)  # index -> position
    return IntersectionLattice(
        kind="product",
        elements=[keys[x] for x in order],
        rank=[rank[x] for x in order],
        covers=[[pos[x + (c - i) * stride]
                 for lat, i, stride in zip(lats, keys[x], strides) for c in lat.covers[i]]
                for x in order],
        bottom=0,
        top=len(order) - 1,
        essential_rank=base - 1,
        hypsets=[hyps[x] for x in order],
    )


def _lattice(model) -> IntersectionLattice:
    if isinstance(model, (ReflectionModel, DihedralModel)):
        return _irreducible_lattice(model)
    if isinstance(model, ProductModel):
        factors = {id(f): f for f, _ in model.factors}  # each shared model once
        built = {k: _lattice(f) for k, f in factors.items()}
        return _product_lattice([built[id(f)] for f, _ in model.factors])
    raise TypeError(f"not a reflection model: {model!r}")


def build_lattice(model) -> IntersectionLattice:
    """Build the intersection lattice alone, with each matrix flat's exact
    basis, or a dihedral flat's name (V, the lines L0.., 0), as the export
    writes it."""
    lattice = _lattice(model)
    if isinstance(model, ReflectionModel):
        lattice.elements = _flat_bases(model, lattice.elements)
    elif isinstance(model, DihedralModel):
        lattice.elements = ["V", *(f"L{k}" for k, in lattice.elements[1:-1]), "0"]
    return lattice


def _stabiliser(generators, line, order):
    """|orbit| |Stab| of the line, and every element of its stabiliser.

    A transversal t, with t[b] taking the line to line b, is grown along
    the orbit. By Schreier's lemma the stabiliser is generated by
    t[c]^-1 . g . t[b] over orbit lines b and generators g, where c is the
    line of g(t[b](line)) (Seress, Permutation Group Algorithms, 2003).
    One that is not yet a member is kept, and the group H listed so far
    grows coset by coset (Dimino; G. Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991): for each representative r, from
    the identity, and kept k with r . k not yet a member, H . (r . k) is
    listed whole and r . k made a representative. Generators that are not
    symmetries can generate a far larger group, so after each coset the
    listing stops, returning the product reached, once |orbit| |Stab|
    passes `order`, the group order it should have.
    """
    size = len(generators[0])
    identity = tuple(range(size))
    transversal = {line: identity}
    inverses = {}  # orbit line c -> transversal[c]^-1
    orbit = [line]
    elements, members = [identity], {identity}
    kept = []  # act(e) = e . k for each kept generator k

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
            group, reps = elements[:], [identity]
            for r in reps:
                for x in [act(r) for act in kept]:
                    if x not in members:
                        coset = list(map(operator.itemgetter(*x), group))
                        elements += coset
                        members.update(coset)
                        reps.append(x)
                        if len(orbit) * len(elements) > order:
                            return len(orbit) * len(elements), elements
    return len(orbit) * len(elements), elements


def _factors(model) -> list:
    return [f for f, _ in model.factors] if isinstance(model, ProductModel) else [model]


def _check_generators(model, n):
    """Refuse a generator s that is no signed permutation of the n root lines,
    then one that is no isometry of the roots. I2(m)'s must send line k to
    c + k or c - k mod m. A matrix model's must keep <s a, s b> = <a, b>, signs
    included, for each simple root a and root b, exact over {1, phi} as
    (u.v, u.(phi v)): the simple roots span the roots, so s is then a -> s a."""
    if isinstance(model, ReflectionModel):
        vecs = model.vectors
        phis = list(map(phi_times, vecs)) if model.field == FIELD_QSQRT5 else [()] * n

        @functools.cache
        def gram(i):  # <root i, point j> at j, <-root i, point j> at j + n (point j + n: -root j)
            row = [(sum(map(operator.mul, vecs[i], v)), sum(map(operator.mul, vecs[i], w)))
                   for v, w in zip(vecs, phis)]
            return row + [(-a, -b) for a, b in row] + row
    for g, perm in enumerate(model.gen_perms):
        if sorted(map(abs, perm)) != list(range(1, n + 1)):
            raise AssertionError(f"generator {g} is not a signed permutation of the {n} root lines")
        p = [abs(x) - 1 + n * (x < 0) for x in perm]  # root i -> its image point
        if not (any([(q - p[0]) * e % n for q in p] == list(range(n)) for e in (1, -1))
                if isinstance(model, DihedralModel) else all(
                    list(map(gram(x % n)[x // n * n:].__getitem__, p)) == gram(s)[:n]
                    for s, x in enumerate(p[:model.label.rank]))):
            raise AssertionError(f"generator {g} is not an isometry of the roots")


def _action(model) -> GeneratorAction:
    """Each factor's generators as permutations of the product's 2n signed
    roots, which are its factors' roots in factor order. Every caller builds
    or scans the lattice first, which certifies them (`_check_generators`)."""
    factors = _factors(model)
    sizes = [len(f.gen_perms[0]) for f in factors]
    total = sum(sizes)
    blocks = []
    for offset, f in zip(itertools.accumulate(sizes, initial=0), factors):
        blocks.append([])
        for perm in f.gen_perms:
            p = list(range(2 * total))
            for i, x in enumerate(perm, offset):
                j = abs(x) - 1 + offset
                p[i], p[i + total] = (j, j + total) if x > 0 else (j + total, j)
            blocks[-1].append(tuple(p))
    return GeneratorAction(blocks, [group_order(f.label) for f in factors])


def build_lattice_with_action(model):
    """Build the intersection lattice and the group's generator action."""
    return _lattice(model), _action(model)


def _lines(mask) -> list:
    """The root indices in a hypset, read off its set bits."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def count_maximal_chains(l: IntersectionLattice) -> int:
    """Maximal chains from the bottom to the top, walked in index order,
    which every builder makes rank order; a lattice out of it raises."""
    if any(map(operator.gt, l.rank, itertools.islice(l.rank, 1, None))):
        raise AssertionError("lattice elements are not listed in rank order")
    ways = [0] * len(l.elements)
    ways[l.bottom] = 1
    for w, ups in zip(ways, l.covers):  # ways[i] is complete when the walk reads it
        if w:
            for j in ups:
                ways[j] += w
    return ways[l.top]


def _merged(counts):
    """The sum of {orbit size: multiplicity} counts."""
    total = {}
    for sizes in counts:
        for s, k in sizes.items():
            total[s] = total.get(s, 0) + k
    return total


def _scan_atoms(covers, masks, orbits, blocks, orders, atoms, chains=None):
    """The orbit sizes of the canonical maximal chains through the atoms, as
    {orbit size: multiplicity}. At a flat x, the chain's stabiliser maps a
    cover d = x v a to the cover holding the image of a (`cover_of`), and
    only its part in a's block moves a. A chain stabiliser is a tuple of
    part ids, one per block: None stands for the whole factor of order
    orders[b], whose images of a are the lines orbits[a] of a's orbit, until
    the chain enters block b at a line a and the part becomes Stab(a), or
    stays None if Stab(a) is the whole factor (an A1 block), so that one
    stabiliser has one key. d is canonical when it is the least of the
    covers that a's images reach (`ims`), and the others are passed over.
    A part p narrows at d to the elements fixing d, which are those fixing
    d's roots in block b, since a generator of block b fixes every other
    root; so the part (p, masks[d] & own[b]) is interned once. What lies
    above x depends on x and the stabiliser alone, so `extend` is memoized
    on the two and each state is scanned once however many canonical
    prefixes reach it. Each root must be moved by one block alone; each
    atom's line certifies its factor's order: |orbit| |Stab|, closed in its
    block, must equal orders[b], and each chain stabiliser's order must
    divide |W|. The result holds one entry per orbit size, however many
    orbits the chains fall into: A1^16's 16! orbits are one entry.

    With a dict `chains`, each state is also certified on its own, for a
    scan that never sees the whole lattice: the length of each canonical
    cover d's orbit under Stab(p) is counted as the distinct covers its
    images reach, and these lengths must sum to x's cover count, so the
    orbits partition the covers. chains[x] becomes f(x), the number of
    maximal chains from x to the top, as the sum over the canonical covers
    of f(d) times that length. A state that reaches x with another
    stabiliser must give the same f(x), and the state's orbit sizes times
    their multiplicities must sum to |W| / |Stab(p)| * f(x)."""
    n = len(blocks[0][0]) // 2
    block_of, own = {}, [0] * len(blocks)  # per root its block; per block its roots
    for b, gens in enumerate(blocks):
        for i in {i for g in gens for i in range(n) if g[i] != i}:
            if block_of.setdefault(i, b) != b:
                raise AssertionError(
                    f"root {i} is moved by generators of blocks {block_of[i]} and {b}")
            own[b] |= 1 << i
    unmoved = set(range(n)) - block_of.keys()
    if unmoved:
        raise AssertionError(f"root {min(unmoved)} is moved by no generator")
    order = math.prod(orders)
    parts, entered, narrowed = [], {}, {}  # part id -> elements; their ids by key
    memo = {}  # (flat, part id per block) -> {orbit size: multiplicity}

    def enter(line):
        """|orbit| |Stab| of the line, closed in its block, and Stab's part
        id, None when Stab is the whole factor (the line is its own orbit)."""
        if line not in entered:
            b = block_of[line]
            size, elements = _stabiliser(blocks[b], line, orders[b])
            entered[line] = size, len(parts) if len(elements) < size else None
            parts.append(elements)
        return entered[line]

    def extend(x, stab):
        out = memo.get((x, stab))
        if out is not None:
            return out
        ups = covers[x]
        if chains is not None or not ups:
            s = math.prod(w if p is None else len(parts[p]) for p, w in zip(stab, orders))
            if not s or order % s:
                raise AssertionError(
                    f"chain stabiliser of order {s} does not divide |W| = {order}")
        if not ups:
            out, below = {order // s: 1}, []
        elif len(ups) == 1:  # whatever fixes x fixes its only cover
            out, below = extend(ups[0], stab), [(1, ups[0])]
        else:
            nexts, below, seen = [], [], set()  # below: (orbit length, canonical cover)
            cover_of = [0] * (2 * n)
            news = [_lines(masks[d] & ~masks[x]) for d in ups]
            for d, new in zip(ups, news):
                for i in new:
                    cover_of[i] = cover_of[i + n] = d
            for d, a in zip(ups, map(operator.itemgetter(0), news)):
                if d in seen:
                    continue
                b = block_of[a]
                p = stab[b]
                ims = list(map(cover_of.__getitem__, orbits[a] if p is None
                               else map(operator.itemgetter(a), parts[p])))
                if min(ims) != d:
                    continue
                seen.update(ims)
                if p is None:
                    q = enter(a)[1]
                else:
                    key = p, masks[d] & own[b]
                    if key not in narrowed:
                        narrowed[key] = len(parts)
                        parts.append([*itertools.compress(parts[p], map(d.__eq__, ims))])
                    q = narrowed[key]
                nexts.append((d, stab[:b] + (q,) + stab[b + 1:]))
                if chains is not None:  # d's orbit: the covers its images reach
                    below.append((len(set(ims)), d))
            out = _merged(itertools.starmap(extend, nexts))
        if chains is not None:
            held = sum(k for k, _ in below)
            if held != len(ups):
                raise AssertionError(
                    f"flat {_lines(masks[x])}: the orbits of its canonical covers "
                    f"hold {held} of its {len(ups)} covers")
            ways = sum(k * chains[d] for k, d in below) if ups else 1
            total = sum(map(operator.mul, out, out.values()))
            if chains.setdefault(x, ways) != ways:
                raise AssertionError(
                    f"flat {_lines(masks[x])}: {ways} maximal chains above it under one "
                    f"stabiliser, {chains[x]} under another")
            if total * s != order * ways:
                raise AssertionError(
                    f"flat {_lines(masks[x])}: chain orbit sizes above it sum to {total}, "
                    f"not |W| / |Stab| = {order // s} times the maximal chains above it, "
                    f"{ways}")
        memo[x, stab] = out
        return out

    counts, unentered = [], (None,) * len(blocks)
    for atom in atoms:
        line = masks[atom].bit_length() - 1
        b = block_of[line]
        size, p = enter(line)
        if size != orders[b]:
            raise AssertionError(
                f"atom {atom}: |orbit| * |Stab| "
                f"{'passes' if size > orders[b] else f'= {size}, but'} its factor's "
                f"|W| = {orders[b]}")
        counts.append(extend(atom, unentered[:b] + (p,) + unentered[b + 1:]))
    del extend  # break its self-reference, so the memos go with this frame
    return _merged(counts)


def _in_workers(scan, args, items, workers):
    """scan(*args, chunk) for round-robin chunks of the items, one worker
    process per chunk, in chunk order; kept only for perfbench's sweep."""
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

    chunks = [items[i::workers] for i in range(min(workers, len(items)))]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(scan, *([a] * len(chunks) for a in args), chunks))


class _Covers(dict):
    """Covers closed on demand, for a scan that never builds the lattice:
    covers[x] lists the indices of the flats directly above flat x, found
    the first time it is read, and `masks` grows with each new flat's
    hypset, the bottom at index 0. A product flat's covers are its
    factors' certified covers (`_factor_covers`, one per distinct factor
    model), joined: each changes one factor's part, so they partition the
    roots off the flat, add a root and step one rank as its factors' do."""

    def __init__(self, factors):
        super().__init__()
        self.masks, self.ids = [0], {0: 0}
        models = {id(f): _factor_covers(f) for f in factors}  # each shared model once
        self.factors = []  # per factor: its first line, its roots, its covers
        shift = 0
        for width, closed, *_ in (models[id(f)] for f in factors):
            self.factors.append((shift, (1 << width) - 1 << shift, closed))
            shift += width
        self.full = (1 << shift) - 1

    def __missing__(self, x):
        mask = self.masks[x]
        ups = []
        for shift, own, closed in self.factors:
            rest = mask & ~own
            for c in closed((mask & own) >> shift):
                c = rest | c << shift
                if c not in self.ids:
                    self.ids[c] = len(self.masks)
                    self.masks.append(c)
                ups.append(self.ids[c])
        self[x] = ups
        return ups


def _factor_covers(model):
    """An irreducible model's root count, its hypset -> its covers' hypsets,
    memoized and certified, its hypset -> span record and the whole build's
    check of a carried flat's span. Its generators are certified first
    (`_check_generators`). A flat keeps the span it was first reached with,
    which must be independent and hold its roots, and no root off it lies
    in that span (`_closure`); then its covers pass `_check_covers`, a rank
    being a span's length. So a closed flat is the roots of a subspace of
    its span's dimension, and its covers are its covers in the lattice. A
    carried flat's span must be the image of the certified span it was
    carried from, or lie in the flat and pass the same two span tests."""
    width, closure = _closure_of(model)
    _check_generators(model, width)
    spans = {0: ()}

    def certify(spanned, independent):
        if not spanned():
            raise AssertionError("a root of a flat lies off the span it was reached with")
        if not independent:
            raise AssertionError("a flat was reached with dependent roots")

    @functools.cache
    def closed(mask):
        out, *tests = closure(mask, spans[mask])
        out = out()
        certify(*tests)
        covers = [(c, len(spans.setdefault(c, span))) for c, span in out]
        _check_covers(mask, len(spans[mask]), covers, (1 << width) - 1)
        return [cover for cover, _ in out]

    def carried(mask, image):
        span = spans.setdefault(mask, image)
        if span != image:
            if sum(1 << i for i in set(span)) & ~mask:
                raise AssertionError("a root off a flat lies in its span")
            certify(*closure(mask, span)[1:])
    return width, closed, spans, carried


def _orbit_walks(blocks, seeds, within=None):
    """The orbits of the hypsets `seeds`, one list per seed not yet walked,
    walked from it along the generators' bit images, which a block skips on
    a hypset holding all or none of its roots; an image off `within` raises."""
    n = len(blocks[0][0]) // 2 if blocks else 0
    moves = [(sum(1 << i for i in {i for g in block for i, x in enumerate(g[:n]) if x != i}),
              [[1 << x % n for x in g[:n]] for g in block]) for block in blocks]
    seen = set()
    for walk in ([seed] for seed in seeds if seed not in seen):  # tested after the previous walk
        seen.add(walk[0])
        for h in walk:
            for own, gens in moves:
                if h & own in (0, own):
                    continue
                part, rest = _lines(h & own), h & ~own
                for bits in gens:
                    image = rest | sum(map(bits.__getitem__, part))
                    if image not in seen:
                        if within is not None and image not in within:
                            raise AssertionError(f"a generator maps line {_lines(h)} to no line")
                        seen.add(image)
                        walk.append(image)
        yield walk


def _line_orbits(blocks) -> dict:
    """Each root line's orbit under the generators, as the sorted list of
    its lines, one list shared by the orbit."""
    n = len(blocks[0][0]) // 2 if blocks else 0
    orbits = (sorted(h.bit_length() - 1 for h in walk)
              for walk in _orbit_walks(blocks, [1 << i for i in range(n)]))
    return {i: orbit for orbit in orbits for i in orbit}


def _count_orbits(covers, masks, action, workers=1, total=None) -> ChainOrbitCount:
    """Orbit count of the group action on maximal chains over the flats'
    covers and hypsets, flat 0 the bottom, each orbit counted once, at its
    canonical chain: the chain that equals its own lexicographically
    smallest image. It starts at the atom of the least line of an orbit of
    atom lines, from the generators (`_line_orbits`). A canonical prefix p
    extends by a cover d to a canonical prefix exactly when no element of
    Stab(p) maps d below d (canonical augmentation: B. D. McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998), and a
    canonical maximal chain c contributes the orbit size |W| / |Stab(c)|
    (`_scan_atoms`). Besides the scan's own checks, the orbit sizes times
    their multiplicities must sum to `total`, a built lattice's maximal
    chains, or, given none, to |orbit| times the chains above each canonical
    atom, certified state by state: either fails atom-line orbits merged or
    split. Canonical atoms go round-robin to the workers, each with its own
    memo, so the result is identical for any count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    chains = {} if total is None else None
    orbits = _line_orbits(action.blocks)
    lines = sorted({o[0] for o in orbits.values()})
    counts, above = {1: 1}, 1  # rank 0: the bottom is the only chain
    if lines:
        atom = {masks[c].bit_length() - 1: c for c in covers[0]}
        if len(atom) != len(orbits):
            raise AssertionError("rank-1 elements are not exactly the hyperplanes")
        atoms = [atom[i] for i in lines]
        args = (covers, masks, orbits, action.blocks, action.orders)
        if workers == 1 or len(atoms) == 1:
            counts = _scan_atoms(*args, atoms, chains)
        else:
            counts = _merged(_in_workers(_scan_atoms, args, atoms, workers))
        if chains is not None:
            above = sum(len(orbits[i]) * chains[c] for i, c in zip(lines, atoms))
    found = sum(map(operator.mul, counts, counts.values()))
    what = "the chain count"
    if total is None:
        total, what = above, "the chains above the canonical atoms"
    if found != total:
        raise AssertionError(f"orbit sizes do not sum to {what}")
    return ChainOrbitCount(total_chains=found, orbit_count=sum(counts.values()),
                           size_counts=dict(sorted(counts.items())))


def count_chain_orbits(l: IntersectionLattice, action: GeneratorAction,
                       workers: int = 1) -> ChainOrbitCount:
    """Orbit count of the group action on the maximal chains of a built
    lattice (`_count_orbits`), whose orbit sizes must sum to its chains.
    No command calls it: only perfbench, whose sweep sets `workers`."""
    return _count_orbits(l.covers, l.hypsets, action, workers, count_maximal_chains(l))


def count_chain_orbits_lazily(model) -> ChainOrbitCount:
    """Orbit count of the group action on maximal chains (`_count_orbits`)
    without building the lattice: the scan closes only the flats whose
    covers it reads (`_Covers`), so E6 closes 49 of its 4,598 flats, the
    bottom among them, in one process with one memo. The chain-count sum
    needs the whole lattice, so each state is certified on its own instead
    (`_scan_atoms` with `chains`), and each distinct factor flat once
    (`_factor_covers`)."""
    covers = _Covers(_factors(model))
    return _count_orbits(covers, covers.masks, _action(model))


def count_chain_and_line_orbits_lazily(model):
    """`count_chain_orbits_lazily`'s count and the number of line orbits,
    walked (`_orbit_walks`) from the coatoms that scan closed, the flats
    whose only cover is the top: each line is the coatom of a maximal chain,
    so the coatoms of the canonical chains meet every line orbit."""
    covers, action = _Covers(_factors(model)), _action(model)
    count = _count_orbits(covers, covers.masks, action)
    top = [covers.ids[covers.full]]
    coatoms = [covers.masks[x] for x, ups in covers.items() if ups == top]
    return count, sum(1 for _ in _orbit_walks(action.blocks, coatoms))


def orbit_count_of_lines(l: IntersectionLattice, action: GeneratorAction) -> int:
    """Number of group orbits among the coatoms (the lines of the lattice),
    walked along the generators (`_orbit_walks`); an image off the lines raises."""
    lines = set(itertools.compress(l.hypsets, map((l.essential_rank - 1).__eq__, l.rank)))
    return sum(1 for _ in _orbit_walks(action.blocks, lines, lines))


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

import collections
import dataclasses
import functools
import inspect
import itertools
import json
import math
import random
import re
import time

import pytest

from coxchains.field import ZERO, canonical_subspace, null_space
from coxchains import cli
from coxchains import lattice as lattice_module
from coxchains import models
from coxchains.cli import DEEP_BRUTE_TIER, REQUIRED_BRUTE_TIER
from coxchains.lattice import (
    GeneratorAction,
    IntersectionLattice,
    _echelon,
    _integer_lines,
    _lines,
    _validate_graded,
    build_lattice,
    build_lattice_with_action,
    count_chain_orbits,
    count_chain_orbits_lazily,
    count_maximal_chains,
    lattice_to_json,
    orbit_count_of_lines,
)
from coxchains.models import build_model
from coxchains.recursion import KCalculator
from oracles import (
    GroupActionTable,
    apply_matrix,
    bfs_orbits,
    bits,
    closure_matrix_lattice,
    count_chain_orbits_enumerating,
    count_chain_orbits_table,
    count_chain_orbits_unionfind,
    dihedral_table,
    folded_lattice,
    full_space,
    group_bfs,
    hypset_row,
    lattice_and_table,
    line_orbits_table,
    matrix_of,
    maximal_chains,
    null_vector_closure,
    null_vectors,
    pairwise_product_lattice,
    point_lattice,
    point_table,
    product_table,
    set_partitions,
    stabiliser_by_elements,
    zaslavsky_chambers,
)
from test_cli import run

rng = random.Random(8128)


def partition_chain_count(n):
    """Maximal chains in the partition lattice of [n], counted directly."""
    parts = set_partitions(n)
    by_blocks = {}
    for p in parts:
        by_blocks.setdefault(len(p), []).append(p)
    ways = {p: 0 for p in parts}
    ways[frozenset(frozenset({i}) for i in range(n))] = 1
    for k in range(n, 1, -1):
        for p in by_blocks[k]:
            w = ways[p]
            if not w:
                continue
            blocks = sorted(p, key=min)
            for b1, b2 in itertools.combinations(blocks, 2):
                merged = frozenset(
                    {b1 | b2} | {b for b in blocks if b not in (b1, b2)}
                )
                ways[merged] += w
    (top,) = by_blocks[1]
    return ways[top]


def chain_count_formula(n):
    """n! (n-1)! / 2^(n-1), the chain count of the partition lattice of [n]."""
    return math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)


@functools.cache
def built(spec):
    """(model, lattice, action) per spec, built once per test session."""
    model = build_model(spec)
    return (model, *build_lattice_with_action(model))


def lattice_of(spec):
    return built(spec)[1:]


def coatom_orbits(lattice, action):
    """The number of coatom orbits in the `bfs_orbits` oracle's record."""
    orbit = bfs_orbits(lattice, action.blocks)
    return len({orbit[c] for c, r in enumerate(lattice.rank)
                if r == lattice.essential_rank - 1})


@functools.cache
def tabled(spec):
    """(lattice, full action table) per spec from the table oracle."""
    return lattice_and_table(build_model(spec))


def _containing_roots(roots, subspace):
    return frozenset(i for i, r in enumerate(roots) if all(
        sum((a * b for a, b in zip(r, row)), ZERO).is_zero() for row in subspace.basis))


def bfs_matrix_lattice(model):
    """Oracle: the original builder, which closes every flat with every root
    outside it and then finds covers by a subset test between ranks."""
    amb = model.ambient
    roots = model.roots
    bottom_space = full_space(amb)
    found = {frozenset(): bottom_space}
    queue = [frozenset()]
    while queue:
        hypset = queue.pop()
        for a in range(len(roots)):
            if a in hypset:
                continue
            gen_rows = [list(roots[i]) for i in hypset] + [list(roots[a])]
            sub = null_space(gen_rows, amb)
            full_set = _containing_roots(roots, sub)
            if full_set not in found:
                found[full_set] = sub
                queue.append(full_set)
    order = sorted(found, key=lambda s: (amb - found[s].dim, tuple(sorted(s))))
    elements = [found[s] for s in order]
    rank = [amb - e.dim for e in elements]
    index = {s: i for i, s in enumerate(order)}
    n = max(rank)
    by_rank = {}
    for i, r in enumerate(rank):
        by_rank.setdefault(r, []).append(i)
    covers = [[] for _ in elements]
    for r in range(n):
        for i in by_rank.get(r, []):
            for j in by_rank.get(r + 1, []):
                if order[i] <= order[j]:
                    covers[i].append(j)
    lattice = IntersectionLattice(
        kind="matrix",
        elements=elements,
        rank=rank,
        covers=covers,
        bottom=0,
        top=index[order[-1]],
        essential_rank=n,
        hypsets=[sum(1 << i for i in s) for s in order],
    )
    _validate_graded(lattice)
    if len(by_rank.get(1, [])) != len(roots):
        raise AssertionError("rank-1 elements are not exactly the hyperplanes")
    return lattice


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4",
                                  "H3"])
def test_rank_by_rank_build_equals_bfs_oracle(spec):
    model = build_model(spec)
    lattice = build_lattice(model)
    oracle = bfs_matrix_lattice(model)
    for field in ("hypsets", "elements", "rank", "covers", "bottom", "top",
                  "essential_rank"):
        assert getattr(lattice, field) == getattr(oracle, field), field


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3",
                                  "B4", "B5", "D4", "D5", "D6", "F4", "H3", "H4"])
def test_orbit_transport_equals_every_flat_closure(spec):
    model = build_model(spec)
    lattice = lattice_module._irreducible_lattice(model)
    oracle = closure_matrix_lattice(model)
    for field in ("hypsets", "rank", "covers", "bottom", "top", "essential_rank"):
        assert getattr(lattice, field) == getattr(oracle, field), field


def echelon_of(lines, span):
    """The echelon form of the span's rows, as `_closure` takes it."""
    return _echelon((), (), [row for i in span for row in lines[i]])


CLOSED_SPECS = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5",
                "F4", "H3", "E6"]


@pytest.mark.parametrize("spec", CLOSED_SPECS)
def test_one_pass_closure_equals_null_vector_closure(spec):
    """Grouping the roots off a flat by their residues gives the covers,
    spans and order that one null-vector test per cover gives, on every
    flat."""
    model = build_model(spec)
    lattice = lattice_module._irreducible_lattice(model)
    lines = _integer_lines(model)
    vecs = [rows[0] for rows in lines]
    for mask, span in zip(lattice.hypsets, lattice.elements):
        assert (lattice_module._closure(lines, echelon_of(lines, span), mask, span)
                == null_vector_closure(vecs, lines, mask, span)), span


@pytest.mark.parametrize("spec", CLOSED_SPECS)
def test_one_pass_closure_equals_null_vector_closure_off_flats(spec):
    """The same on random masks that are not flats and random spans, which
    a walk along a generator that is no symmetry can close: a root in the
    span but off the mask joins the first cover in both."""
    model = build_model(spec)
    lines = _integer_lines(model)
    vecs = [rows[0] for rows in lines]
    n, rank = len(vecs), model.label.rank
    for _ in range(40):
        span = tuple(sorted(rng.sample(range(n), rng.randint(0, rank))))
        mask = rng.getrandbits(n) & rng.getrandbits(n)
        if rng.random() < 0.5:
            mask |= sum(1 << i for i in span)
        assert (lattice_module._closure(lines, echelon_of(lines, span), mask, span)
                == null_vector_closure(vecs, lines, mask, span)), (mask, span)


def test_lines_reads_the_set_bits():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.given(st.integers(0, 1 << 300))
    @hypothesis.settings(max_examples=300, deadline=None)
    def check(mask):
        assert _lines(mask) == bits(mask)

    check()


def test_repeated_factor_is_built_once(monkeypatch):
    """A2xA2xA2xA2 builds one A2 model and one A2 lattice, and its lattice
    is the pairwise fold of four A2 lattices built apart."""
    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(models, "_build_irreducible")
    counted(lattice_module, "_irreducible_lattice")
    lattice, _ = build_lattice_with_action(build_model("A2xA2xA2xA2"))
    assert calls == {"_build_irreducible": 1, "_irreducible_lattice": 1}
    monkeypatch.undo()
    fold = folded_lattice([build_lattice_with_action(build_model("A2"))[0]] * 4)
    assert vars(lattice) == vars(fold)
    assert lattice.rank_sizes() == (1, 12, 58, 144, 195, 144, 58, 12, 1)


def test_e6_lattice_invariants():
    """E6 without the every-flat closure: its flat count, maximal chains
    and chain orbits."""
    lattice, action = lattice_of("E6")
    assert len(lattice.elements) == 4598
    assert count_maximal_chains(lattice) == 583_200
    assert count_chain_orbits(lattice, action).orbit_count == 82


def swapped(model, g, i, j):
    """A copy of the model whose generator g swaps the images of root
    lines i and j."""
    perm = list(model.gen_perms[g])
    perm[i], perm[j] = perm[j], perm[i]
    perms = list(model.gen_perms)
    perms[g] = tuple(perm)
    return dataclasses.replace(model, gen_perms=perms)


# the certificates of the matrix build, by the end of their messages
CARRIED = "carried covers differ from its closure"
NONE_BELOW = "a root of a flat lies in no flat it covers"
BUILD_CERTIFICATES = [CARRIED, NONE_BELOW, "a root off a flat lies in two of its covers",
                      "a root off a flat lies in none of its covers",
                      "rank-1 elements are not exactly the hyperplanes",
                      "bottom element is not unique", "top element is not unique",
                      "cover relation skips a rank", "non-top element with no cover above",
                      "non-bottom element with no cover below"]


# the certificates that some swap of two lines in one generator trips
SWAP_TRIPS = {"A3": {CARRIED, NONE_BELOW}, "B3": {CARRIED, NONE_BELOW}, "D4": {CARRIED},
              "H3": {CARRIED, NONE_BELOW}}


@pytest.mark.parametrize("spec", list(SWAP_TRIPS))
def test_swapped_generator_lines_fail_the_build(spec):
    """Transport along a permutation that is not a symmetry of the
    arrangement must not pass: every swap of two lines in any one generator
    fails one of the build's certificates, and these are the ones some swap
    trips."""
    model = build_model(spec)
    seen = set()
    for g in range(len(model.gen_perms)):
        for i, j in itertools.combinations(range(len(model.vectors)), 2):
            with pytest.raises(AssertionError) as exc:
                lattice_module._irreducible_lattice(swapped(model, g, i, j))
            hit = [m for m in BUILD_CERTIFICATES if str(exc.value).endswith(m)]
            assert hit, exc.value
            seen.update(hit)
    assert seen == SWAP_TRIPS[spec]


@pytest.mark.parametrize("build", [build_lattice_with_action, build_lattice])
def test_generator_that_is_no_permutation_fails_the_build(build):
    """A generator that sends two root lines to one, here A3's second with
    entry 5 set to entry 0, is refused by name before any flat is carried
    along it, where the carry indexed past the root lines."""
    model = build_model("A3")
    perms = list(model.gen_perms)
    perms[1] = perms[1][:5] + perms[1][:1]
    assert perms[1] == (6, -2, 4, 3, 5, 6)
    with pytest.raises(AssertionError, match="^generator 1 is not a signed permutation "
                                             "of the 6 root lines$"):
        build(dataclasses.replace(model, gen_perms=perms))


def at_the_bottom(change):
    """A `_closure` that alters the bottom's covers by `change` alone: the
    bottom is its own orbit, so no orbit walk carries the change."""
    closure = lattice_module._closure

    def mutant(lines, base, mask, span):
        out = closure(lines, base, mask, span)
        return out if mask else change(out)
    return mutant


def drop_a_root(out):
    (cover, span), *rest = out
    return [(cover & cover - 1, span)] + rest


def a_root_in_two(out):
    (c0, s0), (c1, s1), *rest = out
    return [(c0, s0), (c1 | c0, s1)] + rest


def merge_two_atoms(out):
    (c0, s0), (c1, _), *rest = out
    return [(c0 | c1, s0)] + rest


NONE_OF = "a root off a flat lies in none of its covers"
TWO_OF = "a root off a flat lies in two of its covers"
RANK_ONE = "rank-1 elements are not exactly the hyperplanes"
# mutant -> the certificate it trips in the whole build and in the lazy scan.
# The whole build closes the covers of the merged two-root atom too, and a
# root of each lies in no flat it covers, a check it makes before counting
# the rank-1 flats
CLOSURE_MUTANTS = {drop_a_root: (NONE_OF, NONE_OF), a_root_in_two: (TWO_OF, TWO_OF),
                   merge_two_atoms: (NONE_BELOW, RANK_ONE)}


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3"])
@pytest.mark.parametrize("change", list(CLOSURE_MUTANTS), ids=lambda f: f.__name__)
def test_closure_mutant_fails_its_certificate(spec, change, monkeypatch, capsys):
    """Covers that do not partition the roots off the bottom, or atoms that
    are not the hyperplanes, fail the named certificate in the whole build
    and in the lazy scan, and compute ends in one error line and exit 1."""
    built_message, lazy_message = CLOSURE_MUTANTS[change]
    monkeypatch.setattr(lattice_module, "_closure", at_the_bottom(change))
    with pytest.raises(AssertionError) as exc:
        build_lattice_with_action(build_model(spec))
    assert str(exc.value) == built_message
    with pytest.raises(AssertionError) as exc:
        count_chain_orbits_lazily(build_model(spec))
    assert str(exc.value) == lazy_message
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {lazy_message}\n")


def mutate_closure(monkeypatch, spec, change):
    """Replace the closure that the spec's model closes its flats with,
    matrix or dihedral, by change(mask, span, full, its covers), full being
    the hypset of every root."""
    model = build_model(spec)
    name = "_dihedral_closure" if model.label.family == "I2" else "_closure"
    closure = getattr(lattice_module, name)
    full = (1 << models.reflection_count(model.label)) - 1

    def mutant(*args):
        *_, mask, span = args
        return change(mask, span, full, closure(*args))
    monkeypatch.setattr(lattice_module, name, mutant)


def top_covers_itself(mask, span, full, out):
    return [(full, span + (0,))] if mask == full else out


def bottom_covered_by_the_top(mask, span, full, out):
    return out if mask else [(full, (0,))]


SKIPS = "cover relation skips a rank"
ADDS_NONE = "a cover of a flat adds no root to it"
# mutant -> the certificate it trips in the whole build and in the lazy scan
WHOLE_MUTANTS = {top_covers_itself: (SKIPS, ADDS_NONE),
                 bottom_covered_by_the_top: (RANK_ONE, RANK_ONE)}


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3", "I2(5)", "I2(6)"])
@pytest.mark.parametrize("change", list(WHOLE_MUTANTS), ids=lambda f: f.__name__)
def test_whole_arrangement_mutant_fails_its_certificate(spec, change, monkeypatch, capsys):
    """A top that covers itself, or a bottom whose one cover is the whole
    arrangement, fails the named certificate in the whole build and in the
    lazy scan, through the closure that both share, dihedral or matrix;
    compute ends in one error line and exit 1, not in a recursion that
    ends in a traceback."""
    built_message, lazy_message = WHOLE_MUTANTS[change]
    mutate_closure(monkeypatch, spec, change)
    with pytest.raises(AssertionError) as exc:
        build_lattice_with_action(build_model(spec))
    assert str(exc.value) == built_message
    with pytest.raises(AssertionError) as exc:
        count_chain_orbits_lazily(build_model(spec))
    assert str(exc.value) == lazy_message
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {lazy_message}\n")


def send_long_atoms_to_the_top(monkeypatch):
    """Cover each of B3's six long-root atoms by the top alone, spanned by
    the atom's root and the least root off it."""
    orbits = lattice_module._line_orbits(built("B3")[2].blocks)
    long = sum(1 << i for i, orbit in orbits.items() if len(orbit) == 6)

    def to_the_top(mask, span, full, out):
        if mask & mask - 1 or not mask & long:
            return out
        off = full & ~mask
        return [(full, span + ((off & -off).bit_length() - 1,))]

    mutate_closure(monkeypatch, "B3", to_the_top)


def test_atom_orbit_sent_to_the_top_is_never_agreed(monkeypatch, capsys):
    """B3's six long-root atoms covered by the top alone: the whole build
    finds a root of the top in no flat it covers, and compute does not
    report agreement."""
    send_long_atoms_to_the_top(monkeypatch)
    with pytest.raises(AssertionError) as exc:
        build_lattice_with_action(build_model("B3"))
    assert str(exc.value) == NONE_BELOW
    code, out, _ = run(capsys, "compute", "B3")
    assert code != cli.EXIT_OK and "agreement: ok" not in out


NOT_GRADED = "a cover of a flat is not one rank above it"


def test_atom_orbit_sent_to_the_top_fails_the_lazy_rank_check(monkeypatch, capsys):
    """The lazy scan reaches B3's top from a long-root atom, at rank 1, and
    from a plane above a short-root atom, at rank 2, so one of the two
    covers is not one rank above its flat; compute's brute force ends in
    one error line and exit 1, where it printed 3 with exit 0."""
    send_long_atoms_to_the_top(monkeypatch)
    with pytest.raises(AssertionError) as exc:
        count_chain_orbits_lazily(build_model("B3"))
    assert str(exc.value) == NOT_GRADED
    code, out, err = run(capsys, "compute", "B3", "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {NOT_GRADED}\n")


def spans_gain_no_root(mask, span, full, out):
    return [(cover, span) for cover, _ in out]


def top_spanned_like_a_coatom(mask, span, full, out):
    return [(cover, span if cover == full else s) for cover, s in out]


def two_atoms_merged(mask, span, full, out):
    if mask:
        return out
    (c0, s0), (c1, _), *rest = out
    return [(c0 | c1, s0)] + rest


BOTTOMS = "bottom element is not unique"
TOPS = "top element is not unique"
NO_COVER_BELOW = "non-bottom element with no cover below"
RANK_TWO = ["A2", "B2", "I2(5)", "I2(6)"]
# mutant -> the certificate it trips in the whole build, the one it trips in
# the lazy scan, and the types it is tried on. On a rank-2 type two merged
# atoms leave the image of the merged atom under a generator covered by no
# flat; on higher ranks the whole build finds the merge earlier, as in
# CLOSURE_MUTANTS
GRADED_MUTANTS = {
    spans_gain_no_root: (BOTTOMS, NOT_GRADED, RANK_TWO + ["A3", "B3", "D4", "H3"]),
    top_spanned_like_a_coatom: (TOPS, NOT_GRADED, RANK_TWO + ["A3", "B3", "D4", "H3"]),
    two_atoms_merged: (NO_COVER_BELOW, RANK_ONE, RANK_TWO),
}


@pytest.mark.parametrize("change, spec", [(c, s) for c, (*_, specs) in GRADED_MUTANTS.items()
                                          for s in specs],
                         ids=lambda x: getattr(x, "__name__", x))
def test_graded_mutant_fails_its_certificate(change, spec, monkeypatch, capsys, tmp_path):
    """Spans that gain no root, a top spanned like the coatom it covers, or
    two atoms merged on a rank-2 type fail the named gradedness check of
    the whole build, and the export ends in one error line and exit 1; the
    lazy scan fails its own check, and compute ends in one error line."""
    built_message, lazy_message, _ = GRADED_MUTANTS[change]
    mutate_closure(monkeypatch, spec, change)
    with pytest.raises(AssertionError) as exc:
        build_lattice(build_model(spec))
    assert str(exc.value) == built_message
    code, out, err = run(capsys, "export-lattice", spec, str(tmp_path / "out.json"))
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {built_message}\n")
    with pytest.raises(AssertionError) as exc:
        count_chain_orbits_lazily(build_model(spec))
    assert str(exc.value) == lazy_message
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {lazy_message}\n")


def two_root_planes_joined(mask, span, full, out):
    """At an atom, the covers that hold two roots joined into one cover,
    spanned as the first of them: the closure joins flats of the next rank
    the same way at every atom, so each generator carries it along."""
    planes = [c for c, _ in out if bin(c).count("1") == 2]
    if not mask or mask & mask - 1 or len(planes) < 2:
        return out
    joined = functools.reduce(lambda x, y: x | y, planes)
    return [(joined if c == planes[0] else c, s) for c, s in out
            if c == planes[0] or c not in planes]


OFF_SPAN = "a root of a flat lies off the span it was reached with"


@pytest.mark.parametrize("spec", ["B3", "D4", "A4", "B4", "F4"])
def test_joined_planes_fail_the_lazy_span_check(spec, monkeypatch, capsys):
    """Two-root planes above an atom joined into one cover: each cover is
    still one rank above its flat, so the lazy scan's rank check passes,
    and the whole build finds a root of the joined flat in no flat it
    covers. The lazy scan finds a root of the joined flat off its span,
    and compute ends in one error line and exit 1; without that check D4
    printed 4, not 12, with exit 0."""
    mutate_closure(monkeypatch, spec, two_root_planes_joined)
    with pytest.raises(AssertionError) as exc:
        build_lattice_with_action(build_model(spec))
    assert str(exc.value) == NONE_BELOW
    with pytest.raises(AssertionError) as exc:
        count_chain_orbits_lazily(build_model(spec))
    assert str(exc.value) == OFF_SPAN
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {OFF_SPAN}\n")


@pytest.mark.parametrize("spec", REQUIRED_BRUTE_TIER + [s for s in DEEP_BRUTE_TIER if s != "E6"]
                         + ["D6"])
def test_zaslavsky_chamber_count_is_the_group_order(spec):
    """Zaslavsky's sum of |mu(V, X)| over the flats counts the chambers,
    |W| for a reflection arrangement; E6 is left out, since the sum is
    quadratic in its 4,598 flats."""
    lattice, action = lattice_of(spec)
    assert zaslavsky_chambers(lattice) == action.group_order


def every_pair_a_flat(mask, span, full, out):
    """Each atom covered by one flat per other root, so that every pair of
    roots is a flat, closed or not."""
    if not mask or mask & mask - 1:
        return out
    return [(mask | 1 << a, span + (a,)) for a in _lines(full & ~mask)]


@pytest.mark.parametrize("spec, sizes, chambers", [("A2", (1, 3, 3, 1), 8),
                                                   ("A3", (1, 6, 15, 1), 32),
                                                   ("B2", (1, 4, 6, 1), 14)])
def test_every_pair_a_flat_fails_the_chamber_count(spec, sizes, chambers, monkeypatch):
    """Flats that are not closed, every pair of roots a flat, pass every
    certificate of the whole build, but the lattice built has more
    chambers than |W| (A2: 8, not 6)."""
    mutate_closure(monkeypatch, spec, every_pair_a_flat)
    lattice, action = build_lattice_with_action(build_model(spec))
    assert lattice.rank_sizes() == sizes
    assert zaslavsky_chambers(lattice) == chambers != action.group_order


@pytest.mark.parametrize("m", range(5, 31))
def test_dihedral_lattice_through_the_shared_build(m):
    """I2(m) is closed by the build that closes the matrix types: its bare
    elements are spanning roots, the export names them, and its lines fall
    into the orbits that the oracle finds from the generators: one for odd
    m, two for even m."""
    model, lattice, action = built(f"I2({m})")
    assert lattice.kind == "dihedral"
    assert lattice.elements == [(), *((k,) for k in range(m)), (0, 1)]
    assert orbit_count_of_lines(lattice, action) == coatom_orbits(lattice, action) == 2 - m % 2
    assert build_lattice(model).elements == ["V", *(f"L{k}" for k in range(m)), "0"]


@pytest.mark.parametrize("spec, orbits",[("A3", 5), ("A6", 15), ("E6", 17)])
def test_one_closure_per_orbit_of_flats(spec, orbits, monkeypatch):
    """The build closes one flat per W-orbit by linear algebra (p(n + 1)
    orbits on A_n), plus one certificate closure in each orbit of more than
    one flat, the orbits read off the generators by the `bfs_orbits`
    oracle; a fallback to closing every flat would show here."""
    closure = lattice_module._closure
    closed = []

    def counted(lines, base, mask, span):
        closed.append(mask)
        return closure(lines, base, mask, span)

    monkeypatch.setattr(lattice_module, "_closure", counted)
    lattice, action = build_lattice_with_action(build_model(spec))
    orbit = bfs_orbits(lattice, action.blocks)
    reps = sorted(set(orbit))
    assert len(reps) == orbits
    orbit_of = dict(zip(lattice.hypsets, orbit))
    calls = [orbit_of[mask] for mask in closed]
    firsts = {k: calls.index(k) for k in set(calls)}
    certificates = [k for pos, k in enumerate(calls) if pos != firsts[k]]
    assert len(firsts) == orbits
    assert sorted(certificates) == [k for k in reps if orbit.count(k) > 1]


def hypset_image_table(model, lattice):
    """Oracle: every row of the action table from the image of each hypset."""
    rows = []
    gen_rows = []
    gen_perms = set(model.gen_perms)
    for pos, el in enumerate(group_bfs(model)[0]):
        rows.append(hypset_row(el, lattice))
        if el in gen_perms:
            gen_rows.append(pos)
    return GroupActionTable(rows=rows, generator_rows=gen_rows)


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4",
                                  "H3", "F4"])
def test_composed_table_equals_hypset_image_oracle(spec):
    model = build_model(spec)
    lattice, table = tabled(spec)
    oracle = hypset_image_table(model, lattice)
    assert table.rows == oracle.rows
    assert table.generator_rows == oracle.generator_rows


@pytest.mark.parametrize("m", range(5, 31))
def test_dihedral_root_permutations_equal_index_arithmetic(m):
    model, lattice, action = built(f"I2({m})")
    _, table = tabled(f"I2({m})")
    oracle = dihedral_table(m)
    assert len(group_bfs(model)[0]) == table.group_order == 2 * m
    assert action.group_order == 2 * m
    assert sorted(table.rows) == sorted(oracle.rows)
    assert (count_chain_orbits(lattice, action)
            == count_chain_orbits_table(lattice, table)
            == count_chain_orbits_table(lattice, oracle))
    assert (orbit_count_of_lines(lattice, action)
            == line_orbits_table(lattice, table)
            == line_orbits_table(lattice, oracle))


@pytest.mark.parametrize("spec", ["I2(6)xI2(5)xA2xA1", "I2(7)xA3xA1xA1"])
def test_dihedral_factor_products_equal_index_arithmetic(spec):
    lattice, table = point_lattice(), point_table()
    for f in spec.split("x"):
        lat2, tab2 = tabled(f)
        if lat2.kind == "dihedral":
            tab2 = dihedral_table(len(lat2.elements) - 2)
        lattice, flat = pairwise_product_lattice(lattice, lat2)
        table = product_table(flat, table, tab2)
    assert (count_chain_orbits_table(lattice, table)
            == count_chain_orbits(*lattice_of(spec)))


BRUTE_PRODUCTS = ["A3xA3xA1", "B3xB3", "A2xA2xA2xA2", "I2(6)xI2(5)xA2xA1",
                  "B3xA2xA2", "A3xB2xA2", "I2(7)xA3xA1xA1"]


@pytest.mark.parametrize("spec", REQUIRED_BRUTE_TIER
                         + [s for s in DEEP_BRUTE_TIER if s != "E6"]
                         + BRUTE_PRODUCTS
                         + ["B2xB2xB2xA1", "I2(5)xI2(5)xI2(5)xA1"])
def test_stabiliser_scan_equals_table_oracle(spec):
    lattice, action = lattice_of(spec)
    _, table = tabled(spec)
    assert action.group_order == table.group_order
    assert count_chain_orbits(lattice, action) == count_chain_orbits_table(lattice, table)
    assert orbit_count_of_lines(lattice, action) == line_orbits_table(lattice, table)


# too large for the table oracle: D4xD4's table would hold 191M entries
BIG_PRODUCTS = ["D4xD4", "D5xB3", "F4xB3", "A1xA1xA1xA1xA1xA1xA1xA1",
                "A2xA2xA2xA2xA1"]


@functools.cache
def scanned(spec):
    return count_chain_orbits(*lattice_of(spec))


@pytest.mark.parametrize("spec", BIG_PRODUCTS)
def test_big_products_agree_with_recursion(spec):
    count = scanned(spec)
    assert count.orbit_count == KCalculator().k(spec).value
    assert count.total_chains == count_maximal_chains(lattice_of(spec)[0])


@pytest.mark.parametrize("spec", BIG_PRODUCTS)
def test_big_product_line_orbits_are_their_factors(spec):
    """Too large for the table oracle whole: a product's lines are one
    factor's line times the other factors' tops, so its line orbits are
    its factors', each counted by the table oracle."""
    assert (orbit_count_of_lines(*lattice_of(spec))
            == sum(line_orbits_table(*tabled(f)) for f in spec.split("x")))


def test_big_product_scan_is_worker_count_independent():
    assert count_chain_orbits(*lattice_of("D4xD4"), workers=2) == scanned("D4xD4")


A1_POWER = "x".join(["A1"] * 9)


@functools.cache
def enumerated(spec):
    return count_chain_orbits_enumerating(*lattice_of(spec))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", ["E6"] + BIG_PRODUCTS + [A1_POWER])
def test_memoized_scan_equals_enumerating_oracle(spec, workers):
    """The memoized scan counts what the scan that reaches every canonical
    chain counts, orbit sizes included."""
    assert count_chain_orbits(*lattice_of(spec), workers=workers) == enumerated(spec)


@functools.cache
def lazily(spec):
    return count_chain_orbits_lazily(build_model(spec))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", list(dict.fromkeys(
    REQUIRED_BRUTE_TIER + DEEP_BRUTE_TIER + BRUTE_PRODUCTS + BIG_PRODUCTS
    + [A1_POWER, "1"] + [f"I2({m})" for m in range(5, 31)])))
def test_lazy_scan_equals_full_scan(spec, workers):
    """Covers closed on demand, scanned once in one process, give the count
    of the whole lattice scanned with one or two workers, orbit sizes
    included."""
    assert lazily(spec) == count_chain_orbits(*lattice_of(spec), workers=workers)


def assert_compute_fails_a_certificate(capsys, spec):
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def memo_keyed_by_the_flat_alone(monkeypatch):
    """Replace `_scan_atoms` with a copy whose memo forgets the stabiliser."""
    source = inspect.getsource(lattice_module._scan_atoms)
    mutant = source.replace("memo.get((x, stab))", "memo.get(x)").replace(
        "memo[x, stab] = out", "memo[x] = out")
    assert source.count("memo.get((x, stab))") == source.count("memo[x, stab] = out") == 1
    namespace = dict(vars(lattice_module))
    exec(mutant, namespace)
    monkeypatch.setattr(lattice_module, "_scan_atoms", namespace["_scan_atoms"])


@pytest.mark.parametrize("spec", ["A3", "B3", "E6", "B3xB3", "D5xB3"])
def test_memo_keyed_by_the_flat_alone_fails_the_chain_count(spec, monkeypatch):
    """A memo that forgets the chain stabiliser reuses one prefix's count for
    another prefix with a different stabiliser, and the orbit sizes no
    longer sum to the chain count."""
    memo_keyed_by_the_flat_alone(monkeypatch)
    with pytest.raises(AssertionError, match="^orbit sizes do not sum to the chain count$"):
        count_chain_orbits(*lattice_of(spec))


@pytest.mark.parametrize("spec", ["A3", "B3", "E6", "B3xB3", "D5xB3"])
def test_memo_keyed_by_the_flat_alone_fails_a_state_certificate(spec, monkeypatch, capsys):
    """On covers closed on demand there is no chain count to sum to: the
    state above the reused count certifies that its chain orbits no longer
    sum to |W| / |Stab| times the chains above it, and compute ends in one
    error line."""
    memo_keyed_by_the_flat_alone(monkeypatch)
    with pytest.raises(AssertionError, match=r"^flat \[[\d, ]+\]: chain orbit sizes above it "):
        count_chain_orbits_lazily(build_model(spec))
    assert_compute_fails_a_certificate(capsys, spec)


def test_scan_visits_each_state_once():
    """A1^8 has 8! = 40,320 chain orbits but 2^8 flats: the memoized scan
    reads the covers of at most 2^8 * 8 states, where a scan without the
    memo reads them at every canonical prefix."""
    class CountedCovers(list):
        reads = 0

        def __getitem__(self, i):
            CountedCovers.reads += 1
            return list.__getitem__(self, i)

    lattice, action = lattice_of("x".join(["A1"] * 8))
    atoms = lattice.covers[lattice.bottom]  # each atom is its own orbit
    counts = lattice_module._scan_atoms(CountedCovers(lattice.covers), lattice.hypsets,
                                        {i: [i] for i in range(8)}, action.blocks,
                                        action.orders, atoms)
    assert 0 < CountedCovers.reads <= 2 ** 8 * 8
    assert counts == {1: 40320}


def test_a1_power_scan_reads_each_state_once():
    """An A1 line's stabiliser is its whole factor, so entering its block
    keeps the part None, as reaching the block through an only cover does:
    each of A1^8's 255 flats above the bottom is one state, its covers read
    once, where keying the entered block apart scans the top 8 times."""
    reads = collections.Counter()

    class CountedCovers(list):
        def __getitem__(self, i):
            reads[i] += 1
            return list.__getitem__(self, i)

    lattice, action = lattice_of("x".join(["A1"] * 8))
    counts = lattice_module._scan_atoms(CountedCovers(lattice.covers), lattice.hypsets,
                                        {i: [i] for i in range(8)}, action.blocks,
                                        action.orders, lattice.covers[lattice.bottom])
    assert counts == {1: 40320}
    assert sum(reads.values()) == 255
    assert dict(reads) == {x: 1 for x in range(len(lattice.elements)) if x != lattice.bottom}


@pytest.mark.parametrize("spec", list(dict.fromkeys(
    REQUIRED_BRUTE_TIER + DEEP_BRUTE_TIER + BRUTE_PRODUCTS + BIG_PRODUCTS
    + [f"I2({m})" for m in range(5, 31)])))
def test_orbit_record_equals_bfs_orbits(spec):
    """The line orbits walked along the generators are the coatom orbits of
    the orbit record that the `bfs_orbits` oracle finds rank by rank from
    the generators' hypset images."""
    lattice, action = lattice_of(spec)
    assert orbit_count_of_lines(lattice, action) == coatom_orbits(lattice, action)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", ["A3", "B3xB3", "E6"])
def test_chain_scan_reads_no_orbit_record(spec, workers):
    """The lattice records no orbits, so the scan takes its atom orbits from
    the generators alone, for any worker count."""
    lattice, action = lattice_of(spec)
    assert "orbit" not in {f.name for f in dataclasses.fields(lattice)}
    assert count_chain_orbits(lattice, action, workers=workers) == scanned(spec)


def wrong_line_orbits(change):
    """The generators' atom-line orbits with the first two merged, with the
    first two of equal size exchanging their largest lines, or with the
    largest line that is not least in its orbit split off alone."""
    real = lattice_module._line_orbits

    def wrong(blocks):
        orbits = real(blocks)
        classes = sorted({o[0]: o for o in orbits.values()}.values())
        if change == "merge":
            merged = sorted(classes[0] + classes[1])
            return {**orbits, **dict.fromkeys(merged, merged)}
        if change == "exchange":
            first, second = next((c, d) for c, d in itertools.combinations(classes, 2)
                                 if len(c) == len(d) > 1)
            first, second = (sorted(first[:-1] + second[-1:]),
                             sorted(second[:-1] + first[-1:]))
            return {**orbits, **dict.fromkeys(first, first), **dict.fromkeys(second, second)}
        line = max(i for i, o in orbits.items() if o[0] != i)
        rest = [i for i in orbits[line] if i != line]
        return {**orbits, **dict.fromkeys(rest, rest), line: [line]}
    return wrong


WRONG_ORBITS = [("B3", "merge"), ("A2xA1", "merge"), ("B3xB3", "merge"), ("A3", "split"),
                ("E6", "split"), ("A2xA1", "split"), ("A2xA2", "exchange"),
                ("D4xD4", "exchange")]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec, change", WRONG_ORBITS)
def test_wrong_atom_orbit_record_fails_the_chain_count(spec, change, workers, monkeypatch):
    """On a built lattice the atom-line orbits come from the generators as
    well. Merged, split or exchanging a line, they lose an orbit's canonical
    atom or scan one twice, and the orbit sizes no longer sum to the chain
    count."""
    lattice, action = lattice_of(spec)
    monkeypatch.setattr(lattice_module, "_line_orbits", wrong_line_orbits(change))
    with pytest.raises(AssertionError, match="^orbit sizes do not sum to the chain count$"):
        count_chain_orbits(lattice, action, workers=workers)


@pytest.mark.parametrize("spec, change", WRONG_ORBITS)
def test_wrong_atom_orbit_record_fails_the_lazy_scan(spec, change, monkeypatch, capsys):
    """On covers closed on demand the atom-line orbits come from the
    generators. Merged or split, the orbit sizes no longer sum to |orbit|
    times the chains above each canonical atom. Two orbits of one size that
    exchange a line across blocks leave a state whose canonical covers'
    orbits do not hold all its covers. Either way compute ends in one error
    line."""
    monkeypatch.setattr(lattice_module, "_line_orbits", wrong_line_orbits(change))
    with pytest.raises(AssertionError):
        count_chain_orbits_lazily(build_model(spec))
    assert_compute_fails_a_certificate(capsys, spec)


def test_swapped_generator_lines_fail_the_lazy_scan_at_once(monkeypatch, capsys):
    """No orbit transport checks the generators on the lazy path, and one
    that is not a symmetry can generate a group far larger than |W|: each
    swap of two lines in one generator of B3 stops the stabiliser closure
    as |orbit| |Stab| passes 48 and fails the per-atom certificate."""
    model = build_model("B3")
    for g in range(len(model.gen_perms)):
        for i, j in itertools.combinations(range(len(model.roots)), 2):
            start = time.perf_counter()
            with pytest.raises(AssertionError, match=r"^atom \d+: \|orbit\| \* \|Stab\| passes "
                                                     r"its factor's \|W\| = 48$"):
                count_chain_orbits_lazily(swapped(model, g, i, j))
            assert time.perf_counter() - start < 1
    monkeypatch.setattr(cli, "build_model", lambda spec: swapped(model, 0, 0, 1))
    assert_compute_fails_a_certificate(capsys, "B3")


def test_swapped_generator_lines_fail_the_e6_scan_at_once(monkeypatch):
    """The same on E6, whose line stabiliser has 1,440 elements: each of 12
    seeded swaps of two lines in one generator fails the per-atom
    certificate within a second. The listing stops at most one coset past
    |W| / |orbit|, so it never lists more than |W(E6)| = 51,840 elements."""
    model = build_model("E6")
    closure = lattice_module._stabiliser
    longest = [0]

    def recorded(generators, line, order):
        size, elements = closure(generators, line, order)
        longest[0] = max(longest[0], len(elements))
        return size, elements

    monkeypatch.setattr(lattice_module, "_stabiliser", recorded)
    swaps = random.Random(34)
    for _ in range(12):
        g = swaps.randrange(len(model.gen_perms))
        i, j = swaps.sample(range(len(model.vectors)), 2)
        start = time.perf_counter()
        with pytest.raises(AssertionError, match=r"^atom \d+: \|orbit\| \* \|Stab\| passes "
                                                 r"its factor's \|W\| = 51840$"):
            count_chain_orbits_lazily(swapped(model, g, i, j))
        assert time.perf_counter() - start < 1
    assert 0 < longest[0] <= 51_840


def test_chain_count_needs_elements_in_rank_order():
    """The chain count walks elements in index order, so a lattice listing
    an element before one of lower rank is refused, not miscounted: here
    B2's lattice with its top listed second."""
    lattice, _ = lattice_of("B2")
    order = [lattice.bottom, lattice.top] + [
        i for i in range(len(lattice.elements)) if i not in (lattice.bottom, lattice.top)]
    position = {old: new for new, old in enumerate(order)}
    shuffled = dataclasses.replace(
        lattice,
        elements=[lattice.elements[i] for i in order],
        rank=[lattice.rank[i] for i in order],
        covers=[[position[j] for j in lattice.covers[i]] for i in order],
        top=1,
        hypsets=[lattice.hypsets[i] for i in order])
    assert count_maximal_chains(lattice) == 4
    with pytest.raises(AssertionError, match="^lattice elements are not listed in rank order$"):
        count_maximal_chains(shuffled)


def factors_of(spec):
    model = build_model(spec)
    return ([f for f, _ in model.factors] if isinstance(model, models.ProductModel)
            else [model])


def assert_blocks_are_the_factors(spec):
    """One block per factor, in factor order, each holding its factor's
    generators and moving only its factor's roots; one order per factor."""
    _, action = lattice_of(spec)
    factors = factors_of(spec)
    sizes = [len(f.gen_perms[0]) for f in factors]
    n = sum(sizes)
    assert len(action.blocks) == len(factors)
    assert action.orders == [models.group_order(f.label) for f in factors]
    for block, f, offset, size in zip(action.blocks, factors,
                                      itertools.accumulate(sizes, initial=0), sizes):
        assert len(block) == len(f.gen_perms)
        own = set(range(offset, offset + size))
        for g in block:
            assert {i % n for i in range(2 * n) if g[i] != i} <= own


@pytest.mark.parametrize("spec", [s for s in REQUIRED_BRUTE_TIER if "x" not in s]
                         + DEEP_BRUTE_TIER + [f"I2({m})" for m in range(5, 31)])
def test_irreducible_model_is_one_block(spec):
    assert_blocks_are_the_factors(spec)


@pytest.mark.parametrize("spec", BRUTE_PRODUCTS)
def test_product_has_one_block_per_factor(spec):
    assert_blocks_are_the_factors(spec)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", ["A3", "B2xA1", "B3xB3"])
def test_wrong_block_split_fails_the_certificate(spec, workers):
    """Every generator its own block of order 2: two blocks move a common
    root, and the scan names it and both blocks before it counts."""
    lattice, action = lattice_of(spec)
    split = GeneratorAction([[g] for gens in action.blocks for g in gens],
                            [2] * sum(map(len, action.blocks)))
    with pytest.raises(AssertionError,
                       match=r"^root \d+ is moved by generators of blocks \d+ and \d+$"):
        count_chain_orbits(lattice, split, workers=workers)


@pytest.mark.parametrize("spec", ["A3", "B2xA1", "E6"])
def test_wrong_factor_order_fails_the_atom_certificate(spec):
    """A factor order doubled: the first canonical atom in that factor's
    block closes |orbit| |Stab| to the true order, and the scan names it."""
    lattice, action = lattice_of(spec)
    n = len(action.blocks[0][0]) // 2
    for b, gens in enumerate(action.blocks):
        moved = {i for g in gens for i in range(n) if g[i] != i}
        atom = min(a for a in lattice.covers[lattice.bottom]
                   if lattice.hypsets[a].bit_length() - 1 in moved)
        orders = [2 * w if c == b else w for c, w in enumerate(action.orders)]
        with pytest.raises(AssertionError, match=rf"^atom {atom}: "):
            count_chain_orbits(lattice, GeneratorAction(action.blocks, orders))


@pytest.mark.parametrize("spec", ["B3xB3", "D5xB3", "E6"])
def test_lattice_build_closes_no_stabiliser(spec, monkeypatch):
    """|W| is the product of the factor orders the model knows; building
    the action lists no group elements."""
    def no_stabiliser(*args):
        raise AssertionError("build_lattice_with_action closed a stabiliser")

    monkeypatch.setattr(lattice_module, "_stabiliser", no_stabiliser)
    _, action = build_lattice_with_action(build_model(spec))
    assert action.group_order == math.prod(
        models.group_order(f.label) for f in factors_of(spec))


def test_no_stabiliser_list_exceeds_the_largest_factor(monkeypatch):
    """Building D5xB3's action and scanning its chains list at most
    |W(D5)| = 1,920 elements at once; a stabiliser holding the other factor
    whole would list 30,720, and the whole group's stabiliser of a line
    4,608."""
    closure = lattice_module._stabiliser
    longest = [0]

    def recorded(generators, line, order):
        size, elements = closure(generators, line, order)
        longest[0] = max(longest[0], len(elements))
        return size, elements

    monkeypatch.setattr(lattice_module, "_stabiliser", recorded)
    lattice, action = build_lattice_with_action(build_model("D5xB3"))
    assert count_chain_orbits(lattice, action) == scanned("D5xB3")
    assert 0 < longest[0] <= 1920


@pytest.mark.parametrize("spec", sorted({f for spec in REQUIRED_BRUTE_TIER + DEEP_BRUTE_TIER
                                         + BRUTE_PRODUCTS for f in spec.split("x")})
                         + ["A7", "D6", "B6"])
def test_stabiliser_lists_the_element_closures_group(spec):
    """Listed coset by coset, the stabiliser of every atom line of each
    irreducible factor of the brute tiers and products has the |orbit|
    |Stab| and the elements, each listed once, that the element-by-element
    closure finds; also on A7, D6 and B6, the largest A, D and B types under
    the element cap (B6's short-root line stabiliser has 7,680 elements)."""
    action = lattice_module._action(build_model(spec))
    (gens,), (order,) = action.blocks, action.orders
    for line in range(len(gens[0]) // 2):
        size, elements = lattice_module._stabiliser(gens, line, order)
        want, listed = stabiliser_by_elements(gens, line, order)
        assert size == want == order
        assert len(set(elements)) == len(elements) == len(listed)
        assert set(elements) == set(listed)


def test_integer_null_vectors_match_field_null_space():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    matrices = st.integers(1, 6).flatmap(lambda width: st.lists(
        st.lists(st.integers(-4, 4), min_size=width, max_size=width),
        min_size=1, max_size=6))

    @hypothesis.given(matrices)
    @hypothesis.settings(max_examples=200, deadline=None)
    def check(rows):
        width = len(rows[0])
        reduced, pivots = _echelon((), (), rows)
        nulls = null_vectors(reduced, pivots, width)
        expected = null_space(rows, width)
        assert len(pivots) == width - expected.dim
        assert len(nulls) == expected.dim
        for v in nulls:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        assert canonical_subspace(nulls, width) == expected

    check()


def root_pair(root):
    support = [i for i, x in enumerate(root) if not x.is_zero()]
    assert len(support) == 2
    return tuple(support)


def partition_from_hypset(n, pairs, hypset):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for idx in bits(hypset):
        i, j = pairs[idx]
        parent[find(i)] = find(j)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), set()).add(i)
    return frozenset(frozenset(b) for b in blocks.values())


def test_a3_rank_sizes_match_stirling():
    lattice, _ = lattice_of("A3")
    parts = set_partitions(4)
    stirling = [sum(1 for p in parts if len(p) == 4 - r) for r in range(4)]
    assert list(lattice.rank_sizes()) == stirling == [1, 6, 7, 1]


def test_a_type_lattice_is_partition_lattice():
    for n in (2, 3, 4, 5):
        model, lattice, _ = built(f"A{n}")
        pairs = [root_pair(r) for r in model.roots]
        images = {
            partition_from_hypset(n + 1, pairs, hs) for hs in lattice.hypsets
        }
        assert len(images) == len(lattice.elements)
        assert images == set(set_partitions(n + 1))


def test_chain_counts_against_partition_oracle():
    for n in (2, 3, 4, 5):
        lattice, _ = lattice_of(f"A{n}")
        count = count_maximal_chains(lattice)
        assert count == partition_chain_count(n + 1)
        assert count == chain_count_formula(n + 1)
    assert count_maximal_chains(lattice_of("A3")[0]) == 18


def test_dihedral_lattice_shape():
    lattice, _ = lattice_of("I2(5)")
    assert lattice.rank_sizes() == (1, 5, 1)
    assert count_maximal_chains(lattice) == 5
    lattice, _ = lattice_of("B2")
    assert lattice.rank_sizes() == (1, 4, 1)


def test_known_orbit_counts():
    for spec, orbits in (("A2", 1), ("A3", 2), ("B3", 5), ("D4", 12), ("H3", 4)):
        lattice, table = lattice_of(spec)
        assert count_chain_orbits(lattice, table).orbit_count == orbits


def test_a3_orbit_sizes():
    lattice, table = lattice_of("A3")
    result = count_chain_orbits(lattice, table)
    assert result.total_chains == 18
    assert result.size_counts == {6: 1, 12: 1}


def test_b3_orbit_sizes_divide_group_order():
    lattice, table = lattice_of("B3")
    result = count_chain_orbits(lattice, table)
    assert result.size_counts == {6: 4, 12: 1}
    assert sum(s * k for s, k in result.size_counts.items()) == count_maximal_chains(lattice)
    for s in result.size_counts:
        assert table.group_order % s == 0


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3"])
def test_line_walk_along_a_swapped_generator_raises(spec):
    """The line orbits are walked along the generators themselves, so a
    generator with two root lines swapped, which is no symmetry, carries
    some line of the lattice to a hypset that is no line, and the walk
    names the line; on these types no swap passes unseen. (A line of a
    rank-2 type is one root, so any permutation maps lines to lines.)"""
    lattice, action = lattice_of(spec)
    n = len(action.blocks[0][0]) // 2
    for b, gens in enumerate(action.blocks):
        for g, gen in enumerate(gens):
            for i, j in itertools.combinations(range(n), 2):
                p = list(gen)
                p[i], p[j], p[i + n], p[j + n] = p[j], p[i], p[j + n], p[i + n]
                if p == list(gen):
                    continue
                blocks = [[*block[:g], tuple(p), *block[g + 1:]] if c == b else block
                          for c, block in enumerate(action.blocks)]
                with pytest.raises(AssertionError,
                                   match=r"^a generator maps line \[[\d, ]+\] to no line$"):
                    orbit_count_of_lines(lattice, GeneratorAction(blocks, action.orders))


def test_line_orbit_counts():
    for spec, lines in (("A3", 2), ("B2", 2), ("B3", 3), ("I2(5)", 1), ("I2(6)", 2)):
        lattice, table = lattice_of(spec)
        assert orbit_count_of_lines(lattice, table) == lines


def test_all_maximal_chains_have_full_length():
    for spec in ("A3", "B3", "I2(7)", "B2xA1"):
        lattice, _ = lattice_of(spec)
        for chain in maximal_chains(lattice):
            assert len(chain) == lattice.essential_rank
            assert [lattice.rank[e] for e in chain] == list(
                range(1, lattice.essential_rank + 1)
            )


def test_action_table_matches_matrix_action():
    for spec in ("A3", "B3"):
        model = build_model(spec)
        lattice = build_lattice(model)
        _, table = tabled(spec)
        elements, _ = group_bfs(model)
        for _ in range(50):
            g = rng.randrange(len(elements))
            e = rng.randrange(len(lattice.elements))
            image = apply_matrix(matrix_of(model, elements[g]), lattice.elements[e])
            assert image == lattice.elements[table.rows[g][e]]


def test_action_rows_are_lattice_automorphisms():
    lattice, table = tabled("B3")
    for g in table.generator_rows:
        row = table.rows[g]
        assert sorted(row) == list(range(len(lattice.elements)))
        for i, ups in enumerate(lattice.covers):
            assert {row[j] for j in ups} == set(lattice.covers[row[i]])


def test_unionfind_agrees_with_canonical():
    for spec in ("A3", "B3", "D4", "I2(6)", "A2xA1",
                 "A2xA2xA1", "B2xA1xA1", "I2(5)xA2", "A1xA1xA1"):
        lattice, action = lattice_of(spec)
        fast = count_chain_orbits(lattice, action)
        slow = count_chain_orbits_unionfind(*tabled(spec))
        assert fast.orbit_count == slow.orbit_count, spec
        assert fast.size_counts == slow.size_counts, spec
        assert fast.total_chains == slow.total_chains, spec


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "A2xA1"])
def test_table_missing_a_row_fails_the_certificate(spec, workers, monkeypatch):
    """A stabiliser missing one element fails a certificate."""
    lattice, action = lattice_of(spec)
    closure = lattice_module._stabiliser

    def short(generators, line, order):
        size, elements = closure(generators, line, order)
        return size, elements[:-1]

    monkeypatch.setattr(lattice_module, "_stabiliser", short)
    with pytest.raises(AssertionError):
        count_chain_orbits(lattice, action, workers=workers)


@pytest.mark.parametrize("spec", ["B3", "D4", "H3", "F4", "B2xA1"])
def test_stabiliser_short_of_an_element_fails_the_lagrange_check(spec, monkeypatch, capsys):
    """A line stabiliser listed without its last element, |orbit| |Stab|
    still its factor's order: a chain stabiliser narrowed from it has an
    order that does not divide |W| (7 on B3, D4, H3 and F4), on both paths,
    and compute ends in one error line and exit 1."""
    closure = lattice_module._stabiliser

    def short(generators, line, order):
        size, elements = closure(generators, line, order)
        return size, elements[:-1]

    monkeypatch.setattr(lattice_module, "_stabiliser", short)
    message = r"^chain stabiliser of order \d+ does not divide \|W\| = \d+$"
    with pytest.raises(AssertionError, match=message):
        count_chain_orbits(*lattice_of(spec))
    with pytest.raises(AssertionError, match=message):
        count_chain_orbits_lazily(build_model(spec))
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert re.match(message, err.removeprefix("error: ").removesuffix("\n"))
    assert err.startswith("error: ") and err.count("\n") == 1


def test_worker_count_does_not_change_result():
    lattice, table = lattice_of("B3")
    base = count_chain_orbits(lattice, table, workers=1)
    two = count_chain_orbits(lattice, table, workers=2)
    assert base == two


@pytest.mark.parametrize("spec, k", [
    ("x".join(["A2"] * 6), 7_484_400),
    ("x".join(["B2"] * 5 + ["A1"]), 39_916_800),
    ("B3xB3x" + "x".join(["A1"] * 5), 27_720_000),
])
def test_bruteforce_counts_products_of_millions_of_orbits(spec, k):
    """Products with millions of chain orbits, counted from the scan's
    {orbit size: number of orbits} histogram, lazily and over the built
    lattice with one and two workers, as the recursion counts them. The
    histogram holds the totals: its sizes times their counts sum to the
    maximal chains, its counts to the orbits, and each size divides |W|."""
    model = build_model(spec)
    lattice, action = build_lattice_with_action(model)
    results = [count_chain_orbits_lazily(model)]
    results += [count_chain_orbits(lattice, action, workers=w) for w in (1, 2)]
    assert results[0] == results[1] == results[2]
    result = results[0]
    assert result.orbit_count == KCalculator().k(spec).value == k
    assert sum(s * n for s, n in result.size_counts.items()) == result.total_chains
    assert result.total_chains == count_maximal_chains(lattice)
    assert sum(result.size_counts.values()) == result.orbit_count
    assert all(action.group_order % s == 0 for s in result.size_counts)
    assert list(result.size_counts) == sorted(result.size_counts)


def test_product_lattice_shape():
    lattice, table = lattice_of("A1xA1")
    assert lattice.rank_sizes() == (1, 2, 1)
    assert count_maximal_chains(lattice) == 2
    assert count_chain_orbits(lattice, table).orbit_count == 2


def tuple_keyed_product_rows(lat1, tab1, lat2, tab2):
    """Oracle: product action rows through a dict keyed by element pairs."""
    pairs = sorted(
        itertools.product(range(len(lat1.elements)), range(len(lat2.elements))),
        key=lambda p: (lat1.rank[p[0]] + lat2.rank[p[1]], p[0], p[1]),
    )
    index = {p: i for i, p in enumerate(pairs)}
    return [
        tuple(index[(row1[i], row2[j])] for i, j in pairs)
        for row1 in tab1.rows
        for row2 in tab2.rows
    ]


@pytest.mark.parametrize("spec", ["A1xB2xA2", "B2xI2(5)", "A2xA1xA1"])
def test_product_rows_equal_tuple_keyed_oracle(spec):
    lattice, table = point_lattice(), point_table()
    for lat2, tab2 in map(tabled, spec.split("x")):
        expected = tuple_keyed_product_rows(lattice, table, lat2, tab2)
        lattice, flat = pairwise_product_lattice(lattice, lat2)
        table = product_table(flat, table, tab2)
        assert table.rows == expected
    assert table.rows == tabled(spec)[1].rows


# every product whose whole lattice tier 1 builds
TIER1_PRODUCTS = list(dict.fromkeys(
    [s for s in REQUIRED_BRUTE_TIER if "x" in s] + BRUTE_PRODUCTS + BIG_PRODUCTS
    + [A1_POWER, "x".join(["A1"] * 8), "x".join(["A2"] * 6), "x".join(["B2"] * 5 + ["A1"]),
       "B3xB3x" + "x".join(["A1"] * 5), "B2xB2xB2xA1", "I2(5)xI2(5)xI2(5)xA1", "A1xB2xA2",
       "B2xI2(5)", "A2xA1xA1", "A2xA2xA1", "B2xA1xA1", "I2(5)xA2", "A1xA1xA1", "A2xA2",
       "I2(5)xA2xA1", "A1xA1xB3", "1"]))


@pytest.mark.parametrize("spec", TIER1_PRODUCTS)
def test_one_pass_product_equals_pairwise_fold(spec):
    """The one-pass product build gives the lattice that folding the
    factors' lattices pairwise from the one-point lattice gives: the same
    elements in the same order, ranks, covers and hypsets."""
    lattice, _ = lattice_of(spec)
    fold = folded_lattice([build_lattice_with_action(f)[0] for f in factors_of(spec)])
    assert vars(lattice) == vars(fold)


@pytest.mark.parametrize("spec, factors", [("A2xA2xA2xA2", 1), ("I2(6)xI2(5)xA2xA1", 4),
                                           ("A3xB2xA2", 3), (A1_POWER, 1)])
def test_product_build_makes_no_intermediate_lattice(spec, factors, monkeypatch):
    """A product lattice is built in one pass: one lattice per distinct
    factor model and one for the product, where a pairwise fold made one
    more per factor and dropped all but the last."""
    real, made = lattice_module.IntersectionLattice, []

    def counted(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(lattice_module, "IntersectionLattice", counted)
    lattice, _ = build_lattice_with_action(build_model(spec))
    assert [l.kind for l in made].count("product") == 1
    assert len(made) == factors + 1 and made[-1] is lattice


def test_nested_product_elements_are_flat_factor_indices():
    lattice, _ = lattice_of("A1xB2xA2")
    factors = [built(spec)[1] for spec in ("A1", "B2", "A2")]
    assert len(set(lattice.elements)) == len(lattice.elements) == 2 * 6 * 5
    for key, codim in zip(lattice.elements, lattice.rank):
        assert len(key) == 3
        assert codim == sum(f.rank[i] for f, i in zip(factors, key))


def test_rank_zero_lattice():
    lattice, table = lattice_of("1")
    assert lattice.essential_rank == 0
    assert table.blocks == [] and table.group_order == 1
    result = count_chain_orbits(lattice, table)
    assert result.orbit_count == 1 and result.total_chains == 1


def test_lattice_json_is_deterministic():
    def fresh(spec):
        return build_lattice(build_model(spec))

    a = json.dumps(lattice_to_json(fresh("B3")), sort_keys=True)
    b = json.dumps(lattice_to_json(fresh("B3")), sort_keys=True)
    assert a == b
    payload = lattice_to_json(fresh("A3"))
    assert payload["rank_sizes"] == [1, 6, 7, 1]
    assert all("basis" in e for e in payload["elements"])

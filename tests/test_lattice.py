import collections
import dataclasses
import functools
import inspect
import itertools
import json
import math
import operator
import random
import re
import time

import pytest

from coxchains.field import ZERO, canonical_subspace, null_space
from coxchains.graphs import parse_labels
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
    build_lattice,
    build_lattice_with_action,
    count_chain_and_line_orbits_lazily,
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
    _validate_graded,
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


IN_SPAN = "a root off a flat lies in its span"
OFF_SPAN = "a root of a flat lies off the span it was reached with"
DEPENDENT = "a flat was reached with dependent roots"
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
    a walk along a generator that is no symmetry can close: the closure
    raises exactly where a root orthogonal to every null vector of the span
    lies off the mask, and equals the null-vector closure elsewhere."""
    model = build_model(spec)
    lines = _integer_lines(model)
    vecs = [rows[0] for rows in lines]
    n, rank = len(vecs), model.label.rank
    raised = 0
    for _ in range(40):
        span = tuple(sorted(rng.sample(range(n), rng.randint(0, rank))))
        nulls = null_vectors(*echelon_of(lines, span), len(vecs[0]))
        spanned = sum(1 << c for c in range(n)
                      if not any(sum(map(operator.mul, vecs[c], v)) for v in nulls))
        mask = rng.getrandbits(n) & rng.getrandbits(n)
        if rng.random() < 0.5:
            mask |= spanned
        closure = functools.partial(lattice_module._closure, lines, echelon_of(lines, span),
                                    mask, span)
        if spanned & ~mask:
            raised += 1
            with pytest.raises(AssertionError, match=f"^{IN_SPAN}$"):
                closure()
        else:
            assert closure() == null_vector_closure(vecs, lines, mask, span), (mask, span)
    assert 0 < raised < 40


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


@pytest.mark.parametrize("spec, flats", [("A2xA2xA2xA2xA2xA2", 3), ("H3xH3", 7),
                                         ("D4xD4", 13)])
def test_lazy_scan_closes_each_factor_flat_once(spec, flats, monkeypatch):
    """The lazy scan of a repeated factor closes each factor hypset once,
    through one closure for every copy: A2^6 closes 3 A2 flats, not one set
    per copy (18), and no product flat is closed on its own."""
    closure, calls = lattice_module._closure, []

    def counted(lines, base, mask, span):
        calls.append((id(lines), mask))
        return closure(lines, base, mask, span)

    monkeypatch.setattr(lattice_module, "_closure", counted)
    count_chain_orbits_lazily(build_model(spec))
    assert len(calls) == len(set(calls)) == flats
    assert len({lines for lines, _ in calls}) == 1


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
NOT_ISOMETRY = "is not an isometry of the roots"
BUILD_CERTIFICATES = [NOT_ISOMETRY, IN_SPAN, OFF_SPAN, DEPENDENT,
                      "a cover of a flat does not hold it",
                      "a root off a flat lies in two of its covers",
                      "a root off a flat lies in none of its covers",
                      "a cover of a flat adds no root to it",
                      "a cover of a flat is not one rank above it"]


# the certificates that some swap of two lines in one generator trips
SWAP_TRIPS = {spec: {NOT_ISOMETRY} for spec in ["A3", "B3", "D4", "H3"]}


@pytest.mark.parametrize("spec", list(SWAP_TRIPS))
def test_swapped_generator_lines_fail_the_build(spec):
    """Transport along a permutation that is not a symmetry of the
    arrangement must not pass: every swap of two lines in any one generator
    fails one of the build's certificates, and these are the ones some swap
    trips. The generators are certified before any flat is closed, so each
    swap is refused as no isometry of the roots."""
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


@pytest.mark.parametrize("build", [build_lattice_with_action, build_lattice,
                                   count_chain_orbits_lazily])
def test_generator_that_is_no_permutation_fails_the_build(build):
    """A generator that sends two root lines to one, here A3's second with
    entry 5 set to 6, the value of entry 0, or sends a line to none, entry 5
    set to 0, is refused by name on every path before its isometry test,
    where a 0 read the Gram rows at a negative index, and before any flat
    is carried along it, where the carry indexed past the root lines."""
    model = build_model("A3")
    assert model.gen_perms[1] == (6, -2, 4, 3, 5, 1)
    for entry in (6, 0):
        perms = list(model.gen_perms)
        perms[1] = perms[1][:5] + (entry,)
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
# The whole build closes the merged two-root atom, one of whose roots lies
# off its one-root span; the lazy scan counts the rank-1 flats first
CLOSURE_MUTANTS = {drop_a_root: (NONE_OF, NONE_OF), a_root_in_two: (TWO_OF, TWO_OF),
                   merge_two_atoms: (OFF_SPAN, RANK_ONE)}


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


ADDS_NONE = "a cover of a flat adds no root to it"
# mutant -> the certificate it trips in the whole build and in the lazy scan.
# The whole build closes the top spanned by one root, which holds roots off
# that span; the lazy scan counts the rank-1 flats first
WHOLE_MUTANTS = {top_covers_itself: (ADDS_NONE, ADDS_NONE),
                 bottom_covered_by_the_top: (OFF_SPAN, RANK_ONE)}


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3", "I2(5)", "I2(6)"])
@pytest.mark.parametrize("change", list(WHOLE_MUTANTS), ids=lambda f: f.__name__)
def test_whole_arrangement_mutant_fails_its_certificate(spec, change, monkeypatch, capsys):
    """A top that covers itself, or a bottom whose one cover is the whole
    arrangement, fails the named certificate in the whole build and in the
    lazy scan, through the closure and the cover check that both share,
    dihedral or matrix; compute ends in one error line and exit 1, not in a
    recursion that ends in a traceback."""
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


@pytest.mark.parametrize("spec", ["H3xI2(5)", "I2(5)xH3"])
@pytest.mark.parametrize("change", list(CLOSURE_MUTANTS) + list(WHOLE_MUTANTS),
                         ids=lambda f: f.__name__)
def test_factor_mutant_fails_the_product_scan(spec, change, monkeypatch, capsys):
    """A faulty matrix closure fails a product's lazy scan with the message
    it gives on H3 alone, whichever side H3 is on: the I2(5) factor closes
    through its own closure, so only H3's flats are wrong, and the product
    flats, joined from the factors' certified covers, need no check of
    their own. compute ends in one error line and exit 1."""
    if change in CLOSURE_MUTANTS:
        monkeypatch.setattr(lattice_module, "_closure", at_the_bottom(change))
        message = CLOSURE_MUTANTS[change][1]
    else:
        mutate_closure(monkeypatch, "H3", change)
        message = WHOLE_MUTANTS[change][1]
    with pytest.raises(AssertionError) as exc:
        count_chain_orbits_lazily(build_model(spec))
    assert str(exc.value) == message
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {message}\n")


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


NOT_GRADED = "a cover of a flat is not one rank above it"


def test_atom_orbit_sent_to_the_top_is_never_agreed(monkeypatch, capsys):
    """B3's six long-root atoms covered by the top alone: the whole build
    reaches the top from a long-root atom, at rank 2, so the top is not one
    rank above the planes it covers, and compute does not report
    agreement."""
    send_long_atoms_to_the_top(monkeypatch)
    with pytest.raises(AssertionError) as exc:
        build_lattice_with_action(build_model("B3"))
    assert str(exc.value) == NOT_GRADED
    code, out, _ = run(capsys, "compute", "B3")
    assert code != cli.EXIT_OK and "agreement: ok" not in out


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


RANK_TWO = ["A2", "B2", "I2(5)", "I2(6)"]
# mutant -> the certificate it trips on both paths, or the one it trips in
# the whole build (per type where they differ) and the one it trips in the
# lazy scan; and the types it is tried on. On A2 and B2 the whole build
# closes the merged atom, one of whose roots lies off its one-root span;
# I2(m)'s closure refuses the merged atom, two lines that span the plane;
# on higher ranks the whole build finds the merge the same way, as in
# CLOSURE_MUTANTS
GRADED_MUTANTS = {
    spans_gain_no_root: (NOT_GRADED, RANK_TWO + ["A3", "B3", "D4", "H3"]),
    top_spanned_like_a_coatom: (NOT_GRADED, RANK_TWO + ["A3", "B3", "D4", "H3"]),
    two_atoms_merged: (({"A2": OFF_SPAN, "B2": OFF_SPAN, "I2(5)": IN_SPAN,
                         "I2(6)": IN_SPAN}, RANK_ONE), RANK_TWO),
}


@pytest.mark.parametrize("change, spec", [(c, s) for c, (_, specs) in GRADED_MUTANTS.items()
                                          for s in specs],
                         ids=lambda x: getattr(x, "__name__", x))
def test_graded_mutant_fails_its_certificate(change, spec, monkeypatch, capsys, tmp_path):
    """Spans that gain no root, or a top spanned like the coatom it covers,
    fail the rank check that both paths share; two atoms merged on a rank-2
    type fail the span check of the closed merged atom (or I2(m)'s closure)
    in the whole build and the lazy rank-1 check. The export and compute
    each end in one error line and exit 1."""
    messages, _ = GRADED_MUTANTS[change]
    built_message, lazy_message = (messages, messages) if isinstance(messages, str) else messages
    if isinstance(built_message, dict):
        built_message = built_message[spec]
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


def invariant_mutant(rng, full, rank):
    """A `_closure` mutant drawn at random: one of six changes made to every
    cover that adds j roots to a flat of rank r, a choice the generators
    keep, so the change is carried along each orbit alike. Each cover is
    spanned by its greatest new root, or one root more than its flat's
    span, or its flat's span; loses its greatest new root, or becomes the
    whole arrangement; or all of them are merged into one."""
    r, j, change = rng.randrange(rank), rng.randrange(1, 4), rng.randrange(6)
    closure = lattice_module._closure

    def mutant(lines, base, mask, span):
        out = closure(lines, base, mask, span)
        hit = [k for k, (c, _) in enumerate(out) if bin(c & ~mask).count("1") == j]
        if len(span) != r or not hit:
            return out
        if change == 5:
            merged = functools.reduce(operator.or_, (out[k][0] for k in hit))
            return [(merged, out[hit[0]][1])] + [x for k, x in enumerate(out) if k not in hit]
        new = list(out)
        for k in hit:
            c, s = out[k]
            top = (c & ~mask).bit_length() - 1
            new[k] = [(c, s[:-1] + (top,)), (c, s + (top,)), (c, span),
                      (c & ~(1 << top), s), (full, s)][change]
        return new
    return mutant


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3", "B4", "F4"])
def test_whole_build_accepts_only_graded_lattices(spec, monkeypatch):
    """The whole build makes no bottom, top, skipped-rank or carried-cover
    check of its own: the closer's checks on each closed flat, the check of
    each carried flat's span and the generator certificate imply them. So
    under 200 seeded random closure mutants each, every lattice it accepts
    is the lattice built without the mutant, each flat spanned by roots
    that span the same subspace, every mutant it refuses ends in an
    AssertionError, and no mutant makes it close more flats than one per
    orbit of the true lattice. D4's mutants 1 and 112, which merge the
    one-root covers of every plane, were accepted with 63 flats of 72."""
    def shape(lattice):
        return {k: v for k, v in vars(lattice).items() if k != "elements"}

    model, rng = build_model(spec), random.Random(f"graded {spec}")
    closure, closed = lattice_module._closure, []
    monkeypatch.setattr(lattice_module, "_closure", lambda *args: closed.append(args) or
                        closure(*args))
    true = lattice_module._irreducible_lattice(model)
    orbits = len(closed)
    monkeypatch.undo()
    full, outcomes = (1 << len(model.vectors)) - 1, collections.Counter()
    for _ in range(200):
        mutant, closed = invariant_mutant(rng, full, model.label.rank), []
        monkeypatch.setattr(lattice_module, "_closure", lambda *args: closed.append(args) or
                            mutant(*args))
        try:
            lattice = lattice_module._irreducible_lattice(model)
        except AssertionError:
            outcomes["refused"] += 1
        else:
            assert shape(lattice) == shape(true)
            moved = [(s, t) for s, t in zip(lattice.elements, true.elements) if s != t]
            assert (lattice_module._flat_bases(model, [s for s, _ in moved])
                    == lattice_module._flat_bases(model, [t for _, t in moved]))
            outcomes["accepted"] += 1
        monkeypatch.undo()
        assert len(closed) <= orbits
    assert outcomes["accepted"] and outcomes["refused"]


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


# the whole build's message where it is not OFF_SPAN
JOINED_PLANES_BUILT = {"A4": NOT_GRADED, "B4": NOT_GRADED}


@pytest.mark.parametrize("spec", ["B3", "D4", "A4", "B4", "F4"])
def test_joined_planes_fail_the_lazy_span_check(spec, monkeypatch, capsys):
    """Two-root planes above an atom joined into one cover: each cover of
    an atom is still one rank above it, so the lazy scan's rank check
    passes there. Both paths find a root of the joined flat off its span,
    the whole build first, on A4 and B4, a flat with a cover that is not
    one rank above it, and compute ends in one error line and exit 1;
    without that check the lazy scan printed D4 = 4, not 12, with exit 0."""
    mutate_closure(monkeypatch, spec, two_root_planes_joined)
    with pytest.raises(AssertionError) as exc:
        build_lattice_with_action(build_model(spec))
    assert str(exc.value) == JOINED_PLANES_BUILT.get(spec, OFF_SPAN)
    with pytest.raises(AssertionError) as exc:
        count_chain_orbits_lazily(build_model(spec))
    assert str(exc.value) == OFF_SPAN
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {OFF_SPAN}\n")


def planes_through_the_greater_root(monkeypatch):
    """Cover each two-root flat of rank 2 by the other planes through its
    greater root q, each spanned by q and two more of its roots: they
    partition the roots off the flat and their spans are one root longer
    than its span, but they do not hold it, and each span is dependent."""
    closure = lattice_module._closure

    def mutant(lines, base, mask, span):
        if bin(mask).count("1") != 2 or len(span) != 2:
            return closure(lines, base, mask, span)
        q = mask.bit_length() - 1
        planes = closure(lines, echelon_of(lines, (q,)), 1 << q, (q,))
        return [(c, (q, *_lines(c & ~(1 << q))[:2])) for c, _ in planes if c != mask]
    monkeypatch.setattr(lattice_module, "_closure", mutant)


HOLDS_NOT = "a cover of a flat does not hold it"


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3"])
def test_covers_that_do_not_hold_their_flat_fail_the_cover_check(spec, monkeypatch, capsys):
    """Planes through one root of a two-root plane, given as its covers:
    only containment tells them from its covers. Without that check the
    lazy scan refused them later, as reached with dependent roots on A3
    and B3 or as not one rank above a flat, and the whole build by its
    rank check or its check of carried covers against a second closure.
    Both paths now refuse them by name, and compute ends in one error line
    and exit 1."""
    planes_through_the_greater_root(monkeypatch)
    for count in (count_chain_orbits_lazily, build_lattice_with_action):
        with pytest.raises(AssertionError, match=f"^{HOLDS_NOT}$"):
            count(build_model(spec))
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {HOLDS_NOT}\n")


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


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "B3", "D4", "H3", "I2(5)", "A4", "F4"])
def test_every_pair_a_flat_fails_the_span_check(spec, monkeypatch, capsys, tmp_path):
    """Flats that are not closed, every pair of roots a flat: the closure
    of a pair whose span holds a third root refuses it, on both paths.
    The whole build passed A2, A3 and B2 with Boolean lattices, whose
    chambers outnumber |W| (A2: 8, not 6), and ended I2(5) in a ValueError;
    the lazy scan counted A3 = 2 and D4 = 12 straight through. compute and
    export-lattice end in one error line and exit 1."""
    mutate_closure(monkeypatch, spec, every_pair_a_flat)
    for build in (build_lattice, build_lattice_with_action, count_chain_orbits_lazily):
        with pytest.raises(AssertionError, match=f"^{IN_SPAN}$"):
            build(build_model(spec))
    for argv in (["compute", spec, "--method", "bruteforce"],
                 ["export-lattice", spec, str(tmp_path / "out.json")]):
        assert run(capsys, *argv) == (cli.EXIT_FAIL, "", f"error: {IN_SPAN}\n")


def spanned_roots_join_the_first_cover(monkeypatch):
    """Closures that let a root in the span of a flat that is not closed
    join its first cover, and an I2(m) flat of two lines but not all be
    covered by the top, where the closures refuse both: what stands behind
    the span check when it is passed."""
    def closure(lines, base, mask, span):
        covers = {}
        for a in _lines((1 << len(lines)) - 1 & ~mask):
            key = lattice_module._residue(*base, lines[a]) or next(iter(covers), None)
            covers.setdefault(key, [mask, a])[0] |= 1 << a
        return [(cover, span + (a,)) for cover, a in covers.values()]

    def dihedral_closure(m, mask, span):
        if not mask:
            return [(1 << k, (k,)) for k in range(m)]
        off = (1 << m) - 1 & ~mask
        return [((1 << m) - 1, span + ((off & -off).bit_length() - 1,))] if off else []
    monkeypatch.setattr(lattice_module, "_closure", closure)
    monkeypatch.setattr(lattice_module, "_dihedral_closure", dihedral_closure)


@pytest.mark.parametrize("spec, sizes, chambers", [("A2", (1, 3, 3, 1), 8),
                                                   ("A3", (1, 6, 15, 1), 32),
                                                   ("B2", (1, 4, 6, 1), 14)])
def test_every_pair_a_flat_fails_the_chamber_count(spec, sizes, chambers, monkeypatch):
    """Flats that are not closed, every pair of roots a flat, past the
    closure's span check: the lattice of these rank sizes has more chambers
    than |W| (A2: 8, not 6). The whole build used to accept it on all three
    types; on A2 and B2 it now closes the top from a pair and a third root,
    a dependent span, and refuses it. A3's top is reached from three
    independent roots, so only the chamber count tells its lattice wrong."""
    spanned_roots_join_the_first_cover(monkeypatch)
    mutate_closure(monkeypatch, spec, every_pair_a_flat)
    if spec != "A3":
        with pytest.raises(AssertionError, match=f"^{DEPENDENT}$"):
            build_lattice_with_action(build_model(spec))
        return
    lattice, action = build_lattice_with_action(build_model(spec))
    assert lattice.rank_sizes() == sizes
    assert zaslavsky_chambers(lattice) == chambers != action.group_order


@pytest.mark.parametrize("spec", ["A2", "B2", "B3", "H3", "I2(5)"])
def test_every_pair_a_flat_fails_the_lazy_independence_check(spec, monkeypatch, capsys):
    """Flats that are not closed, every pair of roots a flat, past the
    closure's span check: the top is reached from a pair with a third root,
    so its span is dependent, and the lazy scan refuses it, where it counted
    B2 = 4 (K = 2) with exit 0. compute ends in one error line and exit 1."""
    spanned_roots_join_the_first_cover(monkeypatch)
    mutate_closure(monkeypatch, spec, every_pair_a_flat)
    with pytest.raises(AssertionError, match=f"^{DEPENDENT}$"):
        count_chain_orbits_lazily(build_model(spec))
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {DEPENDENT}\n")


def least_root_spans(mask, span, full, out):
    """Each cover spanned by its flat's span and its own least root, which
    is a root of the flat itself whenever the flat holds the cover's least."""
    return [(c, span + (_lines(c)[0],)) for c, _ in out]


def test_least_root_spans_fail_the_lazy_independence_check(monkeypatch, capsys):
    """Covers spanned by their own least root: on E6 the lazy scan first
    closes a flat whose span repeats a root. Its span test counts each
    root once, so the flat's roots lie off that span, and the scan refuses
    it there, before its independence test; compute ends in one error
    line. It was refused as dependent while the span test counted the
    repeated root twice."""
    mutate_closure(monkeypatch, "E6", least_root_spans)
    with pytest.raises(AssertionError, match=f"^{OFF_SPAN}$"):
        count_chain_orbits_lazily(build_model("E6"))
    code, out, err = run(capsys, "compute", "E6", "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {OFF_SPAN}\n")


@pytest.mark.parametrize("spec", ["A2", "B2"])
def test_least_root_spans_fail_the_export(spec, monkeypatch, capsys, tmp_path):
    """Covers spanned by their own least root reach the top of A2 and B2
    from a span that repeats a root. The whole build closes the top from
    that span, which holds the top's roots off it, so the export refuses
    it and writes no file, where the build passed it and the export's
    exact basis found it dependent. A product's factors are closed by the
    same closer, so `export-lattice A2xA1`, which exports no bases and was
    written under this mutant, is refused the same way."""
    mutate_closure(monkeypatch, spec, least_root_spans)
    path = tmp_path / "out.json"
    for export in (spec, "A2xA1"):
        assert run(capsys, "export-lattice", export, str(path)) == (
            cli.EXIT_FAIL, "", f"error: {OFF_SPAN}\n")
        assert not path.exists()


def last_atom_spanned_by_root_0(mask, span, full, out):
    """The atom of the greatest root spanned by root 0, which lies off it."""
    return out if mask else [(c, (0,) if c == full + 1 >> 1 else s) for c, s in out]


def last_plane_spanned_by_its_atom_twice(mask, span, full, out):
    """At each atom, its last cover spanned by the atom's root twice."""
    if not mask or mask & mask - 1:
        return out
    *rest, (c, _) = out
    return rest + [(c, span + span)]


# mutant -> the message the whole build refuses it with, and the types
CARRIED_SPAN_MUTANTS = {
    last_atom_spanned_by_root_0: (IN_SPAN, ["A2", "A3", "B3", "D4", "H3", "F4", "I2(5)"]),
    last_plane_spanned_by_its_atom_twice: (OFF_SPAN, ["A3", "B3", "H3", "F4"]),
}


@pytest.mark.parametrize("change, spec", [(c, s) for c, (_, specs) in
                                          CARRIED_SPAN_MUTANTS.items() for s in specs],
                         ids=lambda x: getattr(x, "__name__", x))
def test_wrong_span_of_a_carried_flat_fails_the_build(change, spec, monkeypatch, capsys,
                                                      tmp_path):
    """A closed flat's cover recorded with a span that is not its own, a
    root off it or a root twice, and then reached by an orbit walk before
    its turn to be closed: the walk checks the span it keeps against the
    image of the span it came from, so the whole build refuses it, where it
    was never closed and the export wrote the wrong span's basis with exit
    0. The lazy scan never reads the span of a flat it does not close."""
    message, _ = CARRIED_SPAN_MUTANTS[change]
    mutate_closure(monkeypatch, spec, change)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        build_lattice_with_action(build_model(spec))
    path = tmp_path / "out.json"
    assert run(capsys, "export-lattice", spec, str(path)) == (
        cli.EXIT_FAIL, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("spec", ["I2(5)", "I2(6)"])
def test_least_root_spans_fail_the_dihedral_span_check(spec, monkeypatch, capsys):
    """Covers spanned by their own least root reach I2(m)'s top from the
    span (0, 0), one line twice: its span check counts distinct lines, so
    the lazy scan refuses the top as off its span, as A2 and B2 do, where
    it counted I2(5) = 1 and I2(6) = 2; compute ends in one error line."""
    mutate_closure(monkeypatch, spec, least_root_spans)
    with pytest.raises(AssertionError, match=f"^{OFF_SPAN}$"):
        count_chain_orbits_lazily(build_model(spec))
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {OFF_SPAN}\n")


@pytest.mark.parametrize("spec", ["A2", "H3", "I2(5)", "I2(6)"])
def test_closure_span_tests_count_distinct_roots(spec):
    """A span that repeats a root is dependent and spans that root's line
    alone, in I2(m)'s closure as in the matrix closure's echelon form:
    I2(m)'s tests counted the span's length, so (0, 0) passed as an
    independent span of the plane."""
    _, closure = lattice_module._closure_of(build_model(spec))
    for span, independent in [((0,), True), ((0, 0), False)]:
        _, spanned, found = closure(1, span)
        assert spanned() and found == independent
    if spec.startswith("I2"):
        assert not closure(2, (0, 0))[1]()
        assert not closure((1 << int(spec[3:-1])) - 1, (0, 0))[1]()


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


@pytest.mark.parametrize("spec, orbits", [("A3", 5), ("A6", 15), ("E6", 17), ("H4", 10)])
def test_one_closure_per_orbit_of_flats(spec, orbits, monkeypatch):
    """The build closes exactly one flat per W-orbit by linear algebra
    (p(n + 1) orbits on A_n), the orbits read off the generators by the
    `bfs_orbits` oracle, and carries the rest with no second closure; a
    fallback to closing every flat would show here."""
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
    assert sorted(orbit_of[mask] for mask in closed) == reps


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


def scan_mutant(monkeypatch, old, new):
    """Replace `_scan_atoms` with a copy whose source has `old`, found
    once, replaced by `new`."""
    source = inspect.getsource(lattice_module._scan_atoms)
    assert source.count(old) == 1
    namespace = dict(vars(lattice_module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(lattice_module, "_scan_atoms", namespace["_scan_atoms"])


HOLD = r"^flat \[[\d, ]+\]: the orbits of its canonical covers hold \d+ of its \d+ covers$"


def assert_lazy_scan_fails(capsys, spec, message):
    with pytest.raises(AssertionError, match=message):
        count_chain_orbits_lazily(build_model(spec))
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.match(message, err.removeprefix("error: ").removesuffix("\n"))


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "E6", "A2xA2", "B3xA2"])
def test_orbit_length_counted_with_repeats_fails_the_hold_check(spec, monkeypatch, capsys):
    """A canonical cover's orbit length taken as the number of images of its
    least new root, not the distinct covers they reach: the orbits of a
    state's canonical covers then hold more covers than it has."""
    scan_mutant(monkeypatch, "below.append((len(set(ims)), d))", "below.append((len(ims), d))")
    assert_lazy_scan_fails(capsys, spec, HOLD)


def test_orbit_listed_before_the_canonicity_test_fails_the_hold_check(monkeypatch, capsys):
    """A cover's images marked seen before it is found canonical: a cover
    met before the least of its orbit hides that least one, and E6 has a
    state whose canonical covers' orbits then miss some of its covers.
    The smaller types meet each orbit's least cover first and pass."""
    scan_mutant(monkeypatch,
                "                if min(ims) != d:\n                    continue\n"
                "                seen.update(ims)\n",
                "                seen.update(ims)\n"
                "                if min(ims) != d:\n                    continue\n")
    assert_lazy_scan_fails(capsys, "E6", HOLD)


def unmoved_root(model):
    """The least root line that every generator of the model fixes, or None."""
    return next((i for i in range(len(model.vectors))
                 if all(p[i] == i + 1 for p in model.gen_perms)), None)


def no_isometry(g):
    return f"generator {g} is not an isometry of the roots"


BOTH_PATHS = pytest.mark.parametrize(
    "count", [count_chain_orbits_lazily,
              lambda model: count_chain_orbits(*build_lattice_with_action(model))],
    ids=["lazy", "whole"])


@BOTH_PATHS
@pytest.mark.parametrize("spec, g, i, j", [("B2", 0, 1, 2), ("I2(6)", 0, 1, 5)])
def test_generator_that_is_no_isometry_is_refused(spec, g, i, j, count, monkeypatch, capsys):
    """B2's generator 0 with lines 1 and 2 swapped, or I2(6)'s with lines 1
    and 5 swapped: on a rank-2 type every permutation of the lines is a
    lattice automorphism, so the group it makes has order |W| and passed
    every other certificate, and both paths counted 3 orbits, where K = 2.
    Each generator is checked to be an isometry of the roots, on both
    paths, and compute ends in one error line and exit 1."""
    model = swapped(build_model(spec), g, i, j)
    with pytest.raises(AssertionError, match=f"^{no_isometry(g)}$"):
        count(model)
    monkeypatch.setattr(cli, "build_model", lambda labels: model)
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {no_isometry(g)}\n")


def test_swapped_generator_lines_fail_the_lazy_scan_at_once(monkeypatch, capsys):
    """No orbit transport checks the generators on the lazy path, and one
    that is not a symmetry can generate a group far larger than |W|: each
    swap of two lines in one generator of B3 is refused as no isometry of
    the roots before any stabiliser is listed."""
    model = build_model("B3")
    for g in range(len(model.gen_perms)):
        for i, j in itertools.combinations(range(len(model.roots)), 2):
            start = time.perf_counter()
            with pytest.raises(AssertionError, match=f"^{no_isometry(g)}$"):
                count_chain_orbits_lazily(swapped(model, g, i, j))
            assert time.perf_counter() - start < 1
    monkeypatch.setattr(cli, "build_model", lambda spec: swapped(model, 0, 0, 1))
    assert_compute_fails_a_certificate(capsys, "B3")


@BOTH_PATHS
def test_root_moved_by_no_generator_fails_the_scan(count, monkeypatch, capsys):
    """B2's generator 1 replaced by the identity, an isometry, leaves the
    root e2 moved by no generator: the scan refuses it where it finds each
    root's block, on both paths, where it ended in a KeyError at the first
    atom; compute ends in one error line and exit 1."""
    model = build_model("B2")
    model = dataclasses.replace(model, gen_perms=[model.gen_perms[0], (1, 2, 3, 4)])
    root = unmoved_root(model)
    assert model.vectors[root] == (0, 1)
    message = f"root {root} is moved by no generator"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        count(model)
    monkeypatch.setattr(cli, "build_model", lambda labels: model)
    code, out, err = run(capsys, "compute", "B2", "--method", "bruteforce")
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {message}\n")


def test_swapped_generator_lines_fail_the_e6_scan_at_once(monkeypatch):
    """The same on E6: each of 12 seeded swaps of two lines in one
    generator is refused as no isometry within a second, before any line
    stabiliser is listed."""
    model = build_model("E6")
    listed = []
    monkeypatch.setattr(lattice_module, "_stabiliser", lambda *args: listed.append(args))
    swaps = random.Random(34)
    for _ in range(12):
        g = swaps.randrange(len(model.gen_perms))
        i, j = swaps.sample(range(len(model.vectors)), 2)
        start = time.perf_counter()
        with pytest.raises(AssertionError, match=f"^{no_isometry(g)}$"):
            count_chain_orbits_lazily(swapped(model, g, i, j))
        assert time.perf_counter() - start < 1
    assert not listed


def fork_swap_for_generator_2(model):
    """D4 with generator 2, the reflection in e3 - e4, replaced by e4 -> -e4,
    which swaps the fork's simple roots e3 - e4 and e3 + e4."""
    index = {v: i + 1 for i, v in enumerate(model.vectors)}
    perm = [index.get(w) or -index[tuple(-x for x in w)]
            for w in ((*v[:-1], -v[-1]) for v in model.vectors)]
    return dataclasses.replace(model, gen_perms=[*model.gen_perms[:2], tuple(perm),
                                                 *model.gen_perms[3:]])


def minus_generator_0(model):
    """E6 with generator 0, a reflection s, replaced by -s; -1 is not in W(E6)."""
    return dataclasses.replace(model, gen_perms=[tuple(-x for x in model.gen_perms[0]),
                                                 *model.gen_perms[1:]])


@BOTH_PATHS
@pytest.mark.parametrize("spec, change", [("D4", fork_swap_for_generator_2),
                                          ("E6", minus_generator_0)],
                         ids=["D4-fork_swap", "E6-minus_s"])
def test_isometry_outside_w_fails_the_atom_certificate(spec, change, count, monkeypatch, capsys):
    """A generator replaced by an isometry of the roots that is not in W
    passes the isometry check but makes a group twice |W|: W(B4) for D4's
    fork swap, W(E6) x {1, -1} for -s. The stabiliser listing of the first
    canonical atom's line stops as |orbit| |Stab| passes |W|, tested after
    each coset, so it never lists more than |W| elements, and the per-atom
    certificate fails on both paths; compute ends in one error line."""
    model = change(build_model(spec))
    order = models.group_order(model.label)
    closure = lattice_module._stabiliser
    longest = [0]

    def recorded(generators, line, order):
        size, elements = closure(generators, line, order)
        longest[0] = max(longest[0], len(elements))
        return size, elements

    monkeypatch.setattr(lattice_module, "_stabiliser", recorded)
    message = rf"^atom \d+: \|orbit\| \* \|Stab\| passes its factor's \|W\| = {order}$"
    with pytest.raises(AssertionError, match=message):
        count(model)
    assert 0 < longest[0] <= order
    monkeypatch.setattr(cli, "build_model", lambda labels: model)
    code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert re.match(message, err.removeprefix("error: ").removesuffix("\n"))
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", list(SWAP_TRIPS))
def test_swapped_generator_lines_fail_verify(spec, monkeypatch, capsys):
    """verify's brute tier counts through the lazy scan and walks the line
    orbits from the coatoms that the scan closed. Each swap of two lines in
    one generator is refused as no isometry of the roots before the
    coatoms are walked, so the tier never passes a wrong count: it fails,
    and `verify` prints FAIL and exits 1."""
    model = build_model(spec)
    monkeypatch.setattr(cli, "REQUIRED_BRUTE_TIER", [spec])
    check = dict(cli._verify_checks(cli.build_parser().parse_args(["verify"])))[
        "bruteforce-required-tier"]
    for g in range(len(model.gen_perms)):
        for i, j in itertools.combinations(range(len(model.vectors)), 2):
            mutant = swapped(model, g, i, j)
            monkeypatch.setattr(cli, "build_model", lambda labels, m=mutant: m)
            with pytest.raises(AssertionError, match=f"^{no_isometry(g)}$"):
                check()
    code, out, _ = run(capsys, "verify")
    assert code == cli.EXIT_FAIL
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [
        "bruteforce-required-tier"]
    assert re.search(rf"FAIL  bruteforce-required-tier +\d+\.\d\ds  {no_isometry(g)}\n", out)


@pytest.mark.parametrize("spec", [s for s in dict.fromkeys(
    REQUIRED_BRUTE_TIER + DEEP_BRUTE_TIER + [f"I2({m})" for m in range(5, 31)])
    if sum(t.coxeter_rank for t in parse_labels(s)) >= 2])
def test_lazy_line_orbits_equal_the_whole_lattice_count(spec):
    """The line orbits walked from the coatoms that the lazy scan closed
    are the coatom orbits of the whole lattice, and the scan's count comes
    with them unchanged."""
    count, lines = count_chain_and_line_orbits_lazily(build_model(spec))
    assert count == lazily(spec)
    assert lines == orbit_count_of_lines(*lattice_of(spec))


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


def test_empty_narrowed_stabiliser_fails_the_lagrange_check(monkeypatch, capsys):
    """A part narrowed to the elements that move the cover, not those that
    fix it, is empty where every element fixes it: its chain stabiliser has
    order 0, which divides no |W|, and compute ends in one error line and
    exit 1, where the check divided by zero."""
    scan_mutant(monkeypatch, "map(d.__eq__, ims)", "map(d.__ne__, ims)")
    assert_lazy_scan_fails(capsys, "A3", r"^chain stabiliser of order 0 does not divide "
                                         r"\|W\| = 24$")


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

import random

import pytest

from coxchains.field import ZERO, mat_vec, null_space
from coxchains.graphs import parse_group_spec
from coxchains.lattice import build_lattice_with_action
from coxchains.models import (
    DihedralModel,
    ProductModel,
    UnsupportedModelError,
    build_model,
    group_bfs,
    group_order,
    reflection_count,
)
from oracles import (
    contains_vector,
    essential_rank,
    fixed_space,
    full_space,
    identity_matrix,
    mat_mul,
    matrix_of,
    reflecting_hyperplanes,
)

rng = random.Random(1729)


@pytest.mark.parametrize("spec,count", [
    ("A2", 3), ("A3", 6), ("B2", 4), ("B3", 9), ("D4", 12),
    ("F4", 24), ("H3", 15),
])
def test_root_line_counts(spec, count):
    model = build_model(spec)
    assert len(model.roots) == count
    assert len(model.roots) == reflection_count(model.label)
    assert len(reflecting_hyperplanes(model)) == count


@pytest.mark.parametrize("spec,order", [
    ("A2", 6), ("A3", 24), ("B3", 48), ("B4", 384), ("D4", 192),
    ("F4", 1152), ("H3", 120),
])
def test_group_orders(spec, order):
    model = build_model(spec)
    assert len(group_bfs(model)[0]) == order
    assert group_order(model.label) == order


def test_dihedral_model_orders():
    # I2(3) and I2(4) classify as A2 and B2 and get matrix models instead
    for m in (5, 7, 12, 30):
        model = build_model(f"I2({m})")
        assert isinstance(model, DihedralModel)
        assert len(group_bfs(model)[0]) == 2 * m
    for m in (3, 4):
        assert len(group_bfs(build_model(f"I2({m})"))[0]) == 2 * m


def test_product_model_order():
    model = build_model("B2xA1")
    assert isinstance(model, ProductModel)
    assert build_lattice_with_action(model)[1].group_order == 8 * 2


def test_generators_are_involutions():
    for spec in ("A3", "B3", "D4", "H3", "F4"):
        model = build_model(spec)
        for gen in model.generators:
            assert mat_mul(gen, gen) == identity_matrix(model.ambient, model.field)


def test_roots_closed_under_generators():
    for spec in ("A3", "B3", "H3"):
        model = build_model(spec)
        lines = {tuple(r) for r in model.roots}
        for gen in model.generators:
            for r in model.roots:
                img = mat_vec(gen, list(r))
                assert tuple(img) in lines or tuple(-x for x in img) in lines


def test_essential_rank_matches_graph_rank():
    for spec in ("A2", "A4", "B3", "D4", "F4", "H3"):
        model = build_model(spec)
        assert essential_rank(model) == parse_group_spec(spec).rank


def test_fixed_space_of_identity_and_generators():
    model = build_model("B3")
    elements, _ = group_bfs(model)
    identity = elements[0]
    assert fixed_space(model, identity) == full_space(model.ambient)
    for perm in model.gen_perms:
        assert perm in elements
        assert fixed_space(model, perm).dim == model.ambient - 1


def test_fixed_space_of_coxeter_element_is_trivial():
    # a Coxeter element of A2 acts on the essential plane without fixed lines
    model = build_model("A2")
    s1, s2 = model.generators
    cox = mat_mul(s1, s2)
    rows = [[cox[i][j] - identity_matrix(3)[i][j] for j in range(3)] for i in range(3)]
    fixed = null_space(rows, 3)
    assert fixed.dim == 1 and contains_vector(fixed, [1, 1, 1])


def test_matrix_of_agrees_with_root_permutation():
    model = build_model("B3")
    elements, _ = group_bfs(model)
    for el in rng.sample(elements, 12):
        mat = matrix_of(model, el)
        for idx, r in enumerate(model.roots):
            img = mat_vec(mat, list(r))
            target = el[idx]
            expect = list(model.roots[abs(target) - 1])
            if target < 0:
                expect = [-x for x in expect]
            assert img == expect


def test_transpositions_match_codim_one_elements():
    # in A_{n-1} the reflections are exactly the transpositions: their fixed
    # spaces are the n(n-1)/2 reflecting hyperplanes, pairwise distinct
    model = build_model("A3")
    elements, _ = group_bfs(model)
    walls = set(reflecting_hyperplanes(model))
    refl_spaces = {
        fixed_space(model, el)
        for el in elements
        if fixed_space(model, el).dim == model.ambient - 1
    }
    assert refl_spaces == walls
    assert len(walls) == 6


@pytest.mark.parametrize("spec", ["H4", "E7", "E8", "A7", "B6", "D6", "I2(31)"])
def test_unsupported_models_raise(spec):
    with pytest.raises(UnsupportedModelError) as exc:
        build_model(spec)
    assert "recursion" in str(exc.value) or "brute force" in str(exc.value).lower() \
        or "dihedral" in str(exc.value)


def test_element_cap_enforced():
    with pytest.raises(UnsupportedModelError):
        build_model("B4", element_cap=100)


def test_h3_roots_live_over_qsqrt5():
    model = build_model("H3")
    assert model.field == "Q(sqrt5)"
    assert any(x.b != 0 for r in model.roots for x in r)


def test_roots_canonically_signed():
    for spec in ("A3", "B3", "H3"):
        model = build_model(spec)
        for r in model.roots:
            lead = next(x for x in r if not (x == ZERO))
            assert lead.sign() > 0

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from coxchains import models
from coxchains.field import ONE, ZERO, FieldScalar, null_space
from coxchains.graphs import TypeLabel, make_graph, parse_group_spec, parse_labels
from coxchains.lattice import build_lattice_with_action, count_chain_orbits_lazily
from coxchains.models import (
    DihedralModel,
    ProductModel,
    UnsupportedModelError,
    build_model,
    group_order,
    model_to_json,
    phi_sign,
    reflection_count,
)
from oracles import (
    contains_vector,
    essential_rank,
    field_root_closure,
    fixed_space,
    full_space,
    group_bfs,
    identity_matrix,
    mat_mul,
    mat_vec,
    matrix_of,
    reflecting_hyperplanes,
    scalar_sign,
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
            assert mat_mul(gen, gen) == identity_matrix(model.ambient)


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
    # |B5 x B3| = 3840 * 48 = 184,320 exceeds DEFAULT_ELEMENT_CAP
    with pytest.raises(UnsupportedModelError):
        build_model("B5xB3")


def test_h3_roots_live_over_qsqrt5():
    model = build_model("H3")
    assert model.field == "Q(sqrt5)"
    assert any(x.b != 0 for r in model.roots for x in r)


def test_roots_canonically_signed():
    for spec in ("A3", "B3", "H3"):
        model = build_model(spec)
        for r in model.roots:
            lead = next(x for x in r if not (x == ZERO))
            assert scalar_sign(lead) > 0


# sha256 of the JSON of [model_to_json(model), model.gen_perms], so that the
# root closure can change only in ways that move no root index or sign
MODEL_DIGESTS = {
    "A1": "14bd26f494718fb8c1616e7518ec332b7d695126a7c7fb65f7064bff19faf0a3",
    "A2": "9cf04f4852383bde9ca1f976fa20f079937636b8d8fbceb7ce5682f907b59636",
    "A3": "604ba96a0e40b6587700d39a5e253bb386a8072865b68f2b313ba27a84d195f1",
    "A4": "875aad0ca2223c6a081952ea83dd07d21d3da4760f9e18e255b5e1024d6aeb71",
    "A5": "4fa618868880719f9342f03a9c1a9afbecd996344a77ab789fef8b29b8dc2ad8",
    "A6": "eb64c00af57daca8da108a8a12c42d5e0bb476fddffeee9142a07f7a01d31217",
    "B2": "70be3954981adb16819b2fa4c6fc510d67b5509908b6dda983242c141b71afa7",
    "B3": "1009100e3ef6c5696d92a6261dba7d7520cccf240c36a691e1fd269e91fd81b6",
    "B4": "b45218394227f84375e72432a57b616b04f8772ca0d0e1aefc5b68b4000d16e5",
    "B5": "8430624ed0d804b31387c5d98262bb2d148413acfdde9207ef31a33929c5027a",
    "D4": "2c27dfa955410b2da36caaf6f241932ea2b745470101ed4148068f2aae876119",
    "D5": "c0e72b0b935c8a0c2c1b3d341a63fd2cf8da4045c4f4675cc1ccadbd456bb3a4",
    "F4": "94b87be894e42c33d8aee2f27ca6f41e767c9085b6ec0c78a73e369fcd579d4f",
    "H3": "5f93202dfbf7e054bafcf29534aba83116c5e85f0fc9c0a0c3fb67d5c76c11ac",
    "E6": "e7a5ebf3ed3ca528c02640cf150c01b3593141a9bdec4e79d26741e0aa409dd8",
}


@pytest.mark.parametrize("spec", list(MODEL_DIGESTS))
def test_model_and_generator_permutations_pinned(spec):
    model = build_model(spec)
    payload = json.dumps([model_to_json(model), model.gen_perms], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == MODEL_DIGESTS[spec]


MATRIX_TYPES = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)]
                + ["D4", "D5", "F4", "E6", "H3"])


@pytest.mark.parametrize("spec", MATRIX_TYPES)
def test_integer_closure_equals_field_closure(spec):
    """The integer rows' closure gives the roots, their order and signs, and
    the generator permutations of the closure in exact field arithmetic from
    the oracle's own table of Bourbaki's coordinates."""
    model = build_model(spec)
    roots, gen_perms = field_root_closure(model.label)
    assert model.roots == roots
    assert model.gen_perms == gen_perms


def test_phi_sign_matches_field_sign():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def field_sign(p, q):  # p + q phi = (p + q/2) + (q/2) sqrt5
        return scalar_sign(FieldScalar.sqrt5_part(Fraction(2 * p + q, 2), Fraction(q, 2)))

    # pairs with |2p + q| within a few units of sqrt5 |q|, of either sign
    near = st.builds(lambda q, side, d: ((side * math.isqrt(5 * q * q) + d - q) // 2, q),
                     st.integers(-10**15, 10**15), st.sampled_from([1, -1]),
                     st.integers(-3, 3))
    pairs = st.one_of(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                      near)

    @hypothesis.given(pairs)
    @hypothesis.settings(max_examples=500, deadline=None)
    def check(pair):
        assert phi_sign(*pair) == field_sign(*pair)

    check()
    # phi - 1 > 0 > phi - 2, and 1 - phi < 0 < 2 - phi
    assert [phi_sign(-1, 1), phi_sign(-2, 1), phi_sign(1, -1), phi_sign(2, -1)] == [1, -1, -1, 1]
    assert phi_sign(0, 0) == 0


def scale_b2_short_root(monkeypatch):
    """B2 with its short simple root e1 scaled by 3, the rows [[3, 0], [1,
    -1]], so that reflecting the long root e1 - e2 in it takes 2<v,a>/<a,a>
    = 2/3."""
    real = models._simple_roots

    def simple_roots(t):
        rows, amb, scale = real(t)
        if t == TypeLabel("B", 2):
            rows[0] = [x * 3 for x in rows[0]]
        return rows, amb, scale

    monkeypatch.setattr(models, "_simple_roots", simple_roots)


def add_a_line_to_type_a(monkeypatch):
    """REFLECTION_COUNTS["A"] one too high, so that the closure of every
    A_n finds one line fewer than it expects."""
    real = models.REFLECTION_COUNTS["A"]
    monkeypatch.setitem(models.REFLECTION_COUNTS, "A", lambda n: real(n) + 1)


def test_root_count_certificate_fires(monkeypatch):
    add_a_line_to_type_a(monkeypatch)
    with pytest.raises(AssertionError, match=r"^A3: root closure found 6 lines, expected 7$"):
        build_model("A3")
    build_model("B3")  # other families are unaffected


def brute_entry(x):
    """What brute force reads of build_model(x): the export, the generator
    permutations and the factor ids; or the error that turned it away."""
    try:
        model = build_model(x)
    except UnsupportedModelError as exc:
        return str(exc)
    parts = model.factors if isinstance(model, ProductModel) else [(model, None)]
    return model_to_json(model), [(f.gen_perms, ids) for f, ids in parts]


@pytest.mark.parametrize("spec", ["D2", "D3", "I2(3)", "I2(4)", "C3", "G2", "d2", "i2(3)",
                                  "c2", "g2", "1", "D2xC3", "G2xD3", "I2(4)xI2(3)", "H3xA1",
                                  "B5xB3", "D6xA1"])
def test_spec_labels_and_graph_give_one_model(spec):
    view = brute_entry(spec)
    assert brute_entry(parse_labels(spec)) == view
    assert brute_entry(parse_group_spec(spec)) == view


def test_product_factor_ids_are_standard_numbering():
    # A2 on ids (3, 7) and B2 on (20, 10): components by their smallest id,
    # each numbered on from the one before it
    g = make_graph([20, 10, 3, 7], [(3, 7, 3), (20, 10, 4)])
    model = build_model(g)
    assert [(str(f.label), ids) for f, ids in model.factors] == [("A2", (1, 2)), ("B2", (3, 4))]
    assert [ids for _, ids in build_model("D2xC3xA2").factors] == [(1,), (2,), (3, 4, 5), (6, 7)]


def test_closure_outside_the_root_lattice_fails(monkeypatch):
    scale_b2_short_root(monkeypatch)
    with pytest.raises(AssertionError, match="left the root lattice"):
        build_model("B2")
    build_model("B3")  # other types are unaffected


def test_brute_path_does_no_field_arithmetic(monkeypatch):
    """Building E6, F4 and H3 and their lattices with action, and counting
    their chain orbits on covers closed on demand, constructs, adds,
    subtracts, multiplies and divides no FieldScalar: the root closure, the
    lattice and the scan run on integers. Only the export builds them."""
    calls = Counter()

    def count(name, real):
        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(FieldScalar, name, counted)

    for name in ("__init__", "__add__", "__sub__", "__mul__", "__truediv__"):
        count(name, getattr(FieldScalar, name))
    assert ONE + ONE == 2 and calls == {"__init__": 1, "__add__": 1}  # the counters count
    calls.clear()
    for spec in ("E6", "F4", "H3"):
        build_lattice_with_action(build_model(spec))
        count_chain_orbits_lazily(build_model(spec))
    assert calls == Counter()
    model_to_json(build_model("H3"))
    assert calls["__init__"] > 0 and calls["__mul__"] > 0

import random
import re
import sys
import tracemalloc
from collections import Counter
from math import comb

import pytest

from coxchains import cli, graphs, recursion
from coxchains.graphs import TypeLabel, component_labels, make_graph, parse_group_spec
from coxchains.recursion import SWAP, KCalculator, multinomial
from coxchains.series import d_closed_form, euler_numbers, k_closed_form, verify_identities
from oracles import GraphDeletionCalculator, graph_automorphism, graph_deleted_labels

D_VALUES = {2: 2, 3: 2, 4: 12, 5: 26, 6: 178, 7: 594, 8: 4792, 9: 21682,
             10: 202374, 11: 1160026, 12: 12303332}
BAR_D_VALUES = {2: 1, 3: 2, 4: 7, 5: 26, 6: 117, 7: 594, 8: 3407, 9: 21682,
                10: 151853, 11: 1160026, 12: 9600567}
EXCEPTIONAL = {"E6": 82, "E7": 768, "E8": 4056, "F4": 16, "H3": 4, "H4": 12}


def test_multinomial():
    assert multinomial([]) == 1
    assert multinomial([3]) == 1
    assert multinomial([2, 3]) == 10
    assert multinomial([1, 1, 1]) == 6


def test_rank_at_most_one_is_trivial():
    assert KCalculator().k("1").value == 1
    assert KCalculator().k("A1").value == 1


def test_a_type_equals_euler_zigzag():
    calc = KCalculator()
    t = euler_numbers(40)
    for n in range(1, 41):
        assert calc.k(f"A{n}").value == t[n]


def test_b_type_equals_shifted_zigzag():
    calc = KCalculator()
    t = euler_numbers(41)
    for n in range(2, 41):
        assert calc.k(f"B{n}").value == t[n + 1]


def test_d_type_values():
    calc = KCalculator()
    for n, v in D_VALUES.items():
        spec = {2: "A1xA1", 3: "A3"}.get(n, f"D{n}")
        assert calc.k(spec).value == v
    for n in range(2, 41):
        assert calc.k(f"D{n}").value == d_closed_form(n)


def test_bar_d_values():
    calc = KCalculator()
    for n, v in BAR_D_VALUES.items():
        assert calc.k_bar(n) == v
    # odd ranks carry no augmentation
    for n in (3, 5, 7, 9, 11):
        assert BAR_D_VALUES[n] == D_VALUES[n]


def test_exceptional_values():
    calc = KCalculator()
    for spec, v in EXCEPTIONAL.items():
        assert calc.k(spec).value == v


def test_e6_term_breakdown():
    result = KCalculator().k("E6")
    assert result.method == "summ2"
    assert sorted(v for _, v in result.terms) == [15, 16, 25, 26]
    assert sum(v for _, v in result.terms) == 82


def test_e7_term_breakdown():
    result = KCalculator().k("E7")
    assert result.method == "summ1"
    assert sorted(v for _, v in result.terms) == sorted(
        [82, 156, 75, 120, 96, 178, 61]
    )


def test_e8_term_breakdown():
    result = KCalculator().k("E8")
    assert result.method == "summ1"
    assert sorted(v for _, v in result.terms) == sorted(
        [768, 574, 546, 350, 525, 427, 594, 272]
    )


@pytest.mark.parametrize("spec, terms", [
    ("E6", [("orbit {1,6}: K(D5)", 26), ("vertex 2: K(A5)", 16),
            ("orbit {3,5}: K(A1xA4)", 25), ("vertex 4: 1/2 K(A1xA2xA2)", 15)]),
    ("E7", [("vertex 1: K(D6)", 178), ("vertex 2: K(A6)", 61), ("vertex 3: K(A1xA5)", 96),
            ("vertex 4: K(A1xA2xA3)", 120), ("vertex 5: K(A2xA4)", 75),
            ("vertex 6: K(A1xD5)", 156), ("vertex 7: K(E6)", 82)]),
    ("E8", [("vertex 1: K(D7)", 594), ("vertex 2: K(A7)", 272), ("vertex 3: K(A1xA6)", 427),
            ("vertex 4: K(A1xA2xA4)", 525), ("vertex 5: K(A3xA4)", 350),
            ("vertex 6: K(A2xD5)", 546), ("vertex 7: K(A1xE6)", 574), ("vertex 8: K(E7)", 768)]),
    ("F4", [("vertex 1: K(B3)", 5), ("vertex 2: K(A1xA2)", 3), ("vertex 3: K(A1xA2)", 3),
            ("vertex 4: K(B3)", 5)]),
    ("H3", [("vertex 1: K(A2)", 1), ("vertex 2: K(A1xA1)", 2), ("vertex 3: K(I2(5))", 1)]),
    ("H4", [("vertex 1: K(A3)", 2), ("vertex 2: K(A1xA2)", 3), ("vertex 3: K(A1xI2(5))", 3),
            ("vertex 4: K(H3)", 4)]),
    ("I2(5)", [("orbit {1,2}: K(A1)", 1)]),
    ("I2(6)", [("vertex 1: K(A1)", 1), ("vertex 2: K(A1)", 1)]),
])
def test_exceptional_and_dihedral_breakdown_text(spec, terms):
    assert KCalculator().k(spec).terms == terms


def test_dihedral_parity():
    calc = KCalculator()
    for m in range(3, 31):
        want = 2 if m % 2 == 0 else 1
        assert calc.k(f"I2({m})").value == want


def test_product_examples():
    calc = KCalculator()
    assert calc.k("A1xA1").value == 2
    assert calc.k("A2xA1").value == 3
    assert calc.k("B2xA1").value == 6
    assert calc.k("D5xA1").value == 6 * 26
    assert calc.k("A2xA1xA2").value == 30


def test_product_term_structure():
    result = KCalculator().k("B2xA1")
    assert result.method == "product"
    descs = [d for d, _ in result.terms]
    assert any("multinomial" in d for d in descs)
    values = [v for _, v in result.terms]
    prod = 1
    for v in values:
        prod *= v
    assert prod == result.value


def test_fixed_vertex_term_a5_middle():
    calc = KCalculator()
    sigma = graph_automorphism(parse_group_spec("A5"))
    assert sigma[3] == 3
    # deleting the middle vertex leaves A2 x A2, swapped by the involution
    terms = dict(calc.k("A5").terms)
    assert terms["vertex 3: 1/2 K(A2xA2)"] == calc.k_value("A2xA2") // 2 == 3


def test_fixed_vertex_term_d7():
    calc = KCalculator()
    sigma = graph_automorphism(parse_group_spec("D7"))
    assert sigma[3] == 3  # the fork swap, since the rank is odd
    # deleting path vertex 3 leaves A2 x D4 with a trivial induced involution
    # on A2 and the fork swap on D4, so the D4 factor is the augmented count
    terms = dict(calc.k("D7").terms)
    term = terms["vertex 3: 15 * K(A2) * Kbar(D4)"]
    assert term == multinomial([2, 4]) * 1 * 7 == 105


def test_k_bar_input_validation():
    calc = KCalculator()
    with pytest.raises(ValueError):
        calc.k_bar(1)


def test_memoization_is_order_independent():
    calc1 = KCalculator()
    first_e8 = calc1.k_value("E8")
    calc2 = KCalculator()
    for spec in ("A3", "D5", "E6", "E7"):
        calc2.k_value(spec)
    assert calc2.k_value("E8") == first_e8
    assert calc1.memo.keys() >= {"E6", "E7", "E8"}


def test_memo_holds_values_only():
    """A cold B200 leaves plain ints in the memo, under 1 MiB in all: no
    type the recursion passes through keeps its term list."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        calc = KCalculator()
        assert calc.k("B200").value == euler_numbers(201)[201]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20
    calc.k("D41")  # A1-A199, B2-B200, odd D5-D41; its even D parts fill bar_memo
    assert len(calc.memo) == 2 * 199 + 19 and len(calc.bar_memo) == 20
    assert all(type(v) is int for v in [*calc.memo.values(), *calc.bar_memo.values()])


def test_product_breakdown_does_not_depend_on_history():
    # D10 minus vertex 7 is A6 x D3 = A6 x A3, and A10 minus vertex 4 and 7
    # is A3 x A6 and A6 x A3
    for spec in ("A3xA6", "A6xA3"):
        want = KCalculator().k(spec)
        for earlier in ("D10", "A10"):
            calc = KCalculator()
            calc.k(earlier)
            assert calc.k(spec) == want, (spec, earlier)
            assert all("x" not in key for key in calc.memo)


def test_summ1_for_central_longest_element():
    result = KCalculator().k("B4")
    assert result.method == "summ1"
    assert len(result.terms) == 4
    assert result.value == sum(v for _, v in result.terms)


def test_summ2_for_noncentral_longest_element():
    result = KCalculator().k("A4")
    assert result.method == "summ2"
    assert len(result.terms) == 2
    assert result.value == 5


def _relabelled(spec, ids):
    """The graph of spec with vertex v renamed ids[v]."""
    g = parse_group_spec(spec)
    return make_graph([ids[v] for v in g.vertices],
                      [(ids[v], ids[w], m) for v, w, m in g.edges])


@pytest.mark.parametrize("spec, ids", [
    ("E6", dict(zip(range(1, 7), random.Random(7).sample(range(1, 7), 6)))),
    ("D5xA2", {v: v + 100 for v in range(1, 8)}),
])
def test_relabelled_graph_matches_spec(spec, ids):
    want = KCalculator().k(spec)
    got = KCalculator().k(_relabelled(spec, ids))
    assert got.value == want.value
    assert got.method == want.method
    assert Counter(got.terms) == Counter(want.terms)


def _classified(calc, spec):
    """calc.k(spec) and the number of calls of graphs.classify_irreducible it
    made, under any name a module imported it by."""
    code, calls, outer = graphs.classify_irreducible.__code__, 0, sys.getprofile()

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        return calc.k(spec), calls
    finally:
        sys.setprofile(outer)


def test_memo_hits_and_products_classify_only_at_entry():
    calc = KCalculator()
    a5, b4 = calc.k_value("A5"), calc.k_value("B4")
    # a graph classifies once per component, and nothing in the recursion
    # classifies; a spec string is parsed to labels and never classified
    result, calls = _classified(calc, parse_group_spec("B4xA5"))
    assert result.value == multinomial([4, 5]) * b4 * a5 and calls == 2
    specs = ("A40", "B40", "D41", "E8", "H4", "F4", "I2(7)", "E6xA2", "D3xD2xI2(3)xI2(4)")
    for spec in specs:
        graph = parse_group_spec(spec)
        assert _classified(KCalculator(), graph)[1] == len(component_labels(graph)), spec
        assert _classified(KCalculator(), spec)[1] == 0, spec


RULE_TYPES = (
    [TypeLabel("A", n) for n in range(1, 13)]
    + [TypeLabel("B", n) for n in range(2, 13)]
    + [TypeLabel("D", n) for n in range(4, 13)]
    + [TypeLabel(f, n) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("H", 3), ("H", 4))]
    + [TypeLabel("I2", m) for m in range(3, 13)]
)


@pytest.mark.parametrize("t", RULE_TYPES, ids=str)
def test_deletion_rules_match_graph_deletion(t):
    calc, oracle = KCalculator(), GraphDeletionCalculator()
    for v in range(1, t.coxeter_rank + 1):
        labels, fold = calc._deleted(t, v)
        assert labels == graph_deleted_labels(t, v), v
        assert (labels, fold) == oracle._deleted(t, v), v


EQUALITY_SPECS = (
    [f"A{n}" for n in range(1, 41)]
    + [f"B{n}" for n in range(2, 41)]
    + [f"D{n}" for n in range(4, 41)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 40)]
    + ["D12xB9xA7", "E6xA2"]
)


def _assert_same_memo(calc, oracle, spec=None):
    # equal key sets: the fill computes no type the top-down recursion skips
    assert calc.memo == oracle.memo, spec
    assert calc.bar_memo == oracle.bar_memo, spec
    # and the oracle's A, B and D values came from graph deletions, not from
    # the rank tables (A1 queried alone is a base case and deletes nothing)
    assert {key for key in oracle.memo if key[0] in "ABD"} - {"A1"} <= oracle.deleted, spec


def test_memo_equals_graph_deletion_oracle_in_one_calculator():
    calc, oracle = KCalculator(), GraphDeletionCalculator()
    for spec in EQUALITY_SPECS:
        calc.k(spec)
        oracle.k(spec)
    _assert_same_memo(calc, oracle)


def test_memo_equals_graph_deletion_oracle_per_query():
    for spec in EQUALITY_SPECS:
        calc, oracle = KCalculator(), GraphDeletionCalculator()
        calc.k(spec)
        oracle.k(spec)
        _assert_same_memo(calc, oracle, spec)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_ranks_need_no_deep_stack():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        a150 = KCalculator().k("A150").value
        b150 = KCalculator().k("B150").value
        d150 = KCalculator().k("D150").value
        d151 = KCalculator().k("D151").value
    finally:
        sys.setrecursionlimit(limit)
    euler = euler_numbers(151)
    assert a150 == euler[150]
    assert b150 == euler[151]
    assert d150 == d_closed_form(150)
    assert d151 == d_closed_form(151)


@pytest.mark.parametrize("spec, deletions", [
    ("A42", {"A42": 21}),
    ("B31", {"B31": 31}),
    ("D34", {"D34": 34}),
    ("D35", {"D35": 34}),
    ("E8", {"E8": 8, "E7": 7, "E6": 4}),
    ("D12xB9xA7", {}),
])
def test_cold_query_deletes_only_for_its_breakdown_and_exceptional_types(
        monkeypatch, spec, deletions):
    """The A, B and D values below a query come from the rank tables; the
    deletion rules run for the queried type's terms and for the exceptional
    types that the recursion reaches."""
    calls = Counter()
    original = KCalculator._deleted

    def counting(self, t, v):
        calls[str(t)] += 1
        return original(self, t, v)

    monkeypatch.setattr(KCalculator, "_deleted", counting)
    KCalculator().k(spec)
    assert calls == Counter(deletions)


TABLE_LABELS = ([TypeLabel("A", n) for n in range(1, 151)]
                + [TypeLabel("B", n) for n in range(2, 151)]
                + [TypeLabel("D", n) for n in range(4, 151)])


def _closed(keep=lambda t: True):
    """Closed-form K of the table labels that keep admits, by name."""
    return {str(t): k_closed_form(t) for t in TABLE_LABELS if keep(t)}


@pytest.mark.parametrize("seeded", [
    {},
    _closed(lambda t: t.family == "A" and t.rank <= 20),
    _closed(lambda t: t.family == "B" and t.rank % 2 == 0),
], ids=["fresh", "A1-A20", "every-other-B"])
def test_rank_tables_equal_closed_forms_through_rank_150(seeded):
    """The carried Pascal rows give the closed forms: built by comb at the
    first miss, by additions after it, and by comb again at a miss after a
    memo hit, which a memo seeded with gaps makes."""
    calc = KCalculator()
    calc.memo.update(seeded)
    for spec in ("D150", "D149", "B150", "A150"):
        calc.k(spec)
    assert {str(t): calc.memo[str(t)] for t in TABLE_LABELS} == _closed()


def test_walk_builds_rows_only_at_misses(monkeypatch):
    """comb builds one row per miss that follows a hit, and none when
    every rank is memoized; the other rows come from additions."""
    calls = Counter()

    def counting(n, k):
        calls[n + 1] += 1
        return comb(n, k)

    monkeypatch.setattr(recursion, "comb", counting)
    calc = KCalculator()
    calc.memo.update(_closed(lambda t: t.family == "B" and t.rank % 2 == 0 and t.rank <= 10))
    calc._fill(TypeLabel("B", 12))
    assert calls == Counter({1: 1, 3: 3, 5: 5, 7: 7, 9: 9, 11: 11})
    calls.clear()
    calc._fill(TypeLabel("B", 12))
    assert not calls


def _mutate(monkeypatch, rule, at=None):
    """Put the fill's rank rule one too high, at every rank or at `at` only."""
    original = getattr(recursion, rule)

    def mutant(*tables):
        return original(*tables) + (at is None or tables[-1] == at)

    monkeypatch.setattr(recursion, rule, mutant)


# An odd D off at every rank is caught lower down, by bar d's closed form
# (see the test after these), so its mutant sits on the queried rank.
FILL_MUTANTS = [("B12", "_b_value", None), ("D13", "_d_value", 13)]


@pytest.mark.parametrize("spec, rule, at", FILL_MUTANTS)
def test_fill_mutant_disagrees_with_its_terms(monkeypatch, spec, rule, at):
    _mutate(monkeypatch, rule, at)
    calc, oracle = KCalculator(), GraphDeletionCalculator()
    with pytest.raises(AssertionError, match=rf"^stored K\({spec}\) = \d+ disagrees "
                                             r"with its terms from the entries below it"):
        calc.k(spec)
    oracle.k(spec)
    with pytest.raises(AssertionError):
        _assert_same_memo(calc, oracle, spec)


@pytest.mark.parametrize("spec, rule, at", FILL_MUTANTS)
def test_fill_mutant_ends_compute_in_one_error_line(monkeypatch, capsys, spec, rule, at):
    _mutate(monkeypatch, rule, at)
    code = cli.main(["compute", spec, "--method", "recursion"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_FAIL and out == ""
    assert err.startswith(f"error: stored K({spec}) = ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_odd_d_mutant_at_every_rank_fails_bar_d_closed_form(monkeypatch):
    _mutate(monkeypatch, "_d_value")
    with pytest.raises(AssertionError,
                       match=r"^bar d_6: recursion gives \d+, closed form gives \d+$"):
        KCalculator().k("D13")


def test_identities_check_the_d_values_they_read(monkeypatch, capsys):
    """verify_identities reads d_n off the rank tables, with no breakdown to
    check them: an even D8 one too high fails the two identities that read
    it, at index 8, and verify's egf-identities line names both."""
    _mutate(monkeypatch, "_d_value", 8)
    failed = {c.name: c.first_mismatch for c in verify_identities(20) if not c.passed}
    assert failed == {"U = sec": 8, "even d-series matches d_{2n}": 8}
    assert cli.main(["verify"]) == cli.EXIT_FAIL
    [line] = [l for l in capsys.readouterr().out.splitlines() if "egf-identities" in l]
    assert line.startswith("FAIL") and line.endswith(
        "U = sec differs first at index 8; "
        "even d-series matches d_{2n} differs first at index 8")


def test_identities_meet_bar_d_closed_form_past_an_odd_d_mutant(monkeypatch):
    """An odd D13 one too high is read by bar d_14, which its closed form
    refuses as the table is filled."""
    _mutate(monkeypatch, "_d_value", 13)
    with pytest.raises(AssertionError,
                       match=r"^bar d_14: recursion gives \d+, closed form gives \d+$"):
        verify_identities(20)


def _mutate_fold(monkeypatch, family, at, fold):
    """Put the fold of the family's deletion rule at (rank, vertex) `at` to fold."""
    original = recursion._DELETION_RULES[family]

    def mutant(n, w):
        labels, right = original(n, w)
        return labels, fold if (n, w) == at else right

    monkeypatch.setitem(recursion._DELETION_RULES, family, mutant)


def test_f4_swap_mutant_fails_the_halving_certificate(monkeypatch, capsys):
    """F4 minus vertex 2 leaves A1 x A2, whose K = 3 cannot be halved."""
    _mutate_fold(monkeypatch, "F", (4, 2), SWAP)
    message = "component-swapping case met odd K(A1xA2)"
    with pytest.raises(AssertionError, match=rf"^{re.escape(message)}$"):
        KCalculator().k("F4")
    code = cli.main(["compute", "F4", "--method", "recursion"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (cli.EXIT_FAIL, "", f"error: {message}\n")


def test_e6_unswapped_vertex_4_mutant_fails_every_cross_check(monkeypatch, capsys):
    _mutate_fold(monkeypatch, "E", (6, 4), None)
    assert KCalculator().k("E6").value == 97
    assert cli.main(["compute", "E6"]) == cli.EXIT_DISAGREE
    assert "agreement: MISMATCH" in capsys.readouterr().out.splitlines()
    assert cli.main(["verify"]) == cli.EXIT_FAIL
    [line] = [l for l in capsys.readouterr().out.splitlines() if "closed-vs-recursion" in l]
    assert line.startswith("FAIL") and line.endswith("E6: recursion 97 != closed 82")
    calc, oracle = KCalculator(), GraphDeletionCalculator()
    calc.k("E6")
    oracle.k("E6")
    with pytest.raises(AssertionError):
        _assert_same_memo(calc, oracle, "E6")


def test_e6_twisted_vertex_2_mutant_ends_compute_in_one_error_line(monkeypatch, capsys):
    _mutate_fold(monkeypatch, "E", (6, 2), (True,))
    code = cli.main(["compute", "E6", "--method", "recursion"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_FAIL and out == ""
    assert err.startswith("error: restricted automorphism on A5 ") and err.count("\n") == 1
    assert "Traceback" not in err

import random
import sys
from fractions import Fraction
from math import factorial

import pytest
from oracles import (
    egf_product_terms,
    egf_quotient_terms,
    ordinary_derivative,
    ordinary_product,
    ordinary_quotient,
)

from coxchains import series
from coxchains.graphs import TypeLabel
from coxchains.recursion import KCalculator
from coxchains.series import (
    EgfSeries,
    bar_d_closed_form,
    constant,
    d_closed_form,
    egf_cos,
    egf_sec,
    egf_sin,
    egf_tan,
    euler_numbers,
    euler_numbers_from_series,
    k_closed_form,
    verify_identities,
)

ZIGZAG_HEAD = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]

rng = random.Random(2718)


def test_euler_numbers_head():
    t = euler_numbers(10)
    assert t == ZIGZAG_HEAD
    assert t[6] == 61 and t[7] == 272


def test_seidel_equals_series_route():
    assert euler_numbers(40) == euler_numbers_from_series(40)


def test_euler_numbers_input_validation():
    with pytest.raises(ValueError):
        euler_numbers(-1)


def test_taylor_coefficients():
    # the EGF coefficient a_k is k! times the Taylor coefficient
    s = egf_sin(7)
    assert s.egf_coefficient(1) == 1
    assert s.egf_coefficient(3) == Fraction(-1, 6) * factorial(3)
    assert s.egf_coefficient(5) == Fraction(1, 120) * factorial(5)
    c = egf_cos(6)
    assert c.egf_coefficient(0) == 1 and c.egf_coefficient(2) == Fraction(-1, 2) * factorial(2)
    assert egf_tan(5).egf_coefficient(3) == 2
    assert egf_sec(6).egf_coefficient(6) == 61


def test_series_arithmetic_roundtrips():
    n = 12
    sin, cos = egf_sin(n), egf_cos(n)
    assert sin * sin + cos * cos == constant(1, n)
    assert (sin / cos) * cos == sin
    assert sin.derivative() == cos.truncate(n - 1)
    assert cos.derivative() == (-sin).truncate(n - 1)


def test_empty_series_is_rejected():
    # order -1 would compare equal to every series, so == would not be transitive
    with pytest.raises(ValueError, match="empty series"):
        EgfSeries(())


def test_truncating_below_the_constant_term_is_rejected():
    with pytest.raises(ValueError, match="empty series"):
        egf_sin(4).truncate(-1)
    assert egf_cos(3).truncate(0) == constant(1, 0)


def test_derivative_of_a_constant_is_zero():
    assert constant(5, 0).derivative().coefficients == (0,)


def test_series_division_validation():
    with pytest.raises(ZeroDivisionError):
        constant(1, 4) / egf_sin(4)


def test_closed_forms_for_d():
    assert [d_closed_form(n) for n in range(2, 9)] == [2, 2, 12, 26, 178, 594, 4792]
    assert [bar_d_closed_form(n) for n in range(2, 9)] == [1, 2, 7, 26, 117, 594, 3407]
    with pytest.raises(ValueError):
        d_closed_form(1)
    with pytest.raises(ValueError):
        bar_d_closed_form(1)


def test_parity_of_d_minus_bar_d():
    t = euler_numbers(12)
    for n in range(2, 13):
        diff = d_closed_form(n) - bar_d_closed_form(n)
        assert diff == (t[n] if n % 2 == 0 else 0)


def test_k_closed_form_values():
    assert k_closed_form(TypeLabel("A", 6)) == 61
    assert k_closed_form(TypeLabel("B", 6)) == 272
    assert k_closed_form(TypeLabel("D", 6)) == 178
    assert k_closed_form(TypeLabel("I2", 7)) == 1
    assert k_closed_form(TypeLabel("I2", 8)) == 2
    assert k_closed_form(TypeLabel("E", 8)) == 4056
    assert k_closed_form(TypeLabel("H", 4)) == 12


def test_closed_form_matches_recursion():
    calc = KCalculator()
    labels = [TypeLabel("A", n) for n in range(1, 11)]
    labels += [TypeLabel("B", n) for n in range(2, 11)]
    labels += [TypeLabel("D", n) for n in range(4, 11)]
    labels += [TypeLabel("I2", m) for m in range(3, 13)]
    labels += [TypeLabel("E", 6), TypeLabel("E", 7), TypeLabel("E", 8),
               TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]
    for t in labels:
        assert calc.k_value(str(t)) == k_closed_form(t), str(t)


def test_verify_identities_all_pass():
    checks = verify_identities(20)
    assert len(checks) >= 10
    for c in checks:
        assert c.passed, c.name


def test_verify_identities_rejects_small_order():
    with pytest.raises(ValueError):
        verify_identities(3)


def test_egf_series_equality_uses_common_prefix():
    a = EgfSeries((Fraction(1), Fraction(2), Fraction(3)))
    b = EgfSeries((Fraction(1), Fraction(2)))
    assert a == b
    assert a != EgfSeries((Fraction(1), Fraction(5)))


def test_equal_series_hash_equal():
    a, b = EgfSeries((1, 2, 3)), EgfSeries((1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def _random_egf(order: int, head=None) -> EgfSeries:
    """Small int EGF coefficients."""
    coeffs = [rng.randint(-9, 9) for _ in range(order + 1)]
    if head is not None:
        coeffs[0] = head
    return EgfSeries(tuple(coeffs))


def _ordinary(s: EgfSeries) -> list:
    return [Fraction(a, factorial(k)) for k, a in enumerate(s.coefficients)]


def test_series_arithmetic_matches_ordinary_oracle():
    for _ in range(300):
        f = _random_egf(rng.randint(0, 6))
        head = rng.choice([1, 1, -1, -1, 0, 2, -3, rng.randint(-3, 3)])
        g = _random_egf(rng.randint(0, 6), head)
        of, og = _ordinary(f), _ordinary(g)
        n = min(len(of), len(og))
        assert _ordinary(f + g) == [of[k] + og[k] for k in range(n)]
        assert _ordinary(f - g) == [of[k] - og[k] for k in range(n)]
        assert _ordinary(f * g) == ordinary_product(of, og)
        assert _ordinary(f.derivative()) == ordinary_derivative(of)
        scale = rng.choice([3, -2])
        assert _ordinary(f * scale) == [c * scale for c in of]
        if head in (1, -1):
            q = f / g
            assert all(type(a) is int for a in q.coefficients)
            assert _ordinary(q) == ordinary_quotient(of, og)
        else:
            with pytest.raises(ZeroDivisionError):
                f / g


def test_convolutions_equal_their_term_by_term_sums_through_order_200():
    """The EGF product and quotient, one C-level dot product per index,
    equal the term-by-term sums of tests/oracles.py at every order 1-200,
    zero coefficients included. Index m of either sum reads indices <= m
    only, so the sums are taken once, at order 200, and cut to each order."""
    pick = random.Random(200)
    f = tuple(pick.choice([0, 0, 1, -1, pick.randint(-10**6, 10**6)]) for _ in range(201))
    g = (pick.choice([1, -1]),) + tuple(pick.choice([0, 0, 1, -2]) for _ in range(200))
    product, quotient = egf_product_terms(f, g), egf_quotient_terms(f, g)
    for n in range(1, 201):
        fs, gs = EgfSeries(f[:n + 1]), EgfSeries(g[:n + 1])
        assert (fs * gs).coefficients == product[:n + 1], n
        assert (fs / gs).coefficients == quotient[:n + 1], n


def test_quotients_by_a_unit_constant_term_stay_integer():
    sec_plus_tan = (constant(1, 12) + egf_sin(12)) / egf_cos(12)
    assert all(type(a) is int for a in sec_plus_tan.coefficients)
    assert sec_plus_tan.coefficients == tuple(ZIGZAG_HEAD + [353792, 2702765])
    assert constant(1, 12) / -egf_cos(12) == -egf_sec(12)
    with pytest.raises(ZeroDivisionError):
        constant(1, 4) / constant(2, 4)  # a half has no integer series


@pytest.mark.parametrize("scale", [1.5, 2.0, Fraction(1, 2), "2"])
def test_series_scale_by_ints_only(scale):
    with pytest.raises(TypeError):
        egf_sin(4) * scale
    with pytest.raises(TypeError):
        scale * egf_sin(4)


@pytest.mark.parametrize("combine", [
    lambda f: f + 1.5, lambda f: f - 1.5, lambda f: f / 1.0, lambda f: f + Fraction(1, 2),
    lambda f: 1.5 + f, lambda f: 1.5 - f,
], ids=["add-float", "subtract-float", "divide-float", "add-fraction", "float-plus",
        "float-minus"])
def test_series_add_subtract_and_divide_ints_only(combine):
    with pytest.raises(TypeError):
        combine(egf_sin(3))


@pytest.mark.parametrize("combine, coefficients", [
    (lambda f: 2 * f, (0, 2, 0, -2)), (lambda f: 1 + f, (1, 1, 0, -1)),
    (lambda f: 1 - f, (1, -1, 0, 1)),
], ids=["int-times", "int-plus", "int-minus"])
def test_int_operand_on_the_left(combine, coefficients):
    """2 * f, 1 + f and 1 - f for f = sin z to order 3, in int coefficients."""
    g = combine(egf_sin(3))
    assert g.coefficients == coefficients
    assert all(type(a) is int for a in g.coefficients)


def test_int_operands_keep_int_coefficients():
    f = egf_sin(3)
    assert (f + 1).coefficients == (1, 1, 0, -1)
    assert (f - 2).coefficients == (-2, 1, 0, -1)
    assert (constant(3, 3) / 1).coefficients == (3, 0, 0, 0)
    assert (f / -1).coefficients == (0, -1, 0, 1)
    assert all(type(a) is int for g in (f + 1, f - 2, f / -1) for a in g.coefficients)


def test_identities_compare_int_coefficients(monkeypatch):
    compared = {}
    true_compare_values = series._compare_values

    def recording(name, pairs):
        pairs = list(pairs)
        compared[name] = [v for _, xy in pairs for v in xy]
        return true_compare_values(name, pairs)

    monkeypatch.setattr(series, "_compare_values", recording)
    checks = verify_identities(20)
    assert all(c.passed for c in checks)
    assert sorted(compared) == sorted(c.name for c in checks)
    assert all(type(v) is int for vs in compared.values() for v in vs)


def test_identities_catch_a_wrong_bar_d(monkeypatch):
    """bar d_6 one too high where the series layer reads it; the recursion's
    own calls, which check bar d against its closed form, see the true value."""
    true_k_bar = KCalculator.k_bar

    def off_by_one_at_6(self, n):
        caller = sys._getframe(1).f_globals["__name__"]
        return true_k_bar(self, n) + (n == 6 and caller == "coxchains.series")

    monkeypatch.setattr(KCalculator, "k_bar", off_by_one_at_6)
    failed = {c.name: c.first_mismatch for c in verify_identities(20) if not c.passed}
    assert failed == {"U = sec": 6, "barD expansion matches bar d_n": 6}


@pytest.mark.parametrize("order", [4, 5, 20, 21, 100])
def test_identities_fill_each_table_once(order, monkeypatch):
    """verify_identities fills D_n, D_{n-1} and bar d_n once and reads every
    lower d_m and bar d_m from the memo: the A table is walked twice, where
    filling each D_m and bar d_m in ascending m walked it once per m."""
    walks = []
    true_a_table = KCalculator._a_table

    def counted(self, n):
        walks.append(n)
        return true_a_table(self, n)

    monkeypatch.setattr(KCalculator, "_a_table", counted)
    assert all(c.passed for c in verify_identities(order))
    assert len(walks) == 2

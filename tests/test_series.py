from fractions import Fraction

import pytest

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
    s = egf_sin(7)
    assert s.coefficient(1) == 1
    assert s.coefficient(3) == Fraction(-1, 6)
    assert s.coefficient(5) == Fraction(1, 120)
    c = egf_cos(6)
    assert c.coefficient(0) == 1 and c.coefficient(2) == Fraction(-1, 2)
    assert egf_tan(5).egf_coefficient(3) == 2
    assert egf_sec(6).egf_coefficient(6) == 61


def test_series_arithmetic_roundtrips():
    n = 12
    sin, cos = egf_sin(n), egf_cos(n)
    assert sin * sin + cos * cos == constant(1, n)
    assert (sin / cos) * cos == sin
    assert sin.derivative() == cos.truncate(n - 1)
    assert cos.derivative() == (-sin).truncate(n - 1)


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

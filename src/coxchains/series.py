"""Euler zigzag numbers, closed forms, and exact truncated power series.

Series are ordinary coefficient lists c_0..c_N over Fraction; EGF
coefficients are recovered as c_k * k!. sin, cos, sec and tan are built
from their Taylor recurrences so the module stays self-contained and
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .graphs import TypeLabel

EXCEPTIONAL_K = {"H3": 4, "H4": 12, "F4": 16, "E6": 82, "E7": 768, "E8": 4056}


@dataclass(frozen=True)
class EgfSeries:
    coefficients: tuple  # Fractions c_0..c_N

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coefficients[k]

    def egf_coefficient(self, k: int) -> Fraction:
        return self.coefficients[k] * factorial(k)

    def _match(self, other: "EgfSeries") -> int:
        n = min(self.order, other.order)
        return n

    def __add__(self, other):
        other = _coerce(other, self.order)
        n = self._match(other)
        return EgfSeries(tuple(
            self.coefficients[k] + other.coefficients[k] for k in range(n + 1)
        ))

    def __neg__(self):
        return EgfSeries(tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        return self + (-_coerce(other, self.order))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return EgfSeries(tuple(c * other for c in self.coefficients))
        n = self._match(other)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coefficients[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coefficients[j]
        return EgfSeries(tuple(out))

    def __truediv__(self, other):
        other = _coerce(other, self.order)
        if other.coefficients[0] == 0:
            raise ZeroDivisionError("series division needs an invertible constant term")
        n = self._match(other)
        inv0 = 1 / other.coefficients[0]
        out = []
        for k in range(n + 1):
            acc = self.coefficients[k]
            for j in range(1, k + 1):
                acc -= other.coefficients[j] * out[k - j]
            out.append(acc * inv0)
        return EgfSeries(tuple(out))

    def derivative(self) -> "EgfSeries":
        if self.order == 0:
            return EgfSeries((Fraction(0),))
        return EgfSeries(tuple(
            (k + 1) * self.coefficients[k + 1] for k in range(self.order)
        ))

    def truncate(self, n: int) -> "EgfSeries":
        return EgfSeries(self.coefficients[: n + 1])

    def __eq__(self, other):
        if not isinstance(other, EgfSeries):
            return NotImplemented
        n = self._match(other)
        return self.coefficients[: n + 1] == other.coefficients[: n + 1]

    def __hash__(self):
        return hash(self.coefficients)


def _coerce(x, order: int) -> EgfSeries:
    if isinstance(x, EgfSeries):
        return x
    return constant(x, order)


def constant(c, order: int) -> EgfSeries:
    return EgfSeries((Fraction(c),) + (Fraction(0),) * order)


def z(order: int) -> EgfSeries:
    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return EgfSeries(tuple(coeffs))


def egf_sin(order: int) -> EgfSeries:
    coeffs = [Fraction(0)] * (order + 1)
    sign = 1
    for k in range(1, order + 1, 2):
        coeffs[k] = Fraction(sign, factorial(k))
        sign = -sign
    return EgfSeries(tuple(coeffs))


def egf_cos(order: int) -> EgfSeries:
    coeffs = [Fraction(0)] * (order + 1)
    sign = 1
    for k in range(0, order + 1, 2):
        coeffs[k] = Fraction(sign, factorial(k))
        sign = -sign
    return EgfSeries(tuple(coeffs))


def egf_sec(order: int) -> EgfSeries:
    return constant(1, order) / egf_cos(order)


def egf_tan(order: int) -> EgfSeries:
    return egf_sin(order) / egf_cos(order)


def euler_numbers(n_max: int) -> list:
    """T_0..T_N by the boustrophedon (Seidel triangle) recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [1]
    row = [1]
    for n in range(1, n_max + 1):
        new = [0]
        for k in range(1, n + 1):
            new.append(new[k - 1] + row[n - k])
        values.append(new[n])
        row = new
    return values


def euler_numbers_from_series(n_max: int) -> list:
    """Independent route: EGF coefficients of (1 + sin z)/cos z."""
    s = (constant(1, n_max) + egf_sin(n_max)) / egf_cos(n_max)
    out = []
    for k in range(n_max + 1):
        c = s.egf_coefficient(k)
        if c.denominator != 1:
            raise AssertionError("sec+tan expansion gave a non-integer")
        out.append(c.numerator)
    return out


def _d_closed_forms(t, n: int) -> tuple:
    """d_n and bar d_n, read from zigzag numbers t that reach T_{n+1}."""
    d = 2 * t[n + 1] - (n if n % 2 == 0 else n + 1) * t[n]
    return d, 2 * t[n + 1] - (n + 1) * t[n]


def bar_d_closed_form(n: int) -> int:
    """Closed form 2 T_{n+1} - (n+1) T_n for the augmented D-type count."""
    if n < 2:
        raise ValueError("bar d_n is defined for n >= 2")
    return _d_closed_forms(euler_numbers(n + 1), n)[1]


def d_closed_form(n: int) -> int:
    if n < 2:
        raise ValueError("d_n is defined for n >= 2")
    return _d_closed_forms(euler_numbers(n + 1), n)[0]


def k_closed_form(t: TypeLabel) -> int:
    """Closed-form K for an irreducible finite type."""
    fam, n = t.family, t.rank
    if fam == "A":
        return euler_numbers(n)[n]
    if fam == "B":
        return euler_numbers(n + 1)[n + 1]
    if fam == "D":
        return d_closed_form(n)
    if fam == "I2":
        return 1 if n % 2 == 1 else 2
    return EXCEPTIONAL_K[str(t)]


@dataclass
class IdentityCheck:
    name: str
    passed: bool
    first_mismatch: int | None = None


def _compare(name: str, lhs: EgfSeries, rhs: EgfSeries) -> IdentityCheck:
    n = min(lhs.order, rhs.order)
    for k in range(n + 1):
        if lhs.coefficient(k) != rhs.coefficient(k):
            return IdentityCheck(name, False, k)
    return IdentityCheck(name, True)


def _compare_values(name: str, pairs) -> IdentityCheck:
    for k, (x, y) in pairs:
        if x != y:
            return IdentityCheck(name, False, k)
    return IdentityCheck(name, True)


def verify_identities(order: int) -> list:
    """Check every generating-function identity coefficientwise.

    Uses the recursion engine for the d_n and bar d_n cross-checks, so a
    failure here points at an implementation bug, not at bad input.
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    from .recursion import KCalculator

    calc = KCalculator()
    n = order
    one = constant(1, n)
    zz = z(n)
    sin, cos = egf_sin(n), egf_cos(n)
    sec, tan = egf_sec(n), egf_tan(n)
    a = tan + sec
    b = one / (one - sin)
    bar_d = (constant(2, n) - cos - zz * sin) / (one - sin)
    checks = [
        _compare("A' - 1 = (A^2 - 1)/2", a.derivative(),
                 ((a * a - one) * Fraction(1, 2) + one).truncate(n - 1)),
        _compare("B' = B A", b.derivative(), (b * a).truncate(n - 1)),
        _compare("B = A'", b.truncate(n - 1), a.derivative()),
        _compare("barD' = (barD - z) A", bar_d.derivative(),
                 ((bar_d - zz) * a).truncate(n - 1)),
        _compare("barD = (2 - z) A' + z - A",
                 bar_d.truncate(n - 1),
                 ((constant(2, n) - zz).truncate(n - 1) * a.derivative()
                  + zz.truncate(n - 1) - a.truncate(n - 1))),
    ]
    d_vals = {m: calc.k_value(f"D{m}") if m >= 4 else
              (calc.k_value("A1xA1") if m == 2 else calc.k_value("A3"))
              for m in range(2, n + 1)}
    bar_vals = {m: calc.k_bar(m) for m in range(2, n + 1)}
    u_coeffs = [Fraction(1), Fraction(0)] + [
        Fraction(d_vals[m] - bar_vals[m], factorial(m)) for m in range(2, n + 1)
    ]
    checks.append(_compare("U = sec", EgfSeries(tuple(u_coeffs)), sec))
    cos2 = cos * cos
    even_series = sin * (sin * 2 - zz) / cos2
    odd_series = (sin * (constant(2, n) - cos) - zz) / cos2
    checks.append(_compare_values(
        "even d-series matches d_{2n}",
        ((2 * m, (even_series.egf_coefficient(2 * m), Fraction(d_vals[2 * m])))
         for m in range(1, n // 2 + 1)),
    ))
    checks.append(_compare_values(
        "odd d-series matches d_{2n+1}",
        ((2 * m + 1, (odd_series.egf_coefficient(2 * m + 1), Fraction(d_vals[2 * m + 1])))
         for m in range(1, (n - 1) // 2 + 1)),
    ))
    checks.append(_compare_values(
        "odd coefficients of the even d-series vanish",
        ((2 * m + 1, (even_series.coefficient(2 * m + 1), Fraction(0)))
         for m in range(n // 2)),
    ))
    checks.append(_compare_values(
        "barD expansion matches bar d_n",
        ((m, (bar_d.egf_coefficient(m), Fraction(bar_vals[m])))
         for m in range(2, n + 1)),
    ))
    return checks

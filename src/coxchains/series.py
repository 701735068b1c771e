"""Euler zigzag numbers, closed forms, and exact truncated power series.

Series are exponential generating functions stored as their EGF
coefficients a_0..a_N, a_k = k! c_k for the ordinary coefficient c_k, all
ints. A product is the binomial convolution of the coefficients, a
derivative is a shift and a divisor's constant term is 1 or -1, so sin,
cos, sec, tan and every series the identities use stay in integers. The
module is self-contained and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add

from .graphs import TypeLabel

EXCEPTIONAL_K = {"H3": 4, "H4": 12, "F4": 16, "E6": 82, "E7": 768, "E8": 4056}


@dataclass(frozen=True)
class EgfSeries:
    """A truncated power series sum a_k z^k / k!, k = 0..N.

    `coefficients` holds the EGF coefficients a_0..a_N as ints, not the
    ordinary coefficients a_k / k!; `egf_coefficient(k)` gives a_k.
    """

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("an empty series has order -1 and would equal every series")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def egf_coefficient(self, k: int):
        return self.coefficients[k]

    def __add__(self, other):
        if (other := _coerce(other, self.order)) is None:
            return NotImplemented
        return EgfSeries(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    __radd__ = __add__  # an int plus a series: addition commutes

    def __neg__(self):
        return EgfSeries(tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        if (other := _coerce(other, self.order)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if (other := _coerce(other, self.order)) is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            return EgfSeries(tuple(c * other for c in self.coefficients))
        if not isinstance(other, EgfSeries):
            return NotImplemented
        f, g = self.coefficients, other.coefficients
        return EgfSeries(tuple(
            sum(c * x * y for c, x, y in zip(row, f, g[m::-1]) if x)
            for m, row in enumerate(_pascal_rows(min(self.order, other.order)))
        ))

    __rmul__ = __mul__  # an int times a series

    def __truediv__(self, other):
        """Exact quotient by a divisor whose constant term is 1 or -1, such
        as cos's, the units of the integers: it keeps the series in integers."""
        if (other := _coerce(other, self.order)) is None:
            return NotImplemented
        f, g = self.coefficients, other.coefficients
        if g[0] not in (1, -1):
            raise ZeroDivisionError("series division needs an invertible constant term")
        out = []
        for k, row in enumerate(_pascal_rows(min(self.order, other.order))):
            acc = f[k] - sum(c * x * y for c, x, y in zip(row[1:], g[1:], out[::-1]) if x)
            out.append(acc * g[0])
        return EgfSeries(tuple(out))

    def derivative(self) -> "EgfSeries":
        return EgfSeries(self.coefficients[1:] or (0,))

    def truncate(self, n: int) -> "EgfSeries":
        return EgfSeries(self.coefficients[: n + 1])

    def __eq__(self, other):
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return all(a == b for a, b in zip(self.coefficients, other.coefficients))

    def __hash__(self):
        # equal series share their common prefix, so hash only a_0
        return hash(self.coefficients[:1])


@lru_cache(maxsize=2)  # the identity checks multiply at orders n and n - 1
def _pascal_rows(n: int) -> tuple:
    """Pascal's rows C(m, .), m = 0..n, each carried to the next by sums."""
    return tuple(accumulate(range(n), lambda r, _: (1, *map(add, r, r[1:]), 1), initial=(1,)))


def _coerce(x, order: int):
    """A series as it is, an int as a constant series, else None."""
    if isinstance(x, EgfSeries):
        return x
    return constant(x, order) if isinstance(x, int) else None


def constant(c, order: int) -> EgfSeries:
    return EgfSeries((c,) + (0,) * order)


def z(order: int) -> EgfSeries:
    return EgfSeries(tuple(int(k == 1) for k in range(order + 1)))


def egf_sin(order: int) -> EgfSeries:
    return EgfSeries(tuple((0, 1, 0, -1)[k % 4] for k in range(order + 1)))


def egf_cos(order: int) -> EgfSeries:
    return EgfSeries(tuple((1, 0, -1, 0)[k % 4] for k in range(order + 1)))


def egf_sec(order: int) -> EgfSeries:
    return constant(1, order) / egf_cos(order)


def egf_tan(order: int) -> EgfSeries:
    return egf_sin(order) / egf_cos(order)


def euler_numbers(n_max: int) -> list:
    """T_0..T_N by the boustrophedon (Seidel triangle) recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values, row = [1], [1]
    for _ in range(n_max):  # row n: 0, then the running sums of row n - 1 reversed
        row = list(accumulate(reversed(row), initial=0))
        values.append(row[-1])
    return values


def euler_numbers_from_series(n_max: int) -> list:
    """Independent route: EGF coefficients of (1 + sin z)/cos z."""
    return list(((constant(1, n_max) + egf_sin(n_max)) / egf_cos(n_max)).coefficients)


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


def _compare_values(name: str, pairs) -> IdentityCheck:
    for k, (x, y) in pairs:
        if x != y:
            return IdentityCheck(name, False, k)
    return IdentityCheck(name, True)


def _compare(name: str, lhs: EgfSeries, rhs: EgfSeries) -> IdentityCheck:
    """EGF coefficients up to the lower order; the ordinary ones differ
    first at the same index, because k! is common to both sides."""
    return _compare_values(name, enumerate(zip(lhs.coefficients, rhs.coefficients)))


def verify_identities(order: int) -> list:
    """Check every generating-function identity coefficientwise.

    The d_m and bar d_m of the cross-checks are values read off the
    recursion's rank tables, with no term breakdown to check them, so
    these identities are what check them; bar d_m also meets its closed
    form as its table is filled. A failure here points at an
    implementation bug, not at bad input.
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    from .recursion import KCalculator, _d_part

    calc = KCalculator()
    n = order
    one = constant(1, n)
    zz = z(n)
    sin, cos = egf_sin(n), egf_cos(n)
    sec, tan = egf_sec(n), egf_tan(n)
    a = tan + sec
    b = one / (one - sin)
    bar_d = (2 - cos - zz * sin) / (one - sin)
    checks = [
        _compare("A' - 1 = (A^2 - 1)/2", (a.derivative() - one) * 2,
                 (a * a - one).truncate(n - 1)),
        _compare("B' = B A", b.derivative(), (b * a).truncate(n - 1)),
        _compare("B = A'", b.truncate(n - 1), a.derivative()),
        _compare("barD' = (barD - z) A", bar_d.derivative(),
                 ((bar_d - zz) * a).truncate(n - 1)),
        _compare("barD = (2 - z) A' + z - A",
                 bar_d.truncate(n - 1),
                 ((2 - zz).truncate(n - 1) * a.derivative()
                  + zz.truncate(n - 1) - a.truncate(n - 1))),
    ]
    calc._value(_d_part(n) + _d_part(n - 1))  # fills D_n and D_{n-1}: every lower d_m
    calc.k_bar(n)  # and bar d_m, each then read from the memo
    d_vals = {m: calc._value(_d_part(m)) for m in range(2, n + 1)}
    bar_vals = {m: calc.k_bar(m) for m in range(2, n + 1)}
    u_coeffs = [1, 0] + [d_vals[m] - bar_vals[m] for m in range(2, n + 1)]
    checks.append(_compare("U = sec", EgfSeries(tuple(u_coeffs)), sec))
    cos2 = cos * cos
    even_series = sin * (sin * 2 - zz) / cos2
    odd_series = (sin * (2 - cos) - zz) / cos2
    checks.append(_compare_values(
        "even d-series matches d_{2n}",
        ((2 * m, (even_series.egf_coefficient(2 * m), d_vals[2 * m]))
         for m in range(1, n // 2 + 1)),
    ))
    checks.append(_compare_values(
        "odd d-series matches d_{2n+1}",
        ((2 * m + 1, (odd_series.egf_coefficient(2 * m + 1), d_vals[2 * m + 1]))
         for m in range(1, (n - 1) // 2 + 1)),
    ))
    checks.append(_compare_values(
        "odd coefficients of the even d-series vanish",
        ((2 * m + 1, (even_series.egf_coefficient(2 * m + 1), 0))
         for m in range(n // 2)),
    ))
    checks.append(_compare_values(
        "barD expansion matches bar d_n",
        ((m, (bar_d.egf_coefficient(m), bar_vals[m]))
         for m in range(2, n + 1)),
    ))
    return checks

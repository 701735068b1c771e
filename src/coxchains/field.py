"""Exact scalars over Q and Q(sqrt5), and canonical subspaces.

Subspaces are stored as row-spans in strict reduced row echelon form, so
that two subspaces are equal as sets of vectors exactly when their stored
representations compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# the values of ReflectionModel.field
FIELD_Q = "Q"
FIELD_QSQRT5 = "Q(sqrt5)"


_FRAC_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True, slots=True)
class FieldScalar:
    """An exact number a + b*sqrt(5); rational numbers have b = 0."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(x) -> "FieldScalar":
        if isinstance(x, FieldScalar):
            return x
        return FieldScalar(_frac(x), _FRAC_ZERO)

    @staticmethod
    def sqrt5_part(a, b) -> "FieldScalar":
        return FieldScalar(_frac(a), _frac(b))

    def __add__(self, other):
        other = FieldScalar.of(other)
        if not (self.b or other.b):  # rational operands: skip the sqrt5 terms
            return FieldScalar(self.a + other.a, _FRAC_ZERO)
        return FieldScalar(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return FieldScalar(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-FieldScalar.of(other))

    def __mul__(self, other):
        other = FieldScalar.of(other)
        if not (self.b or other.b):
            return FieldScalar(self.a * other.a, _FRAC_ZERO)
        return FieldScalar(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self) -> "FieldScalar":
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return FieldScalar(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * FieldScalar.of(other).inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.a == other and self.b == 0
        if isinstance(other, FieldScalar):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        b = self.b
        sep = "+" if b >= 0 else "-"
        return f"{self.a}{sep}{abs(b)}sqrt5"


ZERO = FieldScalar.of(0)
ONE = FieldScalar.of(1)


def rref(rows):
    """Strict reduced row echelon form; zero rows dropped.

    Pivot choice is leftmost column, first nonzero row, so the result is
    deterministic. Input rows are lists of FieldScalar (or ints/Fractions).
    """
    m = [[FieldScalar.of(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        src = None
        for r in range(pivot_row, len(m)):
            if not m[r][col].is_zero():
                src = r
                break
        if src is None:
            continue
        m[pivot_row], m[src] = m[src], m[pivot_row]
        inv = m[pivot_row][col].inverse()
        m[pivot_row] = [x * inv for x in m[pivot_row]]
        for r in range(len(m)):
            if r == pivot_row:
                continue
            factor = m[r][col]
            if factor.is_zero():
                continue
            m[r] = [x - factor * y for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [row for row in m[:pivot_row]]


@dataclass(frozen=True, slots=True)
class Subspace:
    """A linear subspace given by its RREF row-span basis."""

    ambient: int
    basis: tuple  # tuple of tuples of FieldScalar, in strict RREF

    @property
    def dim(self) -> int:
        return len(self.basis)


def canonical_subspace(vectors, ambient: int) -> Subspace:
    """Canonical form (RREF basis) of the span of the given row vectors."""
    for row in vectors:
        if len(row) != ambient:
            raise ValueError(
                f"ragged input: row of length {len(row)}, ambient {ambient}"
            )
    basis = rref([list(row) for row in vectors])
    return Subspace(ambient, tuple(tuple(row) for row in basis))


def null_space(rows, ambient: int) -> Subspace:
    """Canonical subspace of solutions x of rows . x = 0."""
    reduced = rref([list(r) for r in rows])
    pivots = []
    for row in reduced:
        for j, x in enumerate(row):
            if not x.is_zero():
                pivots.append(j)
                break
    pivot_set = set(pivots)
    free = [j for j in range(ambient) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * ambient
        vec[f] = ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return canonical_subspace(basis, ambient)

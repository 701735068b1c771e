"""Concrete realizations of the finite reflection groups.

Every model acts on its roots, one representative per root pair, and lists
its generators as signed permutations of the root indices: p[i] = s * (j + 1)
maps root i to s * root j. Matrix models carry exact root coordinates, found
with the generator permutations in one pass of reflections; the export
alone derives the generator matrices from them. Dihedral groups I2(m) get
m roots indexed 0..m-1 and reflections acting by index arithmetic, so we
never need the field Q(cos pi/m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .field import (
    FIELD_Q,
    FIELD_QSQRT5,
    ONE,
    ZERO,
    FieldScalar,
    null_space,  # noqa: F401  (re-exported: perfbench counts calls here)
)
from .graphs import (
    TypeLabel,
    classify_irreducible,
    connected_components,
    parse_group_spec,
)

DEFAULT_ELEMENT_CAP = 100_000

GROUP_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "F": lambda n: 1152,
    "H": lambda n: 120 if n == 3 else 14400,
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "I2": lambda m: 2 * m,
}

REFLECTION_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "F": lambda n: 24,
    "H": lambda n: 15 if n == 3 else 60,
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "I2": lambda m: m,
}


class UnsupportedModelError(ValueError):
    """Raised when a type has no brute-force realization here."""


def group_order(t: TypeLabel) -> int:
    return GROUP_ORDERS[t.family](t.rank)


def reflection_count(t: TypeLabel) -> int:
    return REFLECTION_COUNTS[t.family](t.rank)


def _q(x) -> FieldScalar:
    return FieldScalar.of(Fraction(x))


def _simple_roots(t: TypeLabel):
    """Simple root coordinates per standard numbering; returns (roots, ambient)."""
    fam, n = t.family, t.rank
    if fam == "A":
        amb = n + 1
        return [_e_minus_e(amb, i, i + 1) for i in range(n)], amb
    if fam == "B":
        amb = n
        roots = [[_q(1 if j == 0 else 0) for j in range(amb)]]
        for i in range(1, n):
            roots.append(_e_minus_e(amb, i - 1, i))
        return roots, amb
    if fam == "D":
        amb = n
        roots = [_e_minus_e(amb, i, i + 1) for i in range(n - 2)]
        roots.append(_e_minus_e(amb, n - 2, n - 1))
        roots.append(_e_plus_e(amb, n - 2, n - 1))
        return roots, amb
    if fam == "F":
        amb = 4
        half = Fraction(1, 2)
        return [
            _e_minus_e(amb, 1, 2),
            _e_minus_e(amb, 2, 3),
            [_q(0), _q(0), _q(0), _q(1)],
            [_q(half), _q(-half), _q(-half), _q(-half)],
        ], amb
    if fam == "E" and n == 6:
        amb = 8
        half = Fraction(1, 2)
        a1 = [_q(half), _q(-half), _q(-half), _q(-half), _q(-half), _q(-half), _q(-half), _q(half)]
        a2 = _e_plus_e(amb, 0, 1)
        # Bourbaki: alpha3 = e2-e1, alpha4 = e3-e2, ...
        a3 = [-x for x in _e_minus_e(amb, 0, 1)]
        a4 = [-x for x in _e_minus_e(amb, 1, 2)]
        a5 = [-x for x in _e_minus_e(amb, 2, 3)]
        a6 = [-x for x in _e_minus_e(amb, 3, 4)]
        return [a1, a2, a3, a4, a5, a6], amb
    if fam == "H" and n == 3:
        amb = 3
        tau_half = FieldScalar.sqrt5_part(Fraction(1, 4), Fraction(1, 4))
        inv_2tau = FieldScalar.sqrt5_part(Fraction(-1, 4), Fraction(1, 4))
        half = _q(Fraction(1, 2))
        return [
            [ZERO, ONE, ZERO],
            [half, tau_half, inv_2tau],
            [ONE, ZERO, ZERO],
        ], amb
    raise UnsupportedModelError(
        f"no matrix model for {t}; the recursion method supports this type"
    )


def _e_minus_e(amb, i, j):
    return [_q(1 if k == i else (-1 if k == j else 0)) for k in range(amb)]


def _e_plus_e(amb, i, j):
    return [_q(1 if k in (i, j) else 0) for k in range(amb)]


def _dot(u, v) -> FieldScalar:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _reflection_matrix(root, amb):
    """The matrix I - 2 r r^T / (r . r) of the reflection in root r."""
    norm = _dot(root, root)
    coefs = [(x + x) / norm for x in root]
    return [[(ONE if i == j else ZERO) - c * root[i] for j, c in enumerate(coefs)]
            for i in range(amb)]


def _canonical_sign(vec):
    for x in vec:
        s = x.sign()
        if s > 0:
            return tuple(vec), 1
        if s < 0:
            return tuple(-y for y in vec), -1
    raise ValueError("zero root")


@dataclass
class ReflectionModel:
    """Matrix model of an irreducible finite reflection group."""

    label: TypeLabel
    ambient: int
    field: str
    roots: list          # one canonical-signed representative per root pair
    gen_perms: list      # signed root permutations of the generators

    @property
    def generators(self) -> list:
        """Reflection matrices, one per graph vertex, for the export. The
        simple roots come first in `roots`, and a root and its negative give
        the same matrix."""
        return [_reflection_matrix(r, self.ambient) for r in self.roots[:self.label.rank]]


@dataclass
class DihedralModel:
    """Index-arithmetic model of I2(m): root k is the normal of the line L_k
    at angle k*pi/m, and the generators are the reflections across L_0 and
    L_1."""

    label: TypeLabel
    m: int
    gen_perms: list      # signed root permutations of the generators


def _dihedral_reflection(m: int, a: int) -> tuple:
    """The reflection across L_a as a signed permutation of the m roots.

    Root k points at angle k*pi/m + pi/2, and its mirror image at
    (2a - k)*pi/m - pi/2. With 2a - k = q*m + r, that is root r turned by
    (q - 1)*pi, so the sign is (-1)^(q + 1). The signs matter: for even m
    the rotation by pi fixes every line and negates every root.
    """
    return tuple((-1) ** (q + 1) * (r + 1)
                 for q, r in (divmod(2 * a - k, m) for k in range(m)))


@dataclass
class ProductModel:
    """Direct product of irreducible factor models."""

    factors: list  # of (ReflectionModel | DihedralModel, vertex ids tuple)


_MATRIX_RANK_LIMITS = {"A": 6, "B": 5, "D": 5, "F": 4, "H": 3, "E": 6}


def _build_irreducible(t: TypeLabel):
    if t.family == "I2":
        if t.rank > 30:
            raise UnsupportedModelError(
                f"I2({t.rank}) exceeds the supported dihedral range (m <= 30)"
            )
        return DihedralModel(t, t.rank,
                             [_dihedral_reflection(t.rank, a) for a in (0, 1)])
    limit = _MATRIX_RANK_LIMITS.get(t.family)
    if limit is None or t.rank > limit:
        raise UnsupportedModelError(
            f"{t} has no brute-force model (group too large); "
            f"use the recursion method instead"
        )
    simple, amb = _simple_roots(t)
    field = FIELD_QSQRT5 if t.family == "H" else FIELD_Q
    # close the simple roots under their reflections
    # s_a(v) = v - (2<v,a>/<a,a>) a, one canonical-signed root per pair;
    # a popped root's signed images are its entries in the gen_perms
    mirrors = [(a, _q(2) / _dot(a, a)) for a in simple]
    roots = []
    index = {}
    queue = []

    def find(vec):
        canon, sign = _canonical_sign(vec)
        if canon not in index:
            index[canon] = len(roots)
            roots.append(list(canon))
            queue.append(len(roots) - 1)
        return sign * (index[canon] + 1)

    for r in simple:
        find(r)
    images = {}
    while queue:
        i = queue.pop()
        r = roots[i]
        images[i] = []
        for a, c in mirrors:
            k = _dot(r, a) * c
            images[i].append(find([x - k * y for x, y in zip(r, a)]))
    expected = reflection_count(t)
    if len(roots) != expected:
        raise AssertionError(
            f"{t}: root closure found {len(roots)} lines, expected {expected}"
        )
    gen_perms = list(zip(*(images[i] for i in range(len(roots)))))
    return ReflectionModel(t, amb, field, roots, gen_perms)


def build_model(g):
    """Build a reflection model for a graph or spec string.

    Irreducible types get a matrix or dihedral model; reducible groups get
    a ProductModel over their components.
    """
    if isinstance(g, str):
        g = parse_group_spec(g)
    comps = connected_components(g)
    order = 1
    factors = []
    for comp in comps:
        label, _ = classify_irreducible(comp)
        factors.append((_build_irreducible(label), comp.vertices))
        order *= group_order(label)
    if order > DEFAULT_ELEMENT_CAP:
        raise UnsupportedModelError(
            f"group order {order} exceeds the element cap {DEFAULT_ELEMENT_CAP}; "
            f"use the recursion method instead"
        )
    if len(factors) == 1:
        return factors[0][0]
    return ProductModel(factors)


def model_to_json(model) -> dict:
    """Documented JSON export of roots and generators for external checking."""
    if isinstance(model, DihedralModel):
        return {
            "kind": "dihedral",
            "type": str(model.label),
            "lines": model.m,
        }
    if isinstance(model, ProductModel):
        return {
            "kind": "product",
            "factors": [model_to_json(f) for f, _ in model.factors],
        }
    return {
        "kind": "matrix",
        "type": str(model.label),
        "ambient": model.ambient,
        "field": model.field,
        "roots": [[str(x) for x in r] for r in model.roots],
        "generators": [
            [[str(x) for x in row] for row in gen]
            for gen in model.generators
        ],
    }

"""Concrete realizations of the finite reflection groups.

Every model acts on its roots, one representative per root pair, and lists
its generators as signed permutations of the root indices: p[i] = s * (j + 1)
maps root i to s * root j. A matrix type's simple roots are integer rows:
each coordinate a + b*sqrt5 is written over {1, phi}, phi = (1 + sqrt5)/2,
and every root is scaled by one common denominator D. They are closed under
the simple reflections in one pass on these integers, which finds the
generator permutations too, and each coefficient 2<v,a>/<a,a> = k + k' phi
is one exact integer division whose remainder must be zero, a certificate
that the closure stays in the root lattice. The lattice uses the integer
vectors as they are; the export alone derives exact `FieldScalar` roots and
generator matrices from them. Dihedral groups I2(m) get m roots indexed
0..m-1 and reflections acting by index arithmetic, so we never need the
field Q(cos pi/m).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .field import (
    FIELD_Q,
    FIELD_QSQRT5,
    ONE,
    ZERO,
    FieldScalar,
    null_space,  # noqa: F401  (re-exported: perfbench counts calls here)
)
from .graphs import (
    CoxeterGraph,
    TypeLabel,
    component_labels,
    parse_group_spec,  # noqa: F401  (perfbench's tracer patches it here)
    parse_labels,
    spec_of_labels,
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


def _pair(amb, i, j, sign=-1):
    """e_i + sign * e_j as an integer row."""
    return [(k == i) + sign * (k == j) for k in range(amb)]


# the exceptional simple roots times D = 2, and the ambient dimension; tuples,
# so no caller edits them. Bourbaki's F4: e2 - e3, e3 - e4, e4, (e1 - e2 - e3
# - e4)/2; E6: (e1 + e8 - e2 - ... - e7)/2, e1 + e2, a_k = e_{k-1} - e_{k-2};
# H3: (0, 1, 0), (1/2, phi/2, (phi - 1)/2), (1, 0, 0); H4: (-1, 0, 0, 0),
# (phi, -1, 1 - phi, 0)/2, (0, 1, phi, 1 - phi)/2, (0, phi - 1, -1, phi)/2;
# p + q phi written p, q
_EXCEPTIONAL_ROOTS = {
    ("F", 4): (((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)), 4),
    ("E", 6): (((1, -1, -1, -1, -1, -1, -1, 1),
                (2, 2, 0, 0, 0, 0, 0, 0),
                (-2, 2, 0, 0, 0, 0, 0, 0),
                (0, -2, 2, 0, 0, 0, 0, 0),
                (0, 0, -2, 2, 0, 0, 0, 0),
                (0, 0, 0, -2, 2, 0, 0, 0)), 8),
    ("H", 3): (((0, 0, 2, 0, 0, 0), (1, 0, 0, 1, -1, 1), (2, 0, 0, 0, 0, 0)), 3),
    ("H", 4): (((-2, 0, 0, 0, 0, 0, 0, 0),
                (0, 1, -1, 0, 1, -1, 0, 0),
                (0, 0, 1, 0, 0, 1, 1, -1),
                (0, 0, -1, 1, -1, 0, 0, 1)), 4),
}


def _simple_roots(t: TypeLabel):
    """Simple roots per standard numbering as integer rows over {1, phi} for
    H3 and H4, each times the common denominator D; returns (rows, ambient, D)."""
    fam, n = t.family, t.rank
    if fam == "A":
        return [_pair(n + 1, i, i + 1) for i in range(n)], n + 1, 1
    if fam == "B":
        return [[1] + [0] * (n - 1)] + [_pair(n, i - 1, i) for i in range(1, n)], n, 1
    if fam == "D":
        return ([_pair(n, i, i + 1) for i in range(n - 1)]
                + [_pair(n, n - 2, n - 1, 1)], n, 1)
    return (*_EXCEPTIONAL_ROOTS[fam, n], 2)


def _idot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def phi_times(vec) -> list:
    """phi * v in coordinates over {1, phi}: phi (x0 + x1 phi) = x1 + (x0 + x1) phi."""
    return [y for x0, x1 in zip(vec[::2], vec[1::2]) for y in (x1, x0 + x1)]


def _phi_pairs(vec, realify: bool):
    """The coordinates p + q phi of an integer vector: consecutive pairs over
    Q(sqrt5), and q = 0 over Q."""
    return zip(vec[::2], vec[1::2]) if realify else ((x, 0) for x in vec)


def phi_sign(p: int, q: int) -> int:
    """Sign of the real number p + q*phi, whose double is (2p + q) + q*sqrt5."""
    r = 2 * p + q
    if r * q < 0 and r * r < 5 * q * q:
        return (q > 0) - (q < 0)
    return (r > 0) - (r < 0) or (q > 0) - (q < 0)


def _reflection_matrix(root, amb):
    """The matrix I - 2 r r^T / (r . r) of the reflection in root r."""
    norm = sum((x * x for x in root), ZERO)
    coefs = [(x + x) / norm for x in root]
    return [[(ONE if i == j else ZERO) - c * root[i] for j, c in enumerate(coefs)]
            for i in range(amb)]


@dataclass
class ReflectionModel:
    """Matrix model of an irreducible finite reflection group."""

    label: TypeLabel
    ambient: int
    field: str
    gen_perms: list      # signed root permutations of the generators
    vectors: list        # one canonical-signed root per pair, times `denominator`,
    denominator: int     # in integer coordinates over {1, phi} for Q(sqrt5)

    @functools.cached_property
    def roots(self) -> list:
        """The roots as exact `FieldScalar`s, for the export: p + q phi over D
        is ((2p + q) + q sqrt5) / 2D. The simple roots come first."""
        d, realify = 2 * self.denominator, self.field == FIELD_QSQRT5
        scalar = functools.cache(lambda p, q: FieldScalar.sqrt5_part(
            Fraction(2 * p + q, d), Fraction(q, d)))
        return [list(itertools.starmap(scalar, _phi_pairs(v, realify))) for v in self.vectors]

    @property
    def generators(self) -> list:
        """Reflection matrices, one per graph vertex, for the export. A root
        and its negative give the same matrix."""
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

    factors: list  # of (ReflectionModel | DihedralModel, standard vertex ids tuple)


def _build_irreducible(t: TypeLabel):
    if t.family == "I2":
        return DihedralModel(t, t.rank,
                             [_dihedral_reflection(t.rank, a) for a in (0, 1)])
    simple, amb, scale = _simple_roots(t)
    realify = t.family == "H"
    pairs = functools.partial(_phi_pairs, realify=realify)
    # close the simple roots under their reflections s_a(v) = v - c a, one
    # canonical-signed root per pair, with c = 2<v,a>/<a,a> = k + k' phi
    # taken exactly from <v,a> = v.a + (v.(phi a)) phi and, for <a,a> =
    # n0 + n1 phi, 1/<a,a> = ((n0 + n1) - n1 phi) / (n0^2 + n0 n1 - n1^2);
    # over Q the phi parts are 0. A popped root's signed images are its
    # entries in the gen_perms
    mirrors = []
    for a in simple:
        pa = phi_times(a) if realify else [0] * len(a)
        n0, n1 = _idot(a, a), _idot(a, pa)
        mirrors.append((a, pa, n0 + n1, -n1, n0 * n0 + n0 * n1 - n1 * n1))
    index = {}
    queue = []

    def find(vec):
        sign = next(filter(None, itertools.starmap(phi_sign, pairs(vec))))
        canon = tuple(vec) if sign > 0 else tuple(-x for x in vec)
        if canon not in index:
            index[canon] = len(index)
            queue.append(canon)
        return sign * (index[canon] + 1)

    for a, *_ in mirrors:
        find(a)
    images = {}
    while queue:
        r = queue.pop()
        images[r] = []
        for j, (a, pa, m0, m1, norm) in enumerate(mirrors):
            x, y = 2 * _idot(r, a), 2 * _idot(r, pa)
            k, rem = divmod(x * m0 + y * m1, norm)
            k1, rem1 = divmod(x * m1 + y * (m0 + m1), norm)
            if rem or rem1:
                raise AssertionError(
                    f"{t}: 2<v,a>/<a,a> for v = root {index[r]} and a = simple "
                    f"root {j} is not integral: the closure left the root lattice")
            images[r].append(find([u - k * w - k1 * z for u, w, z in zip(r, a, pa)]))
    expected = reflection_count(t)
    if len(index) != expected:
        raise AssertionError(
            f"{t}: root closure found {len(index)} lines, expected {expected}"
        )
    vecs = list(index)
    return ReflectionModel(t, amb, FIELD_QSQRT5 if realify else FIELD_Q,
                           list(zip(*map(images.__getitem__, vecs))), vecs, scale)


def bruteforce_refusal(labels) -> str | None:
    """Why brute force refuses the labels, or None, from the labels alone:
    I2(m) past m = 30, and every group past the element cap. Every |W| is at
    least 2^rank, so a rank past the cap's bit length is refused without
    computing |W|."""
    for t in labels:
        if t.family == "I2" and t.rank > 30:
            return f"I2({t.rank}) exceeds the supported dihedral range (m <= 30)"
    if (sum(t.coxeter_rank for t in labels) >= DEFAULT_ELEMENT_CAP.bit_length()
            or prod(map(group_order, labels)) > DEFAULT_ELEMENT_CAP):
        return (f"group order of {spec_of_labels(labels)} exceeds the element cap "
                f"{DEFAULT_ELEMENT_CAP}")
    return None


def build_model(g):
    """Build a reflection model for a spec string, a graph or classified labels.

    Irreducible types get a matrix or dihedral model; reducible groups get
    a ProductModel over their components, numbered left to right. A type
    that `bruteforce_refusal` refuses is refused before any root is closed.
    """
    if isinstance(g, str):
        g = parse_labels(g)
    elif isinstance(g, CoxeterGraph):
        g = component_labels(g)
    reason = bruteforce_refusal(g)
    if reason:
        raise UnsupportedModelError(f"{reason}; use the recursion method instead")
    offset, factors = 0, []
    build = functools.cache(_build_irreducible)  # one model per distinct label
    for label in g:
        n = label.coxeter_rank
        factors.append((build(label), tuple(range(offset + 1, offset + n + 1))))
        offset += n
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

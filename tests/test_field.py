import random
from fractions import Fraction

import pytest

from coxchains.field import (
    FIELD_Q,
    FIELD_QSQRT5,
    FieldScalar,
    canonical_subspace,
    null_space,
    rref,
)
from oracles import (
    SingularMatrixError,
    apply_matrix,
    contains_vector,
    full_space,
    identity_matrix,
    intersect,
    is_invertible,
    mat_inverse,
    mat_mul,
    scalar_sign,
    subspace_le,
)

rng = random.Random(20260823)


def rand_frac():
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def rand_scalar(field):
    if field == FIELD_Q:
        return FieldScalar.of(rand_frac())
    return FieldScalar.sqrt5_part(rand_frac(), rand_frac())


def test_field_axioms_randomized():
    for field in (FIELD_Q, FIELD_QSQRT5):
        for _ in range(5000):
            x, y, w = (rand_scalar(field) for _ in range(3))
            assert (x + y) + w == x + (y + w)
            assert (x * y) * w == x * (y * w)
            assert x * (y + w) == x * y + x * w
            assert x + y == y + x and x * y == y * x
            assert x + 0 == x and x * 1 == x
            assert (x - x).is_zero()
            if not x.is_zero():
                assert x * x.inverse() == 1
                assert (y / x) * x == y


def test_rational_operands_stay_rational():
    x = FieldScalar.sqrt5_part(Fraction(3, 2), 0)
    y = FieldScalar.of(Fraction(-1, 3))
    for u, v in ((x, y), (y, x)):
        for result in (u + v, u - v, u * v):
            assert result.b == 0
    assert (x + y).a == Fraction(7, 6)
    assert (x - y).a == Fraction(11, 6)
    assert (y - x).a == Fraction(-11, 6)
    assert (x * y).a == Fraction(-1, 2)


def test_scalar_sign_exact():
    # sqrt5 is between 2 and 3, so 2 - sqrt5 < 0 < 3 - sqrt5
    assert scalar_sign(FieldScalar.sqrt5_part(2, -1)) == -1
    assert scalar_sign(FieldScalar.sqrt5_part(3, -1)) == 1
    assert scalar_sign(FieldScalar.sqrt5_part(-2, 1)) == 1
    assert scalar_sign(FieldScalar.sqrt5_part(-3, 1)) == -1
    assert scalar_sign(FieldScalar.of(0)) == 0
    assert scalar_sign(FieldScalar.sqrt5_part(0, Fraction(-1, 7))) == -1


def test_scalar_string_forms():
    assert str(FieldScalar.of(Fraction(3, 4))) == "3/4"
    assert str(FieldScalar.sqrt5_part(Fraction(1, 2), Fraction(-1, 2))) == "1/2-1/2sqrt5"


def test_scalar_zero_division():
    with pytest.raises(ZeroDivisionError):
        FieldScalar.of(0).inverse()


def rand_matrix(n, field=FIELD_Q):
    return [[rand_scalar(field) for _ in range(n)] for _ in range(n)]


def test_rref_idempotent_and_canonical():
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rand_scalar(FIELD_Q) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        r1 = rref(rows)
        assert rref(r1) == r1
        # the span is unchanged by row shuffles and scalings
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        shuffled = [[x * 3 for x in r] for r in shuffled]
        assert rref(shuffled) == r1


def test_canonical_subspace_examples():
    s = canonical_subspace([(2, 0), (0, 3)], 2)
    assert s == full_space(2)
    s = canonical_subspace([(1, 1), (2, 2)], 2)
    assert s.dim == 1 and s.basis == ((FieldScalar.of(1), FieldScalar.of(1)),)
    assert canonical_subspace([], 3).dim == 0


def test_canonical_subspace_rejects_ragged():
    with pytest.raises(ValueError):
        canonical_subspace([(1, 2, 3), (1, 2)], 3)


def test_null_space_rank_nullity():
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rand_scalar(FIELD_Q) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        ns = null_space(rows, n)
        assert ns.dim == n - len(rref(rows))
        for vec in ns.basis:
            for row in rows:
                assert sum((a * b for a, b in zip(row, vec)), FieldScalar.of(0)).is_zero()


def test_intersect_two_walls_of_a2():
    # hyperplanes of e1 - e2 and e2 - e3 meet in the diagonal line
    h12 = null_space([[1, -1, 0]], 3)
    h23 = null_space([[0, 1, -1]], 3)
    meet = intersect(h12, h23)
    assert meet.dim == 1
    assert contains_vector(meet, [1, 1, 1])


def test_intersect_axes():
    x_axis = canonical_subspace([(1, 0)], 2)
    y_axis = canonical_subspace([(0, 1)], 2)
    assert intersect(x_axis, y_axis).dim == 0


def test_intersect_properties_randomized():
    for _ in range(100):
        n = rng.randint(2, 4)
        subs = [
            canonical_subspace(
                [[rand_scalar(FIELD_Q) for _ in range(n)] for _ in range(rng.randint(0, n))],
                n,
            )
            for _ in range(3)
        ]
        s1, s2, s3 = subs
        assert intersect(s1, s1) == s1
        assert intersect(s1, s2) == intersect(s2, s1)
        assert intersect(intersect(s1, s2), s3) == intersect(s1, intersect(s2, s3))
        assert subspace_le(intersect(s1, s2), s1)
        assert intersect(s1, full_space(n)) == s1


def test_apply_matrix_identity_and_composition():
    for _ in range(50):
        n = rng.randint(2, 4)
        s = canonical_subspace(
            [[rand_scalar(FIELD_Q) for _ in range(n)] for _ in range(rng.randint(1, n))],
            n,
        )
        assert apply_matrix(identity_matrix(n), s) == s
        m1 = rand_matrix(n)
        m2 = rand_matrix(n)
        if not (is_invertible(m1) and is_invertible(m2)):
            continue
        assert apply_matrix(m1, apply_matrix(m2, s)) == apply_matrix(mat_mul(m1, m2), s)
        assert apply_matrix(mat_inverse(m1), apply_matrix(m1, s)) == s


def test_apply_matrix_rejects_singular():
    s = canonical_subspace([(1, 0)], 2)
    singular = [[FieldScalar.of(1), FieldScalar.of(1)],
                [FieldScalar.of(1), FieldScalar.of(1)]]
    with pytest.raises(SingularMatrixError):
        apply_matrix(singular, s)
    with pytest.raises(SingularMatrixError):
        mat_inverse(singular)


def test_subspace_containment_order():
    line = canonical_subspace([(1, 1, 1)], 3)
    plane = canonical_subspace([(1, 0, 0), (0, 1, 0)], 3)
    assert not subspace_le(line, plane)
    assert subspace_le(line, canonical_subspace([(1, 0, 0), (0, 1, 1)], 3))
    assert subspace_le(line, full_space(3))
    with pytest.raises(ValueError):
        subspace_le(line, full_space(2))

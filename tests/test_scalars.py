from fractions import Fraction

import pytest

from semilaurent.errors import DivisionByZero, FieldMismatch, OrderNotAvailable
from semilaurent.rng import SplitMix64
from semilaurent.scalars import (
    FieldDescriptor,
    Scalar,
    cyclotomic_polynomial,
    poly_roots_in_field,
)

Q = FieldDescriptor.rationals()
Z3 = FieldDescriptor.cyclotomic(3)
Z4 = FieldDescriptor.cyclotomic(4)
Z12 = FieldDescriptor.cyclotomic(12)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_rational_arithmetic():
    assert Q.scalar(1, 2) + Q.scalar(1, 3) == Q.scalar(5, 6)
    assert Q.scalar(1, 2) / Q.scalar(1, 3) == Q.scalar(3, 2)


def test_zeta4_squares_to_minus_one():
    i = Z4.zeta()
    assert i * i == Z4.scalar(-1)


def test_zeta3_product_example():
    z = Z3.zeta()
    assert (Z3.one() + z) * (Z3.one() + z * z) == Z3.one()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.one() + Z4.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.one() / Q.zero()


def test_root_of_unity_examples():
    r = Z12.root_of_unity(4)
    assert r == Z12.zeta() ** 3
    assert r**4 == Z12.one()
    assert r**2 != Z12.one()
    assert Q.root_of_unity(2) == Q.scalar(-1)
    with pytest.raises(OrderNotAvailable):
        Q.root_of_unity(3)


def test_root_of_unity_orders():
    # raised to the order gives 1; to any proper divisor it does not
    for field, order in [(Z12, 12), (Z12, 6), (Z12, 3), (Z4, 4), (Z3, 6)]:
        r = field.root_of_unity(order)
        assert r**order == field.one()
        for d in range(1, order):
            if order % d == 0:
                assert r**d != field.one()


def test_field_axioms_random():
    rng = SplitMix64(2024)
    for field in (Q, Z4, Z3):
        elements = []
        for _ in range(12):
            coeffs = tuple(
                field.scalar(rng.randint(-5, 5), rng.randint(1, 4)).coeffs[0]
                for _ in range(field.degree)
            )
            elements.append(Scalar(field, coeffs))
        one = field.one()
        for a in elements[:6]:
            for b in elements[3:9]:
                for c in elements[6:]:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
        for a in elements:
            if a:
                assert a * a.inverse() == one


def test_poly_roots_over_rationals():
    one, zero = Q.one(), Q.zero()
    roots = poly_roots_in_field([-one, zero, one])  # T^2 - 1
    assert [(r.rational_value(), m) for r, m in roots] == [(-1, 1), (1, 1)]
    assert poly_roots_in_field([one, zero, one]) == []  # T^2 + 1


def test_poly_roots_over_z4():
    one, zero = Z4.one(), Z4.zero()
    roots = poly_roots_in_field([one, zero, one])
    i = Z4.zeta()
    assert {r.key() for r, _ in roots} == {i.key(), (-i).key()}


def test_poly_roots_multiplicity_and_substitution():
    # (T - 2)^2 (T + 1/3), plus the zero root from a T factor
    one = Q.one()
    t2 = Q.scalar(2)
    third = Q.scalar(1, 3)
    # coefficients of T (T-2)^2 (T + 1/3), built by convolution by hand
    # (T-2)^2 = T^2 - 4T + 4; times (T + 1/3): T^3 - 11/3 T^2 + 8/3 T + 4/3
    coeffs = [Q.zero(), Q.scalar(4, 3), Q.scalar(8, 3), Q.scalar(-11, 3), one]
    roots = poly_roots_in_field(coeffs)
    as_map = {r.key(): m for r, m in roots}
    assert as_map[t2.key()] == 2
    assert as_map[(-third).key()] == 1
    assert as_map[Q.zero().key()] == 1
    total = sum(m for _, m in roots)
    assert total <= 4
    for r, _ in roots:
        acc = Q.zero()
        for c in reversed(coeffs):
            acc = acc * r + c
        assert not acc


def test_scalar_root_of_unity_times_rational_found():
    z = Z4.zeta()
    target = Z4.scalar(3, 2) * z  # (3/2) i is a root of T^2 + 9/4
    coeffs = [Z4.scalar(9, 4), Z4.zero(), Z4.one()]
    roots = poly_roots_in_field(coeffs)
    assert any(r == target for r, _ in roots)


def test_galois_conjugates():
    z = Z12.zeta()
    conj = z.conjugates()
    assert len(conj) == 4
    assert z in conj
    for c in conj:
        assert c**12 == Z12.one()


def test_sort_key_deterministic():
    vals = [Q.scalar(3), Q.scalar(-1), Q.scalar(1, 2)]
    ordered = sorted(vals, key=lambda s: s.sort_key())
    assert [v.rational_value() for v in ordered] == [-1, Fraction(1, 2), 3]

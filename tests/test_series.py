import pytest

from semilaurent.errors import FieldMismatch, IndistinguishableFromZero
from semilaurent.rng import SplitMix64
from semilaurent.scalars import FieldDescriptor
from semilaurent.series import LaurentSeries

Q = FieldDescriptor.rationals()
Z4 = FieldDescriptor.cyclotomic(4)


def S(terms, prec, field=Q):
    return LaurentSeries.from_terms(field, terms, prec)


def test_product_example():
    a = S({0: 1, 1: 1}, 8)
    b = S({0: 1, 1: -1}, 8)
    out = a * b
    assert out == S({0: 1, 2: -1}, 8)
    assert out.prec == 8


def test_product_precision_propagation():
    a = S({-1: 1, 0: 1}, 4)
    b = S({1: 1}, 4)
    out = a * b
    assert out.prec == 3  # min(4 + 1, 4 - 1)
    assert out == S({0: 1, 1: 1}, 3)


def test_add_to_zero_within_precision():
    a = S({0: 1, 1: 1}, 5)
    out = a + (-a)
    assert out.is_zero()
    assert out.prec == 5


def test_mixed_field_rejected():
    with pytest.raises(FieldMismatch):
        S({0: 1}, 4) + S({0: 1}, 4, Z4)


def test_invert_geometric():
    a = S({0: 1, 1: -1}, 5)
    assert a.invert() == S({0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, 5)


def test_invert_t_square():
    out = S({2: 1}, 6).invert()
    assert out.valuation == -2
    assert out.prec == 2
    assert out == S({-2: 1}, 2)


def test_invert_zero_raises():
    with pytest.raises(IndistinguishableFromZero):
        LaurentSeries.zero(Q, 5).invert()


def test_substitute_power_examples():
    assert S({1: 1, 2: 1}, 16).substitute_power(3) == S({3: 1, 6: 1}, 48)
    c = S({0: 5}, 7)
    assert c.substitute_power(4) == S({0: 5}, 28)
    out = S({-1: 1, 0: 1}, 3).substitute_power(2)
    assert out == S({-2: 1, 0: 1}, 6)
    assert out.prec == 6


def test_substitute_power_composes():
    rng = SplitMix64(5)
    for _ in range(10):
        terms = {rng.randint(-3, 6): rng.randint(-4, 4) for _ in range(4)}
        a = S(terms, 20)
        assert a.substitute_power(2).substitute_power(3) == a.substitute_power(6)


def test_valuation():
    assert S({2: 3, 5: 1}, 10).valuation_of() == 2
    assert S({-4: 1, 0: -1}, 10).valuation_of() == -4
    with pytest.raises(IndistinguishableFromZero):
        LaurentSeries.zero(Q, 10).valuation_of()


def _random_series(rng, field, prec):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[rng.randint(-4, 8)] = rng.randint(-3, 3)
    return LaurentSeries.from_terms(field, terms, prec)


def test_ring_axioms_random():
    rng = SplitMix64(99)
    for field in (Q, Z4):
        for _ in range(12):
            prec = rng.randint(6, 32)
            a = _random_series(rng, field, prec)
            b = _random_series(rng, field, prec)
            c = _random_series(rng, field, prec)
            lhs = (a + b) * c
            rhs = a * c + b * c
            assert lhs.agrees_with(rhs)
            assert (a * b).agrees_with(b * a)
            assert ((a * b) * c).agrees_with(a * (b * c))


def test_invert_is_two_sided_unit():
    rng = SplitMix64(123)
    for _ in range(15):
        terms = {rng.randint(-3, 3): rng.nonzero_int(3)}
        for _ in range(3):
            terms[rng.randint(-3, 8)] = rng.randint(-3, 3)
        a = LaurentSeries.from_terms(Q, terms, 24)
        if a.is_zero():
            continue
        inv = a.invert()
        prod = a * inv
        assert prod.agrees_with(LaurentSeries.one(Q, prod.prec))
        # the post-stated precision
        assert inv.prec == a.prec - 2 * a.valuation


def test_precision_monotonicity():
    # recomputing with more input precision never changes known coefficients
    rng = SplitMix64(7)
    for _ in range(10):
        terms = {rng.randint(-2, 5): rng.randint(-3, 3) for _ in range(4)}
        terms2 = {rng.randint(-2, 5): rng.randint(-3, 3) for _ in range(4)}
        lo_a, hi_a = S(terms, 10), S(terms, 20)
        lo_b, hi_b = S(terms2, 10), S(terms2, 20)
        lo = lo_a * lo_b
        hi = hi_a * hi_b
        assert hi.truncate(lo.prec) == lo


def test_pretty():
    s = S({-1: 1, 0: 2, 2: 3}, 5)
    assert s.pretty() == "t^-1 + 2 + 3*t^2 + O(t^5)"


def test_arith_dispatch():
    a, b = S({0: 1}, 6), S({1: 2}, 6)
    assert a + b == S({0: 1, 1: 2}, 6)
    assert a - b == S({0: 1, 1: -2}, 6)
    assert a * b == S({1: 2}, 6)  # min(6+1, 6+0)

"""The kernels agree exactly with naive references built from first principles."""

from fractions import Fraction

from semilaurent import kernels
from semilaurent.rng import SplitMix64
from semilaurent.scalars import cyclotomic_polynomial


def _random_coeffs(rng, length):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(length)]


def _naive_product(a, b):
    """Full product of two coefficient lists as a dict exponent -> coefficient."""
    prod = {}
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = prod.get(i + j, Fraction(0)) + ai * bj
    return prod


def test_convolve_parity():
    rng = SplitMix64(1)
    for _ in range(20):
        a = _random_coeffs(rng, rng.randint(1, 12))
        b = _random_coeffs(rng, rng.randint(1, 12))
        out_len = rng.randint(1, 20)
        prod = _naive_product(a, b)
        ref = [prod.get(k, Fraction(0)) for k in range(out_len)]
        assert kernels.convolve_trunc(list(a), list(b), out_len, Fraction(0)) == ref


def test_invert_unit_parity():
    rng = SplitMix64(2)
    for _ in range(20):
        a = _random_coeffs(rng, rng.randint(1, 10))
        if not a[0]:
            a[0] = Fraction(1)
        out_len = rng.randint(1, 16)
        inv = kernels.invert_unit_trunc(list(a), out_len, Fraction(1))
        assert len(inv) == out_len
        # a * inv = 1 within the window
        prod = _naive_product(a, inv)
        assert [prod.get(k, 0) for k in range(out_len)] == [1] + [0] * (out_len - 1)
    # 1/(1 - t) = 1 + t + t^2 + ...
    geometric = kernels.invert_unit_trunc([Fraction(1), Fraction(-1)], 9, Fraction(1))
    assert geometric == [Fraction(1)] * 9


def test_polymul_reduce_parity():
    rng = SplitMix64(3)
    # reduction modulo x^4 = -1 (the 8th cyclotomic polynomial)
    modulus = cyclotomic_polynomial(8)
    assert modulus == [1, 0, 0, 0, 1]
    deg = 4
    rows = [[Fraction(0)] * deg for _ in range(deg - 1)]
    rows[0][0] = Fraction(-1)
    rows[1][1] = Fraction(-1)
    rows[2][2] = Fraction(-1)
    for _ in range(20):
        a = _random_coeffs(rng, deg)
        b = _random_coeffs(rng, deg)
        prod = _naive_product(a, b)
        rem = [prod.get(k, Fraction(0)) for k in range(2 * deg - 1)]
        # schoolbook division by the monic modulus, highest degree first
        for top in range(len(rem) - 1, deg - 1, -1):
            c = rem[top]
            for k, m in enumerate(modulus):
                rem[top - deg + k] -= c * m
        assert not any(rem[deg:])
        assert kernels.polymul_reduce(list(a), list(b), rows, deg, Fraction(0)) == rem[:deg]

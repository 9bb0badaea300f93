"""Kernels for the quadratic inner loops of series and cyclotomic arithmetic.

These operate on lists of coefficient objects (anything with ring operator
methods).
"""

IMPLEMENTATION = "python"


def convolve_trunc(a, b, out_len, zero):
    """First out_len coefficients of the product of dense coefficient lists.

    a and b are aligned so that index 0 is the lowest exponent of each factor;
    the result is aligned at the sum of those exponents.
    """
    la = len(a)
    lb = len(b)
    out = [zero] * out_len
    for i in range(min(la, out_len)):
        ai = a[i]
        if not ai:
            continue
        jmax = min(lb, out_len - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def invert_unit_trunc(a, out_len, one):
    """First out_len coefficients of 1/a for a dense unit (a[0] invertible)."""
    inv0 = one / a[0]
    out = [inv0]
    la = len(a)
    for k in range(1, out_len):
        acc = None
        for j in range(1, min(k, la - 1) + 1):
            aj = a[j]
            if not aj:
                continue
            term = aj * out[k - j]
            acc = term if acc is None else acc + term
        if acc is None:
            out.append(one - one)
        else:
            out.append(-inv0 * acc)
    return out


def polymul_reduce(a, b, reduction_rows, deg, zero):
    """Product of two length-deg coefficient vectors modulo a fixed polynomial.

    reduction_rows[e] holds the length-deg expansion of x**(deg+e) in the
    quotient basis, for e in range(deg-1).
    """
    raw = [zero] * (2 * deg - 1)
    for i in range(deg):
        ai = a[i]
        if not ai:
            continue
        for j in range(deg):
            bj = b[j]
            if bj:
                raw[i + j] = raw[i + j] + ai * bj
    out = raw[:deg]
    for e in range(deg - 1):
        c = raw[deg + e]
        if not c:
            continue
        row = reduction_rows[e]
        for i in range(deg):
            ri = row[i]
            if ri:
                out[i] = out[i] + c * ri
    return out

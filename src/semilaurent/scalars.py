"""Exact coefficient fields: the rationals and cyclotomic extensions Q(zeta_n).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(n)-1) reduced
modulo the n-th cyclotomic polynomial, so representations are canonical and
equality is coefficient-wise. No floating point anywhere.
"""

from math import gcd

from . import kernels
from ._ratcoeff import RAT_ONE, RAT_ZERO, rat
from .errors import DivisionByZero, FieldMismatch, OrderNotAvailable


def cyclotomic_polynomial(n):
    """Integer coefficient list (low to high) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n; exact integer arithmetic throughout.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi_d = cyclotomic_polynomial(d)
        poly = _exact_polydiv(poly, phi_d)
    return poly


def _exact_polydiv(num, den):
    """Quotient of integer polynomials known to divide exactly."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd] // den[dd]
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    if any(num):
        raise ValueError("division was not exact")
    return out


class FieldDescriptor:
    """A coefficient field: kind 'rationals' or 'cyclotomic' with a conductor.

    The rationals are the degenerate conductor-1 case. Instances are interned
    per conductor, and precompute the reduction data used by Scalar products.
    """

    _cache = {}

    __slots__ = ("kind", "conductor", "degree", "_reduction_rows", "_zeta_powers")

    def __new__(cls, kind="rationals", conductor=1):
        if kind == "rationals":
            conductor = 1
        elif kind != "cyclotomic":
            raise ValueError(f"unknown field kind {kind!r}")
        if conductor < 1:
            raise ValueError("conductor must be positive")
        if conductor == 1:
            kind = "rationals"
        key = (kind, conductor)
        inst = cls._cache.get(key)
        if inst is not None:
            return inst
        inst = object.__new__(cls)
        inst.kind = kind
        inst.conductor = conductor
        if conductor == 1:
            inst.degree = 1
            inst._reduction_rows = []
        else:
            phi = cyclotomic_polynomial(conductor)
            deg = len(phi) - 1
            inst.degree = deg
            # x^deg = -(phi minus leading term); then x^(deg+e) iteratively
            base = [rat(-c) for c in phi[:deg]]
            rows = [base]
            for _ in range(deg - 2):
                prev = rows[-1]
                row = [RAT_ZERO] + prev[: deg - 1]
                top = prev[deg - 1]
                if top:
                    row = [row[i] + top * base[i] for i in range(deg)]
                rows.append(row)
            inst._reduction_rows = rows
        inst._zeta_powers = None
        cls._cache[key] = inst
        return inst

    @classmethod
    def rationals(cls):
        return cls("rationals", 1)

    @classmethod
    def cyclotomic(cls, conductor):
        return cls("cyclotomic", conductor)

    def __repr__(self):
        if self.kind == "rationals":
            return "Q"
        return f"Q(zeta_{self.conductor})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldDescriptor)
            and self.kind == other.kind
            and self.conductor == other.conductor
        )

    def __hash__(self):
        return hash((self.kind, self.conductor))

    # -- element construction ------------------------------------------------

    def scalar(self, value, den=1):
        """Embed an integer or rational."""
        if den == 1 and hasattr(value, "numerator"):
            q = rat(value.numerator, value.denominator)
        else:
            q = rat(value, den)
        coeffs = [q] + [RAT_ZERO] * (self.degree - 1)
        return Scalar(self, tuple(coeffs))

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def zeta(self):
        """zeta_n as an element (n = conductor); -1 when the conductor is 2."""
        if self.conductor == 1:
            raise OrderNotAvailable("the rationals contain no zeta beyond order 2")
        if self.conductor == 2:
            return self.scalar(-1)
        coeffs = [RAT_ZERO] * self.degree
        coeffs[1] = RAT_ONE
        return Scalar(self, tuple(coeffs))

    def unity_order(self):
        """Order of the group of roots of unity in the field."""
        n = self.conductor
        return n if n % 2 == 0 else 2 * n

    def roots_of_unity(self):
        """All roots of unity in the field, as powers of a fixed generator."""
        gen = self.unity_generator()
        out = [self.one()]
        for _ in range(self.unity_order() - 1):
            out.append(out[-1] * gen)
        return out

    def unity_generator(self):
        n = self.conductor
        if n <= 2:
            return self.scalar(-1)
        z = self.zeta()
        return z if n % 2 == 0 else -z

    def root_of_unity(self, order):
        """A primitive root of unity of exactly the given order.

        Available orders are the divisors of the unity group order (conductor
        for even conductors, twice the conductor for odd ones; -1 always).
        """
        if order < 1:
            raise OrderNotAvailable("order must be positive")
        n_units = self.unity_order()
        if n_units % order:
            raise OrderNotAvailable(
                f"{self!r} has no primitive root of unity of order {order}"
            )
        return self.unity_generator() ** (n_units // order)

    def galois_exponents(self):
        """Exponents j with gcd(j, n) = 1: the maps zeta -> zeta^j."""
        n = self.conductor
        return [j for j in range(1, n + 1) if gcd(j, n) == 1]

    def _zeta_power_table(self):
        """Reduced coordinates of zeta^k for k in range(conductor)."""
        if self._zeta_powers is None:
            n = self.conductor
            deg = self.degree
            rows = []
            cur = [RAT_ONE] + [RAT_ZERO] * (deg - 1)
            for _ in range(n):
                rows.append(tuple(cur))
                # multiply by zeta
                top = cur[deg - 1]
                cur = [RAT_ZERO] + cur[: deg - 1]
                if top:
                    base = self._reduction_rows[0]
                    cur = [cur[i] + top * base[i] for i in range(deg)]
            self._zeta_powers = rows
        return self._zeta_powers


class Scalar:
    """Element of a FieldDescriptor, as a reduced coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- predicates ----------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def key(self):
        """Hashable identity key."""
        return (
            self.field.kind,
            self.field.conductor,
            tuple((c.numerator, c.denominator) for c in self.coeffs),
        )

    def sort_key(self):
        """Deterministic total order: lexicographic on the coordinates."""
        return self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        if hasattr(other, "numerator") and hasattr(other, "denominator"):
            return self.field.scalar(other.numerator, other.denominator)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(
            self.field,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(
            self.field,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        deg = self.field.degree
        if deg == 1:
            return Scalar(self.field, (self.coeffs[0] * other.coeffs[0],))
        out = kernels.polymul_reduce(
            list(self.coeffs),
            list(other.coeffs),
            self.field._reduction_rows,
            deg,
            RAT_ZERO,
        )
        return Scalar(self.field, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        if not self:
            raise DivisionByZero("scalar inverse of zero")
        deg = self.field.degree
        if deg == 1:
            return Scalar(self.field, (RAT_ONE / self.coeffs[0],))
        # extended Euclid against the cyclotomic polynomial
        phi = [rat(c) for c in cyclotomic_polynomial(self.field.conductor)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [], [RAT_ONE]
        while True:
            r1 = _poly_trim(r1)
            if len(r1) == 1:
                inv_c = RAT_ONE / r1[0]
                coeffs = [c * inv_c for c in s1]
                coeffs += [RAT_ZERO] * (deg - len(coeffs))
                return Scalar(self.field, tuple(coeffs[:deg]))
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois_image(self, j):
        """Apply zeta -> zeta^j (j coprime to the conductor)."""
        field = self.field
        if field.degree == 1:
            return self
        table = field._zeta_power_table()
        n = field.conductor
        deg = field.degree
        out = [RAT_ZERO] * deg
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            row = table[(i * j) % n]
            for k in range(deg):
                if row[k]:
                    out[k] = out[k] + c * row[k]
        return Scalar(field, tuple(out))

    def conjugates(self):
        return [self.galois_image(j) for j in self.field.galois_exponents()]

    def __repr__(self):
        return self.pretty()

    def pretty(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{i}" if i > 1 else "z"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# -- dense rational polynomial helpers (internal) ------------------------------


def _poly_trim(p):
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return list(p)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else RAT_ZERO
        y = b[i] if i < len(b) else RAT_ZERO
        out.append(x - y)
    return out


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [RAT_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _poly_divmod(num, den):
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    q = [RAT_ZERO] * max(1, len(num) - len(den) + 1)
    lead = den[-1]
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        c = num[-1] / lead
        q[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] = num[shift + i] - c * dc
        num = _poly_trim(num)
        if len(num) == 1 and not num[0]:
            break
    return q, num


def root_of_unity(field, order):
    return field.root_of_unity(order)


def poly_roots_in_field(coeffs):
    """Roots in the coefficient field of a polynomial with Scalar coefficients.

    coeffs is low-to-high. Finds every root of the form rational * (root of
    unity in the field) by the rational-root theorem applied to the Galois
    norm form of the polynomial; returns (root, multiplicity) pairs sorted by
    the documented coordinate order. Roots outside that family (no such root
    occurs in this library's pipelines) are not found.
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    field = coeffs[0].field
    if len(coeffs) == 1:
        return []

    roots = {}

    def record(r):
        k = r.key()
        if k in roots:
            return
        mult, _ = _root_multiplicity(coeffs, r)
        if mult:
            roots[k] = (r, mult)

    # x = 0
    record(field.zero())

    candidates_seen = set()
    for zeta in field.roots_of_unity():
        # rational roots r of P(zeta * y) are rational roots of its norm form
        twisted = [c * zeta ** i for i, c in enumerate(coeffs)]
        norm = _norm_form(twisted, field)
        for q in _rational_root_candidates(norm):
            r = field.scalar(q.numerator, q.denominator) * zeta
            k = r.key()
            if k in candidates_seen:
                continue
            candidates_seen.add(k)
            if not _poly_eval(coeffs, r):
                record(r)

    found = sorted(roots.values(), key=lambda pair: pair[0].sort_key())
    return found


def _poly_eval(coeffs, x):
    acc = coeffs[0].field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _root_multiplicity(coeffs, r):
    mult = 0
    cur = list(coeffs)
    while len(cur) > 1:
        quo, rem = _synthetic_div(cur, r)
        if rem:
            break
        mult += 1
        cur = quo
    return mult, cur


def _synthetic_div(coeffs, r):
    """Divide by (x - r); returns (quotient low-to-high, remainder Scalar)."""
    acc = coeffs[-1]
    quo = [acc]
    for c in reversed(coeffs[:-1]):
        acc = acc * r + c
        quo.append(acc)
    rem = quo.pop()
    quo.reverse()
    return quo, rem


def _norm_form(coeffs, field):
    """Product over Galois conjugates, as a rational coefficient list."""
    if field.degree == 1:
        return [c.coeffs[0] for c in coeffs]
    prod = [field.one()]
    for j in field.galois_exponents():
        conj = [c.galois_image(j) for c in coeffs]
        prod = _scalar_poly_mul(prod, conj, field)
    out = []
    for c in prod:
        if not c.is_rational():
            raise AssertionError("norm form must have rational coefficients")
        out.append(c.rational_value())
    return out


def _scalar_poly_mul(a, b, field):
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _rational_root_candidates(rational_coeffs):
    """Candidate rational roots of a rational-coefficient polynomial."""
    from fractions import Fraction

    coeffs = list(rational_coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    # strip x^k factor; zero root handled by the caller
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return []
    denom_lcm = 1
    for c in coeffs:
        d = c.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(c.numerator) * (denom_lcm // int(c.denominator)) for c in coeffs]
    a0 = abs(ints[0])
    an = abs(ints[-1])
    ps = _divisors(a0)
    qs = _divisors(an)
    out = set()
    for p in ps:
        for q in qs:
            out.add(Fraction(p, q))
            out.add(Fraction(-p, q))
    return sorted(out)


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)

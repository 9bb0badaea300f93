"""Truncated Laurent series with explicit t-adic precision.

A series is known modulo t^prec and stores the dense coefficient window from
its valuation up to prec - 1. "Zero within precision" is a distinguished state
(empty window) that remembers its precision; valuation queries on it raise
rather than returning an infinity, so callers must confront indeterminacy.

Precision propagation:
    add/sub   prec = min(prec_a, prec_b)
    mul       prec = min(prec_a + val_b, prec_b + val_a)
    invert    prec = prec_a - 2 * val_a   (relative precision preserved)
    a(t^p)    prec = p * prec_a
"""

from . import kernels
from .errors import FieldMismatch, IndistinguishableFromZero

#: Default absolute precision used by constructors that need one.
DEFAULT_PRECISION = 64


class LaurentSeries:
    """Truncated Laurent series over a FieldDescriptor."""

    __slots__ = ("field", "valuation", "coeffs", "prec")

    def __init__(self, field, valuation, coeffs, prec):
        """Normalize: leading stored coefficient nonzero, window capped at prec.

        Trailing zero coefficients are stripped as well (coefficients between
        the stored window and prec are implicitly zero), so representations
        are canonical and equality is structural.
        """
        coeffs = list(coeffs)
        # drop window parts at or beyond prec
        if valuation + len(coeffs) > prec:
            coeffs = coeffs[: max(0, prec - valuation)]
        # strip leading zeros
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        if lead:
            valuation += lead
            coeffs = coeffs[lead:]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.prec = prec
        if not coeffs:
            self.valuation = prec
            self.coeffs = ()
        else:
            self.valuation = valuation
            self.coeffs = tuple(coeffs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, prec=DEFAULT_PRECISION):
        return cls(field, prec, (), prec)

    @classmethod
    def from_scalar(cls, value, prec=DEFAULT_PRECISION):
        return cls(value.field, 0, (value,), prec)

    @classmethod
    def one(cls, field, prec=DEFAULT_PRECISION):
        return cls.from_scalar(field.one(), prec)

    @classmethod
    def t_power(cls, field, exponent, prec=DEFAULT_PRECISION, coefficient=None):
        c = field.one() if coefficient is None else coefficient
        return cls(field, exponent, (c,), prec)

    @classmethod
    def from_terms(cls, field, terms, prec=DEFAULT_PRECISION):
        """Build from {exponent: scalar-or-int} pairs, exact below prec."""
        if not terms:
            return cls.zero(field, prec)
        items = {}
        for e, c in terms.items():
            if isinstance(c, int):
                c = field.scalar(c)
            items[e] = c
        lo = min(items)
        hi = max(items)
        coeffs = [items.get(e, field.zero()) for e in range(lo, hi + 1)]
        return cls(field, lo, coeffs, prec)

    # -- predicates and access ------------------------------------------------

    def is_zero(self):
        """Zero within precision."""
        return not self.coeffs

    def coefficient(self, exponent):
        """Scalar coefficient of t^exponent; exponent must be below prec."""
        if exponent >= self.prec:
            raise ValueError(
                f"coefficient of t^{exponent} is beyond precision O(t^{self.prec})"
            )
        if self.is_zero() or exponent < self.valuation:
            return self.field.zero()
        idx = exponent - self.valuation
        if idx >= len(self.coeffs):
            return self.field.zero()
        return self.coeffs[idx]

    def leading_coefficient(self):
        if self.is_zero():
            raise IndistinguishableFromZero("series is zero within precision")
        return self.coeffs[0]

    def valuation_of(self):
        if self.is_zero():
            raise IndistinguishableFromZero("series is zero within precision")
        return self.valuation

    def is_integral(self):
        """No stored term below t^0."""
        return self.is_zero() or self.valuation >= 0

    def is_constant(self):
        """Constant within precision (no nonzero term at exponent != 0)."""
        if self.is_zero():
            return True
        return self.valuation == 0 and not any(self.coeffs[1:])

    def constant_term(self):
        if self.is_zero() or self.valuation > 0:
            if self.prec <= 0:
                raise ValueError("constant term is beyond precision")
            return self.field.zero()
        if self.valuation < 0:
            raise ValueError("series has a pole; no constant term")
        return self.coeffs[0]

    def agrees_with(self, other, upto=None):
        """Equality of coefficients below min(precisions, upto)."""
        bound = min(self.prec, other.prec)
        if upto is not None:
            bound = min(bound, upto)
        return (self - other).truncate(bound).is_zero()

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.prec == other.prec
            and self.valuation == other.valuation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.valuation, self.prec, self.coeffs))

    # -- arithmetic -----------------------------------------------------------

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other):
        self._check_field(other)
        prec = min(self.prec, other.prec)
        if self.is_zero():
            return other.truncate(prec)
        if other.is_zero():
            return self.truncate(prec)
        lo = min(self.valuation, other.valuation)
        out = [self.field.zero()] * (prec - lo)
        for src in (self, other):
            base = src.valuation - lo
            for i, c in enumerate(src.coeffs):
                if base + i < len(out) and c:
                    out[base + i] = out[base + i] + c
        return LaurentSeries(self.field, lo, out, prec)

    def __neg__(self):
        return LaurentSeries(
            self.field, self.valuation, tuple(-c for c in self.coeffs), self.prec
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_field(other)
        # zero-within-precision has valuation >= prec by convention
        va = self.valuation
        vb = other.valuation
        prec = min(self.prec + vb, other.prec + va)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.field, prec)
        out_len = prec - va - vb
        if out_len <= 0:
            return LaurentSeries.zero(self.field, prec)
        out = kernels.convolve_trunc(
            list(self.coeffs), list(other.coeffs), out_len, self.field.zero()
        )
        return LaurentSeries(self.field, va + vb, out, prec)

    def scale(self, scalar):
        if not scalar:
            return LaurentSeries.zero(self.field, self.prec)
        return LaurentSeries(
            self.field, self.valuation, tuple(c * scalar for c in self.coeffs), self.prec
        )

    def shift(self, exponent):
        """Multiply by t^exponent (exact)."""
        return LaurentSeries(
            self.field, self.valuation + exponent, self.coeffs, self.prec + exponent
        )

    def invert(self):
        """Multiplicative inverse; valuation negates, relative precision kept."""
        if self.is_zero():
            raise IndistinguishableFromZero("cannot invert zero within precision")
        rel = self.prec - self.valuation
        out = kernels.invert_unit_trunc(list(self.coeffs), rel, self.field.one())
        return LaurentSeries(
            self.field, -self.valuation, out, self.prec - 2 * self.valuation
        )

    def substitute_power(self, p):
        """a(t^p); spreads exponents by p, precision multiplies by p."""
        if p < 1:
            raise ValueError("substitution exponent must be >= 1")
        if p == 1:
            return self
        if self.is_zero():
            return LaurentSeries.zero(self.field, p * self.prec)
        zero = self.field.zero()
        out = []
        for i, c in enumerate(self.coeffs):
            if i:
                out.extend([zero] * (p - 1))
            out.append(c)
        return LaurentSeries(self.field, p * self.valuation, out, p * self.prec)

    def truncate(self, prec):
        """Forget coefficients at or beyond prec (never increases knowledge)."""
        if prec >= self.prec:
            return self
        return LaurentSeries(self.field, self.valuation, self.coeffs, prec)

    def __repr__(self):
        return self.pretty()

    def pretty(self):
        """Human-readable form like 't^-1 + 2 + 3*t^2 + O(t^5)'."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.valuation + i
            cs = c.pretty()
            if e == 0:
                parts.append(cs)
            else:
                t = "t" if e == 1 else f"t^{e}"
                if cs == "1":
                    parts.append(t)
                elif cs == "-1":
                    parts.append(f"-{t}")
                elif "+" in cs or ("-" in cs[1:]):
                    parts.append(f"({cs})*{t}")
                else:
                    parts.append(f"{cs}*{t}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"{body} + O(t^{self.prec})"

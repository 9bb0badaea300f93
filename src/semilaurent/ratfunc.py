"""Exact multivariate rational functions over a Scalar field.

Polynomials are sparse exponent-vector maps with graded-lexicographic term
order; rational functions normalize the denominator's leading coefficient to
one and decide equality by cross-multiplication, so correctness never depends
on how much cancellation succeeded. Cancellation itself is best-effort:
common monomial content always, full gcd only in the univariate case.
"""

from .errors import DegenerateMap, DivisionByZero, SubstitutionPole


class MultiPoly:
    """Sparse polynomial in nvars variables with Scalar coefficients."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        clean = {}
        for expo, coef in terms.items():
            if coef:
                clean[tuple(expo)] = coef
        self.field = field
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        if isinstance(value, int):
            value = field.scalar(value)
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars, index):
        expo = [0] * nvars
        expo[index] = 1
        return cls(field, nvars, {tuple(expo): field.one()})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return self.field.zero()
        [(e, c)] = self.terms.items()
        if any(e):
            raise ValueError("polynomial is not constant")
        return c

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted((e, c.key()) for e, c in self.terms.items()))))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
        return MultiPoly(self.field, self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    prod = c1 * c2
                    if e in out:
                        out[e] = out[e] + prod
                    else:
                        out[e] = prod
            return MultiPoly(self.field, self.nvars, out)
        return NotImplemented

    def scale(self, scalar):
        return MultiPoly(
            self.field, self.nvars, {e: c * scalar for e, c in self.terms.items()}
        )

    def __pow__(self, k):
        result = MultiPoly.constant(self.field, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=0)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading_term(self):
        """Graded-lexicographic leading (exponent, coefficient)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda ex: (sum(ex), ex))
        return e, self.terms[e]

    def partial_derivative(self, i):
        out = {}
        for e, c in self.terms.items():
            if not e[i]:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * self.field.scalar(e[i])
        return MultiPoly(self.field, self.nvars, out)

    def monomial_content(self):
        """Componentwise-minimal exponent vector dividing every term."""
        if not self.terms:
            return (0,) * self.nvars
        mins = [None] * self.nvars
        for e in self.terms:
            for i, v in enumerate(e):
                mins[i] = v if mins[i] is None else min(mins[i], v)
        return tuple(mins)

    def shift_down(self, expo):
        return MultiPoly(
            self.field,
            self.nvars,
            {tuple(a - b for a, b in zip(e, expo)): c for e, c in self.terms.items()},
        )

    def occurring_variables(self):
        out = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    out.add(i)
        return out

    def as_univariate(self, i):
        """Dense coefficient list in x_i (constant Scalars), low to high."""
        deg = self.degree_in(i)
        coeffs = [self.field.zero()] * (deg + 1)
        for e, c in self.terms.items():
            coeffs[e[i]] = coeffs[e[i]] + c
        return coeffs

    @classmethod
    def from_univariate(cls, field, nvars, i, coeffs):
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                e = [0] * nvars
                e[i] = k
                terms[tuple(e)] = c
        return cls(field, nvars, terms)

    def substitute_fractions(self, numerators, denominators):
        """Evaluate at x_i = numerators[i]/denominators[i] (MultiPoly pairs).

        Returns a single (numerator, denominator) pair over the target
        variable space, using per-variable common denominators to avoid
        quadratic fraction addition.
        """
        target_nvars = numerators[0].nvars if numerators else self.nvars
        field = self.field
        degs = [self.degree_in(i) for i in range(self.nvars)]
        num_pows = [_power_table(numerators[i], degs[i]) for i in range(self.nvars)]
        den_pows = [_power_table(denominators[i], degs[i]) for i in range(self.nvars)]
        acc = MultiPoly.zero(field, target_nvars)
        for e, c in self.terms.items():
            term = MultiPoly.constant(field, target_nvars, 1).scale(c)
            for i in range(self.nvars):
                term = term * num_pows[i][e[i]] * den_pows[i][degs[i] - e[i]]
            acc = acc + term
        total_den = MultiPoly.constant(field, target_nvars, 1)
        for i in range(self.nvars):
            total_den = total_den * den_pows[i][degs[i]]
        return acc, total_den

    def pretty(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=lambda ex: (sum(ex), ex), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                names[i] if v == 1 else f"{names[i]}^{v}"
                for i, v in enumerate(e)
                if v
            )
            cs = c.pretty()
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif "+" in cs or "-" in cs[1:]:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return self.pretty()


def _power_table(poly, up_to):
    out = [MultiPoly.constant(poly.field, poly.nvars, 1)]
    for _ in range(up_to):
        out.append(out[-1] * poly)
    return out


def _univariate_gcd(field, a, b):
    """Monic gcd of dense Scalar coefficient lists."""

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    a = trim(list(a))
    b = trim(list(b))
    while b:
        # a mod b
        lead = b[-1]
        inv = lead.inverse()
        r = list(a)
        while len(r) >= len(b):
            r = trim(r)
            if len(r) < len(b):
                break
            c = r[-1] * inv
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] = r[shift + i] - c * bc
            r = trim(r)
        a, b = b, r
    if not a:
        return [field.one()]
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _univariate_exact_div(field, num, den):
    out = [field.zero()] * (len(num) - len(den) + 1)
    rem = list(num)
    inv = den[-1].inverse()
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(den) - 1] * inv
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                rem[k + i] = rem[k + i] - c * dc
    if any(rem):
        raise AssertionError("inexact univariate division")
    return out


class RationalFunction:
    """Quotient of MultiPolys; denominator monic in graded-lex order."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = MultiPoly.constant(num.field, num.nvars, 1)
        else:
            num, den = _cancel(num, den)
        _, lead = den.leading_term()
        if lead != den.field.one():
            inv = lead.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_poly(cls, poly):
        return cls(poly, MultiPoly.constant(poly.field, poly.nvars, 1))

    @classmethod
    def constant(cls, field, nvars, value):
        return cls.from_poly(MultiPoly.constant(field, nvars, value))

    @classmethod
    def variable(cls, field, nvars, index):
        return cls.from_poly(MultiPoly.variable(field, nvars, index))

    @property
    def field(self):
        return self.num.field

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    def __eq__(self, other):
        """Cross-multiplication equality."""
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("RationalFunction is unhashable (equality is extensional)")

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

    def inverse(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        return RationalFunction(self.den, self.num)

    def substitute(self, images):
        """Evaluate at x_i = images[i]; images are RationalFunctions over any
        common variable space."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        for im in images:
            if im.den.is_zero():
                raise SubstitutionPole("image denominator is the zero polynomial")
        nums = [im.num for im in images]
        dens = [im.den for im in images]
        n_num, n_den = self.num.substitute_fractions(nums, dens)
        d_num, d_den = self.den.substitute_fractions(nums, dens)
        # self = num/den evaluated: (n_num/n_den) / (d_num/d_den)
        if d_num.is_zero():
            raise SubstitutionPole("substitution lands in a pole of the function")
        return RationalFunction(n_num * d_den, n_den * d_num)

    def partial_derivative(self, i):
        num = (
            self.num.partial_derivative(i) * self.den
            - self.num * self.den.partial_derivative(i)
        )
        return RationalFunction(num, self.den * self.den)

    def pretty(self, names=None):
        if self.den.is_constant() and self.den.constant_value() == self.field.one():
            return self.num.pretty(names)
        return f"({self.num.pretty(names)})/({self.den.pretty(names)})"

    def __repr__(self):
        return self.pretty()


def _cancel(num, den):
    """Best-effort common-factor removal; exactness not required for
    correctness anywhere downstream."""
    field = num.field
    c_num = num.monomial_content()
    c_den = den.monomial_content()
    common = tuple(min(a, b) for a, b in zip(c_num, c_den))
    if any(common):
        num = num.shift_down(common)
        den = den.shift_down(common)
    vars_used = num.occurring_variables() | den.occurring_variables()
    if len(vars_used) == 1:
        i = vars_used.pop()
        a = num.as_univariate(i)
        b = den.as_univariate(i)
        g = _univariate_gcd(field, a, b)
        if len(g) > 1:
            num = MultiPoly.from_univariate(
                field, num.nvars, i, _univariate_exact_div(field, a, g)
            )
            den = MultiPoly.from_univariate(
                field, den.nvars, i, _univariate_exact_div(field, b, g)
            )
    return num, den


def jacobian_det(images):
    """Determinant of the matrix of partial derivatives of the images.

    Raises DegenerateMap when the determinant vanishes identically.
    """
    n = len(images)
    for im in images:
        if im.nvars != n:
            raise ValueError("need n functions of n variables")
    rows = [[im.partial_derivative(j) for j in range(n)] for im in images]
    det = _rf_det(rows)
    if det.is_zero():
        raise DegenerateMap("Jacobian determinant vanishes identically")
    return det


def _rf_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    field = rows[0][0].field
    nvars = rows[0][0].nvars
    acc = RationalFunction.constant(field, nvars, 0)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = entry * _rf_det(minor)
        if j % 2:
            term = -term
        acc = acc + term
    return acc


# -- parser ---------------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self):
        ch = self.peek()
        if ch is not None:
            self.pos += 1
        return ch

    def take_int(self):
        ch = self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ValueError(f"expected digits at position {start} in {self.text!r}")
        return int(self.text[start : self.pos])


def parse_rational(field, nvars, text):
    """Parse '+ - * / ^' expressions in integer literals and variables x1..xn.

    Grammar: expr := term (('+'|'-') term)*; term := unary (('*'|'/') unary)*;
    unary := '-'* power; power := atom ('^' int)?; atom := int | xK | '(' expr ')'.
    """
    tok = _Tokenizer(text)
    out = _parse_expr(tok, field, nvars)
    if tok.peek() is not None:
        raise ValueError(f"unexpected character {tok.peek()!r} at {tok.pos}")
    return out


def _parse_expr(tok, field, nvars):
    acc = _parse_term(tok, field, nvars)
    while tok.peek() in ("+", "-"):
        op = tok.take()
        rhs = _parse_term(tok, field, nvars)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_term(tok, field, nvars):
    acc = _parse_unary(tok, field, nvars)
    while tok.peek() in ("*", "/"):
        op = tok.take()
        rhs = _parse_unary(tok, field, nvars)
        acc = acc * rhs if op == "*" else acc / rhs
    return acc


def _parse_unary(tok, field, nvars):
    sign = 1
    while tok.peek() == "-":
        tok.take()
        sign = -sign
    value = _parse_power(tok, field, nvars)
    if sign < 0:
        value = -value
    return value


def _parse_power(tok, field, nvars):
    base = _parse_atom(tok, field, nvars)
    if tok.peek() == "^":
        tok.take()
        neg = False
        if tok.peek() == "-":
            tok.take()
            neg = True
        expo = tok.take_int()
        return base ** (-expo if neg else expo)
    return base


def _parse_atom(tok, field, nvars):
    ch = tok.peek()
    if ch is None:
        raise ValueError("unexpected end of input")
    if ch == "(":
        tok.take()
        inner = _parse_expr(tok, field, nvars)
        if tok.peek() != ")":
            raise ValueError(f"missing ')' at {tok.pos}")
        tok.take()
        return inner
    if ch.isdigit():
        return RationalFunction.constant(field, nvars, tok.take_int())
    if ch == "x":
        tok.take()
        if tok.peek() is not None and tok.peek().isdigit():
            idx = tok.take_int()
        else:
            idx = 1
        if not 1 <= idx <= nvars:
            raise ValueError(f"variable x{idx} out of range 1..{nvars}")
        return RationalFunction.variable(field, nvars, idx - 1)
    raise ValueError(f"unexpected character {ch!r} at position {tok.pos}")

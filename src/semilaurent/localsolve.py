"""Gauge algorithms that straighten a cocycle over k((t)) to constants.

The pipeline:

  1. integral_limit_gauge: an integral f with invertible f(0) is conjugated to
     the constant f(0) by the limit of f(0)^s (f(t) f(t^p) ... f(t^{p^{s-1}}))^{-1};
     the s-th iterate is exact modulo t^{p^s}.
  2. block_triangularize: split off the stable (Fitting) part of f(0), then a
     contracting fixed-point iteration C_{j+1} = (G + H C_j(t^l))(E + F C_j(t^l))^{-1}
     produces a shear making f blockwise upper triangular: an invertible
     constant block and a block nilpotent modulo t.
  3. cyclic_vector / rescale_companion: put the action of one semigroup
     element into companion form and rescale the companion column into k[[t]]
     with a unit entry.
  4. upper_triangular_to_constant: column peeling for a fully upper-triangular
     cocycle with constant diagonal, over a semigroup with a coprime pair.
  5. trivialize: the whole pipeline, recursing through invariant subspaces,
     with a composed gauge certificate verified before returning.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cocycles import (
    ConstantRepresentation,
    GaugeTransform,
    SemigroupCocycle,
    TrivializationCertificate,
    twist,
    verify_certificate,
)
from .errors import (
    ContractionViolated,
    CyclicSearchFailed,
    DimMismatch,
    DivisibilityViolated,
    FieldExtensionRequired,
    MissingCoprimePair,
    NotACocycle,
    NotExtendable,
    NotIntegral,
    PreconditionViolated,
    SingularAtZero,
    SingularWithinPrecision,
)
from .matrices import (
    ConstantMatrix,
    SeriesMatrix,
    _poly_pretty,
    eigenvector_in_field,
    simultaneous_triangularize,
    stable_decomposition,
)
from .rng import SplitMix64
from .series import LaurentSeries


def _aux_prec(target):
    """Precision given to exact auxiliary objects (identities, monomial
    gauges, complement columns) so they never cap a product's knowledge."""
    return 4 * target + 64


# ---------------------------------------------------------------------------
# step 1: integral cocycle values with invertible constant term
# ---------------------------------------------------------------------------


def integral_limit_gauge(f, p, target_prec):
    """Gauge Phi with Phi(t) f(t) Phi(t^p)^{-1} = f(0) modulo t^target_prec.

    Phi = f(0)^s (f(t) f(t^p) ... f(t^{p^{s-1}}))^{-1} once p^s >= target_prec;
    Phi is congruent to the identity modulo t.
    """
    if p < 2:
        raise PreconditionViolated("substitution exponent must be >= 2")
    for row in f.rows:
        for s in row:
            if not s.is_integral():
                raise NotIntegral("entries must lie in k[[t]]")
    f0 = f.constant_matrix()
    try:
        f0.invert()
    except SingularWithinPrecision:
        raise SingularAtZero("f(0) is not invertible") from None
    cap = min(f.min_precision(), target_prec)
    accum = f
    power = f0
    s = 1
    while p**s < cap:
        accum = accum * f.substitute_power(p**s).truncate(cap)
        power = power * f0
        s += 1
    phi = SeriesMatrix.from_constant(power, cap) * accum.invert()
    phi = phi.truncate(cap)
    delta = phi - SeriesMatrix.identity(f.field, f.dim, cap)
    for row in delta.rows:
        for entry in row:
            if not entry.is_zero() and entry.valuation_of() < 1:
                raise ContractionViolated("limit gauge is not 1 modulo t")
    return GaugeTransform(phi)


# ---------------------------------------------------------------------------
# step 2: block triangularization
# ---------------------------------------------------------------------------


@dataclass
class BlockForm:
    """Result of block_triangularize.

    gauge^{-1}(t) f(t) gauge(t^exponent) equals `triangular` within precision:
    an upper-left invertible block already reduced to the constant
    `stable_block`, and a lower-right block nilpotent modulo t.
    """

    gauge: GaugeTransform
    split_dim: int
    triangular: SeriesMatrix
    stable_block: ConstantMatrix | None
    exponent: int

    def off_diagonal_block(self):
        """Upper-right split_dim x (N - split_dim) block, rows of series."""
        m = self.split_dim
        n = self.triangular.dim
        return _sub_rows(self.triangular.rows, 0, m, m, n)

    def nilpotent_block(self):
        """Lower-right block (nilpotent modulo t), rows of series."""
        m = self.split_dim
        n = self.triangular.dim
        return _sub_rows(self.triangular.rows, m, n, m, n)


def _sub_rows(rows, i0, i1, j0, j1):
    return [[rows[i][j] for j in range(j0, j1)] for i in range(i0, i1)]


def _rect_mul(a, b, field):
    """Product of rectangular blocks given as lists of lists of series."""
    if not a or not b:
        return []
    inner = len(b)
    cols = len(b[0])
    out = []
    for row in a:
        new_row = []
        for j in range(cols):
            acc = row[0] * b[0][j]
            for k in range(1, inner):
                acc = acc + row[k] * b[k][j]
            new_row.append(acc)
        out.append(new_row)
    return out


def _rect_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _rect_sub_power(a, p, cap):
    return [[x.substitute_power(p).truncate(cap) for x in row] for row in a]


def _rect_agrees_mod(a, b, exponent):
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            d = x - y
            if not d.is_zero() and d.valuation_of() < exponent:
                return False
    return True


def block_triangularize(f, exponent, target_prec, assume_invertible=False):
    """Blockwise upper-triangularization of f along g(t)^{-1} f(t) g(t^exponent).

    Per-iteration congruence C_j = C_{j-1} mod t^(exponent^j) is asserted; its
    failure raises ContractionViolated. assume_invertible skips the
    determinant guard, for callers who know det f is a unit of k((t)) whose
    valuation exceeds the working precision (rescaled companion forms).
    """
    n = f.dim
    field = f.field
    for row in f.rows:
        for s in row:
            if not s.is_integral():
                raise NotIntegral("entries must lie in k[[t]]")
    if not assume_invertible and f.determinant().is_zero():
        raise SingularWithinPrecision("f is singular within precision")
    cap = min(f.min_precision(), target_prec)
    f0 = f.constant_matrix()
    basis, m = stable_decomposition(f0)
    basis_series = SeriesMatrix.from_constant(basis, cap)
    conj = SeriesMatrix.from_constant(basis.invert(), cap) * f * basis_series
    gauge_mat = basis_series

    if 0 < m < n:
        rows = conj.rows
        E = _sub_rows(rows, 0, m, 0, m)
        F = _sub_rows(rows, 0, m, m, n)
        G = _sub_rows(rows, m, n, 0, m)
        H = _sub_rows(rows, m, n, m, n)
        Einv = SeriesMatrix(field, E).invert()
        C = _rect_mul(G, [list(r) for r in Einv.rows], field)
        j = 0
        while exponent**j < cap:
            j += 1
            Csub = _rect_sub_power(C, exponent, cap)
            numer = _rect_add(G, _rect_mul(H, Csub, field))
            denom = SeriesMatrix(field, _rect_add(E, _rect_mul(F, Csub, field)))
            new_C = _rect_mul(numer, [list(r) for r in denom.invert().rows], field)
            if not _rect_agrees_mod(new_C, C, exponent**j):
                raise ContractionViolated(
                    f"iteration {j} violates the t^{exponent**j} congruence"
                )
            C = new_C
        shear_rows = [list(r) for r in SeriesMatrix.identity(field, n, cap).rows]
        for i in range(n - m):
            for jj in range(m):
                shear_rows[m + i][jj] = C[i][jj]
        shear = SeriesMatrix(field, shear_rows)
        gauge_mat = gauge_mat * shear
        Csub = _rect_sub_power(C, exponent, cap)
        e_prime = SeriesMatrix(field, _rect_add(E, _rect_mul(F, Csub, field)))
    elif m == n:
        e_prime = conj
    else:
        e_prime = None

    if m > 0:
        phi = integral_limit_gauge(e_prime, exponent, cap)
        phi_inv_rows = [list(r) for r in SeriesMatrix.identity(field, n, cap).rows]
        inv_block = GaugeTransform(phi.matrix).inverse_matrix()
        for i in range(m):
            for jj in range(m):
                phi_inv_rows[i][jj] = inv_block.rows[i][jj]
        gauge_mat = gauge_mat * SeriesMatrix(field, phi_inv_rows)

    gauge = GaugeTransform(gauge_mat)
    transported = (
        gauge.inverse_matrix() * f * gauge.matrix.substitute_power(exponent)
    ).truncate(cap)

    # assert and assemble the exact block shape
    rows = [list(r) for r in transported.rows]
    stable_block = None
    if m > 0:
        const_target = e_prime.constant_matrix()
        stable_block = ConstantMatrix(
            field, [[const_target.rows[i][j] for j in range(m)] for i in range(m)]
        )
        for i in range(m):
            for jj in range(m):
                want = LaurentSeries.from_scalar(
                    stable_block.rows[i][jj], rows[i][jj].prec
                )
                if not rows[i][jj].agrees_with(want):
                    raise ContractionViolated("stable block failed to become constant")
                rows[i][jj] = want
    for i in range(m, n):
        for jj in range(m):
            if not rows[i][jj].is_zero():
                raise ContractionViolated("lower-left block failed to vanish")
            rows[i][jj] = LaurentSeries.zero(field, rows[i][jj].prec)
    lower = ConstantMatrix(
        field,
        [[rows[m + i][m + jj].constant_term() for jj in range(n - m)] for i in range(n - m)],
    ) if m < n else None
    if lower is not None and not lower.is_nilpotent():
        raise ContractionViolated("lower-right block is not nilpotent modulo t")
    triangular = SeriesMatrix(field, rows)
    return BlockForm(gauge, m, triangular, stable_block, exponent)


# ---------------------------------------------------------------------------
# step 3: degree one classification
# ---------------------------------------------------------------------------


@dataclass
class DegreeOneClass:
    """Character values a_p in k^x and the slope residue in d(S)^{-1}Z/Z."""

    character_values: dict
    slope: Fraction


@dataclass
class DegreeOneReduction:
    """Gauge reducing a rank-one cocycle to monomials a_p t^{m_p}; when the
    slope residue vanishes, trivializing_gauge reduces it all the way to the
    constants a_p."""

    gauge: GaugeTransform
    exponents: dict
    exact_slope: Fraction
    trivializing_gauge: GaugeTransform | None


def classify_degree_one(c, target_prec=None):
    if c.dim != 1:
        raise DimMismatch("degree-one classification needs a rank-1 cocycle")
    field = c.field
    gens = c.semigroup.generators
    target = target_prec or c.min_precision()
    exponents = {}
    characters = {}
    units = {}
    for p in gens:
        s = c.values[p].rows[0][0]
        if s.is_zero():
            raise SingularWithinPrecision(f"value at {p} is zero within precision")
        m_p = s.valuation_of()
        a_p = s.leading_coefficient()
        exponents[p] = m_p
        characters[p] = a_p
        units[p] = s.shift(-m_p).scale(a_p.inverse())
    slopes = {p: Fraction(exponents[p], p - 1) for p in gens}
    distinct = set(slopes.values())
    if len(distinct) > 1:
        raise NotACocycle(
            f"slopes m_p/(p-1) disagree across generators: {sorted(slopes.items())}"
        )
    exact_slope = distinct.pop()
    residue = exact_slope % 1
    d = c.semigroup.d()
    if residue.denominator > 1 and d % residue.denominator != 0:
        raise NotACocycle(
            f"slope residue {residue} has denominator not dividing d(S) = {d}"
        )

    # one limit gauge on the smallest generator kills every unit part
    p0 = gens[0]
    phi = integral_limit_gauge(
        SeriesMatrix(field, [[units[p0]]]), p0, target
    )
    gauge = GaugeTransform(phi.matrix.invert(), phi.matrix)
    reduced = twist(c, gauge)
    for p in gens:
        want = LaurentSeries.t_power(
            field, exponents[p], reduced.values[p].rows[0][0].prec, characters[p]
        )
        if not reduced.values[p].rows[0][0].agrees_with(want):
            raise NotACocycle(
                f"unit parts are not coboundaries at generator {p}; "
                "compatibility must have been violated"
            )
    trivializing = None
    if residue == 0:
        shift = int(exact_slope)
        tpow = SeriesMatrix(
            field, [[LaurentSeries.t_power(field, -shift, _aux_prec(target))]]
        )
        trivializing = GaugeTransform(gauge.matrix * tpow)
    cls = DegreeOneClass(characters, residue)
    red = DegreeOneReduction(gauge, exponents, exact_slope, trivializing)
    return cls, red


# ---------------------------------------------------------------------------
# step 4: cyclic vector and companion rescaling
# ---------------------------------------------------------------------------


@dataclass
class CompanionData:
    """Last-column entries h_0..h_{N-1} of the companion form for sigma_p."""

    h: list
    p: int


@dataclass
class CyclicData:
    vector: list
    basis: GaugeTransform
    companion: CompanionData


def _apply_sigma(c, p, vec, cap):
    fp = c.values[p]
    return fp.mul_vector([s.substitute_power(p).truncate(cap) for s in vec])


def _candidate_vectors(c, n, field, cap, max_trials, rng, skip_standard):
    if not skip_standard:
        yield [
            LaurentSeries.one(field, cap)
            if i == 0
            else LaurentSeries.zero(field, cap)
            for i in range(n)
        ]
    for _ in range(max_trials):
        vec = []
        for _i in range(n):
            terms = {}
            for e in range(0, 3):
                coef = rng.randint(-2, 2)
                if coef:
                    terms[e] = coef
            vec.append(LaurentSeries.from_terms(field, terms, cap))
        yield vec


def companion_from_vector(c, p, v, cap=None):
    """Basis change and companion column for a given candidate vector, or
    None when v, sigma v, ..., sigma^{N-1} v is singular within precision."""
    n = c.dim
    field = c.field
    if cap is None:
        prec = c.values[p].min_precision()
        cap = prec + max(32, prec)
    cols = [v]
    for _ in range(n - 1):
        cols.append(_apply_sigma(c, p, cols[-1], cap))
    basis = SeriesMatrix(field, [[cols[j][i] for j in range(n)] for i in range(n)])
    if basis.determinant().is_zero():
        return None
    inv = basis.invert()
    sigma_n = _apply_sigma(c, p, cols[-1], cap)
    h = inv.mul_vector(sigma_n)
    return CyclicData(v, GaugeTransform(basis, inv), CompanionData(h, p))


def cyclic_vector(c, p, max_trials=32, seed=0, skip_standard=False):
    """Vector v with v, sigma v, ..., sigma^{N-1} v a basis, where sigma acts
    on coordinates by w(t) -> f_p(t) w(t^p); returns the basis change and the
    companion column.

    Cyclicity is generic, so the search tries e_1 and then seeded random
    vectors of small polynomials; failures just retry. skip_standard starts
    directly with the random candidates (used by trivialize retries to land
    on a different basis)."""
    n = c.dim
    field = c.field
    prec = c.values[p].min_precision()
    cap = prec + max(32, prec)
    rng = SplitMix64(seed)

    tried = 0
    for v in _candidate_vectors(c, n, field, cap, max_trials, rng, skip_standard):
        tried += 1
        found = companion_from_vector(c, p, v, cap)
        if found is not None:
            return found
    raise CyclicSearchFailed(
        f"no cyclic vector after {tried} trials; raise the precision or the trials"
    )


def _rescale_exponent(cd, p, ell):
    """alpha = max_j v(h_j)/(p^j - p^N) and the integer p^(N-1) ell alpha.

    SingularWithinPrecision when the companion column vanishes,
    DivisibilityViolated when p^(N-1) ell alpha is not an integer.
    """
    n = len(cd.h)
    ratios = []
    for j, h in enumerate(cd.h):
        if h.is_zero():
            continue
        ratios.append(Fraction(h.valuation_of(), p**j - p**n))
    if not ratios:
        raise SingularWithinPrecision("companion column vanishes within precision")
    alpha = max(ratios)
    shift_base = Fraction(p ** (n - 1) * ell) * alpha
    if shift_base.denominator != 1:
        raise DivisibilityViolated(
            f"exponent p^(N-1)*ell*alpha = {shift_base} is not an integer; "
            f"ell must be divisible by lcm(p-1, ..., p^N-1) = "
            f"{lcm(*[p**k - 1 for k in range(1, n + 1)])}"
        )
    return alpha, int(shift_base)


def rescale_companion(cd, p, ell):
    """Rescale the companion column into k[[t]] with minimal valuation zero.

    New column: h'_j = t^(p^{N-1} (p^N - p^j) ell alpha) * h_j(t^(p^{N-1} ell)),
    alpha = max_j v(h_j)/(p^j - p^N). Requires lcm(p-1, ..., p^N-1) | ell for
    integral exponents; DivisibilityViolated otherwise.
    """
    n = len(cd.h)
    alpha, _ = _rescale_exponent(cd, p, ell)
    sub = p ** (n - 1) * ell
    out = []
    for j, h in enumerate(cd.h):
        e = Fraction(p ** (n - 1) * (p**n - p**j) * ell) * alpha
        if e.denominator != 1:
            raise DivisibilityViolated(
                f"exponent for h_{j} is the non-integer {e}"
            )
        out.append(h.substitute_power(sub).shift(int(e)))
    nonzero_vals = [h.valuation_of() for h in out if not h.is_zero()]
    if min(nonzero_vals) != 0 or any(v < 0 for v in nonzero_vals):
        raise DivisibilityViolated(
            "rescaled column is not integral with minimal valuation 0; "
            "the divisibility precondition is broken"
        )
    return CompanionData(out, cd.p)


def companion_matrix(field, h, prec):
    """Ones on the subdiagonal, the column h on the right."""
    n = len(h)
    zero = LaurentSeries.zero(field, prec)
    one = LaurentSeries.one(field, prec)
    rows = []
    for i in range(n):
        row = [zero] * n
        if i > 0:
            row[i - 1] = one
        row[n - 1] = h[i].truncate(prec)
        rows.append(row)
    return SeriesMatrix(field, rows)


# ---------------------------------------------------------------------------
# step 5: column peeling for upper-triangular cocycles with constant diagonal
# ---------------------------------------------------------------------------


def _assert_upper_triangular_constant_diag(mat):
    n = mat.dim
    for i in range(n):
        for j in range(i):
            if not mat.rows[i][j].is_zero():
                raise PreconditionViolated("matrix is not upper triangular")
        if not mat.rows[i][i].is_constant():
            raise PreconditionViolated("diagonal entries are not constant")


def _peel_constant_diag(c, target_prec):
    """Gauge and constant values for an upper-triangular cocycle with constant
    diagonal, by last-column peeling. Returns (gauge, {p: ConstantMatrix})."""
    n = c.dim
    field = c.field
    gens = c.semigroup.generators
    pair = c.semigroup.coprime_pair()
    if pair is None:
        raise MissingCoprimePair(
            f"{c.semigroup!r} has no coprime pair of generators >= 2"
        )
    for p in gens:
        _assert_upper_triangular_constant_diag(c.values[p])
    if n == 1:
        consts = {p: c.values[p].constant_matrix() for p in gens}
        prec = c.min_precision()
        return GaugeTransform.identity(field, 1, prec), consts

    # make the leading (n-1) x (n-1) block constant first
    top = SemigroupCocycle(
        c.semigroup,
        {
            p: SeriesMatrix(field, _sub_rows(c.values[p].rows, 0, n - 1, 0, n - 1))
            for p in gens
        },
    )
    top_gauge, _ = _peel_constant_diag(top, target_prec)
    prec = _aux_prec(target_prec)
    lift_rows = [list(r) for r in SeriesMatrix.identity(field, n, prec).rows]
    for i in range(n - 1):
        for j in range(n - 1):
            lift_rows[i][j] = top_gauge.matrix.rows[i][j]
    gauge = GaugeTransform(SeriesMatrix(field, lift_rows))
    work = twist(c, gauge)

    ell = min(pair)
    a_ell = ConstantMatrix(
        field,
        [
            [work.values[ell].rows[i][j].constant_term() for j in range(n - 1)]
            for i in range(n - 1)
        ],
    )
    a_ell_inv = a_ell.invert()
    d_ell = work.values[ell].rows[n - 1][n - 1].constant_term()

    # Principal-part cleaning: a pole t^e with ell | e is traded for one at
    # t^(e/ell). The replacement gauges [[1, B],[0, 1]] commute, so simulate
    # the whole cascade on the column alone and twist once at the end; the
    # coefficient updates are additions, which cost no t-adic precision.
    col = [work.values[ell].rows[i][n - 1] for i in range(n - 1)]
    b_total = [LaurentSeries.zero(field, prec) for _ in range(n - 1)]
    guard_limit = 8 * (abs(_column_min_valuation(work, ell, n)) + 4)
    guard = 0
    while True:
        guard += 1
        if guard > guard_limit:
            raise NotExtendable("principal-part cleaning failed to terminate")
        target_e = None
        for s in col:
            if s.is_zero():
                continue
            v = s.valuation_of()
            for e in range(v, min(0, s.prec)):
                if e % ell == 0 and e < 0 and s.coefficient(e):
                    if target_e is None or e < target_e:
                        target_e = e
                    break
        if target_e is None:
            break
        h_vec = [s.coefficient(target_e) for s in col]
        b_vec = [-x for x in a_ell_inv.mul_vector(h_vec)]
        # column update: B_ell += A_ell b t^e - D_ell b t^(e/ell)
        a_b = a_ell.mul_vector(b_vec)
        for i in range(n - 1):
            delta = {}
            if a_b[i]:
                delta[target_e] = a_b[i]
            down = -(b_vec[i] * d_ell)
            if down:
                delta[target_e // ell] = down
            if delta:
                col[i] = col[i] + LaurentSeries.from_terms(field, delta, col[i].prec)
            if b_vec[i]:
                b_total[i] = b_total[i] + LaurentSeries.t_power(
                    field, target_e // ell, b_total[i].prec, b_vec[i]
                )

    # the remaining principal part must vanish for a genuine cocycle
    for i, s in enumerate(col):
        if not s.is_zero() and s.valuation_of() < 0:
            raise NotExtendable(
                f"column entry {i} keeps a pole of order {-s.valuation_of()} "
                f"after cleaning; not a compatible cocycle (or precision too low)"
            )
    if any(not b.is_zero() for b in b_total):
        rows = [list(r) for r in SeriesMatrix.identity(field, n, prec).rows]
        inv_rows = [list(r) for r in SeriesMatrix.identity(field, n, prec).rows]
        for i in range(n - 1):
            rows[i][n - 1] = b_total[i]
            inv_rows[i][n - 1] = -b_total[i]
        g = GaugeTransform(
            SeriesMatrix(field, rows), SeriesMatrix(field, inv_rows)
        )
        work = twist(work, g)
        gauge = gauge.compose(g)
        # cross-check the simulated cascade against the actual twist
        for i in range(n - 1):
            s = work.values[ell].rows[i][n - 1]
            if not s.is_zero() and s.valuation_of() < 0:
                raise NotExtendable(
                    "cleaned column disagrees with the simulated cascade"
                )

    phi = integral_limit_gauge(work.values[ell], ell, target_prec)
    g = GaugeTransform(phi.matrix.invert(), phi.matrix)
    work = twist(work, g)
    gauge = gauge.compose(g)

    consts = {}
    for p in gens:
        m = work.values[p]
        if not m.is_constant():
            raise NotExtendable(
                f"value at generator {p} did not become constant within precision"
            )
        consts[p] = m.constant_matrix()
    return gauge, consts


def _column_min_valuation(c, ell, n):
    vals = [0]
    for i in range(n - 1):
        s = c.values[ell].rows[i][n - 1]
        if not s.is_zero():
            vals.append(s.valuation_of())
    return min(vals)


def upper_triangular_to_constant(c, target_prec=None):
    """Certificate for an upper-triangular cocycle with constant diagonal."""
    target = target_prec or c.min_precision()
    gauge, consts = _peel_constant_diag(c, target)
    rep = ConstantRepresentation(c.semigroup, consts)
    checked = min(
        min(m.min_precision() for m in twist(c, gauge).values.values()), target
    )
    return TrivializationCertificate(gauge, rep, checked)


# ---------------------------------------------------------------------------
# step 6: the full pipeline
# ---------------------------------------------------------------------------


def _pipeline_pair(semigroup, n):
    """Generators (p, ell) with ell >= p >= 2 and lcm(p-1,...,p^n-1) | ell."""
    gens = semigroup.generators
    for p in gens:
        need = lcm(*[p**k - 1 for k in range(1, n + 1)])
        for ell in gens:
            if ell >= p and ell % need == 0:
                return p, ell
    return None


def _normalize_valuation(vec):
    """Shift a vector by a t-power so its minimal valuation is 0.

    Returns (normalized vector, shift) or None for a vector that is zero
    within precision. Keeps substitutions t -> t^q precision-friendly.
    """
    vals = [s.valuation_of() for s in vec if not s.is_zero()]
    if not vals:
        return None
    v = min(vals)
    return [s.shift(-v) for s in vec], v


def _f_independent(field, basis_vectors, candidate):
    """Is candidate outside the k((t))-span of basis_vectors (within precision)?"""
    try:
        _series_pivot_rows(field, basis_vectors + [candidate], len(candidate))
        return True
    except SingularWithinPrecision:
        return False


def _orbit_fspan(c, seed_vector, cap):
    """Valuation-normalized basis of the smallest generator-stable
    k((t))-subspace containing the seed.

    Each representative carries the t-power shift relating it to an honest
    orbit vector: entry (u, a) means t^(-a) u lies in the orbit span of the
    raw seed.
    """
    gens = c.semigroup.generators
    basis = []
    norm0 = _normalize_valuation(seed_vector)
    if norm0 is None:
        raise SingularWithinPrecision("seed vector is zero within precision")
    queue = [(norm0[0], -norm0[1])]
    while queue:
        u, shift = queue.pop(0)
        if not _f_independent(c.field, [b for b, _ in basis], u):
            continue
        basis.append((u, shift))
        if len(basis) == c.dim:
            break
        for q in gens:
            image = _apply_sigma(c, q, u, cap)
            norm = _normalize_valuation(image)
            if norm is None:
                continue
            queue.append((norm[0], q * shift - norm[1]))
    return basis


def _series_pivot_rows(field, columns, dim):
    """Pivot coordinate positions of independent series columns."""
    work = [[columns[j][i] for j in range(len(columns))] for i in range(dim)]
    pivot_rows = []
    col_count = len(columns)
    used = set()
    for col in range(col_count):
        pivot = None
        pivot_val = None
        for r in range(dim):
            if r in used:
                continue
            s = work[r][col]
            if s.is_zero():
                continue
            v = s.valuation_of()
            if pivot is None or v < pivot_val:
                pivot, pivot_val = r, v
        if pivot is None:
            raise SingularWithinPrecision("columns are dependent within precision")
        used.add(pivot)
        pivot_rows.append(pivot)
        inv = work[pivot][col].invert()
        for r in range(dim):
            if r == pivot or work[r][col].is_zero():
                continue
            factor = work[r][col] * inv
            work[r] = [a - factor * b for a, b in zip(work[r], work[pivot])]
    return pivot_rows


def _trivialize_rec(c, target, max_trials, rng, depth, skip_standard=False):
    n = c.dim
    field = c.field
    gens = c.semigroup.generators
    prec = c.min_precision()

    if c.is_constant():
        consts = {p: c.values[p].constant_matrix() for p in gens}
        return GaugeTransform.identity(field, n, prec), consts

    if n == 1:
        _, red = classify_degree_one(c, target)
        if red.trivializing_gauge is None:
            raise NotACocycle(
                f"slope residue {red.exact_slope % 1} is nonzero; the class is "
                "not induced by constants over this semigroup"
            )
        work = twist(c, red.trivializing_gauge)
        consts = {p: work.values[p].constant_matrix() for p in gens}
        return red.trivializing_gauge, consts

    pair = _pipeline_pair(c.semigroup, n)
    if pair is None:
        raise PreconditionViolated(
            f"no generator pair (p, ell) with lcm(p-1, ..., p^{n}-1) dividing ell"
        )
    p, ell = pair

    # companion form for sigma_p, rescaled integral with a unit entry. The
    # rescaled basis is never inverted: it only locates an eigenvector, which
    # is pulled back to the original coordinates by plain products, keeping
    # the t-adic precision of the working cocycle intact.
    cyc = cyclic_vector(c, p, max_trials, rng.next_u64(), skip_standard)
    rescaled = rescale_companion(cyc.companion, p, ell)
    cap = prec + max(32, prec)
    _, alpha_shift = _rescale_exponent(cyc.companion, p, ell)
    elem = p ** (n - 1) * ell
    f_elem = c.value_at(elem)
    v_new = [
        s.shift(alpha_shift)
        for s in f_elem.mul_vector(
            [x.substitute_power(elem).truncate(cap + abs(alpha_shift)) for x in cyc.vector]
        )
    ]
    cols = [v_new]
    for _ in range(n - 1):
        cols.append(_apply_sigma(c, p, cols[-1], cap))
    basis = SeriesMatrix(field, [[cols[j][i] for j in range(n)] for i in range(n)])
    comp_prec = min(min(h.prec for h in rescaled.h), cap)
    comp = companion_matrix(field, rescaled.h, comp_prec)
    # consistency of the rescaled basis with the companion formula, checked
    # multiplicatively (no inversion): f_p(t) P(t^p) = P(t) comp(t)
    lhs = c.values[p] * basis.substitute_power(p).truncate(cap)
    rhs = basis * comp
    if not lhs.agrees_with(rhs):
        raise ContractionViolated(
            "companion form after rescaling disagrees with the exponent formula"
        )

    bform = block_triangularize(comp, p, target, assume_invertible=True)
    m = bform.split_dim
    if m == 0:
        raise ContractionViolated(
            "rescaled companion matrix is nilpotent at 0; rescaling failed"
        )
    eig = eigenvector_in_field(bform.stable_block)
    if eig is None:
        raise FieldExtensionRequired(
            "no eigenvalue in the declared field; characteristic polynomial "
            + _poly_pretty(bform.stable_block.charpoly()),
            charpoly=bform.stable_block.charpoly(),
        )
    _, w_top = eig

    # pull the eigenvector back to the original coordinates
    carrier = basis * bform.gauge.matrix
    w_coords = [
        w_top[i] if i < m else field.zero() for i in range(n)
    ]
    seed = [
        _linear_combination(field, row, w_coords)
        for row in carrier.rows
    ]
    orbit = _orbit_fspan(c, seed, cap)
    s = len(orbit)

    if s == n:
        # the eigenspace orbit spans everything: the raw kernel columns gauge
        # f_p to the scalar lam, and compatibility forces the rest constant
        kernel_cols = [
            [entry.shift(-shift) for entry in u] for u, shift in orbit
        ]
        g_full = GaugeTransform(
            SeriesMatrix(
                field, [[kernel_cols[j][i] for j in range(n)] for i in range(n)]
            )
        )
        c_final = twist(c, g_full)
        consts = {}
        for q in gens:
            if not c_final.values[q].is_constant():
                raise ContractionViolated(
                    "full eigenspace case: values did not become constant"
                )
            consts[q] = c_final.values[q].constant_matrix()
        return g_full, consts

    aux = _aux_prec(target)
    pivot_rows = _series_pivot_rows(field, [u for u, _ in orbit], n)
    columns = [list(u) for u, _ in orbit]
    for i in range(n):
        if i not in pivot_rows and len(columns) < n:
            columns.append(
                [
                    LaurentSeries.one(field, aux)
                    if r == i
                    else LaurentSeries.zero(field, aux)
                    for r in range(n)
                ]
            )
    basis3 = SeriesMatrix(
        field, [[columns[j][i] for j in range(n)] for i in range(n)]
    )
    g3 = GaugeTransform(basis3)
    c3 = twist(c, g3)

    # invariant flag: lower-left block vanishes for every generator
    for q in gens:
        mat = c3.values[q]
        for i in range(s, n):
            for j in range(s):
                if not mat.rows[i][j].is_zero():
                    raise ContractionViolated(
                        "invariant subspace is not preserved within precision"
                    )

    total_gauge = g3

    sub = SemigroupCocycle(
        c.semigroup,
        {q: SeriesMatrix(field, _sub_rows(c3.values[q].rows, 0, s, 0, s)) for q in gens},
    )
    g_sub, _sub_consts = _trivialize_rec(sub, target, max_trials, rng, depth + 1, skip_standard)
    quotient = SemigroupCocycle(
        c.semigroup,
        {q: SeriesMatrix(field, _sub_rows(c3.values[q].rows, s, n, s, n)) for q in gens},
    )
    g_quot, _quot_consts = _trivialize_rec(
        quotient, target, max_trials, rng, depth + 1, skip_standard
    )

    g4_rows = [list(r) for r in SeriesMatrix.identity(field, n, aux).rows]
    for i in range(s):
        for j in range(s):
            g4_rows[i][j] = g_sub.matrix.rows[i][j]
    for i in range(n - s):
        for j in range(n - s):
            g4_rows[s + i][s + j] = g_quot.matrix.rows[i][j]
    g4 = GaugeTransform(SeriesMatrix(field, g4_rows))
    c4 = twist(c3, g4)
    total_gauge = total_gauge.compose(g4)

    for q in gens:
        mat = c4.values[q]
        for i in range(n):
            for j in range(n):
                block_diag = (i < s and j < s) or (i >= s and j >= s)
                if block_diag and not mat.rows[i][j].is_constant():
                    raise ContractionViolated(
                        "diagonal blocks failed to become constant within precision"
                    )

    top_family = [
        ConstantMatrix(
            field,
            [[c4.values[q].rows[i][j].constant_term() for j in range(s)] for i in range(s)],
        )
        for q in gens
    ]
    tri_top = simultaneous_triangularize(top_family)
    bottom_family = [
        ConstantMatrix(
            field,
            [
                [c4.values[q].rows[s + i][s + j].constant_term() for j in range(n - s)]
                for i in range(n - s)
            ],
        )
        for q in gens
    ]
    tri_bottom = simultaneous_triangularize(bottom_family)
    block_rows = [list(r) for r in SeriesMatrix.identity(field, n, aux).rows]
    for i in range(s):
        for j in range(s):
            block_rows[i][j] = LaurentSeries.from_scalar(tri_top.rows[i][j], aux)
    for i in range(n - s):
        for j in range(n - s):
            block_rows[s + i][s + j] = LaurentSeries.from_scalar(
                tri_bottom.rows[i][j], aux
            )
    g5 = GaugeTransform(SeriesMatrix(field, block_rows))
    c5 = twist(c4, g5)
    total_gauge = total_gauge.compose(g5)

    g6, consts = _peel_constant_diag(c5, target)
    total_gauge = total_gauge.compose(g6)
    return total_gauge, consts


def _linear_combination(field, series_row, coeffs):
    acc = None
    for s, coef in zip(series_row, coeffs):
        if not coef:
            continue
        term = s.scale(coef)
        acc = term if acc is None else acc + term
    if acc is None:
        prec = min(s.prec for s in series_row)
        return LaurentSeries.zero(field, prec)
    return acc


def _refine_gauge(c, gauge, rep, target):
    """Extend the gauge's coefficients by the difference equation it solves.

    A trivializing gauge satisfies g(t) M_p = f_p(t) g(t^p); comparing
    coefficients at t^e determines g_e from strictly lower coefficients once
    e is large enough, so a gauge assembled with modest precision can be
    prolonged toward the precision of f_p itself. The prolonged gauge is
    validated by the caller's certificate verification.
    """
    p = min(c.semigroup.generators)
    fp = c.values[p]
    n = c.dim
    field = c.field
    try:
        mp_inv = rep.values[p].invert()
    except SingularWithinPrecision:
        return gauge
    g = gauge.matrix
    K = g.min_precision()
    g_vals = [
        s.valuation_of()
        for row in g.rows
        for s in row
        if not s.is_zero()
    ]
    if not g_vals:
        return gauge
    v_g = min(g_vals)
    f_vals = [
        s.valuation_of()
        for row in fp.rows
        for s in row
        if not s.is_zero()
    ]
    v_f = min(f_vals) if f_vals else 0
    F = fp.min_precision()
    e_max = F - 1 + p * v_g
    new_prec = min(target, e_max + 1)
    if new_prec <= K:
        return gauge
    # recursion is well founded only when the highest needed b stays below e
    if (K - v_f + p - 1) // p >= K:
        return gauge

    def coeff_matrix(mat, e):
        return ConstantMatrix(
            field,
            [[mat.rows[i][j].coefficient(e) for j in range(n)] for i in range(n)],
        )

    coeffs = {e: coeff_matrix(g, e) for e in range(v_g, K)}
    for e in range(K, new_prec):
        acc = None
        b_hi = (e - v_f) // p
        for b in range(v_g, b_hi + 1):
            a = e - p * b
            if a >= F:
                continue
            fa = coeff_matrix(fp, a)
            if fa.is_zero():
                continue
            gb = coeffs.get(b)
            if gb is None or gb.is_zero():
                continue
            term = fa * gb
            acc = term if acc is None else acc + term
        if acc is None:
            coeffs[e] = ConstantMatrix(
                field, [[field.zero()] * n for _ in range(n)]
            )
        else:
            coeffs[e] = acc * mp_inv
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {
                e: coeffs[e].rows[i][j]
                for e in range(v_g, new_prec)
                if coeffs[e].rows[i][j]
            }
            row.append(LaurentSeries.from_terms(field, terms, new_prec))
        rows.append(row)
    return GaugeTransform(SeriesMatrix(field, rows))


def trivialize(c, target_prec=None, max_trials=32, seed=0):
    """Full trivialization: gauge certificate and constant representation.

    Preconditions: the semigroup has generators p <= ell with
    lcm(p-1, ..., p^N-1) | ell and a coprime pair >= 2. The certificate is
    verified before it is returned.
    """
    target = target_prec or c.min_precision()
    if c.semigroup.coprime_pair() is None:
        raise MissingCoprimePair(
            f"{c.semigroup!r} has no coprime generator pair >= 2"
        )
    if _pipeline_pair(c.semigroup, c.dim) is None:
        raise PreconditionViolated(
            f"{c.semigroup!r} has no generator pair (p, ell) with "
            f"lcm(p-1, ..., p^{c.dim}-1) dividing ell"
        )
    last_exc = None
    for attempt in range(3):
        rng = SplitMix64(seed + attempt * 0x9E3779B97F4A7C15)
        try:
            gauge, consts = _trivialize_rec(
                c, target, max_trials, rng, 0, skip_standard=attempt > 0
            )
            rep = ConstantRepresentation(c.semigroup, consts)
            gauge = _refine_gauge(c, gauge, rep, target)
            ginv = gauge.inverse_matrix()
            checked = target
            for p in c.semigroup.generators:
                transported = ginv * c.values[p] * gauge.matrix.substitute_power(p)
                checked = min(checked, transported.min_precision())
            if checked <= 0:
                raise ContractionViolated(
                    "no positive precision survived the gauge composition; "
                    "raise the input precision"
                )
            cert = TrivializationCertificate(gauge, rep, checked)
            report = verify_certificate(c, cert)
            if not report.ok:
                raise ContractionViolated(
                    "internal error: assembled certificate failed verification"
                )
            return cert
        except (ContractionViolated, SingularWithinPrecision, CyclicSearchFailed) as exc:
            # a different cyclic vector usually gives a tamer valuation
            # profile; retry with fresh randomness
            last_exc = exc
    raise last_exc

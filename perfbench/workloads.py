"""The benchmark's workloads: seeded inputs, the timed job, the recipient's
verification step and the exact output check.

A workload is a sequence of rounds. Each round is a fixed list of strata
(dimension, field, stage, ...) with fresh inputs drawn from the workload's
seeded generator, so every round has the same mix whatever the seed. All
inputs of a round are generated before any of its jobs is timed, and the
library receives only those inputs.

Library functions are always reached through their module (`localsolve.trivialize`,
not a local binding), so the tracer's wrappers see every call.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from semilaurent import cocycles, corpus, jsonio, localsolve, pgl
from semilaurent.cocycles import Semigroup
from semilaurent.errors import (
    ContractionViolated,
    CyclicSearchFailed,
    DivisionByZero,
    SingularWithinPrecision,
    SubstitutionPole,
)
from semilaurent.matrices import ConstantMatrix, SeriesMatrix
from semilaurent.ratfunc import MultiPoly, RationalFunction
from semilaurent.rng import SplitMix64
from semilaurent.scalars import FieldDescriptor

Q = FieldDescriptor.rationals()
Z4 = FieldDescriptor.cyclotomic(4)
PRECISION = 64


class CheckFailed(Exception):
    """A job returned, but its output is wrong."""


@dataclass
class Job:
    stratum: str
    run: Callable[[], object]
    #: The independent check a recipient of the output pays, timed on its own;
    #: None where the verdict itself is the whole output.
    verify: Callable[[object], object] | None
    #: Exact output check (untimed). Raises CheckFailed; returns the t-adic
    #: precision lost against PRECISION, or None where precision is not a notion.
    check: Callable[[object, object], int | None]
    #: Canonical text of the output, compared across repetitions of the job.
    fingerprint: Callable[[object], str]
    #: Bytes of JSON text the job and its verify step hand to the decoders.
    decoded_bytes: Callable[[object], int] = lambda out: 0
    #: Exceptions by which the library documents that it declines an input.
    refusals: tuple = ()
    #: After a refusal, builds the same job on its input at twice the
    #: precision, as the library's refusal messages advise; None where no
    #: further raise is made. A job refused with no raise left is counted as
    #: failed and refused, not as a wrong output.
    raise_precision: Callable[[], "Job"] | None = None


@dataclass
class Workload:
    make_round: Callable[[SplitMix64, int, bool], list]
    #: The timed loop never stops before this many rounds; the traced run and
    #: prec_lost_mean use exactly this many, so their counts repeat per seed.
    min_rounds: int
    #: Tail percentile; min_rounds * jobs per round leaves >= 10 samples beyond it.
    tail_pct: int


def _require(cond, text):
    if not cond:
        raise CheckFailed(text)


# -- roundtrip -----------------------------------------------------------------

ROUND_TRIP_PLAN = (
    (1, (2, 3)),
    (2, (2, 3)),
    (3, (2, 21)),  # lcm(1, 3, 7) = 21 divides 21
)


#: A declined round-trip case is retried at 2x and then 4x PRECISION.
MAX_PRECISION = 4 * PRECISION


def _roundtrip_job(dim, gens, case_seed, prec=PRECISION):
    semigroup = Semigroup(gens)
    rep, _, cocycle = corpus.round_trip_case(semigroup, Q, dim, case_seed, prec)
    blob = jsonio.canonical_dumps(jsonio.encode_cocycle(cocycle))

    def run():
        c = jsonio.decode_cocycle(json.loads(blob))
        cert = localsolve.trivialize(c, target_prec=prec, seed=case_seed)
        return jsonio.canonical_dumps(jsonio.encode_certificate(cert))

    def verify(out):
        c = jsonio.decode_cocycle(json.loads(blob))
        cert = jsonio.decode_certificate(json.loads(out), c.semigroup)
        return cert, cocycles.verify_certificate(c, cert)

    def check(out, verified):
        cert, report = verified
        _require(report.ok, "independent verify_certificate is not ok")
        _require(
            [g.p for g in report.generators] == list(semigroup.generators),
            "report does not cover every generator",
        )
        for g in report.generators:
            _require(g.checked_to >= 1, f"vacuous check at p={g.p}: checked_to {g.checked_to}")
        for p in semigroup.generators:
            _require(
                cert.constant.values[p].charpoly() == rep.values[p].charpoly(),
                f"charpoly of M_{p} differs from the generated representation",
            )
        return prec - cert.checked_precision

    return Job(
        f"N{dim}", run, verify, check, fingerprint=lambda out: out,
        # the job decodes the cocycle; the verify step decodes it and the certificate
        decoded_bytes=lambda out: 2 * len(blob) + len(out),
        # trivialize retries these twice, then re-raises: the precision or
        # the cyclic-vector search ran out, and each message says to raise
        # the precision
        refusals=(ContractionViolated, SingularWithinPrecision, CyclicSearchFailed),
        raise_precision=(
            (lambda: _roundtrip_job(dim, gens, case_seed, 2 * prec))
            if prec < MAX_PRECISION else None),
    )


def roundtrip_round(rng, index, tiny=False):
    plan = ROUND_TRIP_PLAN[:2] if tiny else ROUND_TRIP_PLAN
    jobs = []
    for dim, gens in plan:
        # round_trip_case picks the diagonal or unipotent family by parity;
        # alternate it by round as the acceptance corpus does
        case_seed = ((rng.next_u64() >> 2) << 1) | (index % 2)
        jobs.append(_roundtrip_job(dim, gens, case_seed))
    return jobs


# -- stages_dense ----------------------------------------------------------------

_BIG = 8 * PRECISION  # precision of exact constants, never caps a product


def _limit_job(field, f, p):
    def run():
        return localsolve.integral_limit_gauge(f, p, PRECISION)

    def verify(phi):
        # Phi(t) f(t) = f(0) Phi(t^p), which is the limit identity without
        # inverting Phi(t^p)
        lhs = phi.matrix * f
        rhs = SeriesMatrix.from_constant(f.constant_matrix(), _BIG) * phi.matrix.substitute_power(p)
        return lhs - rhs

    def check(phi, diff):
        _require(diff.truncate(PRECISION).is_zero(), "limit identity violated")
        return max(0, PRECISION - diff.min_precision())

    return Job(
        f"limit.N{f.dim}.p{p}.{_field_tag(field)}", run, verify, check,
        fingerprint=lambda phi: jsonio.canonical_dumps(jsonio.encode_series_matrix(phi.matrix)),
    )


def _triangular_job(field, f):
    def run():
        return localsolve.block_triangularize(f, 2, PRECISION)

    def verify(bf):
        # f(t) g(t^2) = g(t) T(t): the transport identity without inverting g
        return f * bf.gauge.matrix.substitute_power(2) - bf.gauge.matrix * bf.triangular

    def check(bf, diff):
        n, m, tri = f.dim, bf.split_dim, bf.triangular
        _require(diff.is_zero(), "gauge does not transport f to the triangular form")
        _require(diff.min_precision() >= 1, "transport identity checked to no precision")
        for i in range(m, n):
            for j in range(m):
                _require(tri.rows[i][j].is_zero(), "lower-left block is not zero")
        if m:
            _require(bool(bf.stable_block.determinant()), "stable block is singular")
            for i in range(m):
                for j in range(m):
                    _require(tri.rows[i][j].is_constant(), "stable block is not constant")
        if m < n:
            lower = ConstantMatrix(
                field,
                [[tri.rows[m + i][m + j].constant_term() for j in range(n - m)]
                 for i in range(n - m)],
            )
            _require(lower.is_nilpotent(), "lower-right block is not nilpotent mod t")
        return max(0, PRECISION - diff.min_precision())

    return Job(
        f"triangular.N{f.dim}.{_field_tag(field)}", run, verify, check,
        fingerprint=lambda bf: f"{bf.split_dim}:" + jsonio.canonical_dumps(
            jsonio.encode_series_matrix(bf.gauge.matrix)),
    )


def _field_tag(field):
    return "q" if field == Q else "zeta4"


def _singular_at_zero(field, dim, rng):
    """Random integral matrix whose f(0) has a stable part of dimension
    dim - 1. The triangularization's cost follows that dimension: a smaller
    stable part halves the time of an N=4 job."""
    while True:
        f = corpus.random_integral_matrix(field, dim, rng, PRECISION, invertible_at_zero=False)
        if f.constant_matrix().power(dim).rank() == dim - 1:
            return f


def stages_dense_round(rng, index, tiny=False):
    """Per field: N=2 twice, N=3 four times, N=4 once over; each a limit
    gauge for p in {2, 3, 5} and one triangularization with l=2. 56 jobs,
    half over Q and half over Q(zeta_4); one N=4 triangularization over
    Q(zeta_4) alone takes 6 s."""
    plan = ((2, 1),) if tiny else ((2, 2), (3, 4), (4, 1))
    jobs = []
    for field in (Q, Z4):
        for dim, copies in plan:
            for _ in range(copies):
                for p in (2, 3, 5):
                    f = corpus.random_integral_matrix(field, dim, rng, PRECISION)
                    jobs.append(_limit_job(field, f, p))
                jobs.append(_triangular_job(field, _singular_at_zero(field, dim, rng)))
    return jobs


# -- projective --------------------------------------------------------------------


def dense_transform(n, rng, den_terms, bound=3):
    """Projective transform whose entries are all nonzero except the first
    n + 1 - den_terms entries of the last column, so its denominator form
    w_A has exactly den_terms terms.

    The cost of a chain-rule check depends on the zero pattern, not on the
    values: random patterns spread one n=3 pair from 6 ms to 3 s, while a
    fixed pattern keeps it within a few percent.
    """
    while True:
        rows = [[rng.nonzero_int(bound) for _ in range(n + 1)] for _ in range(n + 1)]
        for i in range(n + 1 - den_terms):
            rows[i][n] = 0
        mat = ConstantMatrix.from_int_rows(Q, rows)
        if mat.determinant():
            return pgl.ProjectiveTransform(mat)


def _random_point(n, rng):
    return [
        RationalFunction.constant(Q, n, Fraction(rng.nonzero_int(9), rng.randint(1, 5)))
        for _ in range(n)
    ]


def _chain_rule_at(a, b, cls, point):
    """f_AB(x) == f_A(x) f_B(A x) at one rational point, by evaluation rather
    than by expanding the rational functions; None when x or A x is a pole."""
    value = pgl.degree_one_cocycle_value
    try:
        ax = [im.substitute(point) for im in a.images()]
        lhs = value(a.compose(b), cls).substitute(point).constant_value()
        rhs = (
            value(a, cls).substitute(point).constant_value()
            * value(b, cls).substitute(ax).constant_value()
        )
    except (SubstitutionPole, DivisionByZero):
        return None
    return lhs == rhs


def _pair_verdicts_at(transforms, cls, n, rng, points=3):
    """Evaluated verdict of every ordered pair at up to `points` rational
    points that are not poles."""
    verdicts = []
    for a in transforms:
        for b in transforms:
            found = 0
            for _ in range(4 * points):
                v = _chain_rule_at(a, b, cls, _random_point(n, rng))
                if v is not None:
                    verdicts.append(v)
                    found += 1
                    if found == points:
                        break
    return verdicts


def _chain_rule_job(n, den_terms, rng):
    a = dense_transform(n, rng, den_terms)
    b = dense_transform(n, rng, den_terms)
    cls = pgl.PGLDegreeOneClass.canonical(n, n + 1)
    point_seed = rng.next_u64()

    def run():
        return pgl.verify_chain_rule([a, b], cls)

    def verify(report):
        return _pair_verdicts_at([a, b], cls, n, SplitMix64(point_seed), points=1)

    def check(report, verdicts):
        _require(report.ok and report.pairs_checked == 4, "canonical class failed the chain rule")
        _require(len(verdicts) == 4 and all(verdicts), "chain rule fails at a rational point")

    return Job(
        f"chain.n{n}", run, verify, check,
        fingerprint=lambda r: jsonio.canonical_dumps(r.as_dict()),
    )


def _witness_job(rng):
    cls = pgl.PGLDegreeOneClass(1)
    search_seed = rng.next_u64()
    point_seed = rng.next_u64()

    def run():
        return pgl.find_chain_rule_witness(cls, 2, Q, SplitMix64(search_seed))

    def verify(pair):
        if pair is None:
            return []
        return _pair_verdicts_at(list(pair), cls, 2, SplitMix64(point_seed))

    def check(pair, verdicts):
        _require(pair is not None, "no failing pair found for m=1, where no lift exists")
        _require(not all(verdicts), "the m=1 witness passes at every rational point")

    return Job(
        "witness.n2.m1", run, verify, check,
        fingerprint=lambda pair: repr(pair),
    )


def _report_job(stratum, run, expect):
    def check(report, _):
        _require(expect(report), f"unexpected {stratum} verdict: {report.as_dict()}")

    return Job(
        stratum, run, verify=None, check=check,
        fingerprint=lambda r: jsonio.canonical_dumps(r.as_dict()),
    )


def _h_jobs(rng):
    x = RationalFunction.variable(Q, 1, 0)
    zero = RationalFunction.constant(Q, 1, 0)
    one = RationalFunction.constant(Q, 1, 1)
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    diag = [[x**a, zero], [zero, x ** (-b)]]
    c = RationalFunction.from_poly(MultiPoly.constant(Q, 1, Q.scalar(rng.nonzero_int(3))))
    shear = [[one, c * (x - one)], [zero, one]]

    def flags(r):
        return (r.multiplicative, r.composite, r.inversion)

    return [
        # a diagonal cocharacter satisfies all three identities
        _report_job("h.cocharacter", lambda: pgl.h_functional_equation_check(diag),
                    lambda r: flags(r) == (True, True, True)),
        # c(x - 1) is additive in x, so all three fail
        _report_job("h.shear", lambda: pgl.h_functional_equation_check(shear),
                    lambda r: flags(r) == (False, False, False)),
    ]


def projective_round(rng, index, tiny=False):
    """Two n=2 chain-rule pairs (full denominator form), one n=3 pair (three
    denominator terms), the n=2, m=1 witness search, the Cremona identities
    for n=2 and 3, the omega class for n=1 and 2, and two h-equation checks."""
    jobs = [_chain_rule_job(2, 3, rng), _chain_rule_job(2, 3, rng)]
    if not tiny:
        jobs.append(_chain_rule_job(3, 3, rng))
    jobs.append(_witness_job(rng))
    for n in (2, 3):
        jobs.append(_report_job(
            f"cremona.n{n}", lambda n=n: pgl.cremona_identities(Q, n),
            lambda r: r.ok and len(r.identities) == 5 and all(ok for _, ok in r.identities)))
    for n in (1, 2):
        jobs.append(_report_job(
            f"omega.n{n}", lambda n=n: pgl.omega_class_check(Q, n),
            lambda r: r.ok and all(s.det_exponent == 1 for s in r.samples)))
    jobs.extend(_h_jobs(rng))
    return jobs


WORKLOADS = {
    "roundtrip": Workload(roundtrip_round, min_rounds=25, tail_pct=86),
    "stages_dense": Workload(stages_dense_round, min_rounds=1, tail_pct=82),
    "projective": Workload(projective_round, min_rounds=20, tail_pct=95),
}

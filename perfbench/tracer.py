"""Per-layer tracing from outside the library, and the layer probes.

`install` wraps each layer's public functions and methods in place and
returns a function that restores them. Module-level functions are also
replaced under every name any `semilaurent` module bound them to at import
time (`localsolve` imports `twist` and `verify_certificate`, `cli` imports
most of the API), so no call escapes the wrapper.

A span records its duration and its self time: the duration minus the time
its child spans cover. Spans are aggregated per (job, name); the job id is
the index of the job in the run, so every span of one job shares it.
"""

import sys
import time
from collections import defaultdict

from semilaurent import cocycles, jsonio, localsolve, pgl, ratfunc
from semilaurent.matrices import SeriesMatrix
from semilaurent.ratfunc import MultiPoly, RationalFunction
from semilaurent.scalars import Scalar
from semilaurent.series import LaurentSeries

#: (metric name, owner, attribute). One name may cover several functions.
SPANS = (
    ("series.mul", LaurentSeries, "__mul__"),
    ("series.invert", LaurentSeries, "invert"),
    ("series.substitute_power", LaurentSeries, "substitute_power"),
    ("matrices.mul", SeriesMatrix, "__mul__"),
    ("matrices.invert", SeriesMatrix, "invert"),
    ("matrices.determinant", SeriesMatrix, "determinant"),
    ("cocycles.twist", cocycles, "twist"),
    ("cocycles.verify_certificate", cocycles, "verify_certificate"),
    ("localsolve.trivialize", localsolve, "trivialize"),
    ("localsolve.cyclic_vector", localsolve, "cyclic_vector"),
    ("localsolve.rescale_companion", localsolve, "rescale_companion"),
    ("localsolve.block_triangularize", localsolve, "block_triangularize"),
    ("localsolve.integral_limit_gauge", localsolve, "integral_limit_gauge"),
    ("localsolve.classify_degree_one", localsolve, "classify_degree_one"),
    ("localsolve.peel", localsolve, "_peel_constant_diag"),
    ("localsolve.refine_gauge", localsolve, "_refine_gauge"),
    ("ratfunc.mul", MultiPoly, "__mul__"),
    ("ratfunc.cancel", ratfunc, "_cancel"),
    ("ratfunc.substitute", RationalFunction, "substitute"),
    ("pgl.verify_chain_rule", pgl, "verify_chain_rule"),
    ("pgl.degree_one_cocycle_value", pgl, "degree_one_cocycle_value"),
    ("pgl.transform_action", pgl, "transform_action"),
    ("pgl.cremona_identities", pgl, "cremona_identities"),
    ("jsonio.encode", jsonio, "encode_certificate"),
    ("jsonio.encode", jsonio, "canonical_dumps"),
    ("jsonio.decode", jsonio, "decode_cocycle"),
    ("jsonio.decode", jsonio, "decode_certificate"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

#: Count-only wrappers: these run tens of millions of times per job.
SCALAR_OPS = ("__add__", "__radd__", "__mul__", "__rmul__", "inverse")

#: trivialize retries an attempt after these; anything else ends the job.
RETRY_EXCEPTIONS = ("ContractionViolated", "SingularWithinPrecision", "CyclicSearchFailed")


def _series_products(args, result):
    """Coefficient products convolve_trunc performs for a * b."""
    a, b = args
    if a.is_zero() or b.is_zero():
        return 0
    out_len = min(a.prec + b.valuation, b.prec + a.valuation) - a.valuation - b.valuation
    nonzero_prefix = [0]
    for c in b.coeffs:
        nonzero_prefix.append(nonzero_prefix[-1] + bool(c))
    lb = len(b.coeffs)
    return sum(
        nonzero_prefix[min(lb, out_len - i)]
        for i, c in enumerate(a.coeffs[: max(0, out_len)])
        if c
    )


def _term_products(args, result):
    a, b = args
    return len(a.terms) * len(b.terms)


def _encoded_bytes(args, result):
    return len(result) if isinstance(result, str) else 0


#: Extra counters computed at a span: (span name, attribute) -> (counter, function).
WEIGHTS = {
    ("series.mul", "__mul__"): ("series.mul.coeff_products", _series_products),
    ("ratfunc.mul", "__mul__"): ("ratfunc.mul.term_products", _term_products),
    ("jsonio.encode", "canonical_dumps"): ("jsonio.encode.bytes", _encoded_bytes),
}


TRIVIALIZE = "localsolve.trivialize"
ATTEMPT = "localsolve.attempt"  # depth-0 _trivialize_rec: one attempt of trivialize


class Tracer:
    def __init__(self):
        #: Wrappers pass straight through while this is False (output checks).
        self.active = False
        self.job = 0
        self._open = []  # [child time, name] of each open span, innermost last
        self.spans = defaultdict(lambda: [0, 0.0])  # (job, name) -> [calls, self_s]
        self.counts = defaultdict(int)
        self.scalar_ops = [0]
        #: per job: attempts of trivialize, and the exceptions that ended one
        self.attempts = defaultdict(int)
        self.attempt_errors = defaultdict(list)

    def _timed(self, name, fn, args, kwargs):
        """Run fn as span `name`. An exception escaping a direct child of
        trivialize ends that attempt; it is recorded before it propagates."""
        frame = [0.0, name]
        open_spans = self._open
        open_spans.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if len(open_spans) > 1 and open_spans[-2][1] == TRIVIALIZE:
                self.attempt_errors[self.job].append(type(exc).__name__)
            raise
        finally:
            duration = time.perf_counter() - t0
            open_spans.pop()
            # an attempt's own time is trivialize's self time
            record = self.spans[(self.job, TRIVIALIZE if name == ATTEMPT else name)]
            record[0] += name != ATTEMPT
            record[1] += duration - frame[0]
            if open_spans:
                open_spans[-1][0] += duration

    def span(self, name, fn, weigh=None):
        tracer = self
        counter, weight = weigh or (None, None)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer._timed(name, fn, args, kwargs)
            if counter:
                tracer.counts[counter] += weight(args, result)
            return result

        return wrapper

    def count_only(self, fn):
        tracer = self
        cell = self.scalar_ops

        def wrapper(*args):
            if tracer.active:
                cell[0] += 1
            return fn(*args)

        return wrapper

    def attempt_counter(self, fn):
        """_trivialize_rec at depth 0 starts one attempt of trivialize."""
        tracer = self

        def wrapper(*args, **kwargs):
            depth = kwargs.get("depth", args[4] if len(args) > 4 else None)
            if not tracer.active or depth:
                return fn(*args, **kwargs)
            tracer.attempts[tracer.job] += 1
            return tracer._timed(ATTEMPT, fn, args, kwargs)

        return wrapper

    def totals(self):
        """name -> [calls, self_s] summed over jobs."""
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (_, name), (calls, self_s) in self.spans.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def retries(self, succeeded):
        """Exceptions that ended a failed attempt, by name. `succeeded` maps a
        job to its successful trivialize calls. A failed attempt with no
        recorded exception failed in trivialize's own precision or
        certificate check, both of which raise ContractionViolated."""
        out = dict.fromkeys(RETRY_EXCEPTIONS, 0)
        for job, attempts in self.attempts.items():
            errors = self.attempt_errors.get(job, [])
            for name in errors:
                out[name] = out.get(name, 0) + 1
            failed = attempts - succeeded.get(job, 0)
            out["ContractionViolated"] += max(0, failed - len(errors))
        return out


def _rebind(original, replacement):
    """Replace every module-level binding of `original` in semilaurent."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("semilaurent") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def install(tracer):
    """Wrap every traced layer; returns a function that undoes it."""
    undo = []

    def patch(owner, attr, wrapper):
        original = vars(owner)[attr]
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
        else:
            undo.extend(_rebind(original, wrapper))

    for name, owner, attr in SPANS:
        original = vars(owner)[attr]
        patch(owner, attr, tracer.span(name, original, WEIGHTS.get((name, attr))))
    for attr in SCALAR_OPS:
        patch(Scalar, attr, tracer.count_only(vars(Scalar)[attr]))
    patch(localsolve, "_trivialize_rec",
          tracer.attempt_counter(localsolve._trivialize_rec))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- probes: one layer timed alone, with the wrappers removed ---------------------


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def probe_scalars(q_field, z4_field, loops=20000, reps=5):
    """ns per Scalar add, mul and inverse over Q and Q(zeta_4)."""
    out = {}
    zeta = z4_field.zeta()
    operands = {
        "q": (q_field.scalar(355, 113), q_field.scalar(-22, 7)),
        "zeta4": (z4_field.scalar(3, 2) + zeta * z4_field.scalar(-5, 7),
                  z4_field.scalar(-2, 3) + zeta * z4_field.scalar(1, 4)),
    }
    for tag, (a, b) in operands.items():
        def add():
            for _ in range(loops):
                a + b

        def mul():
            for _ in range(loops):
                a * b

        def inverse():
            for _ in range(loops):
                a.inverse()

        for op, fn in (("add", add), ("mul", mul), ("inverse", inverse)):
            out[f"scalars.{op}_ns.{tag}"] = _median_time(fn, reps) / loops * 1e9
    return out


def probe_series(field, rng, tiny=False):
    """ms per dense LaurentSeries multiply and invert at 64, 256, 1024 terms
    (a tiny run times 8 terms under each name)."""
    out = {}
    for n, reps in ((64, 5), (256, 3), (1024, 1)):
        size = 8 if tiny else n
        def dense():
            return LaurentSeries(field, 0, [
                field.scalar(rng.nonzero_int(9), rng.randint(1, 4)) for _ in range(size)
            ], size)

        a, b = dense(), dense()
        out[f"series.mul_ms.n{n}"] = _median_time(lambda: a * b, reps) * 1e3
        out[f"series.invert_ms.n{n}"] = _median_time(a.invert, reps) * 1e3
    return out


def probe_matrices(field, rng, random_integral_matrix, precision):
    """ms per SeriesMatrix invert for N = 2, 3, 4."""
    out = {}
    for n in (2, 3, 4):
        m = random_integral_matrix(field, n, rng, precision)
        out[f"matrices.invert_ms.N{n}"] = _median_time(m.invert, 3) * 1e3
    return out

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; the library is imported from
the checkout's src/. One caller drives the library in a closed loop: the next
job starts when the previous one returns. Rounds of jobs (see workloads.py)
run until at least --seconds of job time has passed, and never fewer than
the workload's min_rounds. Every output is checked exactly, outside the
timed region.

--trace 0 prints the end-to-end metrics. --trace 1 runs min_rounds rounds
untraced and then the same rounds with the per-layer wrappers installed, so
its counts repeat exactly for a seed, then times each layer alone; it prints
the per-layer metrics and trace.overhead_ratio.

The report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. --out FILE also
writes the full record, environment stamp included, for compare.py.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The first jobs of round 0 are run again after the loop; their outputs must
#: be byte-identical.
REPEATS = 3

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import semilaurent.cli; "
    "from semilaurent.scalars import FieldDescriptor; "
    "FieldDescriptor.rationals(); FieldDescriptor.cyclotomic(4)"
)

#: Stamp fields that must agree before two runs may be compared.
COMPARABLE = ("python", "implementation", "backend", "nproc")


@dataclass
class Run:
    attempted: int = 0
    #: jobs that did not return a checked output: refused + wrong
    failed: int = 0
    #: jobs the library declined with one of the job's documented refusals
    refused: int = 0
    #: refusals after which the job was run again on a more precise input
    precision_raised: int = 0
    #: unexpected exceptions, failed output checks and unrepeatable outputs
    wrong: int = 0
    rounds: int = 0
    busy: float = 0.0  # summed time of every attempted job
    by_stratum: dict = field(default_factory=dict)  # latencies of completed jobs
    verify_by_stratum: dict = field(default_factory=dict)
    precision_lost: list = field(default_factory=list)
    completed: set = field(default_factory=set)
    decoded_bytes: int = 0
    first_outputs: list = field(default_factory=list)

    @property
    def latencies(self):
        return [x for v in self.by_stratum.values() for x in v]

    @property
    def verify_times(self):
        return [x for v in self.verify_by_stratum.values() for x in v]


def _fail(run, job, text):
    run.failed += 1
    run.wrong += 1
    print(f"FAIL {job.stratum}: {text}", file=sys.stderr)


def run_job(job, run, tracer=None, precision_counts=True):
    """Time one job, raising its input precision after each refusal while the
    job allows it; the latency is the time of every attempt."""
    from workloads import PRECISION, CheckFailed

    job_id = run.attempted
    run.attempted += 1
    verified = None
    declined = 0.0  # time of the refused attempts
    while True:
        if tracer:
            tracer.job = job_id
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = job.run()
            t1 = time.perf_counter()
            if job.verify:
                verified = job.verify(out)
            t2 = time.perf_counter()
            break
        except job.refusals as exc:
            declined += time.perf_counter() - t0
            refusal = f"{job.stratum}: {type(exc).__name__}: {exc}"
        except Exception:  # a library failure is a counted result, not the end of the run
            run.busy += declined + time.perf_counter() - t0
            _fail(run, job, traceback.format_exc(limit=3))
            return None
        finally:
            if tracer:
                tracer.active = False
        if job.raise_precision is None:
            run.busy += declined
            run.failed += 1
            run.refused += 1
            if precision_counts:
                run.precision_lost.append(PRECISION)  # nothing was certified
            print(f"REFUSED {refusal}", file=sys.stderr)
            return None
        job = job.raise_precision()  # builds the new input untimed
        run.precision_raised += 1
        print(f"RAISED PRECISION {refusal}", file=sys.stderr)
    latency = declined + t1 - t0
    run.busy += latency
    run.by_stratum.setdefault(job.stratum, []).append(latency)
    if job.verify:
        run.verify_by_stratum.setdefault(job.stratum, []).append(t2 - t1)
    run.decoded_bytes += job.decoded_bytes(out)
    try:
        lost = job.check(out, verified)
    except CheckFailed as exc:
        _fail(run, job, str(exc))
        return None
    except Exception:
        _fail(run, job, "output check raised: " + traceback.format_exc(limit=3))
        return None
    run.completed.add(job_id)
    if lost is not None and precision_counts:
        run.precision_lost.append(lost)
    return out


def drive(workload, seed, seconds=None, rounds=None, tracer=None, tiny=False):
    """Closed loop over whole rounds. With `rounds` run exactly that many;
    otherwise run until `seconds` of job time and at least min_rounds."""
    from semilaurent.rng import SplitMix64

    rng = SplitMix64(seed)
    run = Run()
    while True:
        if rounds is not None:
            if run.rounds >= rounds:
                break
        elif run.rounds >= workload.min_rounds and run.busy >= seconds:
            break
        counted = run.rounds < workload.min_rounds
        for job in workload.make_round(rng, run.rounds, tiny):
            out = run_job(job, run, tracer, precision_counts=counted)
            if run.rounds == 0 and len(run.first_outputs) < REPEATS and out is not None:
                run.first_outputs.append(job.fingerprint(out))
        run.rounds += 1
    return run


def check_repeats(workload, seed, run, tiny=False):
    """Re-run the first jobs of round 0; count each whose output bytes differ."""
    from semilaurent.rng import SplitMix64

    jobs = workload.make_round(SplitMix64(seed), 0, tiny)[: len(run.first_outputs)]
    for job, expected in zip(jobs, run.first_outputs):
        again = Run()
        out = run_job(job, again)
        if out is None or job.fingerprint(out) != expected:
            _fail(run, job, "output differs when the job is repeated")


def percentile(values, pct):
    """Percentile interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def stratum_p50(by_stratum):
    """Median latency of each stratum, combined by geometric mean.

    A round mixes strata whose costs differ tenfold, so the pooled median
    falls in the gap between their clusters and jumps with the seed; each
    stratum's own median does not."""
    logs = [math.log(statistics.median(v)) for v in by_stratum.values()]
    return math.exp(statistics.fmean(logs))


def measure_setup(reps=7):
    """Median wall time of a fresh interpreter importing the library (CLI
    included) and building the fields the workloads use."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE]
    subprocess.run(cmd, cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(workload, run, setup_s):
    latencies = run.latencies
    return {
        "jobs_per_s": len(latencies) / run.busy if run.busy else 0.0,
        "job_p50_ms": stratum_p50(run.by_stratum) * 1e3 if latencies else 0.0,
        "job_tail_ms": percentile(latencies, workload.tail_pct) * 1e3 if latencies else 0.0,
        "verify_p50_ms": stratum_p50(run.verify_by_stratum) * 1e3 if run.verify_by_stratum else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(workload, seed, tiny=False):
    """Untraced and traced passes over the same rounds, then the probes."""
    import tracer as tr
    from semilaurent.corpus import random_integral_matrix
    from semilaurent.rng import SplitMix64
    from workloads import PRECISION, Q, Z4

    rounds = 1 if tiny else workload.min_rounds
    plain = drive(workload, seed, rounds=rounds, tiny=tiny)
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        traced = drive(workload, seed, rounds=rounds, tracer=tracer, tiny=tiny)
    finally:
        uninstall()

    out = {"scalars.ops": tracer.scalar_ops[0]}
    totals = tracer.totals()
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in ("series.mul.coeff_products", "ratfunc.mul.term_products", "jsonio.encode.bytes"):
        out[name] = tracer.counts[name]
    out["jsonio.decode.bytes"] = traced.decoded_bytes
    trivializations = totals["localsolve.trivialize"][0]
    attempts = sum(tracer.attempts.values())
    out["localsolve.attempts_per_job"] = attempts / trivializations if trivializations else 0.0
    succeeded = {job: 1 for job in traced.completed if tracer.attempts.get(job)}
    for name, count in tracer.retries(succeeded).items():
        out[f"localsolve.retries.{name}"] = count
    out["trace.overhead_ratio"] = (
        (sum(traced.latencies) + sum(traced.verify_times))
        / (sum(plain.latencies) + sum(plain.verify_times))
    )

    probe_rng = SplitMix64(seed ^ 0x5EED)
    out.update(tr.probe_scalars(Q, Z4, loops=200 if tiny else 20000))
    out.update(tr.probe_series(Q, probe_rng, tiny))
    out.update(tr.probe_matrices(Q, probe_rng, random_integral_matrix, 16 if tiny else PRECISION))
    return traced, out


def _module_attr(module, attr):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return "absent"


def stamp():
    commit = "unknown"  # a plain source tree; source_sha256 identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "semilaurent").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": _module_attr("semilaurent.kernels", "IMPLEMENTATION"),
        "backend": _module_attr("semilaurent._ratcoeff", "BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def execute(workload_name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the full record."""
    import spec
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": trace, "stamp": stamp()}
    if trace:
        run, metrics = per_layer(workload, seed, tiny)
        units = dict(spec.PER_LAYER)
        extra = {}
    else:
        run = drive(workload, seed, seconds=seconds, rounds=1 if tiny else None, tiny=tiny)
        metrics = end_to_end(workload, run, measure_setup(reps=1 if tiny else 7))
        tail = percentile(run.latencies, workload.tail_pct) if run.latencies else 0.0
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        extra = {
            "fail_rate": (run.failed / run.attempted, "ratio"),
            "refused": (run.refused, "count"),
            "precision_raised": (run.precision_raised, "count"),
            "prec_lost_mean": (
                (statistics.fmean(run.precision_lost), "digits") if run.precision_lost
                else (None, "digits")),
            "job_tail_pct": (workload.tail_pct, "percentile"),
            "job_samples": (len(run.latencies), "count"),
            "job_samples_beyond_tail": (sum(x > tail for x in run.latencies), "count"),
            "rounds": (run.rounds, "count"),
        }
    check_repeats(workload, seed, run, tiny)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    record.update(
        correct=run.wrong == 0,
        attempted=run.attempted,
        failed=run.failed,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        extra={name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        latencies_s=run.by_stratum,
    )
    return record


def report_lines(record):
    yield "stamp " + json.dumps(record["stamp"], sort_keys=True)
    for section in ("metrics", "extra"):
        for name, m in record[section].items():
            yield f"{name} = {m['value']} {m['unit']}"
    yield f"attempted = {record['attempted']} failed = {record['failed']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this file")
    args = parser.parse_args(argv)

    if not (SRC / "semilaurent" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'semilaurent'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = execute(args.workload, args.seed, args.seconds, args.trace)
    for line in report_lines(record):
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

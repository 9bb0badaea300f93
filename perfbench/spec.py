"""What the benchmark measures: workloads, metrics, units and bounds.

This is the single source of BENCHMARK.json; regenerate it with

    python3 perfbench/spec.py
"""

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = (
    ("roundtrip",
     "decode, trivialize, encode, then decode and verify the certificate: the real user job; "
     "sparse series, so the pipeline, twist and SeriesMatrix.invert dominate"),
    ("stages_dense",
     "limit gauge and block triangularization on dense random integral matrices over Q and "
     "Q(zeta_4): the series kernels and coefficient arithmetic dominate"),
    ("projective",
     "chain rule, m=1 witness, Cremona, omega and h checks: sparse MultiPoly products; never "
     "touches series, SeriesMatrix or the pipeline"),
)

#: name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("verify_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_SPAN_LAYERS = (
    ("series", ("mul", "invert", "substitute_power")),
    ("matrices", ("mul", "invert", "determinant")),
    ("cocycles", ("twist", "verify_certificate")),
    ("localsolve", ("trivialize", "cyclic_vector", "rescale_companion", "block_triangularize",
                    "integral_limit_gauge", "classify_degree_one", "peel", "refine_gauge")),
    ("ratfunc", ("mul", "cancel", "substitute")),
    ("pgl", ("verify_chain_rule", "degree_one_cocycle_value", "transform_action",
             "cremona_identities")),
    ("jsonio", ("encode", "decode")),
)


def _per_layer():
    out = [("scalars.ops", "count")]
    out += [(f"scalars.{op}_ns.{f}", "ns") for f in ("q", "zeta4") for op in ("add", "mul", "inverse")]
    for layer, names in _SPAN_LAYERS:
        for name in names:
            out += [(f"{layer}.{name}.calls", "count"), (f"{layer}.{name}.self_s", "s")]
    out += [
        ("series.mul.coeff_products", "count"),
        ("ratfunc.mul.term_products", "count"),
        ("jsonio.encode.bytes", "B"),
        ("jsonio.decode.bytes", "B"),
        ("localsolve.attempts_per_job", "attempts/job"),
    ]
    out += [(f"localsolve.retries.{e}", "count")
            for e in ("ContractionViolated", "SingularWithinPrecision", "CyclicSearchFailed")]
    out += [(f"series.{op}_ms.n{n}", "ms") for op in ("mul", "invert") for n in (64, 256, 1024)]
    out += [(f"matrices.invert_ms.N{n}", "ms") for n in (2, 3, 4)]
    out.append(("trace.overhead_ratio", "ratio"))
    return tuple(out)


#: name, unit; less is better for every one of them
PER_LAYER = _per_layer()


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }


def render():
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(render(), encoding="utf-8")
    print(f"wrote {path}")

"""Self-test of the benchmark harness on tiny runs (about a minute).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every metric is printed with its unit, that a clean run has no
failures, that the traced run shows the predicted zero layers, that a
corrupted certificate is counted as a failure, that BENCHMARK.json matches
spec.py, that a declined round trip is run again at a raised precision, and
that compare.py refuses runs from different environments.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
from semilaurent import jsonio  # noqa: E402
from semilaurent.rng import SplitMix64  # noqa: E402
from workloads import WORKLOADS, _roundtrip_job, roundtrip_round  # noqa: E402

_records = {}


def _record(workload, trace):
    key = (workload, trace)
    if key not in _records:
        _records[key] = run.execute(workload, seed=7, seconds=0, trace=trace, tiny=True)
    return _records[key]


def _printed(record):
    return list(run.report_lines(record))


def test_manifest_matches_spec():
    assert (HERE.parent / "BENCHMARK.json").read_text() == spec.render()


def test_every_end_to_end_metric_printed_and_no_failures():
    for workload in WORKLOADS:
        record = _record(workload, 0)
        lines = _printed(record)
        for name, unit, _, _ in spec.END_TO_END:
            value = record["metrics"][name]["value"]
            assert value > 0, (workload, name, value)
            assert f"{name} = {value} {unit}" in lines, (workload, name)
        assert any(line.startswith("fail_rate = 0.0 ratio") for line in lines), workload
        assert any(line.startswith("prec_lost_mean = ") for line in lines), workload
        assert record["failed"] == 0 and record["correct"], workload


def test_every_layer_metric_printed_with_predicted_zeros():
    for workload in WORKLOADS:
        record = _record(workload, 1)
        lines = _printed(record)
        for name, unit in spec.PER_LAYER:
            value = record["metrics"][name]["value"]
            assert f"{name} = {value} {unit}" in lines, (workload, name)
        assert record["failed"] == 0, workload
    calls = {w: {n: m["value"] for n, m in _record(w, 1)["metrics"].items() if n.endswith(".calls")}
             for w in WORKLOADS}
    for name in ("series.mul", "series.invert", "series.substitute_power",
                 "matrices.mul", "matrices.invert", "matrices.determinant"):
        assert calls["projective"][f"{name}.calls"] == 0, name
        assert calls["stages_dense"][f"{name}.calls"] > 0, name
    for name in ("ratfunc.mul", "ratfunc.cancel", "ratfunc.substitute"):
        assert calls["stages_dense"][f"{name}.calls"] == 0, name
        assert calls["projective"][f"{name}.calls"] > 0, name
    assert calls["roundtrip"]["localsolve.trivialize.calls"] > 0
    assert calls["roundtrip"]["cocycles.verify_certificate.calls"] > 0


def _corrupted(out, vacuous):
    obj = json.loads(out)
    obj["constant"]["2"]["entries"][0][0]["coeffs"] = [["7", "1"]]
    if vacuous:
        obj["checkedPrecision"] = 0
    return jsonio.canonical_dumps(obj)


def test_corrupted_certificate_counts_as_failure():
    job = roundtrip_round(SplitMix64(7), 0)[0]  # N=1, so M_2 is one entry
    out = job.run()
    clean = run.Run()
    run.run_job(dataclasses.replace(job, run=lambda: out), clean)
    assert clean.failed == 0
    for vacuous in (False, True):
        bad = dataclasses.replace(job, run=lambda v=vacuous: _corrupted(out, v))
        counted = run.Run()
        run.run_job(bad, counted)
        assert (counted.attempted, counted.failed) == (1, 1), vacuous


#: An N=2 case over <2,3> (seed 2, round 67) that trivialize declines at
#: precision 64 with "no positive precision survived the gauge composition".
DECLINED_AT_64 = 3824705598941901077


def test_declined_round_trip_is_raised_not_failed():
    job = _roundtrip_job(2, (2, 3), DECLINED_AT_64)
    raised = run.Run()
    run.run_job(job, raised)
    assert (raised.attempted, raised.failed, raised.precision_raised) == (1, 0, 1)
    assert raised.precision_lost and raised.precision_lost[0] < 128
    refused = run.Run()
    run.run_job(dataclasses.replace(job, raise_precision=None), refused)
    assert (refused.failed, refused.refused, refused.wrong) == (1, 1, 0)


def test_compare_refuses_different_stamps():
    record = _record("projective", 0)
    other = json.loads(json.dumps(record))
    other["stamp"]["implementation"] = "compiled"
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, r in enumerate((record, other)):
            path = Path(tmp) / f"{i}.json"
            path.write_text(json.dumps(r))
            paths.append(str(path))
        assert compare.main([paths[0], "--against", paths[0]]) == 0
        assert compare.main([paths[0], "--against", paths[1]]) == 2


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")

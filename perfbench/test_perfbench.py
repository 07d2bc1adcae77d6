"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import CLASS_MEMBERS, Tracer, layer_modules  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    allowed_band_misses,
    build_reports,
    check_report,
    digest,
    judge,
    pooled_reasons,
    report_count,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bindings() -> dict:
    """Identity of every attribute of every qlocker module and wrapped class."""
    import qlocker  # noqa: F401
    modules = layer_modules()
    holders = [m for name, m in sys.modules.items()
               if name == "qlocker" or name.startswith("qlocker.")]
    holders += [getattr(modules[layer], cls) for layer, cls, _, _
                in CLASS_MEMBERS]
    return {(id(h), attr): id(value) for h in holders
            for attr, value in list(vars(h).items())}


def run(argv, tracer=None) -> str:
    from qlocker import cli
    out = io.StringIO()
    span = tracer.report_span("r") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


SMALL = {
    "converge": ["converge", "--shots", "8", "--seed", "3"],
    "tomography": ["verify-demo", "--shots", "16", "--seed", "3"],
    "locker": ["locker-demo", "--message", "101", "--otp-qubits", "2",
               "--repeat", "2", "--seed", "3"],
    "sweep": ["sweep", "--shots", "64", "--grid-n", "1,2", "--seed", "3"],
}


def test_wrapper_returns_exactly_what_the_function_returns():
    sentinel = object()
    wrapped = Tracer().wrap("cli.f", lambda *a, **k: (sentinel, a, k))
    assert wrapped(1, x=2) == (sentinel, (1,), {"x": 2})
    assert wrapped(1, x=2)[0] is sentinel

    def boom():
        raise KeyError("k")

    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.wrap("cli.boom", boom)()
    assert tracer.stat("cli.boom")[0] == 1


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tracing_changes_no_report_byte(workload):
    plain = run(SMALL[workload])
    tracer = Tracer()
    with tracer.installed(layer_modules()):
        traced = run(SMALL[workload], tracer)
    assert traced == plain


def test_every_patched_binding_is_put_back():
    before = bindings()
    tracer = Tracer()
    modules = layer_modules()
    import qlocker.locker
    original = qlocker.locker.apply_gate
    with tracer.installed(modules):
        assert qlocker.locker.apply_gate is not original
        assert bindings() != before
    assert bindings() == before
    with pytest.raises(RuntimeError):
        with tracer.installed(modules):
            raise RuntimeError
    assert bindings() == before


def test_self_time_is_at_most_busy_time_and_counts_repeat():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(layer_modules()):
            for argv in SMALL.values():
                run(argv, tracer)
        for key, (calls, busy, self_s) in tracer.stats.items():
            assert 0.0 <= self_s <= busy + 1e-9, key
        assert tracer.stat("statevector.apply_gate")[0] > 0
        counts.append(tracer.deterministic_counts())
    assert counts[0] == counts[1]


def test_metric_names_and_units_match_the_benchmark_file():
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    tracer = Tracer()
    with tracer.installed(layer_modules()):
        run(SMALL["locker"], tracer)
    produced = tracer.layer_metrics()
    assert all(NAME.fullmatch(name) for name in produced)
    declared = {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in produced.items()} == declared
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_report_checks():
    report = build_reports(WORKLOADS["locker"], 0, 2)[0]
    assert report.units == 6
    text = run(report.argv)
    assert check_report(report, 0, text) == ([], True)
    doc = json.loads(text)
    doc["correct_attempt"]["retrieved_bits"] = "0" * 8
    reasons, band_only = check_report(report, 0, json.dumps(doc))
    assert reasons and not band_only
    doc = json.loads(text)
    doc["checks"][0]["ok"] = False
    assert check_report(report, 4, json.dumps(doc))[1] is False
    assert digest(text) == digest(run(report.argv))


def test_a_sampled_band_miss_fails_the_report_but_not_its_output():
    report = build_reports(WORKLOADS["converge"], 0, 2)[0]
    doc = json.loads(run(SMALL["converge"]))
    sigma = next(c for c in doc["checks"] if c["kind"] == "3sigma")
    sigma["ok"] = False
    reasons, band_only = check_report(report, 4, json.dumps(doc))
    assert reasons and band_only
    assert check_report(report, 1, "Traceback") == (
        ["exit 1, output is not a JSON report"], False)


def test_a_band_miss_on_every_report_fails_the_run():
    def runs(band_missed, count):
        # warm-up, untraced and traced run of every report
        return [{"index": i, "reasons": ["band"] if i in band_missed else [],
                 "band_only": True}
                for i in [1, *range(1, count + 1), *range(1, count + 1)]]

    for workload in WORKLOADS.values():
        count = report_count(workload, BENCHMARK["run_seconds"])
        allowed = allowed_band_misses(count, workload.band_miss_rate)
        assert allowed < count, workload.name
        everyone = set(range(1, count + 1))
        failed, band, correct = judge(runs(everyone, count), allowed)
        assert failed == band == everyone and not correct
        if workload.band_miss_rate:
            # a single seed's miss is the band's false-alarm rate
            assert judge(runs({2}, count), allowed) == ({2}, {2}, True)
    hard = [{"index": 1, "reasons": ["exit code 1"], "band_only": False}]
    assert judge(hard, 5) == ({1}, set(), False)


def test_pooled_locker_rate():
    texts = [run(r.argv) for r in build_reports(WORKLOADS["locker"], 0, 8)]
    assert pooled_reasons(texts) == []
    # a locker that accepts every wrong password
    docs = [json.loads(text) for text in texts]
    for doc in docs:
        doc["wrong_attempt"]["acceptance_rate"] = 1.0
    assert pooled_reasons([json.dumps(doc) for doc in docs])
    assert pooled_reasons([run(SMALL["converge"])]) == []

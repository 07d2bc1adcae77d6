"""Benchmark of the qlocker CLI experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that has ``src/qlocker``.  One process on
one thread runs the reports of a workload in process, through
``qlocker.cli.main``, each with its own seed derived from ``--seed``.  The
number of reports is fixed by ``--seconds`` and the workload, so every run
of a seed does the same work.

After an untimed warm-up report, each report runs untraced and then traced
(twice with ``--trace 1``).  ``--trace 0`` prints the end-to-end metrics of
the untraced runs; ``--trace 1`` prints the per-layer metrics of the first
traced runs and checks that the second traced runs repeat every
deterministic counter exactly.  Times are scaled to a reference host speed
(see ``hostspeed``); wall times are recorded beside them.

Every run of a report is checked (see ``workloads.check_report``), and its
output must be byte-identical to the untraced run of the same seed.  The
outputs are correct when every failed report only missed a sampled band,
no more reports missed one than chance allows at the workload's band-miss
rate, and the rates pooled over all reports hold (see ``workloads``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metrics by name, ``failed_ratio`` and the run's context (machine, commit,
seeds, ``src/`` line count, tracing overhead).  Spans and all call
statistics are written to ``.perfbench/`` in the checkout.  The exit code is
0 when the outputs are correct, 1 when they are not and 2 when the checkout
has no ``src/qlocker``.
"""

import os

# one thread: numpy must not start a BLAS thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    WORKLOADS,
    allowed_band_misses,
    build_reports,
    check_report,
    digest,
    judge,
    pooled_reasons,
    report_count,
    report_seed,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- context recorded with every result -------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- measuring ---------------------------------------------------------------

def probe_setup(speed, workload: str, seed: int, count: int) -> tuple:
    """``(wall_s, scaled_s)`` of one set-up in a fresh interpreter.

    The probe times its own set-up; the host speed is measured around it.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
           str(count)]
    done, probe_wall, probe_scaled = speed.timed(lambda: subprocess.run(
        cmd, capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S, cwd=ROOT))
    wall = float(done.stdout.strip().splitlines()[-1])
    return wall, wall * probe_scaled / probe_wall


def run_report(cli, report, speed, tracer=None) -> dict:
    """Run one report through ``cli.main``, time it and check it."""
    out = io.StringIO()
    span = (tracer.report_span(f"r{report.index}") if tracer
            else contextlib.nullcontext())
    error = None

    def call():
        nonlocal error
        with span, contextlib.redirect_stdout(out):
            try:
                return cli.main(report.argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the run goes on; the report is recorded failed
                error = traceback.format_exc(limit=3)
                return 1

    code, wall, scaled = speed.timed(call)
    text = out.getvalue()
    reasons, band_only = check_report(report, code, text)
    if error:
        reasons, band_only = [error], False
    return {"index": report.index, "seconds": scaled, "wall": wall,
            "units": report.units, "exit": code, "text": text,
            "digest": digest(text), "reasons": reasons,
            "band_only": band_only}


def compare_digests(reference: dict, other: dict, label: str) -> None:
    """Mark both runs of a seed failed where their reports differ."""
    if reference["digest"] != other["digest"]:
        for r in (reference, other):
            r["reasons"].append(f"report differs from the {label} run")
            r["band_only"] = False


def throughput(results: list[dict], key: str = "seconds") -> float:
    return sum(r["units"] for r in results) / sum(r[key] for r in results)


def main(argv=None) -> int:
    opts = parse_args(argv)
    workload = WORKLOADS[opts.workload]
    if not (SRC / "qlocker" / "__init__.py").is_file():
        print(f"perfbench: no qlocker package under {SRC}", file=sys.stderr)
        return 2
    count = report_count(workload, opts.seconds)

    import numpy as np
    import hostspeed

    speed = hostspeed.HostSpeed()
    # with --trace 0, SETUP_PROBES set-ups spread evenly over the reports,
    # so that their median follows the host over the whole run
    probes_before = [0] * count
    for k in range(SETUP_PROBES if opts.trace == 0 else 0):
        probes_before[k * count // SETUP_PROBES] += 1
    setup = []

    sys.path.insert(0, str(SRC))
    from qlocker import cli

    from tracer import Tracer, layer_modules

    modules = layer_modules()
    reports = build_reports(workload, opts.seed, count)
    warmup = run_report(cli, reports[0], speed)
    tracers = [Tracer() for _ in range(1 + opts.trace)]
    untraced, traced = [], [[] for _ in tracers]
    for report, probes in zip(reports, probes_before):
        for _ in range(probes):
            setup.append(probe_setup(speed, workload.name, opts.seed, count))
        untraced.append(run_report(cli, report, speed))
        for tracer, out in zip(tracers, traced):
            with tracer.installed(modules):
                out.append(run_report(cli, report, speed, tracer))
            compare_digests(untraced[-1], out[-1], "traced")
    compare_digests(untraced[0], warmup, "warm-up")
    rss = peak_rss_mib()
    results = [warmup, *untraced, *(r for out in traced for r in out)]
    tracer = tracers[0]

    counter_mismatch = {}
    if opts.trace:
        first, second = (t.deterministic_counts() for t in tracers)
        counter_mismatch = {k: (first.get(k), second.get(k))
                            for k in sorted(first.keys() | second.keys())
                            if first.get(k) != second.get(k)}

    allowed = allowed_band_misses(len(reports), workload.band_miss_rate)
    failed, band_missed, outputs_ok = judge(results, allowed)
    pooled = pooled_reasons([r["text"] for r in untraced])
    correct = outputs_ok and not pooled and not counter_mismatch
    times = [r["seconds"] for r in untraced]

    if opts.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics().items()}
    else:
        metrics = {
            "shots_per_s": {"value": throughput(untraced), "unit": "1/s"},
            "report_s_p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, s in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }

    info = {
        "workload": workload.name,
        "unit_of_work": workload.unit,
        "argv": list(workload.argv),
        "slices": [list(s) for s in workload.slices],
        "seed": opts.seed,
        "report_seeds": [report_seed(opts.seed, r.index) for r in reports],
        "units_per_report": reports[0].units,
        "trace": opts.trace,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "commit": git_commit(ROOT),
        "src_lines": src_lines(SRC),
        "report_s": {"quartiles": statistics.quantiles(times, n=4),
                     "n": len(times)},
        "wall": {"shots_per_s": throughput(untraced, "wall"),
                 "report_s_p50": statistics.median(r["wall"] for r in untraced),
                 "setup_s": (statistics.median(w for w, _ in setup)
                             if setup else None)},
        "setup_samples": {"wall": [w for w, _ in setup],
                          "scaled": [s for _, s in setup]},
        "host_kernel_s": {"reference": hostspeed.REFERENCE_S,
                          "p50": statistics.median(speed.kernel_samples),
                          "min": min(speed.kernel_samples),
                          "max": max(speed.kernel_samples)},
        "tracing_overhead": throughput(untraced) / throughput(traced[0]) - 1,
        "failed_ratio": len(failed) / len(reports),
        "band_misses": sorted(band_missed),
        "band_misses_allowed": allowed,
        "failures": [{"report": r["index"], "reasons": r["reasons"]}
                     for r in results if r["reasons"]][:20],
        "pooled_failures": pooled,
        "counter_mismatch": counter_mismatch,
    }
    if opts.trace:
        info["not_exercised"] = sorted(
            name for name, m in metrics.items() if m["value"] == 0)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{opts.seed}-trace{opts.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"info": info, "metrics": metrics,
         "calls": {k: {"calls": c, "busy_s": b, "self_s": s}
                   for k, (c, b, s) in sorted(tracer.stats.items())},
         "counters": tracer.deterministic_counts()}, indent=1) + "\n")
    with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
        for span in tracer.span_records():
            fh.write(json.dumps(span) + "\n")

    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} failed_ratio = {info['failed_ratio']:.6g} "
          f"({len(failed)} of {len(reports)} reports)")
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(reports),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

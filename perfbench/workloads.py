"""The benchmark workloads: the CLI report each one runs, its unit of work,
and how a report is checked.

Each workload runs one ``qlocker`` subcommand at a fixed input size; only
the report seed, and for the sweep the grid row, changes between reports.
Report ``i`` of a run with
workload seed ``s`` uses the CLI seed ``s * 1000 + i``, so the same workload
seed always gives the same reports.  Why each workload is there is written
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

REPORTS_PER_SEED = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    unit: str
    # untraced time of one report on the reference machine; it fixes how
    # many reports a run makes from --seconds, so that every run of a seed
    # does the same work however fast the program is.  Reports are kept
    # short (a quarter second or so) because the host-speed kernel brackets
    # each one: on a shared host whose speed drifts within a second, many
    # short bracketed reports give a far steadier median than a few long
    # ones.  The sweep runs one theta row of its grid per report: below
    # 32768 shots its near-zero cells miss their band in one report of 30
    # or more, so its shots cannot be cut instead
    nominal_report_s: float
    # share of correct reports that miss a sampled 3sigma/4sigma band of the
    # CLI, measured over some hundred seeds and rounded up
    band_miss_rate: float
    # extra arguments, one per report in turn, so that a long input can run
    # as several short reports; every run has whole rounds of them
    slices: tuple[tuple[str, ...], ...] = ((),)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "converge",
            ("converge", "--theta", "0.1", "--iterations", "38",
             "--policy", "paper", "--shots", "128"),
            "trajectory", 0.25, 1 / 100),
        Workload(
            "tomography",
            ("verify-demo", "--theta", "0.2", "--prep-angle",
             repr(math.pi / 4), "--shots", "512"),
            "shot", 0.25, 1 / 40),
        Workload(
            "locker",
            ("locker-demo", "--message", "10110010", "--otp-qubits", "2",
             "--wrong-overlap", "0.5", "--policy", "paper",
             "--repeat", "5"),
            "attempt", 0.3, 0.0),
        Workload(
            "sweep",
            ("sweep", "--shots", "32768"),
            "trajectory", 0.47, 1 / 30,
            (("--grid-theta", "0.1"), ("--grid-theta", "0.2"),
             ("--grid-theta", "0.5"))),
    )
}


def report_count(workload: Workload, seconds: float) -> int:
    """Reports whose untraced runs take about ``seconds``, in whole rounds
    of the workload's slices; at least two."""
    rounds = -(-max(2, round(seconds / workload.nominal_report_s))
               // len(workload.slices))
    return rounds * len(workload.slices)


def report_seed(workload_seed: int, index: int) -> int:
    return workload_seed * REPORTS_PER_SEED + index


@dataclass
class Report:
    """One report to run: its argv, its units of work, what it must show."""

    index: int
    argv: list[str]
    units: int
    expect: dict = field(default_factory=dict)


def units_of_work(args) -> int:
    """Units of work in one report, from its parsed arguments."""
    if args.command == "converge":
        return args.shots
    if args.command == "verify-demo":
        return 3 * args.shots
    if args.command == "locker-demo":
        return args.repeat + 1
    # sweep: one box run per password qubit, shot and policy, in every cell
    # whose theta is not 0
    from qlocker.verification import CLICK_POLICIES
    cells_n = [n for theta in args.grid_theta if theta != 0.0
               for _ in args.grid_iterations for n in args.grid_n
               for _ in args.grid_overlap]
    return len(CLICK_POLICIES) * args.shots * sum(cells_n)


def build_reports(workload: Workload, seed: int, count: int) -> list[Report]:
    """Parse every report's argv and derive what its output must show.

    For the locker the secret angles are drawn here from the report seed, as
    the CLI draws them, so that the report's ``params_digest`` can be checked.
    """
    from qlocker import cli
    from qlocker.locker import OtpParams
    from qlocker.rng import RandomStream

    parser = cli.build_parser()
    reports = []
    for index in range(1, count + 1):
        argv = [*workload.argv,
                *workload.slices[(index - 1) % len(workload.slices)],
                "--seed", str(report_seed(seed, index))]
        args = parser.parse_args(argv)
        expect = {}
        if args.command == "locker-demo":
            secret = OtpParams.random(args.otp_qubits,
                                      RandomStream(args.seed).substream(0))
            expect = {"message": args.message,
                      "params_digest": secret.digest()}
        reports.append(Report(index, argv, units_of_work(args), expect))
    return reports


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(report: Report, exit_code: int, text: str) -> tuple[list, bool]:
    """Why the report failed, and whether every reason is a band miss.

    A report fails if its exit code is not 0, if any ``checks[].ok`` is
    false, or, for the locker, if the correct password does not retrieve
    the message or the secret digest is not the one the seed gives.  A miss
    of a sampled ``3sigma``/``4sigma`` band on an otherwise sound report is
    still a failure, but it is the band's designed false-alarm rate, not a
    wrong output; the second value says whether that is all that went wrong.
    """
    reasons = []
    band_misses_only = exit_code in (0, 4)
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"exit {exit_code}, output is not a JSON report"], False
    for check in doc.get("checks", []):
        if not check["ok"]:
            reasons.append(f"check failed: {check['name']} "
                           f"({check['simulated']} vs {check['analytic']} "
                           f"+- {check['tolerance']})")
            band_misses_only &= check["kind"].endswith("sigma")
    if exit_code != 0 and not reasons:
        reasons.append(f"exit code {exit_code}")
        band_misses_only = False
    if report.expect:
        correct = doc["correct_attempt"]
        if not (correct["accepted"]
                and correct["retrieved_bits"] == report.expect["message"]):
            reasons.append("correct password did not retrieve the message")
            band_misses_only = False
        if doc["params"]["params_digest"] != report.expect["params_digest"]:
            reasons.append("secret digest differs from the seed's")
            band_misses_only = False
    return reasons, band_misses_only


def allowed_band_misses(reports: int, rate: float, alpha: float = 1e-4) -> int:
    """Most reports of a run that may miss a sampled band by chance.

    The smallest ``k`` with ``P(X > k) <= alpha`` for ``X`` binomial over
    ``reports`` reports at the workload's band-miss ``rate``.  More misses
    than that are a wrong simulation, not bad luck.
    """
    def tail(k):
        return sum(math.comb(reports, j) * rate ** j * (1 - rate) ** (reports - j)
                   for j in range(k + 1, reports + 1))
    return next(k for k in range(reports + 1) if tail(k) <= alpha)


def pooled_reasons(texts: list[str], n_sigma: float = 5.0) -> list[str]:
    """Checks over all the reports of a run, for rates one report is too
    small to check.

    The CLI checks the locker's wrong-password acceptance rate only at 100
    or more repeats.  Here the accepts of every report are pooled and must
    lie within ``n_sigma`` standard deviations of the analytic count.
    """
    accepts = expected = variance = 0.0
    for text in texts:
        wrong = json.loads(text).get("wrong_attempt")
        if wrong is None:
            return []
        n, rate = wrong["repetitions"], wrong["analytic_acceptance"]
        accepts += round(wrong["acceptance_rate"] * n)
        expected += rate * n
        variance += n * rate * (1.0 - rate)
    band = n_sigma * math.sqrt(variance) + 0.5
    if abs(accepts - expected) > band:
        return [f"pooled wrong-password accepts {accepts:.0f}, analytic "
                f"{expected:.1f} +- {band:.1f}"]
    return []


def judge(results: list[dict], allowed: int) -> tuple[set, set, bool]:
    """The failed report indices, those that only missed a band, and
    whether the run's outputs are correct.

    ``results`` holds every run of every report (warm-up, untraced,
    traced), each with its ``index``, ``reasons`` and ``band_only``.  A run
    is correct when every failed run only missed a band and at most
    ``allowed`` distinct reports missed one.
    """
    failed = {r["index"] for r in results if r["reasons"]}
    hard = {r["index"] for r in results if r["reasons"] and not r["band_only"]}
    band = failed - hard
    return failed, band, not hard and len(band) <= allowed

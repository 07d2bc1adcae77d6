"""Command-line experiment runner.

Four subcommands, all seeded and fully deterministic: ``verify-demo`` (one
weak-coupling iteration with three-basis ancilla tomography), ``converge``
(many-iteration evolution of |+> through the verification box),
``locker-demo`` (the end-to-end locker protocol), and ``sweep`` (false-accept
probability tables, analytic and Monte-Carlo, under both click policies).

Reports embed the seed, all parameters, analytic predictions, simulated
values, and, where one exists, the value measured in the published hardware
experiment (tagged ``paper-hardware``; those carry known device noise and are
references, not targets).  Identical command lines produce byte-identical
output.

Exit codes: 0 success, 2 usage error, 3 invalid protocol input,
4 a report check fell outside its tolerance band.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .gates import build_controlled0_rx, h, ry
from .locker import (
    OtpParams,
    apply_inverse_rotation,
    apply_rotation,
    attempt_unlock,
    attempt_unlocks,
    generate_otp,
    session_log,
    store_message,
)
from .rng import RandomStream
from .statevector import (
    DEFAULT_MAX_QUBITS,
    Measurement,
    StateVector,
    apply_gate,
    combine,
    new_state,
    qubit_probabilities,
    sample_shots,
)
from .teleport import open_channel, teleport
from .tomography import (
    FULL_REDUCED,
    PAPER_DIAGONAL,
    fidelity,
    reconstruct_density,
    stokes_from_counts,
    theoretical_ancilla_density,
)
from .verification import (
    CLICK_POLICIES,
    PAPER_DEFAULT,
    STRICT_ABORT,
    VerificationParams,
    acceptance_probability,
    box_records,
    box_shots,
    sample_acceptance_runs,
    trajectory_record,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 42
DEFAULT_SHOTS = 8192

# probabilities of outcome 0/1 per basis, measured on the published
# 5-qubit hardware run (theta = 0.2, alpha = cos(pi/8), 8192 shots)
HARDWARE_SINGLE_ITERATION = {
    "x": (0.498, 0.502),
    "y": (0.710, 0.290),
    "z": (0.938, 0.063),
}
# published 38-iteration run: 6836 of 8192 all-zero ancilla records,
# 4116 of those ending with the system in |1>
HARDWARE_CONVERGENCE = {
    "all_zeros_fraction": 6836 / 8192,
    "system_one_given_all_zeros": 4116 / 6836,
}


def _sigma_band(p: float, n: int, n_sigma: float) -> float:
    return n_sigma * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _check(name: str, simulated: float, analytic: float, band: float,
           kind: str, reference: float | None = None) -> dict:
    entry = {
        "name": name,
        "analytic": analytic,
        "simulated": simulated,
        "tolerance": band,
        "kind": kind,
        "ok": bool(abs(simulated - analytic) <= band),
    }
    if reference is not None:
        entry["paper-hardware"] = reference
    return entry


def _in_range(cast, low, high=math.inf):
    """Argument type: ``cast(text)`` within ``[low, high]``."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected a number in [{low}, {high}], got {text!r}")
        return value
    return parse


def _finite(text: str) -> float:
    """Argument type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


_positive_int = _in_range(int, 1)
_seed = _in_range(int, 0)  # SeedSequence takes non-negative integers only
_probability = _in_range(float, 0.0, 1.0)
# sweep check j seeds password qubit k from sub-stream 8*j + k, so more than
# 8 qubits would share sub-streams between checks
_sweep_n = _in_range(int, 1, 8)


def _out_path(text: str) -> str:
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"no such directory for {text!r}")
    return text


def _parse_grid(text: str, cast=float) -> list:
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty grid {text!r}")
    return values


# ---------------------------------------------------------------------------
# verify-demo
# ---------------------------------------------------------------------------

def cmd_verify_demo(args) -> dict:
    theta = args.theta
    prep = args.prep_angle
    alpha = math.cos(prep / 2)
    alpha_sq = alpha * alpha
    master = RandomStream(args.seed)

    at_reference_point = (
        abs(theta - 0.2) < 1e-12 and abs(prep - math.pi / 4) < 1e-12
    )
    analytic_p0 = {
        "z": 1.0 - alpha_sq * math.sin(theta) ** 2,
        "x": 0.5,
        "y": (1.0 - alpha_sq * math.sin(2 * theta)) / 2.0,
    }

    histograms = {}
    basis_rows = []
    checks = []
    for basis in ("x", "y", "z"):
        ops = [
            ry(prep, 0),
            build_controlled0_rx(theta, control=0, target=1),
            Measurement(1, basis),
        ]
        hist = sample_shots(2, ops, args.shots, master.spawn_seed())
        histograms[basis] = hist
        p0 = hist.probability("0")
        row = {
            "basis": basis,
            "p0": p0,
            "p1": hist.probability("1"),
            "analytic_p0": analytic_p0[basis],
        }
        if at_reference_point:
            row["paper-hardware"] = list(HARDWARE_SINGLE_ITERATION[basis])
        basis_rows.append(row)
        checks.append(_check(
            f"{basis}-basis P(0)", p0, analytic_p0[basis],
            _sigma_band(analytic_p0[basis], args.shots, 3), "3sigma",
            HARDWARE_SINGLE_ITERATION[basis][0] if at_reference_point else None,
        ))

    stokes = stokes_from_counts(histograms)
    rho_emp = reconstruct_density(stokes)
    rho_diag = theoretical_ancilla_density(alpha, theta, PAPER_DIAGONAL)
    rho_reduced = theoretical_ancilla_density(alpha, theta, FULL_REDUCED)
    emp_physical = rho_emp.is_physical
    rho_for_fid = rho_emp if emp_physical else reconstruct_density(stokes, clip=True)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-demo",
        "seed": args.seed,
        "params": {"theta": theta, "prep_angle": prep, "shots": args.shots,
                   "alpha_sq": alpha_sq},
        "ancilla_probabilities": basis_rows,
        "stokes": {"x": stokes.x, "y": stokes.y, "z": stokes.z,
                   "physical": stokes.is_physical},
        "density": {
            "empirical": rho_emp.tables(),
            "empirical_physical": emp_physical,
            "theory_diagonal": rho_diag.tables(),
            "theory_full_reduced": rho_reduced.tables(),
        },
        "fidelity": {
            "diagonal_vs_empirical": fidelity(rho_diag, rho_for_fid),
            "full_reduced_vs_empirical": fidelity(rho_reduced, rho_for_fid),
            "empirical_clipped": not emp_physical,
        },
        "checks": checks,
    }
    return report


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def cmd_converge(args) -> dict:
    params = VerificationParams(theta=args.theta, iterations=args.iterations,
                                click_policy=args.policy)
    outcome_counts: Counter[str] = Counter()
    # tallied in shot order: first appearance breaks ties among top outcomes
    for (box,) in box_shots(apply_gate(new_state(1), h(0)), params,
                            RandomStream(args.seed), range(args.shots)):
        outcome_counts.update(box_records(box))
    quiet = "0" * args.iterations
    one_given_zeros = outcome_counts[quiet + "1"]
    all_zeros = outcome_counts[quiet + "0"] + one_given_zeros

    # no click: the |1> half of |+> never clicks, and the |0> half survives
    # all N couplings with the strict policy's acceptance probability
    analytic_zeros = 0.5 + acceptance_probability(
        0.5, VerificationParams(args.theta, args.iterations, STRICT_ABORT))
    analytic_cond = 0.5 / analytic_zeros
    zeros_frac = all_zeros / args.shots
    # no all-zeros record: the conditional has no sample (null, unchecked)
    cond_frac = one_given_zeros / all_zeros if all_zeros else None

    at_reference_point = (
        abs(args.theta - 0.1) < 1e-12 and args.iterations == 38
        and args.policy == PAPER_DEFAULT
    )
    hw = HARDWARE_CONVERGENCE if at_reference_point else {}

    checks = [
        _check("all-zeros ancilla fraction", zeros_frac, analytic_zeros,
               _sigma_band(analytic_zeros, args.shots, 3), "3sigma",
               hw.get("all_zeros_fraction")),
    ]
    if all_zeros:
        checks.append(_check("P(system=1 | all zeros)", cond_frac,
                             analytic_cond,
                             _sigma_band(analytic_cond, all_zeros, 3),
                             "3sigma", hw.get("system_one_given_all_zeros")))
    if at_reference_point:
        checks.append(_check("hardware anchor: all-zeros fraction",
                             hw["all_zeros_fraction"], analytic_zeros,
                             0.02, "anchor"))
        checks.append(_check("hardware anchor: conditional",
                             hw["system_one_given_all_zeros"], analytic_cond,
                             0.02, "anchor"))

    top = outcome_counts.most_common(8)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "converge",
        "seed": args.seed,
        "params": {"theta": args.theta, "iterations": args.iterations,
                   "shots": args.shots, "policy": args.policy,
                   "initial_state": "plus"},
        "results": {
            "all_zeros_count": all_zeros,
            "all_zeros_fraction": zeros_frac,
            "system_one_given_all_zeros": cond_frac,
            "distinct_outcomes": len(outcome_counts),
            "top_outcomes": [{"record": k, "count": c} for k, c in top],
        },
        "checks": checks,
    }
    return report


# ---------------------------------------------------------------------------
# locker-demo
# ---------------------------------------------------------------------------

def _wrong_password(params: OtpParams, overlap: float | None,
                    rng: RandomStream) -> StateVector:
    """A wrong password; with ``overlap`` set, each qubit lands on
    sqrt(o)|0> + sqrt(1-o)|1> after the locker's inverse rotation."""
    n = params.n_qubits
    if overlap is None:
        return generate_otp(OtpParams.random(n, rng))
    angle = 2.0 * math.acos(math.sqrt(overlap))
    state = new_state(n)
    for k in range(n):
        state = apply_gate(state, ry(angle, k))
    return apply_rotation(state, params)


def cmd_locker_demo(args) -> dict:
    verification = VerificationParams(theta=args.theta,
                                      iterations=args.iterations,
                                      click_policy=args.policy)
    master = RandomStream(args.seed)
    params = OtpParams.random(args.otp_qubits, master.substream(0))
    locker = store_message(args.message, params, verification)

    # correct-password pass: generate qubit-wise, teleport each through its
    # own channel, reassemble, unlock
    teleport_stream = master.substream(1)
    records = []
    received = None
    for k in range(args.otp_qubits):
        qubit_otp = generate_otp(OtpParams((params.triples[k],)))
        record, got = teleport(qubit_otp, open_channel(f"demo{k}"),
                               teleport_stream.substream(k))
        records.append(record.record_line())
        received = got if received is None else combine(received, got)
    correct = attempt_unlock(locker, received, master.substream(2))

    # wrong-password pass(es) against the re-armed locker
    wrong_stream = master.substream(3)
    wrong_probe = _wrong_password(params, args.wrong_overlap,
                                  wrong_stream.substream(0))
    phi = apply_inverse_rotation(wrong_probe, params)
    overlaps = [qubit_probabilities(phi, k)[0]
                for k in range(args.otp_qubits)]
    analytic_accept = math.prod(acceptance_probability(o, verification)
                                for o in overlaps)

    accept_count = 0
    for last_wrong in attempt_unlocks(locker, wrong_probe, wrong_stream,
                                      range(1, args.repeat + 1)):
        accept_count += last_wrong.accepted
    wrong_rate = accept_count / args.repeat

    checks = [_check("correct-password retrieval",
                     float(correct.retrieved_bits == args.message
                           and correct.accepted),
                     1.0, 0.0, "exact")]
    if args.repeat >= 100:
        checks.append(_check("wrong-password acceptance rate", wrong_rate,
                             analytic_accept,
                             _sigma_band(analytic_accept, args.repeat, 4),
                             "4sigma"))

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "locker-demo",
        "seed": args.seed,
        "params": {"message": args.message, "otp_qubits": args.otp_qubits,
                   "theta": args.theta, "iterations": args.iterations,
                   "policy": args.policy, "repeat": args.repeat,
                   "wrong_overlap": args.wrong_overlap,
                   "params_digest": params.digest()},
        "teleport_records": records,
        "correct_attempt": {
            "accepted": correct.accepted,
            "retrieved_bits": correct.retrieved_bits,
            "session_log": session_log(locker, correct),
            "trajectories": [trajectory_record(t, args.seed, verification)
                             for t in correct.trajectories],
        },
        "wrong_attempt": {
            "per_qubit_overlap": overlaps,
            "analytic_acceptance": analytic_accept,
            "acceptance_rate": wrong_rate,
            "repetitions": args.repeat,
            "last_session_log": session_log(locker, last_wrong),
        },
        "checks": checks,
    }
    return report


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> dict:
    master = RandomStream(args.seed)
    cells = []
    checks = []
    for theta in args.grid_theta:
        for iterations in args.grid_iterations:
            for n in args.grid_n:
                for overlap in args.grid_overlap:
                    if theta == 0.0:
                        cells.append({
                            "theta": theta, "iterations": iterations,
                            "n": n, "overlap": overlap, "degenerate": True,
                            "note": "theta = 0 disables the coupling; "
                                    "verification is inert",
                        })
                        continue
                    cell = {"theta": theta, "iterations": iterations,
                            "n": n, "overlap": overlap, "degenerate": False}
                    for policy in CLICK_POLICIES:
                        params = VerificationParams(theta, iterations, policy)
                        analytic = acceptance_probability(overlap, params) ** n
                        accept = np.ones(args.shots, dtype=bool)
                        for k in range(n):
                            accept &= sample_acceptance_runs(
                                overlap, params, args.shots,
                                master.substream(len(checks) * 8 + k))
                        mc = float(accept.mean())
                        cell[policy] = {"analytic": analytic, "monte_carlo": mc}
                        checks.append(_check(
                            f"false-accept n={n} theta={theta:g} "
                            f"N={iterations} overlap={overlap:g} [{policy}]",
                            mc, analytic,
                            _sigma_band(analytic, args.shots, 4), "4sigma"))
                    cells.append(cell)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "seed": args.seed,
        "params": {"grid_n": args.grid_n, "grid_theta": args.grid_theta,
                   "grid_iterations": args.grid_iterations,
                   "grid_overlap": args.grid_overlap,
                   "shots": args.shots},
        "cells": cells,
        "checks": checks,
    }
    return report


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    command = report["command"]
    if command == "verify-demo":
        writer.writerow(["basis", "p0", "p1", "analytic_p0"])
        for row in report["ancilla_probabilities"]:
            writer.writerow([row["basis"], row["p0"], row["p1"],
                             row["analytic_p0"]])
    elif command == "converge":
        writer.writerow(["bitstring", "count"])
        for item in report["results"]["top_outcomes"]:
            writer.writerow([item["record"], item["count"]])
    elif command == "locker-demo":
        writer.writerow(["key", "value"])
        writer.writerow(["accepted", report["correct_attempt"]["accepted"]])
        writer.writerow(["retrieved_bits",
                         report["correct_attempt"]["retrieved_bits"]])
        writer.writerow(["wrong_acceptance_rate",
                         report["wrong_attempt"]["acceptance_rate"]])
    elif command == "sweep":
        writer.writerow(["n", "theta", "iterations", "overlap", "policy",
                         "analytic", "monte_carlo"])
        for cell in report["cells"]:
            if cell.get("degenerate"):
                continue
            for policy in CLICK_POLICIES:
                writer.writerow([cell["n"], cell["theta"],
                                 cell["iterations"], cell["overlap"], policy,
                                 cell[policy]["analytic"],
                                 cell[policy]["monte_carlo"]])
    return buf.getvalue()


def emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = report_to_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_box_flags(p: argparse.ArgumentParser) -> None:
    """The verification box's flags, shared by converge and locker-demo.

    More than ``MAX_ITERATIONS`` iterations is a protocol error (exit 3),
    which :class:`VerificationParams` reports.
    """
    p.add_argument("--theta", type=_finite, default=0.1)
    p.add_argument("--iterations", type=_in_range(int, 0), default=38)
    p.add_argument("--policy", choices=CLICK_POLICIES, default=PAPER_DEFAULT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlocker",
        description="Deterministic quantum-locker experiments and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        p.add_argument("--shots", type=_positive_int, default=DEFAULT_SHOTS)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=_out_path, default=None, metavar="PATH")

    p = sub.add_parser("verify-demo",
                       help="single weak-coupling iteration with ancilla "
                            "tomography in x, y, z")
    add_common(p)
    p.add_argument("--theta", type=_finite, default=0.2)
    p.add_argument("--prep-angle", type=_finite, default=math.pi / 4,
                   help="Ry angle preparing the system qubit")
    p.set_defaults(func=cmd_verify_demo)

    p = sub.add_parser("converge",
                       help="many-iteration verification of |+>")
    add_common(p)
    _add_box_flags(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("locker-demo",
                       help="store, teleport, and unlock end to end")
    add_common(p)
    p.add_argument("--message", default="1011")
    p.add_argument("--otp-qubits", type=_in_range(int, 1, DEFAULT_MAX_QUBITS),
                   default=1)
    _add_box_flags(p)
    p.add_argument("--repeat", type=_positive_int, default=1,
                   help="wrong-password repetitions for rate estimation")
    p.add_argument("--wrong-overlap", type=_probability, default=None,
                   help="force the wrong password's per-qubit overlap")
    p.set_defaults(func=cmd_locker_demo)

    p = sub.add_parser("sweep",
                       help="false-accept tables over (n, theta, N, overlap)")
    add_common(p)
    p.add_argument("--grid-n", type=lambda s: _parse_grid(s, _sweep_n),
                   default=[1, 2, 3])
    p.add_argument("--grid-theta", type=_parse_grid, default=[0.1, 0.2, 0.5])
    p.add_argument("--grid-iterations",
                   type=lambda s: _parse_grid(s, _in_range(int, 0)),
                   default=[1, 5, 38])
    p.add_argument("--grid-overlap", type=lambda s: _parse_grid(s, _probability),
                   default=[0.25, 0.5])
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except ValueError as exc:  # InvalidMessageError and CapacityError too
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report["ok"] = all(c["ok"] for c in report["checks"])
    try:
        emit(report, args)
    except OSError as exc:
        parser.error(f"cannot write {args.out!r}: {exc.strerror}")
    return 0 if report["ok"] else 4


if __name__ == "__main__":
    sys.exit(main())

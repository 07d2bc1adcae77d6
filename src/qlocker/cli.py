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
output.  Each ``cmd_*`` function returns only the body of its report, from
``params`` on; :func:`main` writes the envelope around it, ``schema_version``,
``command`` and ``seed`` before the body and ``ok`` after it.  Every sampled
check takes its band from ``_band_check``, the one normal-approximation band;
exact and anchor checks give theirs to ``_check``.

Exit codes: 0 success, 2 usage error, 3 invalid protocol input,
4 a report check fell outside its tolerance band.

:func:`main` parses with one parser per process, built on its first call
and never changed after, so a caller that runs many reports in one process
builds the argparse tree once; :func:`build_parser` returns a fresh parser
on every call.  The parser binds no function: :func:`main` runs
``cmd_<subcommand>`` (dashes become underscores), looked up on this module
at each call, so a caller that rebinds ``cli.cmd_*`` is the one called.

Importing this module loads only what the parser and every command read.
``tomography``, ``locker`` and ``csv`` are imported inside the functions
that run them (``cmd_verify_demo``; ``cmd_locker_demo`` and
``_wrong_password``; ``report_to_csv``), so ``converge`` and ``sweep``
never load them.  ``cmd_locker_demo`` imports the ``teleport`` names too,
though the package has loaded that module already.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from .gates import build_controlled0_rx, h, ry
from .rng import RandomStream
from .statevector import (
    DEFAULT_MAX_QUBITS,
    Measurement,
    ProductState,
    apply_gate,
    new_state,
    sample_circuits,
)
from .verification import (
    CLICK_POLICIES,
    DEFAULT_ITERATIONS,
    DEFAULT_THETA,
    PAPER_DEFAULT,
    VerificationParams,
    acceptance_probability,
    box_records,
    box_shots,
    record_probability,
    sample_acceptance_runs,
    trajectory_record,
)

if TYPE_CHECKING:  # imported by the commands that run it
    from .locker import OtpParams

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


def _band_check(name: str, simulated: float, analytic: float, n: int,
                n_sigma: int, reference: float | None = None) -> dict:
    """A sampled check: ``simulated``, a fraction of ``n`` draws, against
    the probability ``analytic`` within ``n_sigma`` standard deviations of
    the normal approximation."""
    band = n_sigma * math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n)
    return _check(name, simulated, analytic, band, f"{n_sigma}sigma",
                  reference)


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


# sweep's sampler holds at most 16 bytes per shot at once, a bound
# tests/test_verification.py pins, so 2**24 shots or repetitions stay within
# 256 MiB
_shot_count = _in_range(int, 1, 1 << 24)
_seed = _in_range(int, 0)  # SeedSequence takes non-negative integers only
_probability = _in_range(float, 0.0, 1.0)
# any finite float: nan, inf and 1e999 fall outside the doubles' range
_finite = _in_range(float, -sys.float_info.max, sys.float_info.max)
# verify-demo's coupling runs rx(2 theta), and its P(0) laws take
# sin(2 theta): both need 2 theta finite too
_coupling_angle = _in_range(float, -sys.float_info.max / 2,
                            sys.float_info.max / 2)
_qubit_count = _in_range(int, 1, DEFAULT_MAX_QUBITS)


def _out_path(text: str) -> str:
    if not text:  # the directory of "" would read as "."
        raise argparse.ArgumentTypeError(f"empty path {text!r}")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"no such directory for {text!r}")
    return text


def _parse_grid(text: str, cast) -> list:
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
    from .tomography import (
        FULL_REDUCED,
        PAPER_DIAGONAL,
        fidelity,
        reconstruct_density,
        stokes_from_counts,
        theoretical_ancilla_density,
    )

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

    # one seed per basis, drawn in x, y, z order; the three circuits share
    # their preparation and coupling gates and are sampled as one batch
    bases = ("x", "y", "z")
    prepare = [ry(prep, 0), build_controlled0_rx(theta, control=0, target=1)]
    histograms = dict(zip(bases, sample_circuits(2, [
        (prepare + [Measurement(1, basis)], master.spawn_seed())
        for basis in bases], args.shots)))
    basis_rows = []
    checks = []
    for basis, hist in histograms.items():
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
        checks.append(_band_check(
            f"{basis}-basis P(0)", p0, analytic_p0[basis], args.shots, 3,
            HARDWARE_SINGLE_ITERATION[basis][0] if at_reference_point else None,
        ))

    stokes = stokes_from_counts(histograms)
    rho_emp = reconstruct_density(stokes)
    rho_diag = theoretical_ancilla_density(alpha, theta, PAPER_DIAGONAL)
    rho_reduced = theoretical_ancilla_density(alpha, theta, FULL_REDUCED)
    # one verdict for the Stokes vector, the matrix and the fidelities
    physical = rho_emp.is_physical
    rho_for_fid = rho_emp if physical else reconstruct_density(stokes, clip=True)

    return {
        "params": {"theta": theta, "prep_angle": prep, "shots": args.shots,
                   "alpha_sq": alpha_sq},
        "ancilla_probabilities": basis_rows,
        "stokes": {"x": stokes.x, "y": stokes.y, "z": stokes.z,
                   "physical": physical},
        "density": {
            "empirical": rho_emp.tables(),
            "empirical_physical": physical,
            "theory_diagonal": rho_diag.tables(),
            "theory_full_reduced": rho_reduced.tables(),
        },
        "fidelity": {
            "diagonal_vs_empirical": fidelity(rho_diag, rho_for_fid),
            "full_reduced_vs_empirical": fidelity(rho_reduced, rho_for_fid),
            "empirical_clipped": not physical,
        },
        "checks": checks,
    }


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

    # no click: the |0> half of |+> survives all N couplings, and the |1>
    # half never clicks
    zero_law, one_law = (record_probability(quiet + bit, 0.5, params)
                         for bit in "01")
    analytic_zeros = zero_law + one_law
    analytic_cond = one_law / analytic_zeros
    zeros_frac = all_zeros / args.shots
    # no all-zeros record: the conditional has no sample (null, unchecked)
    cond_frac = one_given_zeros / all_zeros if all_zeros else None

    at_reference_point = (
        abs(args.theta - 0.1) < 1e-12 and args.iterations == 38
        and args.policy == PAPER_DEFAULT
    )
    hw = HARDWARE_CONVERGENCE if at_reference_point else {}

    checks = [
        _band_check("all-zeros ancilla fraction", zeros_frac,
                    analytic_zeros, args.shots, 3,
                    hw.get("all_zeros_fraction")),
    ]
    if all_zeros:
        checks.append(_band_check("P(system=1 | all zeros)", cond_frac,
                                  analytic_cond, all_zeros, 3,
                                  hw.get("system_one_given_all_zeros")))
    if at_reference_point:
        checks.append(_check("hardware anchor: all-zeros fraction",
                             hw["all_zeros_fraction"], analytic_zeros,
                             0.02, "anchor"))
        checks.append(_check("hardware anchor: conditional",
                             hw["system_one_given_all_zeros"], analytic_cond,
                             0.02, "anchor"))

    top = outcome_counts.most_common(8)
    return {
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


# ---------------------------------------------------------------------------
# locker-demo
# ---------------------------------------------------------------------------

def _wrong_password(params: OtpParams, overlap: float | None,
                    rng: RandomStream) -> ProductState:
    """A wrong password, as a product state; with ``overlap`` set, each
    qubit lands on sqrt(o)|0> + sqrt(1-o)|1> after the locker's inverse
    rotation."""
    from .locker import OtpParams, apply_rotation, generate_otp

    n = params.n_qubits
    if overlap is None:
        return generate_otp(OtpParams.random(n, rng))
    angle = 2.0 * math.acos(math.sqrt(overlap))
    qubit = apply_gate(new_state(1), ry(angle, 0))
    return apply_rotation(ProductState(np.tile(qubit.amplitudes, (n, 1))),
                          params)


def cmd_locker_demo(args) -> dict:
    from .locker import (
        OtpParams,
        attempt_unlocks,
        generate_otp,
        session_log,
        store_message,
    )
    from .teleport import open_channel, teleport

    verification = VerificationParams(theta=args.theta,
                                      iterations=args.iterations,
                                      click_policy=args.policy)
    master = RandomStream(args.seed)
    params = OtpParams.random(args.otp_qubits, master.substream(0))
    locker = store_message(args.message, params, verification)

    # correct-password pass: teleport each qubit of the password through
    # its own channel; the received qubits are the factors it unlocks with
    otp = generate_otp(params)
    teleport_stream = master.substream(1)
    records = []
    received = []
    for k in range(args.otp_qubits):
        record, got = teleport(otp.qubit(k), open_channel(f"demo{k}"),
                               teleport_stream.substream(k))
        records.append(record.record_line())
        received.append(got.amplitudes)

    # wrong-password pass(es), the correct password presented first, as
    # row 0 of their first block of rows
    wrong_stream = master.substream(3)
    wrong_probe = _wrong_password(params, args.wrong_overlap,
                                  wrong_stream.substream(0))
    accepted, last_wrong, correct = attempt_unlocks(
        locker, wrong_probe, wrong_stream, range(1, args.repeat + 1),
        first=(ProductState(received), master.substream(2)))
    phi = last_wrong.inverse_rotated.factors
    overlaps = (np.abs(phi[:, 0]) ** 2).tolist()
    analytic_accept = math.prod(acceptance_probability(o, verification)
                                for o in overlaps)
    wrong_rate = np.count_nonzero(accepted) / args.repeat

    if args.policy == PAPER_DEFAULT:
        name = "correct-password retrieval"
        exact = correct.accepted and correct.retrieved_bits == args.message
    else:
        # a strict box accepts the correct password only with
        # cos^(2nN)(theta); exact are the release rule and that the box can
        # write each record from the received qubits
        name = "correct-password release and records"
        release = args.message if correct.accepted else "0" * locker.m_bits
        factors = correct.inverse_rotated.factors
        exact = correct.retrieved_bits == release and all(record_probability(
            t.outcomes_bitstring() + str(t.final_system_outcome),
            abs(a0) ** 2, verification) > 0.0
            for t, a0 in zip(correct.trajectories, factors[:, 0]))
    checks = [_check(name, float(exact), 1.0, 0.0, "exact")]
    if args.repeat >= 100:
        checks.append(_band_check("wrong-password acceptance rate",
                                  wrong_rate, analytic_accept, args.repeat,
                                  4))

    return {
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


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> dict:
    """The false-accept table, one cell per grid point.

    A cell makes one pass of draws per password qubit ``k``, from
    sub-stream ``(c, k)`` of the seed, where ``c`` is the cell's index in
    ``cells`` (degenerate cells count).  Each pass is judged under both
    click policies at once (:func:`sample_acceptance_runs`), and each
    policy's accepts are ANDed over the n qubits: a click policy is a rule
    on a run's record, not a different run.  This is the one exception to
    the per-shot draw contract."""
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
                    cell_stream = master.substream(len(cells))
                    params = VerificationParams(theta, iterations)
                    # row i: every shot's accept under CLICK_POLICIES[i]
                    accept = np.ones((len(CLICK_POLICIES), args.shots),
                                     dtype=bool)
                    for k in range(n):
                        accept &= sample_acceptance_runs(
                            overlap, params, args.shots,
                            cell_stream.substream(k))
                    cell = {"theta": theta, "iterations": iterations,
                            "n": n, "overlap": overlap, "degenerate": False}
                    for policy, row in zip(CLICK_POLICIES, accept):
                        analytic = acceptance_probability(
                            overlap, VerificationParams(
                                theta, iterations, policy)) ** n
                        mc = float(row.mean())
                        cell[policy] = {"analytic": analytic, "monte_carlo": mc}
                        checks.append(_band_check(
                            f"false-accept n={n} theta={theta:g} "
                            f"N={iterations} overlap={overlap:g} [{policy}]",
                            mc, analytic, args.shots, 4))
                    cells.append(cell)

    return {
        "params": {"grid_n": args.grid_n, "grid_theta": args.grid_theta,
                   "grid_iterations": args.grid_iterations,
                   "grid_overlap": args.grid_overlap,
                   "shots": args.shots},
        "cells": cells,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def report_to_csv(report: dict) -> str:
    import csv

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
    p.add_argument("--theta", type=_finite, default=DEFAULT_THETA)
    p.add_argument("--iterations", type=_in_range(int, 0),
                   default=DEFAULT_ITERATIONS)
    p.add_argument("--policy", choices=CLICK_POLICIES, default=PAPER_DEFAULT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlocker",
        description="Deterministic quantum-locker experiments and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=_out_path, default=None, metavar="PATH")

    p = sub.add_parser("verify-demo",
                       help="single weak-coupling iteration with ancilla "
                            "tomography in x, y, z")
    add_common(p)
    p.add_argument("--shots", type=_shot_count, default=DEFAULT_SHOTS)
    p.add_argument("--theta", type=_coupling_angle, default=0.2,
                   help="coupling angle, any value with a finite double: "
                        "one coupling and its analytic P(0) laws hold for "
                        "every theta")
    p.add_argument("--prep-angle", type=_finite, default=math.pi / 4,
                   help="Ry angle preparing the system qubit")

    p = sub.add_parser("converge",
                       help="many-iteration verification of |+>")
    add_common(p)
    p.add_argument("--shots", type=_shot_count, default=DEFAULT_SHOTS)
    _add_box_flags(p)

    p = sub.add_parser("locker-demo",
                       help="store, teleport, and unlock end to end")
    add_common(p)
    p.add_argument("--message", default="1011")
    p.add_argument("--otp-qubits", type=_qubit_count, default=1)
    _add_box_flags(p)
    p.add_argument("--repeat", type=_shot_count, default=1,
                   help="wrong-password repetitions for rate estimation")
    p.add_argument("--wrong-overlap", type=_probability, default=None,
                   help="force the wrong password's per-qubit overlap")

    p = sub.add_parser("sweep",
                       help="false-accept tables over (n, theta, N, overlap)")
    add_common(p)
    p.add_argument("--shots", type=_shot_count, default=DEFAULT_SHOTS)
    # tuples: every parse through main shares these default objects
    p.add_argument("--grid-n", type=lambda s: _parse_grid(s, _qubit_count),
                   default=(1, 2, 3))
    p.add_argument("--grid-theta", type=lambda s: _parse_grid(s, _finite),
                   default=(0.1, 0.2, 0.5))
    p.add_argument("--grid-iterations",
                   type=lambda s: _parse_grid(s, _in_range(int, 0)),
                   default=(1, 5, 38))
    p.add_argument("--grid-overlap", type=lambda s: _parse_grid(s, _probability),
                   default=(0.25, 0.5))

    return parser


# built on first use, not at import: a one-shot run pays for it once either
# way, and importing qlocker.cli stays cheap
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Every call in a process parses with the same parser, built on the first
    call; nothing changes that parser, so one call cannot leak into the next.
    The command run is the module's ``cmd_<subcommand>`` at this call.
    The report is the command's body inside the envelope written here:
    ``schema_version``, ``command`` and ``seed`` first, ``ok`` last.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        report = {"schema_version": SCHEMA_VERSION, "command": args.command,
                  "seed": args.seed, **command(args)}
    except ValueError as exc:  # InvalidMessageError and CapacityError too
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report["ok"] = all(c["ok"] for c in report["checks"])
    try:
        emit(report, args)
    except OSError as exc:
        where = repr(args.out) if args.out else "standard output"
        parser.error(f"cannot write {where}: {exc.strerror}")
    return 0 if report["ok"] else 4


if __name__ == "__main__":
    sys.exit(main())

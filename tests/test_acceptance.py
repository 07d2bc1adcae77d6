"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and also enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

import qlocker as q
from qlocker import OtpParams, RandomStream, VerificationParams

from conftest import accepted_mass
from oracles import (decompose_controlled0_rx, enumerate_teleport_branches,
                     iterate_once, overlap, phase_aligned_distance,
                     sequence_matrix)
from test_gates import coupling_matrix

ALPHA = math.cos(math.pi / 8)
ALPHA_SQ = ALPHA * ALPHA


class _Criterion:
    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def finish(self, ok: bool, detail: str):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict} {self.name}: {detail} "
              f"[{elapsed:.2f}s / budget {self.budget:g}s]")
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded runtime budget "
            f"({elapsed:.2f}s >= {self.budget:g}s)")

    def __exit__(self, exc_type, exc, tb):
        return False


def test_criterion_1_coupling_decomposition_equivalence():
    with _Criterion(1, "gate decomposition equals coupling unitary", 1.0) as c:
        worst = 0.0
        for theta in np.linspace(-math.pi, math.pi, 100):
            oracle = coupling_matrix(theta)
            seq = sequence_matrix(decompose_controlled0_rx(theta), 2)
            worst = max(worst, phase_aligned_distance(oracle, seq))
        c.finish(worst < 1e-12, f"max entrywise error {worst:.3e} < 1e-12")


def test_criterion_2_single_iteration_statistics():
    with _Criterion(2, "single-iteration ancilla statistics", 5.0) as c:
        analytic_p0 = 1.0 - ALPHA_SQ * math.sin(0.2) ** 2
        ops = [
            q.ry(math.pi / 4, 0),
            q.build_controlled0_rx(0.2, 0, 1),
            q.Measurement(1, "z"),
        ]
        hist = q.sample_shots(2, ops, 8192, seed=42)
        p0 = hist.probability("0")
        dev = abs(p0 - analytic_p0)
        rho = q.theoretical_ancilla_density(ALPHA, 0.2)
        diag_ok = (round(float(rho.matrix[0, 0].real), 3) == 0.966
                   and round(float(rho.matrix[1, 1].real), 3) == 0.034)
        # hardware read 0.938 here; the ~0.028 gap to the analytic value is
        # device noise, reported but not gated on
        hardware_gap = abs(analytic_p0 - 0.938)
        c.finish(dev <= 0.0060 and diag_ok,
                 f"P(0)={p0:.4f} vs {analytic_p0:.4f} (|d|={dev:.4f} <= "
                 f"0.0060), diag model rounds to (0.966, 0.034), "
                 f"hardware gap {hardware_gap:.3f}")


def test_criterion_3_hardware_density_arithmetic():
    with _Criterion(3, "density reconstruction from published table", 1.0) as c:
        s = q.StokesVector(x=0.498 - 0.502, y=0.710 - 0.290, z=0.938 - 0.063)
        rho = q.reconstruct_density(s)
        printed = (np.array([[0.937, -0.002], [-0.002, 0.063]])
                   + 1j * np.array([[0.0, -0.210], [0.210, 0.0]]))
        # corner entries differ from the 3-decimal printout by exactly 5e-4
        worst = float(np.max(np.abs(rho.matrix - printed)))
        c.finish(worst <= 5e-4 + 1e-12,
                 f"max entrywise gap {worst:.2e} <= 5e-4")


def test_criterion_4_many_iteration_convergence():
    with _Criterion(4, "38-iteration convergence statistics", 30.0) as c:
        params = VerificationParams(theta=0.1, iterations=38)
        shots = 8192
        # the converge box on |+>; shot i draws from sub-stream (42, i)
        plus = q.apply_gate(q.new_state(1), q.h(0))
        all_zeros = 0
        ones_after_zeros = 0
        for (box,) in q.box_shots(plus, params, RandomStream(42), range(shots)):
            for record in q.box_records(box):
                if "1" not in record[:-1]:
                    all_zeros += 1
                    ones_after_zeros += int(record[-1])
        analytic_zeros = 0.5 + 0.5 * math.cos(0.1) ** 76
        analytic_cond = 0.5 / analytic_zeros
        zeros_frac = all_zeros / shots
        cond = ones_after_zeros / all_zeros
        cond_band = 3 * math.sqrt(analytic_cond * (1 - analytic_cond)
                                  / all_zeros)
        zeros_ok = abs(zeros_frac - analytic_zeros) <= 0.0121
        cond_ok = abs(cond - analytic_cond) <= cond_band
        anchor_ok = (abs(6836 / 8192 - analytic_zeros) < 0.02
                     and abs(4116 / 6836 - analytic_cond) < 0.02)
        c.finish(zeros_ok and cond_ok and anchor_ok,
                 f"all-zeros {zeros_frac:.4f} vs {analytic_zeros:.4f} "
                 f"(band 0.0121), P(1|zeros) {cond:.4f} vs "
                 f"{analytic_cond:.4f} (band {cond_band:.4f}), hardware "
                 f"anchors within 0.02")


def test_criterion_5_acceptance_law():
    with _Criterion(5, "acceptance law, exact and sampled", 60.0) as c:
        worst_law = 0.0
        worst_mc_sigmas = 0.0
        stream = 0
        for theta in (0.05, 0.2, 0.5):
            for iterations in range(1, 11):
                params = VerificationParams(theta=theta, iterations=iterations)
                for tenth in range(11):
                    alpha_sq = tenth / 10
                    mass = accepted_mass(alpha_sq, params)
                    worst_law = max(worst_law, abs(mass - alpha_sq))
                    runs = 100_000
                    accept = q.verification.sample_acceptance_runs(
                        alpha_sq, params, runs, RandomStream(4242, (stream,)))
                    # the paper policy's row, the policy of the law
                    rate = accept[q.verification.CLICK_POLICIES.index(
                        q.PAPER_DEFAULT)].mean()
                    stream += 1
                    sigma = math.sqrt(alpha_sq * (1 - alpha_sq) / runs)
                    if sigma == 0.0:
                        ok_mc = rate == alpha_sq
                        worst_mc_sigmas = max(worst_mc_sigmas,
                                              0.0 if ok_mc else math.inf)
                    else:
                        worst_mc_sigmas = max(worst_mc_sigmas,
                                              abs(rate - alpha_sq) / sigma)
        c.finish(worst_law < 1e-10 and worst_mc_sigmas < 4.0,
                 f"record law |P - alpha^2| max {worst_law:.2e} < 1e-10, "
                 f"Monte-Carlo worst deviation {worst_mc_sigmas:.2f} sigma "
                 f"< 4 at 1e5 runs")


def test_criterion_6_locker_round_trip():
    with _Criterion(6, "locker round trip and orthogonal rejection", 60.0) as c:
        shape_rng = np.random.default_rng(4242)
        root = RandomStream(777)
        failures = 0
        for i in range(500):
            m = int(shape_rng.integers(1, 9))
            n = int(shape_rng.integers(1, 4))
            bits = "".join(str(b) for b in shape_rng.integers(0, 2, size=m))
            if set(bits) == {"0"}:
                bits = "1" + bits[1:]
            params = OtpParams.random(n, root.substream(3 * i))
            locker = q.store_message(bits, params)

            correct = q.attempt_unlock(locker, q.generate_otp(params),
                                       root.substream(3 * i + 1))
            if not (correct.accepted and correct.retrieved_bits == bits):
                failures += 1

            flip = int(shape_rng.integers(0, n))
            ortho_bits = ["0"] * n
            ortho_bits[flip] = "1"
            probe = q.apply_rotation(q.basis_state("".join(ortho_bits)),
                                     params)
            wrong = q.attempt_unlock(locker, probe, root.substream(3 * i + 2))
            if wrong.accepted or wrong.retrieved_bits != "0" * m:
                failures += 1
        c.finish(failures == 0,
                 "500 correct-password retrievals exact and 500 "
                 "orthogonal-password rejections all-zero")


def test_criterion_7_teleport_fidelity():
    with _Criterion(7, "teleportation fidelity over forced branches", 5.0) as c:
        rng = np.random.default_rng(1313)
        worst = 1.0
        for _ in range(1000):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            psi = q.StateVector(1, v)
            for prob, received in enumerate_teleport_branches(psi).values():
                assert abs(prob - 0.25) < 1e-12
                worst = min(worst, overlap(psi, received))
        c.finish(1.0 - worst < 1e-12,
                 f"1000 states x 4 branches, min fidelity 1 - "
                 f"{1.0 - worst:.2e}")


def test_criterion_8_fixed_points():
    with _Criterion(8, "computational states are fixed points", 1.0) as c:
        params = VerificationParams(theta=0.3, iterations=1)
        worst = 0.0
        for bits in ("0", "1"):
            reference = q.basis_state(bits).amplitudes
            state = q.basis_state(bits)
            root = RandomStream(31337)
            for i in range(100):
                _, state, _ = iterate_once(state, params, root.substream(i))
                worst = max(worst, phase_aligned_distance(
                    reference, state.amplitudes))
        c.finish(worst < 1e-12,
                 f"100 iterations at theta=0.3, max drift {worst:.2e}")

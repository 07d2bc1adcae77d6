"""Time each layer of ``qlocker`` on its own and print one JSON object.

Every entry is the best of five timings of a batch of calls, in
microseconds per call, on fixed inputs drawn from fixed seeds:

- ``rng.substream``: one child stream;
- ``rng.RandomStream``: one stream built and never drawn from, as
  ``verify-demo``'s circuit streams and the commands' root streams are;
- ``rng.shot_uniforms``: shots x draws per shot, as the commands draw them,
  among them ``65x1001``, a block of a 1000-step ``converge``,
  ``6x10001``, a block of a 10000-step one at ``--shots 64``, and ``1x2``
  and ``2x2``, the smallest calls; and ``3x512x1`` and ``3x4369x1``: three
  streams of 512 and of 4369 shots of one draw in one pass, as
  ``verify-demo`` draws its three bases at its default shots and in each
  block of ``--shots 1048576``.  The sizes lie on each side of the choice
  between the two Philox paths: a call of at most 64 keys (``1x2``,
  ``2x2``, ``5x78``, ``32x39``, ``64x39``, ``6x10001``) draws key by key
  from numpy's own Philox, and ``512x1``, ``128x39``, ``1598x39``,
  ``65x1001``, ``3x512x1`` and ``3x4369x1`` run the vectorized pass;
- ``rng.randoms`` and ``rng.below``: 32768 draws, and 32768 draws tested
  against 0.3 on the raw words, as ``sweep`` draws one step of a cell;
- ``statevector.apply_gate`` (Ry on qubit 0) and ``measure_qubit`` (z on
  qubit 0), by register width, and ``measure_qubit`` on one qubit in x
  and in y (``1 x``, ``1 y``), each rotating into its basis by one gate
  whose matrix is a one-row ``(2, 2, 1)`` stack, and back by its adjoint;
- ``statevector._gate_rows``: one gate on S rows of n qubits, keyed
  ``{n}x{S} gate``: Rx on one row, Ry on 512 rows that broadcast one
  register, the coupling (Rx controlled on 0) on 512 rows in the layout
  the kernels return, a CNOT on one row, an X with two controls of mixed
  polarity on one 8-qubit row, and H on 1598 one-qubit rows in the
  kernels' layout;
- ``statevector._measure_rows``: one weak step on one-qubit rows, by row
  count, the rows in the layout the kernel itself returns;
- ``statevector.sample_circuits``: the tomography workload's three
  circuits (Ry(pi/4), the coupling at theta 0.2, and an x, y or z readout
  of the ancilla) at 512 shots, sampled as one batch (``3x512``), where the
  readout that ends the circuits is decided from one row per circuit; and
  the same circuits with a z readout of the system before the ancilla's
  (``3x512 mid``), where each block's rows are built at that first readout
  and both readouts run over every row;
- ``verification._box_rows``: one 38-step box on |+> rows, by row count,
  at theta 0.1 under the paper policy, and on 1598 rows at theta 0.3 under
  the strict policy (``1598 strict``), where about half the rows click
  and step on draws of 0 from then on; and a 500-step box on 4096 |+>
  rows at theta 0.1 under each policy (``4096x500 paper`` and ``4096x500
  strict``), where every row stays in every kernel call under both, so
  the two differ by the strict box's ``np.where`` of its click mask over
  each step's draws and by its early stop once every row has clicked;
  each box reads its draws step-major, as ``shot_uniforms`` lays them
  out;
- ``verification.sample_acceptance_runs``: one call of 32768 runs of a
  38-step box at theta 0.2 on P(|0>) = 0.5, judged under both policies, as
  ``sweep`` samples one password qubit of a (theta, N, overlap) group,
  which every cell of the group with more qubits than that reads;
- ``teleport.teleport``: one qubit, with a fresh Bell pair;
- ``locker.apply_inverse_rotation``: the one-time password as a product
  of 2 and of 24 factors (three kernel calls with one entry per factor),
  and combined into an 8-qubit register (three kernel calls per qubit);
- ``locker.attempt_unlock``: a fresh copy of the one-time password, by
  ``n`` password qubits x ``m`` message bits;
- ``locker.attempt_unlocks``: 1000 copies of an 8-qubit product probe
  whose qubits each have overlap 0.5 with |0> after the inverse rotation,
  as ``locker-demo --otp-qubits 8 --wrong-overlap 0.5 --repeat 1000``
  presents them;
- ``cli.build_parser``: one fresh parser;
- ``cli.main``: one report of the converge, tomography and locker
  workloads of ``perfbench/workloads.py``, and one of the sweep workload's
  reports (``--grid-theta 0.2``), at ``--seed 9001``, with standard output
  sent to ``os.devnull``.

``cli.import`` is start-up, not a call: the median wall time of ``import
qlocker.cli``, after ``import numpy``, over five fresh interpreters, in
microseconds, and the ``qlocker`` modules that import loaded.  Each
interpreter inherits this one's environment, so under
``PYTHONDONTWRITEBYTECODE=1`` with no cached bytecode the time includes
compiling every module it loads.  The other entries call the package's
public names bound once, so they pay no lookup in the package's lazy
table.

``src_lines`` is the total of ``tools/src_lines.py``.  On a shared host the
best of five in one process still moves by up to 2x between runs of the same
tree, so one run per tree cannot tell apart changes smaller than about 2x:
compare trees over several alternating fresh processes.  The script takes
no options and writes no file:

    python3 tools/layers.py
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import qlocker  # noqa: E402
from qlocker import cli, statevector, verification  # noqa: E402
from qlocker.rng import shot_uniforms  # noqa: E402
from src_lines import counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEATS = 5
# every public name, bound once, not looked up in the package per call
q = SimpleNamespace(**{name: getattr(qlocker, name)
                       for name in qlocker.__all__})
IMPORT_CLI = """
import sys, time
import numpy
start = time.perf_counter()
import qlocker.cli
took = time.perf_counter() - start
print(took, *sorted(m for m in sys.modules if m.startswith("qlocker.")))
"""


def best(call, number: int) -> float:
    """The best of :data:`REPEATS` timings of ``number`` calls of ``call``,
    in microseconds per call."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - start) / number)
    return round(min(times) * 1e6, 2)


def cli_import() -> dict:
    """``import qlocker.cli`` in :data:`REPEATS` fresh interpreters: the
    median wall time in microseconds, and the qlocker modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env,
                           capture_output=True, text=True,
                           check=True).stdout.split()
            for _ in range(REPEATS)]
    return {"median_us": round(statistics.median(
        float(run[0]) for run in runs) * 1e6, 1), "loaded": runs[0][1:]}


def random_register(n: int, seed: int) -> q.StateVector:
    amps = np.random.default_rng(seed).normal(size=(1 << n, 2)) @ [1, 1j]
    return q.StateVector(n, amps / np.linalg.norm(amps))


def one_qubit_rows(shots: int) -> tuple[np.ndarray, np.ndarray]:
    """``shots`` one-qubit rows as the kernel returns them, and a uniform
    per row."""
    rng = np.random.default_rng(shots)
    amps = rng.normal(size=(shots, 2, 2)) @ [1, 1j]
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    uniforms = rng.random(shots)
    kraus = verification._weak_step(0.1)
    _, _, rows = statevector._measure_rows(amps, 0, kraus, uniforms)
    return rows, uniforms


def layers() -> dict:
    stream = q.RandomStream(9001)
    out: dict = {"unit": f"us per call, best of {REPEATS}"}
    out["rng.substream"] = best(lambda: stream.substream(7), 2000)
    out["rng.RandomStream"] = best(lambda: q.RandomStream(9001, (7,)), 2000)
    out["rng.shot_uniforms"] = {
        f"{shots}x{k}": best(lambda: stream.shot_uniforms(range(shots), k),
                             number)
        for shots, k, number in ((512, 1, 200), (128, 39, 200),
                                 (5, 78, 200), (1598, 39, 20),
                                 (65, 1001, 20), (1, 2, 500), (2, 2, 500),
                                 (32, 39, 200), (64, 39, 200),
                                 (6, 10001, 20))}
    streams = [q.RandomStream(seed) for seed in (1, 2, 3)]
    for shots, number in ((512, 200), (4369, 20)):
        out["rng.shot_uniforms"][f"3x{shots}x1"] = best(
            lambda: shot_uniforms(streams, range(shots), 1), number)
    # a stream of its own for sweep's draws, so that the entries after
    # these take the inputs they took before these were added
    sweep_stream = q.RandomStream(32768)
    out["rng.randoms"] = best(lambda: sweep_stream.randoms(32768), 200)
    out["rng.below"] = best(lambda: sweep_stream.below(0.3, 32768), 200)
    out["statevector.apply_gate"] = {}
    for n, number in ((1, 2000), (3, 2000), (8, 500), (18, 5)):
        state, gate = random_register(n, n), q.ry(0.3, 0)
        out["statevector.apply_gate"][str(n)] = best(
            lambda: q.apply_gate(state, gate), number)
    out["statevector.measure_qubit"] = {}
    for n, number in ((3, 2000), (18, 5)):
        state = random_register(n, n)
        out["statevector.measure_qubit"][str(n)] = best(
            lambda: q.measure_qubit(state, 0, "z", stream), number)
    # a stream of its own, so that the entries after these take the inputs
    # they took before these were added
    basis_stream = q.RandomStream(1)
    state = random_register(1, 1)
    for basis in "xy":
        out["statevector.measure_qubit"][f"1 {basis}"] = best(
            lambda: q.measure_qubit(state, 0, basis, basis_stream), 2000)
    out["statevector._gate_rows"] = {}
    for n, shots, name, gate, layout, number in (
            (1, 1, "rx", q.rx(0.3, 0), "alone", 2000),
            (2, 512, "ry", q.ry(0.3, 0), "broadcast", 1000),
            (2, 512, "rx on 0", q.build_controlled0_rx(0.2), "T", 1000),
            (3, 1, "cnot", q.cnot(0, 1), "alone", 2000),
            (8, 1, "x on 1, 0", q.x(2, ((0, 1), (5, 0))), "alone", 2000),
            (1, 1598, "h", q.h(0), "T", 500)):
        regs = np.random.default_rng(n).normal(size=(shots, 1 << n, 2)) @ [
            1, 1j]
        rows = {"alone": regs, "T": np.ascontiguousarray(regs.T).T,
                "broadcast": np.broadcast_to(regs[0], regs.shape)}[layout]
        out["statevector._gate_rows"][f"{n}x{shots} {name}"] = best(
            lambda: statevector._gate_rows(rows, gate), number)
    kraus = verification._weak_step(0.1)
    out["statevector._measure_rows"] = {}
    for shots in (1, 2, 10, 128, 512, 1598):
        rows, uniforms = one_qubit_rows(shots)
        out["statevector._measure_rows"][str(shots)] = best(
            lambda: statevector._measure_rows(rows, 0, kraus, uniforms),
            max(20, 40000 // (shots + 20)))
    prepare = [q.ry(np.pi / 4, 0), q.build_controlled0_rx(0.2)]
    out["statevector.sample_circuits"] = {}
    for name, mid in (("3x512", []), ("3x512 mid", [q.Measurement(0)])):
        circuits = [(prepare + mid + [q.Measurement(1, basis)], seed)
                    for seed, basis in enumerate("xyz")]
        out["statevector.sample_circuits"][name] = best(
            lambda: q.sample_circuits(2, circuits, 512), 200)
    plus = q.apply_gate(q.new_state(1), q.h(0)).amplitudes
    out["verification._box_rows"] = {}
    for name, shots, params, number in (
            ("128", 128, q.VerificationParams(0.1, 38), 50),
            ("1598", 1598, q.VerificationParams(0.1, 38), 10),
            ("1598 strict", 1598,
             q.VerificationParams(0.3, 38, q.STRICT_ABORT), 10)):
        rows = np.broadcast_to(plus, (shots, 2))
        draws = stream.shot_uniforms(range(shots), 39).T
        out["verification._box_rows"][name] = best(
            lambda: verification._box_rows(rows, 0, params, draws), number)
    # a stream of its own, so that the entries after these take the
    # inputs they took before these were added
    draws = q.RandomStream(4096).shot_uniforms(range(4096), 501).T
    rows = np.broadcast_to(plus, (4096, 2))
    for policy in verification.CLICK_POLICIES:
        params = q.VerificationParams(0.1, 500, policy)
        out["verification._box_rows"][f"4096x500 {policy}"] = best(
            lambda: verification._box_rows(rows, 0, params, draws), 2)
    out["verification.sample_acceptance_runs"] = best(
        lambda: verification.sample_acceptance_runs(
            0.5, q.VerificationParams(0.2, 38), 32768, sweep_stream), 20)
    psi = random_register(1, 1)
    out["teleport.teleport"] = best(
        lambda: q.teleport(psi.copy(), q.open_channel("layers"), stream),
        1000)
    out["locker.apply_inverse_rotation"] = {}
    for form, n, number in (("product", 2, 500), ("product", 24, 50),
                            ("register", 8, 200)):
        # a stream of its own, so that the entries after this one take the
        # inputs they took before it was added
        otp = q.OtpParams.random(n, q.RandomStream(n))
        password = q.generate_otp(otp)
        if form == "register":
            password = password.register()
        out["locker.apply_inverse_rotation"][f"{form} {n}"] = best(
            lambda: q.apply_inverse_rotation(password, otp), number)
    out["locker.attempt_unlock"] = {}
    for n, m in ((1, 4), (2, 8), (8, 8)):
        otp = q.OtpParams.random(n, stream)
        locker = q.store_message("1" * m, otp)
        password = q.generate_otp(otp)
        out["locker.attempt_unlock"][f"{n}x{m}"] = best(
            lambda: q.attempt_unlock(locker, password.copy(), stream), 200)
    otp = q.OtpParams.random(8, stream)
    locker = q.store_message("1" * 8, otp)
    probe = cli._wrong_password(otp, 0.5, stream)
    out["locker.attempt_unlocks"] = best(
        lambda: q.attempt_unlocks(locker, probe, stream, range(1000)), 2)
    out["cli.build_parser"] = best(cli.build_parser, 200)
    out["cli.main"] = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for name in ("converge", "tomography", "locker"):
            argv = [*WORKLOADS[name].argv, "--seed", "9001"]
            out["cli.main"][name] = best(lambda: cli.main(argv), 20)
        argv = [*WORKLOADS["sweep"].argv, "--grid-theta", "0.2",
                "--seed", "9001"]
        out["cli.main"]["sweep"] = best(lambda: cli.main(argv), 1)
    out["cli.import"] = cli_import()
    out["src_lines"] = sum(counts().values())
    return out


def main() -> int:
    print(json.dumps(layers(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

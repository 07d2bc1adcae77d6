"""The shot-batched kernels against the scalar paths they replace.

``sample_shots`` runs a circuit once over a block of shots and
``run_box_shots`` runs the verification box once over a block of shots;
both must give every shot exactly what it gets alone on its own sub-stream,
however the shots are split into blocks and in whatever order the blocks
run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlocker as q
from qlocker import (
    Measurement,
    RandomStream,
    VerificationParams,
    statevector,
    verification,
)

from oracles import reference_sample_shots

BATCH_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                          database=None)


def random_register(n: int, seed: int) -> q.StateVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return q.StateVector(n, v / np.linalg.norm(v))


@st.composite
def circuits(draw):
    """A register width of 1 to 3 qubits and a circuit on it: gates of every
    kind with random controls of both polarities, and x/y/z measurements
    anywhere in the circuit."""
    n = draw(st.integers(1, 3))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            ops.append(Measurement(draw(st.integers(0, n - 1)),
                                   draw(st.sampled_from("xyz"))))
            continue
        target = draw(st.integers(0, n - 1))
        others = [k for k in range(n) if k != target]
        controls = tuple(
            (k, draw(st.integers(0, 1)))
            for k in draw(st.lists(st.sampled_from(others), unique=True,
                                   max_size=len(others)))) if others else ()
        kind = draw(st.sampled_from(("x", "h", "s", "sdg", "rx", "ry", "rz")))
        angle = (draw(st.floats(-3.1, 3.1)) if kind.startswith("r")
                 else None)
        ops.append(q.GateOp(kind, target, angle=angle, controls=controls))
    return n, ops


def split(mp, cells, reverse=False):
    """Blocks of at most ``cells`` cells, run last block first if asked."""
    mp.setattr(statevector, "SHOT_BLOCK_CELLS", cells)
    if reverse:
        original = statevector._shot_blocks

        def backwards(shots, row_cells):
            return original(shots, row_cells)[::-1]

        mp.setattr(statevector, "_shot_blocks", backwards)
        mp.setattr(verification, "_shot_blocks", backwards)


SPLITS = [(1, False), (3, False), (3, True), (40, True)]


@BATCH_SETTINGS
@given(circuit=circuits(), shots=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_sample_shots_matches_the_per_shot_oracle(circuit, shots, seed):
    n, ops = circuit
    want = reference_sample_shots(n, ops, shots, seed)
    assert q.sample_shots(n, ops, shots, seed).counts == want
    for cells, reverse in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            split(mp, cells, reverse)
            assert q.sample_shots(n, ops, shots, seed).counts == want


def box_records(state, k, params, shots, seed):
    """``{shot: (trajectory, bitstring, clicked)}`` from run_box_shots."""
    records = {}
    for runs in q.run_box_shots(state, k, params, shots, RandomStream(seed)):
        assert len(runs.shots) == len(runs.final)
        bitstrings = runs.bitstrings()
        clicked = runs.clicked()
        for row, shot in enumerate(runs.shots):
            records[shot] = (runs.trajectory(row), bitstrings[row],
                             bool(clicked[row]))
    return records


@BATCH_SETTINGS
@given(n=st.integers(1, 3), data=st.data(), theta=st.floats(0.05, 1.3),
       iterations=st.integers(0, 10),
       policy=st.sampled_from(verification.CLICK_POLICIES),
       shots=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_batched_box_matches_run_box_shot_for_shot(n, data, theta,
                                                  iterations, policy, shots,
                                                  seed):
    k = data.draw(st.integers(0, n - 1))
    state = random_register(n, seed)
    params = VerificationParams(theta, iterations, policy)
    root = RandomStream(seed)
    records = box_records(state, k, params, shots, seed)
    assert sorted(records) == list(range(shots))
    for shot, (got, bitstring, clicked) in records.items():
        want, _ = q.run_box(state, k, params, root.substream(shot))
        assert got.ancilla_outcomes == want.ancilla_outcomes
        assert got.step_p1 == want.step_p1
        assert got.final_system_outcome == want.final_system_outcome
        assert got.accepted == want.accepted
        assert bitstring == want.outcomes_bitstring()
        assert clicked == want.clicked()
    for cells, reverse in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            split(mp, cells, reverse)
            assert box_records(state, k, params, shots, seed) == records


def test_a_strict_click_stops_its_own_row_only():
    # |+> clicks often at theta 1.2; rows that did not click keep iterating
    plus = q.apply_gate(q.new_state(1), q.h(0))
    params = VerificationParams(1.2, 6, q.STRICT_ABORT)
    (runs,) = q.run_box_shots(plus, 0, params, 200, RandomStream(8))
    clicked = runs.clicked()
    assert 0 < clicked.sum() < 200
    assert set(runs.steps[~clicked].tolist()) == {6}
    first = runs.outcomes[clicked].argmax(axis=1)
    np.testing.assert_array_equal(runs.steps[clicked], first + 1)
    assert not runs.accepted[clicked].any()
    # nothing is recorded past a row's first click
    past = np.arange(6)[None, :] >= runs.steps[:, None]
    assert not runs.outcomes[past].any()
    assert not runs.step_p1[past].any()


@pytest.mark.parametrize("shots,row_cells", [
    (1, 2), (100, 2), (100, 41), (5, 1 << 20), (70000, 3)])
def test_shot_blocks_cover_every_shot_in_order(shots, row_cells):
    blocks = statevector._shot_blocks(shots, row_cells)
    assert [i for b in blocks for i in b] == list(range(shots))
    budget = statevector.SHOT_BLOCK_CELLS
    assert all(len(b) * row_cells <= budget or len(b) == 1 for b in blocks)

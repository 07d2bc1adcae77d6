"""The shot-batched kernels against the scalar paths they replace.

``sample_shots`` runs a circuit once over a block of shots; every shot
must get exactly what it gets alone on its own sub-stream, however the
shots are split into blocks and in whatever order the blocks run.
``box_shots`` runs the verification box on many copies of one register as
rows, and each row must be the ``run_box`` of a fresh copy on its own
sub-stream, however the rows are split into blocks and in whatever order
the blocks run.  ``attempt_unlocks`` runs many presentations of one probe
as rows, and each row must be the ``attempt_unlock`` of a fresh copy on its
own sub-stream, in the same way.  All three take their blocks from
``statevector._shot_rows``, so one patch of ``statevector`` splits them.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlocker as q
from qlocker import (
    Measurement,
    OtpParams,
    RandomStream,
    VerificationParams,
    statevector,
    verification,
)

from oracles import reference_sample_shots, reference_unlocks

BATCH_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                          database=None)


@st.composite
def gates(draw, n):
    """A gate of any kind on an n-qubit register, with random controls of
    both polarities."""
    target = draw(st.integers(0, n - 1))
    others = [k for k in range(n) if k != target]
    controls = tuple(
        (k, draw(st.integers(0, 1)))
        for k in draw(st.lists(st.sampled_from(others), unique=True,
                               max_size=len(others)))) if others else ()
    kind = draw(st.sampled_from((q.x, q.h, q.s, q.sdg, q.rx, q.ry, q.rz)))
    if kind in (q.rx, q.ry, q.rz):
        return kind(draw(st.floats(-3.1, 3.1)), target, controls)
    return kind(target, controls)


@st.composite
def circuits(draw):
    """A register width of 1 to 3 qubits and a circuit on it: gates, and
    x/y/z measurements anywhere in the circuit."""
    n = draw(st.integers(1, 3))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            ops.append(Measurement(draw(st.integers(0, n - 1)),
                                   draw(st.sampled_from("xyz"))))
        else:
            ops.append(draw(gates(n)))
    return n, ops


@st.composite
def preps(draw):
    """A register width of 1 to 3 qubits and gates preparing a state on it:
    a random Ry on every qubit, a CNOT chain that entangles them, then
    random gates."""
    n = draw(st.integers(1, 3))
    ops = [q.ry(draw(st.floats(0.1, 3.0)), k) for k in range(n)]
    ops += [q.cnot(k, k + 1) for k in range(n - 1)]
    ops += draw(st.lists(gates(n), max_size=4))
    return n, ops


def split(mp, cells, reverse=False):
    """Blocks of at most ``cells`` cells, run last block first if asked.

    Returns a list that fills, as the blocks are made, with the positions
    of the shots in the order their blocks run.
    """
    mp.setattr(statevector, "SHOT_BLOCK_CELLS", cells)
    original = statevector._shot_blocks
    order = []

    def blocks(shots, row_cells):
        run = original(shots, row_cells)[::-1 if reverse else 1]
        order.extend(i for block in run for i in block)
        return run

    mp.setattr(statevector, "_shot_blocks", blocks)
    return order


SPLITS = [(1, False), (3, False), (40, False), (3, True), (40, True)]


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


@st.composite
def one_qubit_preps(draw):
    """A one-qubit state: a random Ry, then random gates."""
    state = q.apply_gate(q.new_state(1), q.ry(draw(st.floats(0.1, 3.0)), 0))
    for gate in draw(st.lists(gates(1), max_size=4)):
        state = q.apply_gate(state, gate)
    return state


def box_shot_records(state, params, stream, shots):
    """Every shot's trajectory and record from ``box_shots``, in order."""
    trajectories, records = [], []
    for (box,) in q.box_shots(state, params, stream, shots):
        trajectories += verification._trajectories(box)
        records += q.box_records(box)
    return trajectories, records


@BATCH_SETTINGS
@given(state=one_qubit_preps(), theta=st.floats(0.05, 1.3),
       iterations=st.integers(0, 10),
       policy=st.sampled_from(verification.CLICK_POLICIES),
       count=st.integers(1, 30), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_box_shots_match_run_box_per_shot(state, theta, iterations, policy,
                                          count, data, seed):
    first = data.draw(st.integers(0, 2**32 - count))
    shots = range(first, first + count)
    params = VerificationParams(theta, iterations, policy)
    root = RandomStream(seed)
    want = [q.run_box(state, 0, params, root.substream(i))[0] for i in shots]
    records = [t.outcomes_bitstring() + str(t.final_system_outcome)
               for t in want]
    assert box_shot_records(state, params, root, shots) == (want, records)
    for cells, reverse in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            order = split(mp, cells, reverse)
            got = box_shot_records(state, params, root, shots)
            assert got == ([want[i] for i in order],
                           [records[i] for i in order])


def converge_records(params, shots, seed):
    """``converge``'s tally: the box's records on |+>, in shot order."""
    plus = q.apply_gate(q.new_state(1), q.h(0))
    _, records = box_shot_records(plus, params, RandomStream(seed),
                                  range(shots))
    return Counter(records)


def test_strict_records_end_at_the_first_click():
    # |+> clicks often at theta 1.2; runs that did not click keep iterating
    params = VerificationParams(1.2, 6, q.STRICT_ABORT)
    records = converge_records(params, 200, 8)
    clicked = {r: c for r, c in records.items() if "1" in r[:-1]}
    assert 0 < sum(clicked.values()) < 200
    for record in records:
        if record in clicked:
            assert record.endswith("10") and record.count("1") == 1
        else:
            assert len(record) == 6 + 1
    # the paper policy keeps every step after a click
    paper = VerificationParams(1.2, 6)
    assert {len(r) for r in converge_records(paper, 200, 8)} == {6 + 1}


def assert_unlocks_match(locker, probe, stream, shots):
    """``attempt_unlocks`` row for row against one ``attempt_unlock`` per
    copy, in one block and in every split of :data:`SPLITS`; returns the
    oracle's results."""
    want = reference_unlocks(locker, probe, stream, shots)

    def check(order=range(len(want))):
        got = list(q.attempt_unlocks(locker, probe, stream, shots))
        assert len(got) == len(order) == len(want)
        for a, b in zip(got, [want[i] for i in order]):
            assert (a.accepted, a.retrieved_bits) == (b.accepted,
                                                      b.retrieved_bits)
            assert len(a.trajectories) == len(b.trajectories)
            for s, t in zip(a.trajectories, b.trajectories):
                assert s.ancilla_outcomes == t.ancilla_outcomes
                assert s.step_p1 == t.step_p1
                assert s.final_system_outcome == t.final_system_outcome
                assert s.accepted == t.accepted

    check()
    for cells, reverse in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            check(split(mp, cells, reverse))
    return want


@BATCH_SETTINGS
@given(prep=preps(), theta=st.floats(0.05, 1.3),
       iterations=st.integers(0, 8),
       policy=st.sampled_from(verification.CLICK_POLICIES),
       count=st.integers(1, 12), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_unlock_rows_match_one_attempt_per_copy(prep, theta, iterations,
                                                policy, count, data, seed):
    n, ops = prep
    first = data.draw(st.integers(0, 2**32 - count))
    params = OtpParams.random(n, RandomStream(seed, (0,)))
    locker = q.store_message("101", params,
                             VerificationParams(theta, iterations, policy))
    probe = q.new_state(n)
    for gate in ops:
        probe = q.apply_gate(probe, gate)
    assert_unlocks_match(locker, probe, RandomStream(seed, (1,)),
                         range(first, first + count))


def test_strict_rows_read_on_from_their_own_clicks():
    # strong coupling on a GHZ-like probe: rows click at different steps of
    # the first box, so each row starts the later boxes at its own column
    params = OtpParams.random(3, RandomStream(80))
    locker = q.store_message("101", params,
                             VerificationParams(1.0, 8, q.STRICT_ABORT))
    probe = q.apply_gate(q.new_state(3), q.ry(1.2, 0))
    probe = q.apply_gate(probe, q.cnot(0, 1))
    probe = q.apply_gate(q.apply_gate(probe, q.cnot(1, 2)), q.h(2))
    want = assert_unlocks_match(locker, probe, RandomStream(81), range(40))
    first_box = {len(r.trajectories[0].ancilla_outcomes) for r in want
                 if r.trajectories[0].clicked()}
    later_clicks = sum(t.clicked() for r in want for t in r.trajectories[1:])
    assert len(first_box) > 1 and later_clicks > 0


@pytest.mark.parametrize("shots,row_cells", [
    (1, 2), (100, 2), (100, 41), (5, 1 << 20), (70000, 3)])
def test_shot_blocks_cover_every_shot_in_order(shots, row_cells):
    blocks = statevector._shot_blocks(shots, row_cells)
    assert [i for b in blocks for i in b] == list(range(shots))
    budget = statevector.SHOT_BLOCK_CELLS
    assert all(len(b) * row_cells <= budget or len(b) == 1 for b in blocks)

"""The shot-batched kernels against the scalar paths they replace.

``sample_shots`` runs a circuit once over a block of shots; every shot
must get exactly what it gets alone on its own sub-stream, however the
shots are split into blocks and in whatever order the blocks run.
``sample_circuits`` runs circuits of one shape as the rows of one block,
and each must get the histogram ``sample_shots`` gives it alone.
``box_shots`` runs the verification box on many copies of one register as
rows, and each row must be the ``run_box`` of a fresh copy on its own
sub-stream, however the rows are split into blocks and in whatever order
the blocks run.  ``attempt_unlocks`` runs many presentations of one probe
as rows, and each row's boxes and acceptance, and the last row's result,
must be the ``attempt_unlock`` of a fresh copy on its own sub-stream, in
the same way.  ``box_shots`` and ``attempt_unlocks`` run one block loop,
``verification._box_blocks``; it and ``sample_circuits`` cut their blocks
with ``statevector._shot_blocks``, read through the module, so one patch
of ``statevector`` splits all four.  A product password's copies run
every box at once over one-qubit rows, and must unlock, and collapse, as
the same password combined into one register does.
"""

import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from oracles import gate_matrix, reference_sample_shots, reference_unlocks

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
def circuit_batches(draw):
    """A register width of 1 to 3 qubits and 1 to 4 circuits of one shape
    on it, each with its seed: at each position either every circuit reads
    out one qubit, each in its own basis, or every circuit holds a gate,
    one shared op object or a gate of its own.  A readout ends the circuits
    or not."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("readout", "shared", "own")))
        if kind == "readout":
            qubit = draw(st.integers(0, n - 1))
            columns.append([Measurement(qubit, draw(st.sampled_from("xyz")))
                            for _ in range(count)])
        elif kind == "shared":
            columns.append([draw(gates(n))] * count)
        else:
            columns.append([draw(gates(n)) for _ in range(count)])
    if draw(st.booleans()):
        qubit = draw(st.integers(0, n - 1))
        columns.append([Measurement(qubit, basis) for basis in
                        draw(st.lists(st.sampled_from("xyz"),
                                      min_size=count, max_size=count))])
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=count,
                          max_size=count))
    return n, [([column[g] for column in columns], seeds[g])
               for g in range(count)]


# the only readout ends the circuits: z of |0> (p1 = 0), z of X|0> (p0 = 0)
# and x of |0>, each decided from its circuit's one row
ONE_ENDING_READOUT = (1, [([q.z(0), Measurement(0, "z")], 11),
                          ([q.x(0), Measurement(0, "z")], 12),
                          ([q.z(0), Measurement(0, "x")], 13)])
# a gate of each circuit's own before the first readout, so that the rows
# built at that readout differ by circuit, then gates of their own again and
# a second readout
SHARED_CNOT = q.cnot(0, 1)
ROWS_BUILT_AT_THE_FIRST_READOUT = (2, [
    ([q.ry(0.4, 0), SHARED_CNOT, Measurement(0, "x"), q.rx(0.7, 1),
      Measurement(1, "z")], 21),
    ([q.ry(1.1, 0), SHARED_CNOT, Measurement(0, "y"), q.h(1),
      Measurement(1, "x")], 22),
    ([q.h(0), SHARED_CNOT, Measurement(0, "z"), q.s(1),
      Measurement(1, "y")], 23)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch=circuit_batches(), shots=st.integers(1, 30))
@example(batch=ONE_ENDING_READOUT, shots=30)
@example(batch=ROWS_BUILT_AT_THE_FIRST_READOUT, shots=30)
def test_circuits_sampled_as_one_batch_are_each_sampled_alone(batch, shots):
    n, circuits = batch
    want = [list(reference_sample_shots(n, ops, shots, seed).items())
            for ops, seed in circuits]
    alone = [q.sample_shots(n, ops, shots, seed) for ops, seed in circuits]
    got = q.sample_circuits(n, circuits, shots)
    # the oracle's outcomes, tallied in its first-appearance order
    assert [list(h.counts.items()) for h in got] == want
    assert [list(h.counts.items()) for h in alone] == want
    assert [h.shots for h in got] == [shots] * len(circuits)
    for cells, reverse in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            order = split(mp, cells, reverse)
            got = q.sample_circuits(n, circuits, shots)
        # the outcomes first appear in the order their blocks ran them
        assert [list(h.counts.items()) for h in got] == [
            list(reference_sample_shots(n, ops, shots, seed, order).items())
            for ops, seed in circuits]


def test_circuits_of_different_shapes_are_refused():
    prep = [q.h(0), q.cnot(0, 1)]
    for other in (prep,                                # one op fewer
                  prep + [q.x(1)],                     # a gate, no readout
                  [q.h(0), Measurement(0), q.x(1)],    # another position
                  prep + [Measurement(1)]):            # another qubit
        with pytest.raises(ValueError):
            q.sample_circuits(2, [(prep + [Measurement(0, "x")], 1),
                                  (other, 2)], 10)
    with pytest.raises(ValueError):
        q.sample_circuits(2, [], 10)
    with pytest.raises(TypeError):
        q.sample_circuits(1, [([Measurement(0)], 1), (["measure"], 2)], 10)


@pytest.mark.parametrize("shots", [10.0, True, np.float64(10)],
                         ids=["float", "bool", "numpy-float"])
def test_circuit_shots_must_be_an_integer(shots):
    circuits = [([q.h(0), Measurement(0, basis)], seed)
                for seed, basis in enumerate("xz")]
    with pytest.raises(TypeError, match="shots must be an integer"):
        q.sample_circuits(1, circuits, shots)


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
        trajectories += [verification._trajectory(box, row)
                         for row in range(len(box.steps))]
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


def ghz_like(n):
    """Ry(1.2) on qubit 0, then a CNOT chain: every box's qubit is
    entangled with the others."""
    reg = q.apply_gate(q.new_state(n), q.ry(1.2, 0))
    for k in range(n - 1):
        reg = q.apply_gate(reg, q.cnot(k, k + 1))
    return reg


@pytest.mark.parametrize("state", [
    q.apply_gate(q.new_state(1), q.ry(1.2, 0)),
    ghz_like(3),
    q.ProductState([[0.6, 0.8], [1.0, 0.0], [0.8, 0.6j]]),
], ids=["1-qubit", "3-qubit", "product"])
@pytest.mark.parametrize("theta", [0.3, np.nextafter(np.pi / 2, 0)])
@pytest.mark.parametrize("iterations", [0, 1, 8])
def test_strict_box_is_the_paper_box_cut_at_the_first_click(
        state, theta, iterations):
    # the same rows and draws under both policies: a strict record is the
    # paper record up to its first click, the readouts agree, and a row
    # that clicked is all strict rejects beyond the paper's
    shots = range(40)
    paper, strict = (
        [box for boxes in q.box_shots(state, VerificationParams(
            theta, iterations, policy), RandomStream(5), shots)
         for box in boxes]
        for policy in verification.CLICK_POLICIES)
    for want, got in zip(paper, strict, strict=True):
        clicked = want.outcomes.any(1)
        first = [row.index(1) + 1 if 1 in row else iterations
                 for row in want.outcomes.tolist()]
        assert got.steps.tolist() == first
        for row, steps in enumerate(first):
            assert got.outcomes[row, :steps].tolist() == \
                want.outcomes[row, :steps].tolist()
            assert not got.outcomes[row, steps:].any()
        assert got.final.tolist() == want.final.tolist()
        assert got.accepted.tolist() == (want.accepted & ~clicked).tolist()


def test_a_strict_box_stops_once_every_row_has_clicked(monkeypatch):
    # |0> rows click at each step with sin^2(1.5) = 0.995: all 32, one
    # block, have clicked within a few of the 2000 steps
    calls = []
    kernel = verification._measure_rows

    def counting(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(verification, "_measure_rows", counting)
    params = VerificationParams(1.5, 2000, q.STRICT_ABORT)
    (box,), = q.box_shots(q.new_state(1), params, RandomStream(3), range(32))
    assert (box.steps < 10).all() and not box.accepted.any()
    assert calls == [32] * len(calls) and len(calls) < 10


def test_the_strict_box_holds_no_copy_of_its_draws():
    # a strict row that clicked reads 0 through its click mask, so the box
    # reads its step-major draws where shot_uniforms wrote them: its peak
    # stays below one copy of the step draws (15.6 MiB) and within 10% of
    # the paper box's, and read-only draws serve both policies
    rows, steps = 4096, 500
    plus = q.apply_gate(q.new_state(1), q.h(0)).amplitudes
    amps = np.broadcast_to(plus, (rows, 2))
    draws = RandomStream(4096).shot_uniforms(range(rows), steps + 1).T
    draws.flags.writeable = False
    peaks = {}
    for policy in verification.CLICK_POLICIES:
        params = VerificationParams(0.1, steps, policy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verification._box_rows(amps, 0, params, draws)
            peaks[policy] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[q.STRICT_ABORT] < draws[:-1].nbytes
    assert peaks[q.STRICT_ABORT] <= 1.1 * peaks[q.PAPER_DEFAULT]


def unlock_rows(locker, probe, stream, shots):
    """What ``attempt_unlocks`` gives, ``(accepted, last)``, and each row's
    trajectories, one per password qubit, read from ``box_shots`` on the
    inversely rotated probe as ``attempt_unlocks`` runs it."""
    accepted, last, presented = q.attempt_unlocks(locker, probe, stream,
                                                  shots)
    assert presented is None
    phi = q.apply_inverse_rotation(probe, locker.params)
    rows = [tuple(verification._trajectory(box, row) for box in boxes)
            for boxes in q.box_shots(phi, locker.verification, stream, shots)
            for row in range(len(boxes[0].steps))]
    return accepted, last, rows


def assert_rows_match(got, want, order):
    """``unlock_rows`` against the results ``want`` of one ``attempt_unlock``
    per copy, its rows in the order ``order`` of their shots: every row's
    outcomes, finals and acceptance, and the last row's whole result."""
    accepted, last, rows = got
    want = [want[i] for i in order]
    assert accepted.dtype == bool
    assert accepted.tolist() == [w.accepted for w in want]
    assert rows == [w.trajectories for w in want]
    assert last == want[-1]


def assert_unlocks_match(locker, probe, stream, shots):
    """``attempt_unlocks`` row for row against one ``attempt_unlock`` per
    copy, in one block and in every split of :data:`SPLITS`; returns the
    oracle's results."""
    want = reference_unlocks(locker, probe, stream, shots)
    assert_rows_match(unlock_rows(locker, probe, stream, shots), want,
                      range(len(want)))
    for cells, reverse in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            order = split(mp, cells, reverse)
            got = unlock_rows(locker, probe, stream, shots)
        # attempt_unlocks and box_shots each make the same blocks
        assert order == order[:len(want)] * 2
        assert_rows_match(got, want, order[:len(want)])
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


def test_strict_rows_clicking_at_different_steps_match_one_attempt_per_copy():
    # strong coupling on a GHZ-like probe: rows click at different steps of
    # the first box, and later boxes click too
    params = OtpParams.random(3, RandomStream(80))
    locker = q.store_message("101", params,
                             VerificationParams(1.0, 8, q.STRICT_ABORT))
    probe = q.apply_gate(q.new_state(3), q.ry(1.2, 0))
    probe = q.apply_gate(probe, q.cnot(0, 1))
    probe = q.apply_gate(q.apply_gate(probe, q.cnot(1, 2)), q.h(2))
    want = assert_unlocks_match(locker, probe, RandomStream(81), range(40))
    first_box = {len(r.trajectories[0].ancilla_outcomes) for r in want
                 if any(r.trajectories[0].ancilla_outcomes)}
    later_clicks = sum(any(t.ancilla_outcomes)
                       for r in want for t in r.trajectories[1:])
    assert len(first_box) > 1 and later_clicks > 0


@BATCH_SETTINGS
@given(prep=preps(), theta=st.floats(0.05, 1.3),
       iterations=st.integers(0, 8),
       policy=st.sampled_from(verification.CLICK_POLICIES),
       seed=st.integers(0, 2**32 - 1))
def test_unlock_is_run_box_on_each_qubit_in_turn(prep, theta, iterations,
                                                 policy, seed):
    # box k reads the next N + 1 draws of the stream, whatever the boxes
    # before it did: a strict click ignores the rest of its window's steps
    n, ops = prep
    params = OtpParams.random(n, RandomStream(seed, (0,)))
    locker = q.store_message("101", params,
                             VerificationParams(theta, iterations, policy))
    probe = q.new_state(n)
    for gate in ops:
        probe = q.apply_gate(probe, gate)
    reg = q.apply_inverse_rotation(probe, params)
    rng = RandomStream(seed, (1,))
    want = []
    for k in range(n):
        trajectory, reg = q.run_box(reg, k, locker.verification, rng)
        want.append(trajectory)
    got = q.attempt_unlock(locker, probe, RandomStream(seed, (1,)))
    # outcomes, finals and acceptance
    assert got.trajectories == tuple(want)


@st.composite
def product_passwords(draw):
    """A product state of 1 to 8 qubits, each factor a random Ry and then
    random gates."""
    n = draw(st.integers(1, 8))
    return q.ProductState([draw(one_qubit_preps()).amplitudes
                           for _ in range(n)])


@BATCH_SETTINGS
@given(password=product_passwords(), theta=st.floats(0.05, 1.3),
       iterations=st.integers(0, 8),
       policy=st.sampled_from(verification.CLICK_POLICIES),
       count=st.integers(1, 40), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_product_rows_match_the_combined_register(password, theta,
                                                  iterations, policy, count,
                                                  data, seed):
    # a product password's boxes run at once over one-qubit rows; the same
    # password combined into one register runs them qubit after qubit.  Each
    # example runs one split of SPLITS, drawn like the other inputs: a block
    # of one copy costs a Philox evaluation, so all five would take seconds
    first = data.draw(st.integers(0, 2**32 - count))
    cells, reverse = data.draw(st.sampled_from(SPLITS))
    shots = range(first, first + count)
    params = OtpParams.random(password.n_qubits, RandomStream(seed, (0,)))
    locker = q.store_message("110", params,
                             VerificationParams(theta, iterations, policy))
    stream = RandomStream(seed, (1,))
    want = reference_unlocks(locker, password, stream, shots)
    # the combined register's copies as rows, and the product's
    assert_rows_match(unlock_rows(locker, password.register(), stream, shots),
                      want, range(count))
    assert_rows_match(unlock_rows(locker, password, stream, shots), want,
                      range(count))
    # one collapse rule for both forms: the basis state of the finals
    # written into the password, the retrieved bits into the blanks
    product, register = password.copy(), password.copy().register()
    blanks = [q.new_state(3), q.new_state(3)]
    got = [q.attempt_unlock(locker, p, stream.substream(first), blanks=b)
           for p, b in zip((product, register), blanks)]
    assert got == want[:1] * 2
    finals = [t.final_system_outcome for t in got[0].trajectories]
    collapsed = q.basis_state(finals).amplitudes.tobytes()
    assert product.register().amplitudes.tobytes() == collapsed
    assert register.amplitudes.tobytes() == collapsed
    retrieved = q.basis_state(want[0].retrieved_bits).amplitudes.tobytes()
    assert [b.amplitudes.tobytes() for b in blanks] == [retrieved] * 2
    with pytest.MonkeyPatch.context() as mp:
        order = split(mp, cells, reverse)
        got = unlock_rows(locker, password, stream, shots)
    assert_rows_match(got, want, order[:count])


@pytest.mark.parametrize("shots,row_cells", [
    (1, 2), (100, 2), (100, 41), (5, 1 << 20), (70000, 3)])
def test_shot_blocks_cover_every_shot_in_order(shots, row_cells):
    blocks = statevector._shot_blocks(shots, row_cells)
    assert [i for b in blocks for i in b] == list(range(shots))
    budget = statevector.SHOT_BLOCK_CELLS
    assert all(len(b) * row_cells <= budget or len(b) == 1 for b in blocks)


@pytest.mark.parametrize("cells", [1, 40, 200])
@pytest.mark.parametrize("readouts", [
    # the first readout ends the circuits
    lambda basis: [q.h(0), q.ry(0.4, 1), Measurement(0, basis)],
    # a readout mid-circuit, then a gate and a second readout
    lambda basis: [q.h(0), Measurement(0, basis), q.cnot(0, 1),
                   Measurement(1, "z")],
], ids=["one-readout", "mid-circuit"])
def test_sample_circuits_blocks_stay_within_the_budget(readouts, cells):
    # sample_circuits cuts its own blocks, at G * (2**n + k) cells per shot
    # of G circuits of k readouts on n qubits, and draws each block in one
    # shot_uniforms call
    n, shots = 2, 23
    circuits = [(readouts(basis), 60 + g) for g, basis in enumerate("xyz")]
    k = sum(isinstance(op, Measurement) for op in circuits[0][0])
    want = q.sample_circuits(n, circuits, shots)
    calls = []
    draw = statevector.shot_uniforms

    def counting(streams, block, count):
        calls.append((len(streams), block, count))
        return draw(streams, block, count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "SHOT_BLOCK_CELLS", cells)
        mp.setattr(statevector, "shot_uniforms", counting)
        got = q.sample_circuits(n, circuits, shots)
    assert [h.counts for h in got] == [h.counts for h in want]
    assert [i for _, block, _ in calls for i in block] == list(range(shots))
    row_cells = len(circuits) * (2**n + k)
    for streams, block, count in calls:
        assert (streams, count) == (len(circuits), k)
        assert len(block) * row_cells <= cells or len(block) == 1
    assert len(calls) == -(-shots // max(1, cells // row_cells))


def row_layouts(regs):
    """The registers ``regs`` (shape ``(S, 2**n)``) as the kernels may get
    them, each with the registers its rows hold: C-contiguous rows, the
    ``.T`` view of a shot-last array, and one register broadcast to every
    row."""
    return [(regs, regs), (np.ascontiguousarray(regs.T).T, regs),
            (np.broadcast_to(regs[0], regs.shape),
             np.broadcast_to(regs[0], regs.shape))]


def row_gates(k, n):
    """Gates on qubit ``k`` of an n-qubit register, with controls of both
    polarities where there is another qubit, and two controls of mixed
    polarity where there are two."""
    other, third = (k + 1) % n, (k + 2) % n
    return [q.h(k), q.rx(0.7, k), q.s(k)] + (
        [q.ry(-1.2, k, ((other, 1),)), q.x(k, ((other, 0),))] if n > 1
        else []) + ([q.rz(0.9, k, ((third, 1), (other, 0)))] if n > 2 else [])


# the gates a row may get of its own, each made by a constructor
ROW_KINDS = [q.h, partial(q.rx, 0.7), q.s, partial(q.ry, -1.2), q.x,
             partial(q.rz, 2.3)]


@pytest.mark.parametrize("kraus", ["weak", "projectors"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_kernels_on_s_rows_are_s_one_row_calls(n, kraus):
    # bit for bit, whatever the row count and the layout the rows come in:
    # the outcome probabilities of a row must be summed in the order a
    # lone contiguous row sums them
    kraus = (verification._weak_step(0.3) if kraus == "weak"
             else statevector._PROJECTORS)
    rng = np.random.default_rng(1000 + n)
    for shots in (1, 2, 10, 128):
        regs = rng.normal(size=(shots, 1 << n, 2)) @ [1, 1j]
        regs /= np.linalg.norm(regs, axis=1)[:, None]
        uniforms = rng.random(shots)
        for rows, held in row_layouts(regs):
            singles = [np.array(row)[None] for row in held]
            for k in range(n):
                got = statevector._measure_rows(rows, k, kraus, uniforms)
                want = [statevector._measure_rows(row, k, kraus,
                                                  uniforms[i:i + 1])
                        for i, row in enumerate(singles)]
                # clicks and collapsed rows stack on the row axis, the
                # (p0, p1) pairs on their last
                for part, parts, axis in zip(got, zip(*want), (0, 1, 0)):
                    assert part.tobytes() == np.concatenate(
                        parts, axis=axis).tobytes()
                for gate in row_gates(k, n):
                    got = statevector._gate_rows(rows, gate)
                    assert got.tobytes() == np.concatenate(
                        [statevector._gate_rows(row, gate)
                         for row in singles]).tobytes()
                    # one gate per row, on the same target and controls: a
                    # (2, 2, S) stack of the rows' constructor matrices
                    mine = [ROW_KINDS[(i + len(gate.controls)) % 6](
                        k, gate.controls) for i in range(shots)]
                    stacked = q.GateOp(k, np.stack(
                        [g.matrix for g in mine], axis=-1), gate.controls)
                    got = statevector._gate_rows(rows, stacked)
                    assert got.tobytes() == np.concatenate(
                        [statevector._gate_rows(row, g)
                         for row, g in zip(singles, mine)]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gate_rows_match_the_kron_matrix(n):
    # the oracle's matrix is built from np.kron, not from the kernel: every
    # target, 0 to 3 controls (the qubits after the target, cyclically) and
    # every polarity of them
    rng = np.random.default_rng(2000 + n)
    regs = rng.normal(size=(5, 1 << n, 2)) @ [1, 1j]
    kinds = [q.h, partial(q.rx, 0.7), partial(q.ry, -1.2), q.x,
             partial(q.rz, 2.3), q.s]
    count = 0
    for target in range(n):
        others = [(target + j) % n for j in range(1, n)]
        for width in range(min(3, n - 1) + 1):
            for values in np.ndindex(*[2] * width):
                controls = tuple(zip(others[:width], values))
                gate = kinds[count % len(kinds)](target, controls)
                count += 1
                matrix = gate_matrix(gate, n)
                for rows, held in row_layouts(regs):
                    np.testing.assert_allclose(
                        statevector._gate_rows(rows, gate), held @ matrix.T,
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("policy", verification.CLICK_POLICIES)
@pytest.mark.parametrize("form", ["product", "register"])
def test_a_presented_password_is_row_0_of_the_first_block(form, policy):
    # attempt_unlocks(first=(password, rng)) unlocks the password as
    # attempt_unlock does alone (result, collapse, registry, stream
    # advance) and the copies as they unlock without it, in one block and
    # split, the password's block within the cell budget
    n, shots = 3, range(3, 12)
    params = OtpParams.random(n, RandomStream(90))

    def rotated(angle):  # every qubit Ry(angle)|0> after the inverse rotation
        qubit = q.apply_gate(q.new_state(1), q.ry(angle, 0)).amplitudes
        state = q.apply_rotation(q.ProductState(np.tile(qubit, (n, 1))),
                                 params)
        return state.register() if form == "register" else state

    password, probe = rotated(0.9), rotated(1.7)
    verify = VerificationParams(0.7, 6, policy)
    locker = q.store_message("101", params, verify)
    alone, rng_alone = password.copy(), RandomStream(91)
    want = q.attempt_unlock(locker, alone, rng_alone)
    after = rng_alone.random()
    copies = reference_unlocks(locker, probe, RandomStream(92), shots)
    row_cells = probe.amplitudes.size + n * (verify.iterations + 1)
    parts = statevector._parts
    for cells, reverse in [(None, False), (1, False), (3 * row_cells, False),
                           (3 * row_cells, True)]:
        locker = q.store_message("101", params, verify)
        mine, rng = password.copy(), RandomStream(91)
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            order = (split(mp, cells, reverse) if cells
                     else list(range(len(shots) + 1)))
            boxes = verification._boxes

            def counting(amps, *args):
                rows.append(len(amps))
                return boxes(amps, *args)

            mp.setattr(verification, "_boxes", counting)
            accepted, last, got = q.attempt_unlocks(
                locker, probe, RandomStream(92), shots, first=(mine, rng))
        assert got == want and rng.random() == after
        assert parts(got.inverse_rotated).tobytes() == \
            parts(want.inverse_rotated).tobytes()
        assert parts(mine).tobytes() == parts(alone).tobytes()
        assert locker.consumed_passwords[id(mine)] is mine
        # the password's row is not among the copies' accept bits
        positions = [i - 1 for i in order if i]
        assert accepted.tolist() == [copies[i].accepted for i in positions]
        assert last == copies[positions[-1]]
        if not reverse:
            budget = (cells or statevector.SHOT_BLOCK_CELLS) // row_cells
            assert rows[0] <= max(1, budget)
            assert sum(rows) == len(shots) + 1


def test_a_presented_password_must_share_the_probe_layout():
    params = OtpParams.random(2, RandomStream(93))
    locker = q.store_message("11", params, VerificationParams(0.1, 4))
    password = q.generate_otp(params)
    with pytest.raises(ValueError, match="laid out"):
        q.attempt_unlocks(locker, password.register(), RandomStream(94),
                          range(2), first=(password, RandomStream(95)))
    # refused before the password is registered
    assert len(locker.consumed_passwords) == 0

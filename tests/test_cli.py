import argparse
import contextlib
import errno
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from qlocker import RandomStream, cli, statevector, verification
from qlocker.cli import build_parser, main


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def counting(calls, kind, kernel):
    """``kernel``, counting each call in ``calls[kind]``."""
    def call(*args):
        calls[kind] += 1
        return kernel(*args)
    return call


class TestVerifyDemo:
    def test_default_run_passes_and_reports(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "v.json", ["verify-demo", "--shots", "1024"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["seed"] == 42
        assert {row["basis"] for row in report["ancilla_probabilities"]} == {
            "x", "y", "z"}
        z_row = next(r for r in report["ancilla_probabilities"]
                     if r["basis"] == "z")
        assert z_row["paper-hardware"] == [0.938, 0.063]
        assert "theory_diagonal" in report["density"]
        assert "theory_full_reduced" in report["density"]
        assert 0.0 <= report["fidelity"]["diagonal_vs_empirical"] <= 1.0

    def test_hardware_reference_only_at_published_point(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "v.json",
            ["verify-demo", "--shots", "256", "--theta", "0.3"])
        assert code == 0
        report = json.loads(out.read_text())
        assert all("paper-hardware" not in row
                   for row in report["ancilla_probabilities"])

    # the last is the widest angle whose double is finite
    @pytest.mark.parametrize("theta", ["0", "-0.2", "2.0",
                                       "8.988465674311579e307"])
    def test_any_finite_theta_runs(self, tmp_path, theta):
        # one coupling, so its three analytic P(0) laws hold for every
        # theta; only the box's commands need theta in (0, pi/2)
        code, out = run_to_file(
            tmp_path, "v.json",
            ["verify-demo", "--shots", "1024", "--theta", theta])
        assert code == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["verify-demo", "--shots", "512", "--seed", "7"]
        _, first = run_to_file(tmp_path, "a.json", argv)
        _, second = run_to_file(tmp_path, "b.json", argv)
        assert first.read_bytes() == second.read_bytes()

    # at theta 0 the ancilla is |0>, and these seeds' x and y counts put its
    # Stokes vector just outside the sphere
    @pytest.mark.parametrize("seed", [16, 60, 87, 161, 270, 319, 355])
    def test_one_physicality_verdict(self, tmp_path, seed):
        code, out = run_to_file(
            tmp_path, "v.json",
            ["verify-demo", "--theta", "0", "--seed", str(seed)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["stokes"]["physical"] is False
        assert report["density"]["empirical_physical"] is False
        assert report["fidelity"]["empirical_clipped"] is True

    def test_check_failure_exits_4(self, tmp_path):
        # seed 22 at 12 shots lands outside the y-basis 3-sigma band
        code, _ = run_to_file(
            tmp_path, "v.json",
            ["verify-demo", "--shots", "12", "--seed", "22"])
        assert code == 4

    def test_one_draw_pass_and_one_readout_per_report(self, monkeypatch,
                                                      capsys):
        # at the tomography workload's argv the three bases are the rows of
        # one block: one Philox pass draws their uniforms, and one kernel
        # call reads all of them out.  Every copy of a basis's circuit holds
        # one register until the readout that ends it, so each gate and the
        # readout kernel see one row per basis, not one per shot
        calls = {"draw": 0, "readout": 0}
        rows = {"_gate_rows": [], "_measure_rows": []}

        def recording(name):
            kernel = getattr(statevector, name)

            def call(amps, *args):
                rows[name].append(len(amps))
                return kernel(amps, *args)
            return call

        for name in rows:
            monkeypatch.setattr(statevector, name, recording(name))
        monkeypatch.setattr(statevector, "shot_uniforms", counting(
            calls, "draw", statevector.shot_uniforms))
        monkeypatch.setattr(statevector, "_measure_rows", counting(
            calls, "readout", statevector._measure_rows))
        code = main(["verify-demo", "--theta", "0.2", "--prep-angle",
                     repr(math.pi / 4), "--shots", "512"])
        assert code == 0 and json.loads(capsys.readouterr().out)["ok"]
        assert calls == {"draw": 1, "readout": 1}
        # the preparation, the coupling and the x and y rotations
        assert rows == {"_gate_rows": [3, 3, 3], "_measure_rows": [3]}

    def test_csv_format(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "v.csv",
            ["verify-demo", "--shots", "128", "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "basis,p0,p1,analytic_p0"
        assert len(lines) == 4


class TestConverge:
    def test_small_run(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "c.json",
            ["converge", "--shots", "400", "--iterations", "6"])
        assert code == 0
        report = json.loads(out.read_text())
        results = report["results"]
        assert results["all_zeros_count"] <= 400
        assert 0 <= results["system_one_given_all_zeros"] <= 1
        assert results["distinct_outcomes"] >= 1

    def test_zero_iterations_edge(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "c.json",
            ["converge", "--shots", "600", "--iterations", "0"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["all_zeros_fraction"] == 1.0
        cond = report["results"]["system_one_given_all_zeros"]
        assert abs(cond - 0.5) <= 3 * (0.25 / 600) ** 0.5

    @pytest.mark.parametrize("seed", [2, 4, 5, 6])
    def test_no_all_zeros_record_writes_null(self, tmp_path, seed):
        # one strongly coupled shot that clicks: the conditional has no
        # sample, so it is null and unchecked, and the report is strict JSON
        code, out = run_to_file(
            tmp_path, "c.json", ["converge", "--shots", "1", "--theta", "1.5",
                                 "--seed", str(seed)])

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["results"]["all_zeros_count"] == 0
        assert report["results"]["system_one_given_all_zeros"] is None
        (check,) = report["checks"]
        assert check["name"] == "all-zeros ancilla fraction"
        assert code == (0 if check["ok"] else 4)

    def test_hardware_anchor_present_at_published_point(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "c.json", ["converge", "--shots", "256"])
        report = json.loads(out.read_text())
        anchors = [c for c in report["checks"] if c["kind"] == "anchor"]
        assert len(anchors) == 2
        assert all(a["ok"] for a in anchors)


class TestLockerDemo:
    def test_round_trip_report(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "l.json",
            ["locker-demo", "--message", "1011", "--iterations", "4",
             "--theta", "0.2"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["correct_attempt"]["accepted"] is True
        assert report["correct_attempt"]["retrieved_bits"] == "1011"
        assert report["params"]["params_digest"]
        assert report["teleport_records"] == [report["teleport_records"][0]]
        assert report["teleport_records"][0].startswith("demo0,")

    def test_multi_qubit_otp_uses_one_channel_per_qubit(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "l.json",
            ["locker-demo", "--message", "101", "--otp-qubits", "3",
             "--iterations", "4", "--theta", "0.2"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["correct_attempt"]["retrieved_bits"] == "101"
        assert len(report["teleport_records"]) == 3
        channels = {line.split(",")[0] for line in report["teleport_records"]}
        assert channels == {"demo0", "demo1", "demo2"}

    def test_forced_overlap_rate(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "l.json",
            ["locker-demo", "--message", "11", "--iterations", "3",
             "--repeat", "400", "--wrong-overlap", "0.25"])
        assert code == 0
        report = json.loads(out.read_text())
        wrong = report["wrong_attempt"]
        assert wrong["per_qubit_overlap"][0] == pytest.approx(0.25, abs=1e-9)
        assert wrong["analytic_acceptance"] == pytest.approx(0.25, abs=1e-9)
        rate_check = next(c for c in report["checks"]
                          if c["name"] == "wrong-password acceptance rate")
        assert rate_check["ok"]

    def test_widest_password_builds_no_register(self, capsys):
        # a 24-qubit register alone is 256 MiB; the product password and
        # its 200 wrong copies are held as one-qubit factors
        tracemalloc.start()
        try:
            code = main(["locker-demo", "--otp-qubits", "24",
                         "--wrong-overlap", "0.5", "--repeat", "200"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 100 * 2**20
        report = json.loads(capsys.readouterr().out)
        assert report["correct_attempt"]["retrieved_bits"] == "1011"
        assert report["wrong_attempt"]["per_qubit_overlap"] == pytest.approx(
            [0.5] * 24, abs=1e-12)

    @pytest.mark.parametrize("otp_qubits", [1, 2])
    def test_strict_correct_password_exits_0_on_every_seed(self, otp_qubits,
                                                           capsys):
        # the strict box accepts the correct password only with
        # cos^(2nN)(theta), 0.68 at n = 1 and 0.47 at n = 2: a rejected
        # attempt that releases nothing is the law, not a failed check
        accepted = []
        for seed in range(200):
            code = main(["locker-demo", "--policy", "strict", "--otp-qubits",
                         str(otp_qubits), "--repeat", "1",
                         "--seed", str(seed)])
            correct = json.loads(capsys.readouterr().out)["correct_attempt"]
            assert code == 0, seed
            assert correct["retrieved_bits"] == (
                "1011" if correct["accepted"] else "0000"), seed
            accepted.append(correct["accepted"])
        assert 0 < sum(accepted) < 200

    def test_one_box_per_report(self, monkeypatch, capsys):
        # the correct attempt runs as row 0 of the wrong copies' block: one
        # box of N + 1 kernel calls, beside the two readouts of each of the
        # n teleports
        calls = {"box": 0, "readout": 0}
        monkeypatch.setattr(verification, "_measure_rows", counting(
            calls, "box", verification._measure_rows))
        monkeypatch.setattr(statevector, "_measure_rows", counting(
            calls, "readout", statevector._measure_rows))
        code = main(["locker-demo", "--message", "10110010", "--otp-qubits",
                     "2", "--wrong-overlap", "0.5", "--policy", "paper",
                     "--repeat", "5"])
        assert code == 0 and json.loads(capsys.readouterr().out)["ok"]
        assert calls == {"box": 38 + 1, "readout": 2 * 2}

    def test_invalid_message_exits_3(self, tmp_path):
        code = main(["locker-demo", "--message", "000",
                     "--out", str(tmp_path / "x.json")])
        assert code == 3


class TestSweep:
    def test_product_law_column(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "s.json",
            ["sweep", "--grid-n", "1,2,3", "--grid-theta", "0.2",
             "--grid-iterations", "3", "--grid-overlap", "0.5",
             "--shots", "4000"])
        assert code == 0
        report = json.loads(out.read_text())
        analytic = [cell["paper"]["analytic"] for cell in report["cells"]]
        assert analytic == [0.5, 0.25, 0.125]

    def test_theta_zero_flagged_degenerate(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "s.json",
            ["sweep", "--grid-n", "1", "--grid-theta", "0",
             "--grid-iterations", "2", "--grid-overlap", "0.5",
             "--shots", "100"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cells"][0]["degenerate"] is True
        assert report["checks"] == []

    def test_csv_rows(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "s.csv",
            ["sweep", "--grid-n", "1", "--grid-theta", "0.1",
             "--grid-iterations", "2", "--grid-overlap", "0.5",
             "--shots", "2000", "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,theta,iterations,overlap,policy")
        assert len(lines) == 3  # both policies for the single cell

    def test_strict_never_accepts_more_than_paper(self, capsys):
        # each record is judged under both policies, and a strict accept is
        # a paper accept, so no cell counts more strict than paper accepts;
        # the laws give strict = paper * cos^(2nN)(theta)
        assert main(["sweep", "--seed", "42"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert len(cells) == 54
        assert all(cell["strict"]["monte_carlo"]
                   <= cell["paper"]["monte_carlo"] for cell in cells)

    @pytest.mark.parametrize("grid_theta, cell", [("0.3", 0), ("0,0.3", 1)])
    def test_a_cell_draws_from_its_own_sub_streams(self, capsys, grid_theta,
                                                   cell):
        # with one n and one overlap each cell is its own group, so qubit k
        # of cell c passes over sub-stream (c, k) of the seed, and a
        # degenerate cell counts; 9 qubits take 9 sub-streams of one cell
        assert main(["sweep", "--seed", "7", "--shots", "3000",
                     "--grid-n", "9", "--grid-theta", grid_theta,
                     "--grid-iterations", "5", "--grid-overlap", "0.9"]) == 0
        got = json.loads(capsys.readouterr().out)["cells"][cell]
        params = verification.VerificationParams(0.3, 5)
        accept = np.logical_and.reduce([
            verification.sample_acceptance_runs(
                0.9, params, 3000, RandomStream(7).substream(cell).substream(k))
            for k in range(9)])
        assert [got[policy]["monte_carlo"]
                for policy in verification.CLICK_POLICIES] == [
            float(row.mean()) for row in accept]

    def test_a_cell_ands_the_first_n_passes_of_its_group(self, capsys):
        # pass k of the (theta, N, overlap) group g runs over sub-stream
        # (g, k) of the seed, and degenerate groups count; the n-qubit cell
        # is the AND of its group's first n passes.  Cells run n before
        # overlap, so cell and group indices differ here
        assert main(["sweep", "--seed", "7", "--shots", "3000",
                     "--grid-n", "3,1", "--grid-theta", "0,0.3",
                     "--grid-iterations", "5",
                     "--grid-overlap", "0.9,0.5"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [cell["degenerate"] for cell in cells] == [True] * 4 + [False] * 4
        params = verification.VerificationParams(0.3, 5)
        # (group, overlap, n) of cells 4 to 7
        for cell, (group, overlap, n) in zip(
                cells[4:], [(2, 0.9, 3), (3, 0.5, 3), (2, 0.9, 1),
                            (3, 0.5, 1)]):
            assert (cell["overlap"], cell["n"]) == (overlap, n)
            accept = np.logical_and.reduce([
                verification.sample_acceptance_runs(
                    overlap, params, 3000,
                    RandomStream(7).substream(group).substream(k))
                for k in range(n)])
            assert [cell[policy]["monte_carlo"]
                    for policy in verification.CLICK_POLICIES] == [
                float(row.mean()) for row in accept]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--seed", "42"],
        ["sweep", "--shots", "512", "--grid-theta", "0.05,1.2,1.5",
         "--grid-iterations", "0,1,200", "--grid-overlap", "0,0.5,1",
         "--grid-n", "1,3"]], ids=["default", "wide"])
    def test_a_group_never_accepts_more_with_more_qubits(self, capsys, argv):
        # the n-qubit cell is the (n-1)-qubit cell ANDed with one more pass
        # of the same runs, so each policy's rate never rises with n
        assert main(argv) == 0
        groups = {}
        for cell in json.loads(capsys.readouterr().out)["cells"]:
            key = (cell["theta"], cell["iterations"], cell["overlap"])
            groups.setdefault(key, []).append(cell)
        for cells in groups.values():
            cells.sort(key=lambda cell: cell["n"])
            for policy in verification.CLICK_POLICIES:
                rates = [cell[policy]["monte_carlo"] for cell in cells]
                assert rates == sorted(rates, reverse=True)

    def test_equal_n_gives_identical_cells(self, capsys):
        assert main(["sweep", "--shots", "2000", "--grid-n", "3,1,3",
                     "--grid-theta", "0.3", "--grid-iterations", "5",
                     "--grid-overlap", "0.5,0.9"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [cell["n"] for cell in cells] == [3, 3, 1, 1, 3, 3]
        assert cells[:2] == cells[4:]

    @pytest.mark.parametrize("argv, calls", [
        (["sweep"], 54),
        (["sweep", "--grid-n", "24", "--grid-theta", "0.5",
          "--grid-iterations", "38", "--grid-overlap", "0.5",
          "--shots", "64"], 24)], ids=["default", "n24"])
    def test_a_group_makes_one_pass_per_qubit(self, monkeypatch, capsys,
                                              argv, calls):
        # 18 groups of 3 passes by default, one group of 24 passes; drawing
        # each cell afresh would take 108 and 24
        count = {"sampler": 0}
        monkeypatch.setattr(cli, "sample_acceptance_runs", counting(
            count, "sampler", verification.sample_acceptance_runs))
        assert main(argv) in (0, 4)
        capsys.readouterr()
        assert count == {"sampler": calls}

    @pytest.mark.parametrize("grid_n", ["1,2,3", "1,2,3,4,5,6,7,8"])
    def test_memory_per_shot(self, capsys, grid_n):
        # the sampler's 16 bytes a shot and one accumulator of both
        # policies' accepts, 2 bytes a shot, however many cells share it;
        # a first small run builds the parser outside the measurement
        argv = ["sweep", "--grid-n", grid_n, "--grid-theta", "0.5",
                "--grid-iterations", "4", "--grid-overlap", "0.5"]
        assert main([*argv, "--shots", "8"]) in (0, 4)
        shots = 1 << 18
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = main([*argv, "--shots", str(shots)])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code in (0, 4)
        capsys.readouterr()
        assert peak <= 18 * shots

    def test_sin_squared_of_one_runs_quietly(self, capsys):
        # sin^2(theta) rounds to 1.0: a run at P(|0>) = 1 clicks for sure,
        # and no run divides by its 1 - p1 = 0
        theta = math.nextafter(math.pi / 2, 0)
        code = main(["sweep", "--shots", "64", "--grid-theta", repr(theta),
                     "--grid-iterations", "3", "--grid-overlap", "0,0.5,1",
                     "--grid-n", "1,2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert all(check["ok"] for check in json.loads(captured.out)["checks"])


def test_empty_grid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--grid-n", ","])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "qlocker sweep: error: argument --grid-n: empty grid ','")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["verify-demo", "--format", "yaml"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["no-such-command"])
    assert err.value.code == 2


# one small run of each subcommand
SMALL_RUNS = [
    ["verify-demo", "--shots", "8"],
    ["converge", "--shots", "8", "--iterations", "3"],
    ["locker-demo", "--repeat", "2"],
    ["sweep", "--shots", "8", "--grid-theta", "0.3", "--grid-iterations",
     "2", "--grid-n", "1"],
]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # counts the work instead of timing it: after one warm-up call, no
    # call of main adds an argument to any parser
    assert main(["converge", "--shots", "8", "--out", str(tmp_path / "w")]) == 0
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    for argv in SMALL_RUNS:
        assert main([*argv, "--out", str(tmp_path / argv[0])]) in (0, 4)
    assert added == []
    first = build_parser()
    assert added  # the spy sees a build
    assert build_parser() is not first  # the builder shares nothing


def test_main_runs_the_modules_command_at_each_call(monkeypatch, capsys):
    # the parser binds no function: main looks cmd_converge up on the
    # module, so a wrapper bound after the parser was built is the one run
    argv = ["converge", "--shots", "8"]
    code = main(argv)
    want = capsys.readouterr().out
    calls = {"converge": 0}
    monkeypatch.setattr(cli, "cmd_converge",
                        counting(calls, "converge", cli.cmd_converge))
    assert main(argv) == code
    assert calls == {"converge": 1}
    assert capsys.readouterr().out == want


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it
    once its ``reads`` is a set (argparse reads each one while parsing)."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
def test_every_parsed_flag_is_read(argv, tmp_path, monkeypatch):
    # a flag that its command never reads changes nothing but the usage
    # line, so each subcommand parses only what its run reads
    parser = build_parser()
    parse_args = parser.parse_args
    parsed = []

    def recording(args=None):
        namespace = parse_args(args, ReadRecorder())
        namespace.reads = set()
        parsed.append(namespace)
        return namespace

    parser.parse_args = recording
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    assert main([*argv, "--out", str(tmp_path / "report")]) in (0, 4)
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in sub.choices[argv[0]]._actions}
    args, = parsed
    assert dests - {"help"} - args.reads == set()


def test_sweep_grid_defaults_are_tuples():
    # every parse through main shares the default objects, so none may be
    # a list that a command could change
    args = build_parser().parse_args(["sweep"])
    assert args.grid_n == (1, 2, 3)
    assert args.grid_theta == (0.1, 0.2, 0.5)
    assert args.grid_iterations == (1, 5, 38)
    assert args.grid_overlap == (0.25, 0.5)


def test_stdout_emission(capsys):
    code = main(["sweep", "--grid-n", "1", "--grid-theta", "0.1",
                 "--grid-iterations", "1", "--grid-overlap", "1",
                 "--shots", "50"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "sweep"


@pytest.mark.parametrize("argv", [
    ["converge", "--shots", "0"],
    ["verify-demo", "--shots", "-3"],
    ["locker-demo", "--repeat", "0"],
    ["locker-demo", "--wrong-overlap", "2"],
    ["locker-demo", "--wrong-overlap", "nan"],
    ["sweep", "--grid-n", "0"],
    ["sweep", "--grid-overlap", "0.5,1.5"],
    ["converge", "--out", "/nonexistent/x"],
])
def test_bad_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].startswith("qlocker ")
    assert "error:" in stderr.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    # a sweep password, like the locker's, is capped at 24 qubits
    ["sweep", "--grid-n", "1,25"],
    # the password register is capped at 24 qubits
    ["locker-demo", "--otp-qubits", "0"],
    ["locker-demo", "--otp-qubits", "-1"],
    ["locker-demo", "--otp-qubits", "25"],
    # a theta = 0 cell builds no VerificationParams to reject it later
    ["sweep", "--grid-theta", "0", "--grid-iterations", "-5"],
    ["sweep", "--grid-iterations", "1,-1"],
    ["converge", "--iterations", "-1"],
    ["locker-demo", "--iterations", "-1"],
    # at most 2**24 shots or repetitions, so no size asks for many GiB
    *([command, "--shots", str(2**24 + 1)] for command in (
        "verify-demo", "converge")),
    # locker-demo counts its presentations with --repeat and takes no --shots
    ["locker-demo", "--shots", "8"],
    ["sweep", "--shots", str(2**24 + 1)],
    ["locker-demo", "--repeat", str(2**24 + 1)],
    # a non-finite theta is a usage error here, as --theta's is
    ["sweep", "--grid-theta", "nan"],
    ["sweep", "--grid-theta", "0.1,inf"],
    ["sweep", "--grid-theta", "1e999"],
])
def test_out_of_range_sizes_are_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert "error:" in stderr.splitlines()[-1]
    assert argv[-2] in stderr.splitlines()[-1]  # the flag at fault


@pytest.mark.parametrize("command", [
    "verify-demo", "converge", "locker-demo", "sweep"])
def test_negative_seed_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([command, "--seed", "-1"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert "error:" in stderr.splitlines()[-1] and "--seed" in stderr
    assert build_parser().parse_args([command, "--seed", "0"]).seed == 0


@pytest.mark.parametrize("flag", ["--theta", "--prep-angle"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999", "x"])
def test_non_finite_angles_are_usage_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["verify-demo", f"{flag}={value}"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    last = stderr.splitlines()[-1]
    assert "error:" in last and flag in last and repr(value) in last


@pytest.mark.parametrize("argv", [["--theta", "9e307"], ["--theta=-9e307"]])
def test_theta_with_an_infinite_double_is_a_usage_error(argv, capsys):
    # the coupling runs rx(2 theta), and its P(0) laws take sin(2 theta)
    with pytest.raises(SystemExit) as err:
        main(["verify-demo", *argv])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    last = stderr.splitlines()[-1]
    assert "error:" in last and "--theta" in last
    assert repr(argv[-1].split("=")[-1]) in last


def test_finite_angles_parse():
    args = build_parser().parse_args(
        ["verify-demo", "--theta", "0.2", "--prep-angle", "-1.0"])
    assert (args.theta, args.prep_angle) == (0.2, -1.0)
    for command in ("converge", "locker-demo"):
        assert build_parser().parse_args([command, "--theta", "0.2"]).theta \
            == 0.2
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--theta", "inf"])


@pytest.mark.parametrize("argv", [
    ["converge", "--iterations", "10001"],
    ["locker-demo", "--iterations", "100000000"],
    ["sweep", "--grid-theta", "0.3", "--grid-iterations", "10001"],
])
def test_too_long_a_box_exits_3(argv, capsys):
    assert main(argv) == 3
    stderr = capsys.readouterr().err
    assert stderr.splitlines() == [
        f"error: iterations must be in [0, 10000], got {argv[-1]}"]


def test_largest_sizes_parse():
    args = build_parser().parse_args(["sweep", "--grid-n", "1,24"])
    assert args.grid_n == [1, 24]
    args = build_parser().parse_args(["locker-demo", "--otp-qubits", "24"])
    assert args.otp_qubits == 24
    args = build_parser().parse_args(["sweep", "--grid-iterations", "0,38"])
    assert args.grid_iterations == [0, 38]
    for command in ("verify-demo", "converge", "sweep"):
        args = build_parser().parse_args([command, "--shots", str(2**24)])
        assert args.shots == 2**24
    args = build_parser().parse_args(["locker-demo", "--repeat", str(2**24)])
    assert args.repeat == 2**24


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # the link's folder exists, its target's does not: open() itself fails
    link = tmp_path / "report.json"
    link.symlink_to(tmp_path / "missing" / "report.json")
    with pytest.raises(SystemExit) as err:
        main(["converge", "--shots", "8", "--out", str(link)])
    assert err.value.code == 2
    assert "cannot write" in capsys.readouterr().err


class GonePipe(io.StringIO):
    """Standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_failed_write_to_standard_output_names_it(capsys):
    # with no --out the report goes to standard output, so a failed write
    # names that, not the absent --out
    with pytest.raises(SystemExit) as err, \
            contextlib.redirect_stdout(GonePipe()):
        main(["converge", "--shots", "8"])
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "qlocker: error: cannot write standard output: Broken pipe"


@pytest.mark.parametrize("command", [
    "verify-demo", "converge", "locker-demo", "sweep"])
def test_empty_out_is_a_usage_error(command, capsys):
    # emit reads an empty --out as "no file", so "" must not parse
    with pytest.raises(SystemExit) as err:
        main([command, "--out", ""])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error:" in last and "--out" in last and "''" in last


def test_overlap_one_reads_a_rounding_above_or_below_one(tmp_path):
    # the forced overlap comes back from a floating-point sum; it must
    # still be accepted by the analytic law
    code, out = run_to_file(
        tmp_path, "l.json",
        ["locker-demo", "--wrong-overlap", "1", "--repeat", "3",
         "--iterations", "4"])
    assert code == 0
    wrong = json.loads(out.read_text())["wrong_attempt"]
    assert wrong["analytic_acceptance"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("otp_qubits", [1, 2, 3])
def test_overlap_one_passes_its_rate_check_on_every_seed(otp_qubits, capsys):
    # a per-qubit overlap may round to 1 + 4e-16; read as more than 1, the
    # law's 4 sigma band was 0 wide and failed a run that accepted every time
    for seed in range(1, 41):
        code = main(["locker-demo", "--wrong-overlap", "1", "--repeat", "100",
                     "--iterations", "4", "--otp-qubits", str(otp_qubits),
                     "--seed", str(seed)])
        wrong = json.loads(capsys.readouterr().out)["wrong_attempt"]
        assert code == 0, seed
        assert wrong["analytic_acceptance"] <= 1.0, seed

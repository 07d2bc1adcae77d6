import json

import pytest

from qlocker.cli import build_parser, main


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


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

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["verify-demo", "--shots", "512", "--seed", "7"]
        _, first = run_to_file(tmp_path, "a.json", argv)
        _, second = run_to_file(tmp_path, "b.json", argv)
        assert first.read_bytes() == second.read_bytes()

    def test_check_failure_exits_4(self, tmp_path):
        # seed 22 at 12 shots lands outside the y-basis 3-sigma band
        code, _ = run_to_file(
            tmp_path, "v.json",
            ["verify-demo", "--shots", "12", "--seed", "22"])
        assert code == 4

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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["verify-demo", "--format", "yaml"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["no-such-command"])
    assert err.value.code == 2


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
    # sweep check j seeds qubit k from sub-stream 8*j + k
    ["sweep", "--grid-n", "1,9"],
    # the password register is capped at 24 qubits
    ["locker-demo", "--otp-qubits", "0"],
    ["locker-demo", "--otp-qubits", "-1"],
    ["locker-demo", "--otp-qubits", "25"],
    # a theta = 0 cell builds no VerificationParams to reject it later
    ["sweep", "--grid-theta", "0", "--grid-iterations", "-5"],
    ["sweep", "--grid-iterations", "1,-1"],
    ["converge", "--iterations", "-1"],
    ["locker-demo", "--iterations", "-1"],
])
def test_out_of_range_sizes_are_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert "error:" in stderr.splitlines()[-1]


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
    args = build_parser().parse_args(["sweep", "--grid-n", "1,8"])
    assert args.grid_n == [1, 8]
    args = build_parser().parse_args(["locker-demo", "--otp-qubits", "24"])
    assert args.otp_qubits == 24
    args = build_parser().parse_args(["sweep", "--grid-iterations", "0,38"])
    assert args.grid_iterations == [0, 38]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # the link's folder exists, its target's does not: open() itself fails
    link = tmp_path / "report.json"
    link.symlink_to(tmp_path / "missing" / "report.json")
    with pytest.raises(SystemExit) as err:
        main(["converge", "--shots", "8", "--out", str(link)])
    assert err.value.code == 2
    assert "cannot write" in capsys.readouterr().err


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

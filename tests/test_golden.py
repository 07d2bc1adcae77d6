"""Golden reports: every CLI command, rerun in process, byte for byte.

``tests/golden/MANIFEST.json`` maps each golden file to the argv that made
it and the exit code it returned.  It also holds the digest corpus: long
runs (large blocks, long draw windows, wide passwords) that no golden
reaches, each kept as its argv, exit code and the sha256 of its stdout,
with no report file.  A refactor of the engine must leave all of them
identical.  Write a new case or digest, or regenerate one only for a
deliberate behaviour change (and say why in CHANGES.md), by name; the other
golden files and manifest entries are left as they are:

    PYTHONPATH=src python tests/test_golden.py --write NAME [NAME ...]

The tests rerun the digests that take under a second in process.  Every
digest, each in a fresh process with RuntimeWarnings as errors and a
60-second timeout, is checked by

    PYTHONPATH=src python tests/test_golden.py --check-digests
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qlocker.cli import main

GOLDEN = Path(__file__).with_name("golden")
MANIFEST = GOLDEN / "MANIFEST.json"

# name -> argv; the manifest records these with their exit codes
CASES = {
    "verify-demo": ["verify-demo", "--shots", "512"],
    "converge": ["converge", "--shots", "512"],
    "converge-strict": ["converge", "--shots", "512", "--policy", "strict"],
    # many strict clicks, and ties among the top outcomes
    "converge-strict-clicks": [
        "converge", "--shots", "512", "--policy", "strict", "--theta", "1.2",
        "--iterations", "6"],
    "converge-csv": ["converge", "--shots", "512", "--format", "csv"],
    "locker-demo": ["locker-demo", "--repeat", "200"],
    "locker-demo-strict-n3": [
        "locker-demo", "--otp-qubits", "3",
        "--message", "101101", "--policy", "strict",
        "--wrong-overlap", "0.5", "--repeat", "200"],
    "sweep": ["sweep", "--shots", "512"],
    "verify-demo-csv": ["verify-demo", "--shots", "512", "--format", "csv"],
    # off the reference point: no paper-hardware keys
    "verify-demo-off-reference": [
        "verify-demo", "--shots", "512", "--theta", "0.5",
        "--prep-angle", "1.0"],
    "converge-no-iterations": [
        "converge", "--shots", "512", "--iterations", "0"],
    "locker-demo-n2-csv": [
        "locker-demo", "--otp-qubits", "2",
        "--message", "1011", "--format", "csv"],
    # a degenerate theta = 0 row
    "sweep-degenerate": [
        "sweep", "--shots", "512", "--grid-theta", "0,0.3",
        "--grid-n", "1,2"],
    # the sampler over wide theta (1.5: sin^2 near 1), long boxes and the
    # overlap endpoints, n > 1
    "sweep-wide": [
        "sweep", "--shots", "512", "--grid-theta", "0.05,1.2,1.5",
        "--grid-iterations", "0,1,200", "--grid-overlap", "0,0.5,1",
        "--grid-n", "1,3"],
    "sweep-degenerate-csv": [
        "sweep", "--shots", "512", "--grid-theta", "0,0.3",
        "--grid-n", "1,2", "--format", "csv"],
    # strict clicks that cut the wrong-password records at different steps
    "locker-demo-strict-n2-clicks": [
        "locker-demo", "--otp-qubits", "2",
        "--message", "1011", "--policy", "strict", "--theta", "0.3",
        "--iterations", "12", "--wrong-overlap", "0.5", "--repeat", "100"],
    # wrong-password presentations spanning more than one block of rows
    "locker-demo-n5-blocks": [
        "locker-demo", "--otp-qubits", "5",
        "--message", "10110", "--wrong-overlap", "0.5", "--repeat", "800"],
    # converge over several blocks of shots: six with strict clicks, and
    # thirteen of long records
    "converge-strict-blocks": [
        "converge", "--shots", "8192", "--policy", "strict", "--theta", "0.3"],
    "converge-long-csv": [
        "converge", "--shots", "4096", "--theta", "0.05", "--iterations",
        "200", "--format", "csv"],
    # the perfbench locker workload's argv, below the 100-repeat rate check
    "locker-demo-workload": [
        "locker-demo", "--message", "10110010", "--otp-qubits", "2",
        "--wrong-overlap", "0.5", "--policy", "paper", "--repeat", "5"],
    # a 24-factor product password, rotated in one pass
    "locker-demo-n24": [
        "locker-demo", "--otp-qubits", "24", "--wrong-overlap", "0.5",
        "--repeat", "50"],
    # the three bases over several blocks of shots
    "verify-demo-blocks": ["verify-demo", "--shots", "20000"],
    # off the reference point at a wide coupling and a prepared state near
    # |1>, as CSV
    "verify-demo-wide-csv": [
        "verify-demo", "--shots", "3000", "--theta", "1.2", "--prep-angle",
        "2.5", "--format", "csv"],
    # counts whose Stokes vector lies just outside the sphere: one
    # physicality verdict, and fidelities from the clipped reconstruction
    "verify-demo-theta0": ["verify-demo", "--theta", "0", "--seed", "16"],
}


# name -> argv of a long run pinned by its exit code and stdout sha256,
# with the reason each is pinned
DIGESTS = {
    # the three bases share each block of shots, 4369 shots of three
    # circuits a block; 241 blocks must stay within time and memory
    "digest-verify-demo-many-blocks": ["verify-demo", "--shots", "1048576"],
    # 127 blocks of 65 shots, each shot 1001 draws (251 Philox blocks);
    # seed 1 passes its bands (seed 42 misses one and exits 4)
    "digest-converge-long-box": [
        "converge", "--iterations", "1000", "--seed", "1"],
    # the same blocks under the strict policy: a row that clicked stays in
    # every kernel call on draws of 0, until every row of its block has
    # clicked; seed 1 passes its bands (seed 42 misses one and exits 4)
    "digest-converge-strict-long-box": [
        "converge", "--policy", "strict", "--iterations", "1000", "--seed",
        "1"],
    # 11 blocks of up to 6 shots, each shot 10001 draws (2501 Philox
    # blocks), drawn key by key from numpy's own Philox, since a block has
    # few keys; seeds 1 and 42 pass their bands
    "digest-converge-longest-window": [
        "converge", "--iterations", "10000", "--shots", "64", "--seed", "1"],
    # locker-demo holds its passwords as one-qubit factors; a locker that
    # builds the 2**24 register again needs gigabytes and minutes
    "digest-locker-demo-widest": [
        "locker-demo", "--otp-qubits", "24", "--wrong-overlap", "0.5",
        "--repeat", "1000"],
    # with no --wrong-overlap the wrong password is generate_otp of fresh
    # OtpParams.random angles, so the 24-factor rotation pass also runs on
    # those angles
    "digest-locker-demo-widest-random": [
        "locker-demo", "--otp-qubits", "24", "--repeat", "1000"],
    # the strict check of the correct password reads the received
    # password's inverse rotation from its unlock, not a second one
    "digest-locker-demo-widest-strict": [
        "locker-demo", "--otp-qubits", "24", "--wrong-overlap", "0.5",
        "--repeat", "1000", "--policy", "strict"],
    # the correct password is row 0 of the first of 126 blocks of at most
    # 799 rows (a two-factor password and its 78 draws a row), and the
    # wrong password's 100000 copies fill the rest
    "digest-locker-demo-many-blocks": [
        "locker-demo", "--otp-qubits", "2", "--wrong-overlap", "0.5",
        "--repeat", "100000"],
    # strict 8-qubit boxes on a random wrong password; exits 4: one accept
    # in 1000 misses the normal-approximation band around the expected
    # 0.029 accepts
    "digest-locker-demo-n8-strict": [
        "locker-demo", "--otp-qubits", "8", "--repeat", "1000", "--policy",
        "strict"],
    # one shot below, at and above a block cut (statevector._shot_blocks at
    # SHOT_BLOCK_CELLS): a converge block is 1598 rows of 41 cells, so 1599
    # shots are a full block and a block of one
    "digest-converge-cut-below": ["converge", "--shots", "1597"],
    "digest-converge-cut-at": ["converge", "--shots", "1598"],
    "digest-converge-cut-above": ["converge", "--shots", "1599"],
    # a verify-demo block is 4369 shots of three circuits of 5 cells
    "digest-verify-demo-cut-below": ["verify-demo", "--shots", "4368"],
    "digest-verify-demo-cut-at": ["verify-demo", "--shots", "4369"],
    "digest-verify-demo-cut-above": ["verify-demo", "--shots", "4370"],
    # a two-factor locker block is 799 rows of 82 cells, and the correct
    # password is row 0 of the first, so 799 wrong copies spill one row
    "digest-locker-demo-cut-below": [
        "locker-demo", "--otp-qubits", "2", "--repeat", "797"],
    "digest-locker-demo-cut-at": [
        "locker-demo", "--otp-qubits", "2", "--repeat", "798"],
    "digest-locker-demo-cut-above": [
        "locker-demo", "--otp-qubits", "2", "--repeat", "799"],
    # the long runs above as CSV: the CSV writer over a long converge
    # record table, many blocks of three-basis counts, and a many-block
    # locker's attempts
    "digest-converge-long-box-csv": [
        "converge", "--iterations", "1000", "--seed", "1", "--format",
        "csv"],
    "digest-verify-demo-many-blocks-csv": [
        "verify-demo", "--shots", "1048576", "--format", "csv"],
    "digest-locker-demo-many-blocks-csv": [
        "locker-demo", "--otp-qubits", "2", "--wrong-overlap", "0.5",
        "--repeat", "100000", "--format", "csv"],
}
# digests that take seconds in process, which only --check-digests runs
SLOW_DIGESTS = {"digest-converge-long-box", "digest-converge-strict-long-box",
                "digest-converge-longest-window",
                "digest-converge-long-box-csv"}


def golden_file(name: str, argv: list[str]) -> Path:
    return GOLDEN / (name + (".csv" if "csv" in argv else ".json"))


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    entry = json.loads(MANIFEST.read_text())[name]
    assert entry["argv"] == CASES[name]
    code, text = run_cli(entry["argv"])
    assert code == entry["exit_code"]
    assert text.encode() == golden_file(name, entry["argv"]).read_bytes()


@pytest.mark.parametrize("name", sorted(DIGESTS.keys() - SLOW_DIGESTS))
def test_report_matches_digest(name):
    entry = json.loads(MANIFEST.read_text())[name]
    assert entry["argv"] == DIGESTS[name]
    code, text = run_cli(entry["argv"])
    assert (code, sha256(text.encode())) == (entry["exit_code"],
                                             entry["sha256"])


# calls that end before or inside a command, run between the golden cases:
# argv, exit code, and a piece of what they print
INTERRUPTIONS = [
    (["converge", "--shots", "0"], 2, "argument --shots"),
    (["locker-demo", "--message", "000"], 3, "error: all-zero message"),
    (["sweep", "--help"], 0, "--grid-overlap"),
    (["verify-demo", "--format", "yaml"], 2, "argument --format"),
    (["converge", "--iterations", "10001"], 3, "iterations must be"),
    (["locker-demo", "--help"], 0, "--wrong-overlap"),
]


def test_one_process_leaks_nothing_between_reports(capsys):
    # main parses every call with one shared parser; run the goldens in
    # the reverse of their manifest order, an error or a --help between
    # each two, and every report must still be its golden bytes
    manifest = json.loads(MANIFEST.read_text())
    for i, name in enumerate(reversed([n for n in manifest if n in CASES])):
        entry = manifest[name]
        code, text = run_cli(entry["argv"])
        assert code == entry["exit_code"], name
        assert text.encode() == golden_file(name, entry["argv"]).read_bytes()
        argv, want, needle = INTERRUPTIONS[i % len(INTERRUPTIONS)]
        capsys.readouterr()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == want, argv
        assert needle in (captured.out if want == 0 else captured.err)


def test_golden_set_is_exactly_the_cases():
    # an orphaned golden file or manifest entry would otherwise pass unseen
    manifest = json.loads(MANIFEST.read_text())
    assert manifest.keys() == CASES.keys() | DIGESTS.keys()
    assert not CASES.keys() & DIGESTS.keys() and SLOW_DIGESTS <= DIGESTS.keys()
    assert {name for name, entry in manifest.items()
            if "sha256" in entry} == DIGESTS.keys()
    want = {MANIFEST.name} | {golden_file(name, argv).name
                              for name, argv in CASES.items()}
    assert {path.name for path in GOLDEN.iterdir()} == want
    assert len(want) == len(CASES) + 1


def write_goldens(names: list[str]) -> None:
    """Rerun the named cases and digests and write their golden files and
    manifest entries; every other entry is kept as it is."""
    unknown = sorted(set(names) - CASES.keys() - DIGESTS.keys())
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for name in names:
        argv = CASES.get(name) or DIGESTS[name]
        code, text = run_cli(argv)
        manifest[name] = {"argv": argv, "exit_code": code}
        if name in DIGESTS:
            manifest[name]["sha256"] = sha256(text.encode())
        else:
            golden_file(name, argv).write_bytes(text.encode())
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def check_digests() -> None:
    """Run every digest in a fresh process, RuntimeWarnings as errors, and
    exit non-zero if one times out or differs in exit code or sha256."""
    manifest = json.loads(MANIFEST.read_text())
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    failed = []
    for name in DIGESTS:
        entry = manifest[name]
        start = time.perf_counter()
        try:
            run = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m",
                 "qlocker.cli", *entry["argv"]],
                capture_output=True, env=env, timeout=60)
            got = (run.returncode, sha256(run.stdout))
            ok = got == (entry["exit_code"], entry["sha256"])
        except subprocess.TimeoutExpired:
            got, ok = "timed out", False
        print(f"{'ok' if ok else 'FAIL'} {time.perf_counter() - start:6.2f}s "
              f"{name}" + ("" if ok else f": got {got}"), flush=True)
        if not ok:
            failed.append(name)
    if failed:
        raise SystemExit(f"{len(failed)} digest(s) differ: {', '.join(failed)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check-digests"]:
        check_digests()
    elif len(sys.argv) >= 3 and sys.argv[1] == "--write":
        write_goldens(sys.argv[2:])
    else:
        raise SystemExit("usage: test_golden.py --write NAME [NAME ...] | "
                         "--check-digests")

"""Start-up: what ``import qlocker``, ``import qlocker.cli`` and each
command load, each checked in a fresh interpreter.

The package resolves its public names on first access, and ``cli``
imports ``tomography``, ``locker`` and ``csv`` only inside the functions
that run them, so a command does not pay to load and compile the modules
it never runs.  The ``teleport`` names are the exception: the package
imports them at once, together with the modules ``teleport`` imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# what ``import qlocker`` loads: the package, teleport and its imports
TELEPORT_CLOSURE = {"qlocker", "qlocker.gates", "qlocker.rng",
                    "qlocker.statevector", "qlocker.teleport"}
RUN_QUIETLY = """
import contextlib, os
from qlocker.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    assert main({argv!r}) == 0
"""


def fresh(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter with only ``src`` on its path;
    the words of its last line of output, after which it prints every
    module it has loaded."""
    run = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(*sorted(sys.modules))\n"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1].split()


def qlocker_modules(loaded: list[str]) -> set[str]:
    return {name for name in loaded
            if name == "qlocker" or name.startswith("qlocker.")}


def test_the_package_loads_only_teleport():
    assert qlocker_modules(fresh("import qlocker")) == TELEPORT_CLOSURE


def test_the_cli_loads_no_module_that_only_some_commands_run():
    loaded = set(fresh("import qlocker.cli"))
    assert not loaded & {"qlocker.locker", "qlocker.tomography", "csv"}


@pytest.mark.parametrize("argv, runs, skips", [
    (["converge", "--shots", "8"], set(),
     {"qlocker.locker", "qlocker.tomography", "csv"}),
    (["sweep", "--shots", "8", "--grid-n", "1"], set(),
     {"qlocker.locker", "qlocker.tomography", "csv"}),
    (["verify-demo", "--shots", "8"], {"qlocker.tomography"},
     {"qlocker.locker", "csv"}),
    (["locker-demo"], {"qlocker.locker"}, {"qlocker.tomography", "csv"}),
    (["converge", "--shots", "8", "--format", "csv"], {"csv"},
     {"qlocker.locker", "qlocker.tomography"}),
], ids=["converge", "sweep", "verify-demo", "locker-demo", "converge-csv"])
def test_a_command_loads_only_what_it_runs(argv, runs, skips):
    loaded = set(fresh(RUN_QUIETLY.format(argv=argv)))
    assert runs <= loaded and not skips & loaded


def test_every_public_name_is_its_submodules_object():
    fresh("""
import sys
import qlocker
from qlocker import *
names = qlocker.__all__
assert len(set(names)) == len(names) and set(names) <= set(dir(qlocker))
for name in names:
    module = sys.modules["qlocker." + qlocker._LAZY.get(name, "teleport")]
    assert getattr(qlocker, name) is getattr(module, name), name
    assert globals()[name] is getattr(module, name), name
# nothing is cached in the package, so a tracer's rebinding is seen there
assert not set(qlocker._LAZY) & set(vars(qlocker))
""")


def test_the_teleport_name_stays_the_function():
    fresh("""
import sys
import qlocker.teleport
import qlocker
from qlocker import teleport
assert callable(qlocker.teleport) and teleport is qlocker.teleport
assert qlocker.teleport is sys.modules["qlocker.teleport"].teleport
""")

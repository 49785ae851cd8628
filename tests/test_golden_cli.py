"""Golden CLI outputs under pytest: the commands, their recorded digests and
the in-process runner live in ``golden.py``, which needs only the standard
library and replays or re-records the set on its own (see its docstring).
The tests here replay every command in-process, and check that the recorded
set follows the command list, that ``python -m dompoly.cli`` and fresh
processes give the same bytes, that each command loads only the layers it
runs, and that an invalid choice reads the same under every argparse.
"""

import argparse
import json
import shutil
from unittest import mock

import pytest

from dompoly import cli

from conftest import run_fresh
from golden import COMMANDS, FIXTURES, GOLDEN, README, README_COMMANDS, run_command, sha


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_command_is_recorded(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden(command, golden, tmp_path):
    assert run_command(command, tmp_path) == golden[command]


def test_parser_is_built_once_and_reused(golden, tmp_path, capsys):
    """main keeps one parser for the process; a run after an argparse error
    still gives the golden bytes, and build_parser still returns a new one."""
    cli._parser.cache_clear()
    assert cli.build_parser() is not cli.build_parser()
    first = "compute --family friendship:1..3"
    assert run_command(first, tmp_path) == golden[first]
    assert cli.main(["compute", "--family", "friendship:2", "--no-such-flag"]) == 1
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    for command in (
        "certify --join H:n+1,B:n --range 3..12",
        "roots --family complement_friendship:1..30 --out roots.csv",
    ):
        assert run_command(command, tmp_path) == golden[command]
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "command", ["compute --family friendship:2", "compute --family friendship:0"]
)
def test_module_runs_as_a_script(command, golden, tmp_path):
    """`python -m dompoly.cli` gives the golden exit code and bytes, and
    with warnings as errors: importing cli from the package would make
    runpy warn that the module is already loaded."""
    proc = run_fresh(["-m", "dompoly.cli", *command.split()], tmp_path)
    want = golden[command]
    assert proc.returncode == want["exit"]
    assert sha(proc.stdout) == want["stdout"] and sha(proc.stderr) == want["stderr"]


#: The modules whose loading a fresh process reports: numpy (the solver's),
#: fractions and decimal, which no command loads, and the three layers that
#: cli imports only where a subcommand runs them.
_WATCHED = (
    "numpy",
    "fractions",
    "decimal",
    "dompoly.realroots",
    "dompoly.enumeration",
    "dompoly.plotting",
)

#: Runs cli.main on its arguments, then reports on stderr, after everything
#: the command wrote there, which of _WATCHED it loaded.
_REPORT_LOADED = f"""import sys
from dompoly import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("loaded: " + ",".join(m for m in {_WATCHED!r} if m in sys.modules))
sys.exit(code)
"""

_COUNTER = {"dompoly.enumeration"}
_CERTIFIER = {"dompoly.realroots"}
_SOLVER = {"numpy", *_CERTIFIER}

#: What each command loads of _WATCHED: compute of a family with a closed
#: form none of them, a count on the graph (--oracle, --edge-list, a family
#: without a closed form) the counter, certify and sweep the certifier, roots
#: and plot the certifier's MIN_TOL and, once their options pass it, the
#: solver, and only plot the SVG writer.  Every README command must be here.
_LOADS = {
    "compute --family friendship:2": set(),
    "compute --family cocktail_party:2 --oracle": _COUNTER,
    "compute --edge-list graph.txt": _COUNTER,
    "compute --family path:1..5": _COUNTER,
    "certify --family cocktail_party:1..50": _CERTIFIER,
    "certify --family friendship:1..15 --odd-only": _CERTIFIER,
    "certify --join H:n,H:n --range 3..20": _CERTIFIER,
    "certify --family h_witness:10": _CERTIFIER,  # runs the modular squarefree test
    "sweep --family friendship:1..10": _CERTIFIER,
    "roots --family complement_friendship:1..30 --out roots.csv": _SOLVER,
    "plot --family complement_friendship:1..30 --circle --out fig.svg": {
        *_SOLVER,
        "dompoly.plotting",
    },
    # usage errors: exit 1 before the solver is imported
    "roots --family path:3 --tol 1": _CERTIFIER,
    "roots --family path:3 --max-iter 0": _CERTIFIER,
    "plot --family path:3 --tol 1": _CERTIFIER,
    "plot --family path:3 --max-iter 0": _CERTIFIER,
}


@pytest.mark.parametrize("command", dict.fromkeys([*README_COMMANDS, *_LOADS]))
def test_each_command_loads_only_the_layers_it_runs(command, golden, tmp_path):
    """Each README command and each command of _LOADS, in a fresh process,
    gives its golden bytes (a usage error that the golden set does not
    record: exit 1, naming the option), and loads what _LOADS lists."""
    shutil.copy(FIXTURES / "graph.txt", tmp_path / "graph.txt")
    argv = command.split()
    proc = run_fresh(["-c", _REPORT_LOADED, *argv], tmp_path)
    stderr, _, report = proc.stderr.decode().rpartition("loaded: ")
    if command in golden:
        want = golden[command]
        assert proc.returncode == want["exit"]
        assert sha(proc.stdout) == want["stdout"] and sha(stderr.encode()) == want["stderr"]
        if "--out" in argv:
            assert sha((tmp_path / argv[argv.index("--out") + 1]).read_bytes()) == want["out"]
    else:
        assert proc.returncode == 1 and proc.stdout == b"" and argv[3] in stderr
    assert set(filter(None, report.split(","))) == _LOADS[command]


def _check_value_unquoted(self, action, value):
    """argparse's choice check as Python 3.13.13 has it: the choices bare."""
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def test_an_invalid_choice_reads_the_same_under_any_argparse(golden, tmp_path):
    """The message of an invalid subcommand is cli's own, so `bogus` keeps
    its golden bytes under an argparse that writes the choices unquoted."""
    with mock.patch.object(argparse.ArgumentParser, "_check_value", _check_value_unquoted):
        assert run_command("bogus", tmp_path) == golden["bogus"]


def test_readme_quotes_the_solver_failure_verbatim(capsys):
    """README's Caps and limits quote the stderr of a non-converging solve;
    the quote, rewrapped, must be the message the CLI prints now."""
    assert cli.main(["roots", "--family", "complement_friendship:12", "--max-iter", "2"]) == 3
    message = capsys.readouterr().err.strip()
    assert f"`{message}`" in " ".join(README.read_text(encoding="utf-8").split())

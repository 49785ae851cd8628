"""Golden CLI outputs under pytest: the commands, their recorded digests and
the in-process runner live in ``golden.py``, which needs only the standard
library and replays or re-records the set on its own (see its docstring).
The tests here replay every command in-process, and check that the recorded
set follows the command list, that ``python -m dompoly.cli`` and fresh
processes give the same bytes, and that only ``roots`` and ``plot`` load
numpy.
"""

import json
import shutil

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


#: Runs cli.main on its arguments, then reports on stderr whether numpy was
#: loaded, after everything the command wrote there.
_REPORT_NUMPY = """import sys
from dompoly import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}")
sys.exit(code)
"""


@pytest.mark.parametrize("command", [*README_COMMANDS, "certify --family h_witness:10"])
def test_only_roots_and_plot_load_numpy(command, golden, tmp_path):
    """Each README command, and a certificate that runs the modular
    squarefree test, in a fresh process, gives its golden bytes; compute,
    certify and sweep run without numpy, and roots and plot load it for the
    solver."""
    shutil.copy(FIXTURES / "graph.txt", tmp_path / "graph.txt")
    argv = command.split()
    proc = run_fresh(["-c", _REPORT_NUMPY, *argv], tmp_path)
    stderr, _, report = proc.stderr.decode().rpartition("numpy loaded: ")
    want = golden[command]
    assert proc.returncode == want["exit"]
    assert sha(proc.stdout) == want["stdout"] and sha(stderr.encode()) == want["stderr"]
    if "--out" in argv:
        assert sha((tmp_path / argv[argv.index("--out") + 1]).read_bytes()) == want["out"]
    assert report == str(argv[0] in ("roots", "plot"))


@pytest.mark.parametrize("command", ["roots", "plot"])
@pytest.mark.parametrize("option", [["--tol", "1"], ["--max-iter", "0"]])
def test_a_usage_error_of_the_solver_leaves_numpy_unloaded(command, option, tmp_path):
    """roots and plot check --tol and --max-iter before they import the
    solver, so a usage error exits 1 without loading numpy."""
    argv = [command, "--family", "path:3", *option]
    proc = run_fresh(["-c", _REPORT_NUMPY, *argv], tmp_path)
    stderr, _, report = proc.stderr.decode().rpartition("numpy loaded: ")
    assert proc.returncode == 1 and option[0] in stderr and proc.stdout == b""
    assert report == "False"


def test_readme_quotes_the_solver_failure_verbatim(capsys):
    """README's Caps and limits quote the stderr of a non-converging solve;
    the quote, rewrapped, must be the message the CLI prints now."""
    assert cli.main(["roots", "--family", "complement_friendship:12", "--max-iter", "2"]) == 3
    message = capsys.readouterr().err.strip()
    assert f"`{message}`" in " ".join(README.read_text(encoding="utf-8").split())

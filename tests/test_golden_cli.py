"""Golden CLI outputs: every README command plus family, join and error cases.

The README commands are read from the code blocks of README.md, so a command
added or changed there fails until it is recorded.  Each command runs
in-process through ``cli.main`` inside a temporary directory holding
``graph.txt`` (a copy of ``fixtures/graph.txt``).  Its exit code and the
sha256 of stdout, stderr and the ``--out`` file must match
``fixtures/golden_cli.json``, so a refactor that changes any output byte
fails here.  To re-record after an intended output change, run from the repo
root:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from dompoly import cli

from conftest import run_fresh

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden_cli.json"

README = Path(__file__).parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """The `dompoly ...` lines of README's code blocks, without the program
    name and the trailing comment, so the golden set follows the README."""
    commands, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("dompoly "):
            commands.append(" ".join(line.partition("#")[0].split()[1:]))
    return commands


_README = _readme_commands()

_EDGE_LIST = [
    "certify --edge-list graph.txt",
    "sweep --edge-list graph.txt",
    "roots --edge-list graph.txt",
    "plot --edge-list graph.txt --out fig.svg",
]

_FAMILIES = [
    "compute --family complete:0..3",
    "compute --family complete_bipartite:2,3",
    "compute --family complete_bipartite:0,1..2",
    "compute --family path:1..5",
    "compute --family cycle:3..6",
    "compute --family friendship:1..3",
    "compute --family complement_friendship:1..3",
    "compute --family cocktail_party:1..3",
    "compute --family book:1..3",
    "compute --family k_star:3,5..9",
    "compute --family h_witness:1..5",
    "compute --family h_witness:1..5 --oracle",
    "compute --family book:1..3 --oracle",
    "compute --family complement_friendship:1..3 --oracle",
    "compute --family complete:1..4 --oracle",
    "compute --family path:3 --oracle",
    "roots --family h_witness:10",  # every nonzero root is 5-fold
    "roots --family h_witness:40",  # every nonzero root is 20-fold
    "roots --family friendship:68",
    "roots --family book:68",
]

_JOINS = [
    "certify --join K:n,CP:n+1 --range 1..6",
    "certify --join CF:n,F:n --range 1..6",
    "certify --join complete:n,cocktail_party:n --range 1..6",
    "certify --join book:n,h_witness:n+1 --range 1..6",
    "certify --join friendship:n,complement_friendship:n --range 1..6",
    "certify --join H:n+1,B:n --range 3..12",
    "certify --join K:2,B:n --range 1..5 --odd-only",
    "certify --join F:n,F:n+1 --range 1..4",
    "certify --join K:n,K:n --range 1..4",
    "sweep --join CP:n,H:n --range 1..6",
]

_ERRORS = [
    "compute --family nonsense:3",
    "compute --family cycle:2",
    "compute --family friendship:0",
    "compute --family h_witness:0",
    "compute --family k_star:0,3",
    "compute --family k_star:3,3",
    "compute --family path:-1",
    "compute --family friendship",
    "certify --join Z:n,H:n --range 1..2",
    "certify --join K:0,K:n --range 1..2",
    "certify --join CF:n,H:n --range 0..2",
    "certify --join H:n,B:x --range 1..2",
    "certify --join H:n --range 1..2",
    "certify --join path:n,H:n --range 1..2",
    "certify --family path:3 --range 1..5",
    "certify --edge-list graph.txt --odd-only",
    "compute --edge-list graph.txt --oracle",
    "compute --bogus",
    "roots --tol abc",
    "roots --max-iter 1.5",
    "roots --family complement_friendship:12 --max-iter 2",  # the solver does not converge
    "bogus",
    "",  # no subcommand
]

COMMANDS = _README + _EDGE_LIST + _FAMILIES + _JOINS + _ERRORS


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command: str, workdir: Path) -> dict:
    """Run one command line in workdir; exit code and output digests."""
    shutil.copy(FIXTURES / "graph.txt", workdir / "graph.txt")
    argv = command.split()
    out_path = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "out": _sha(out_path.read_bytes()) if out_path else None,
    }


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
    assert _sha(proc.stdout) == want["stdout"] and _sha(proc.stderr) == want["stderr"]


#: Runs cli.main on its arguments, then reports on stderr whether numpy was
#: loaded, after everything the command wrote there.
_REPORT_NUMPY = """import sys
from dompoly import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}")
sys.exit(code)
"""


@pytest.mark.parametrize("command", _README)
def test_only_roots_and_plot_load_numpy(command, golden, tmp_path):
    """Each README command, in a fresh process, gives its golden bytes;
    compute, certify and sweep run without numpy, and roots and plot load
    it for the solver."""
    shutil.copy(FIXTURES / "graph.txt", tmp_path / "graph.txt")
    argv = command.split()
    proc = run_fresh(["-c", _REPORT_NUMPY, *argv], tmp_path)
    stderr, _, report = proc.stderr.decode().rpartition("numpy loaded: ")
    want = golden[command]
    assert proc.returncode == want["exit"]
    assert _sha(proc.stdout) == want["stdout"] and _sha(stderr.encode()) == want["stderr"]
    if "--out" in argv:
        assert _sha((tmp_path / argv[argv.index("--out") + 1]).read_bytes()) == want["out"]
    assert report == str(argv[0] in ("roots", "plot"))


def test_readme_quotes_the_solver_failure_verbatim(capsys):
    """README's Caps and limits quote the stderr of a non-converging solve;
    the quote, rewrapped, must be the message the CLI prints now."""
    assert cli.main(["roots", "--family", "complement_friendship:12", "--max-iter", "2"]) == 3
    message = capsys.readouterr().err.strip()
    assert f"`{message}`" in " ".join(README.read_text(encoding="utf-8").split())


def _record() -> None:
    """Re-record every command; print each changed digest, old and new."""
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        results = {}
        for i, command in enumerate(COMMANDS):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            results[command] = run_command(command, workdir)
    for command, result in results.items():
        old = previous.get(command, {})
        changed = [key for key in result if old.get(key) != result[key]]
        if changed:
            print(command)
            for key in changed:
                print(f"  {key}: {old.get(key)} -> {result[key]}")
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} commands in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()

"""Golden CLI outputs: every README command plus family, join and error cases.

The README commands are read from the code blocks of README.md, so a command
added or changed there fails until it is recorded.  Each command runs
in-process through ``cli.main`` inside a temporary directory holding
``graph.txt`` (a copy of ``fixtures/graph.txt``).  Its exit code and the
sha256 of stdout, stderr and the ``--out`` file must match
``fixtures/golden_cli.json``, so a refactor that changes any output byte
fails.  ``test_golden_cli.py`` replays the whole set under pytest; this
module needs only the standard library and ``dompoly``.  From the repo root:

    PYTHONPATH=src python -B tests/golden.py --record
    PYTHONPATH=src python -B tests/golden.py --check

``--record`` re-records every command after an intended output change and
prints each changed digest.  ``--check`` replays every recorded command but
those of ``roots`` and ``plot``, the subcommands that can load the root
solver and numpy with it, lists the ones it skipped, and exits 1 if a digest
differs or a replayed command loaded numpy, so it runs on an interpreter that
has neither numpy nor pytest.
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
from unittest import mock

from dompoly import cli

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


README_COMMANDS = _readme_commands()

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
    # the isolation lands on the 5-fold root, proves, and restarts
    "certify --family h_witness:10",
    "roots --family h_witness:40",  # every nonzero root is 20-fold
    "roots --family friendship:68",
    "roots --family book:68",
    "roots --family complete:0..2",  # K_0 and K_1 have no nonzero root, K_2 one
]

_JOINS = [
    "certify --join K:n,CP:n+1 --range 1..6",
    "certify --join CF:n,F:n --range 1..6",
    "certify --join complete:n,cocktail_party:n --range 1..6",
    "certify --join book:n,h_witness:n+1 --range 1..6",
    "certify --join friendship:n,complement_friendship:n --range 1..6",
    "certify --join H:n+1,B:n --range 3..12",
    "certify --join H:n+1,B:n --range 100",  # degree 405, three witnesses
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
    "roots --family path:3 --max-iter 0",
    "bogus",
    "",  # no subcommand
]

#: The help of the program and of each subcommand, at COLUMNS=80.
_HELP = [
    "--help",
    "compute --help",
    "certify --help",
    "sweep --help",
    "roots --help",
    "plot --help",
]

COMMANDS = README_COMMANDS + _EDGE_LIST + _FAMILIES + _JOINS + _ERRORS + _HELP


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command: str, workdir: Path) -> dict:
    """Run one command line in workdir; exit code and output digests.

    COLUMNS is 80 meanwhile, the width argparse wraps --help to, and the
    code of the SystemExit that --help raises is the exit code."""
    shutil.copy(FIXTURES / "graph.txt", workdir / "graph.txt")
    argv = command.split()
    out_path = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with mock.patch.dict(os.environ, COLUMNS="80"):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout": sha(stdout.getvalue().encode()),
        "stderr": sha(stderr.getvalue().encode()),
        "out": sha(out_path.read_bytes()) if out_path else None,
    }


def record() -> None:
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


#: The subcommands that can load the root solver, and numpy with it.
NUMPY_SUBCOMMANDS = ("roots", "plot")


def check() -> int:
    """Replay the recorded commands but those of NUMPY_SUBCOMMANDS; 1 on a
    mismatch, or if one of them loaded numpy."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    skipped = [c for c in golden if c.partition(" ")[0] in NUMPY_SUBCOMMANDS]
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(golden):
            if command not in skipped:
                workdir = Path(tmp) / str(i)
                workdir.mkdir()
                if run_command(command, workdir) != golden[command]:
                    failed.append(command)
    for command in skipped:
        print(f"skipped: {command!r}")
    for command in failed:
        print(f"MISMATCH: {command!r}")
    numpy_loaded = "numpy" in sys.modules
    if numpy_loaded:
        print("MISMATCH: a replayed command loaded numpy")
    version = ".".join(map(str, sys.version_info[:3]))
    print(
        f"Python {version}: replayed {len(golden) - len(skipped)} of {len(golden)} commands,"
        f" {len(failed)} mismatched, {len(skipped)} of {'/'.join(NUMPY_SUBCOMMANDS)} skipped"
    )
    return 1 if failed or numpy_loaded else 0


if __name__ == "__main__":
    mode = {"--record": record, "--check": check}.get(" ".join(sys.argv[1:]))
    if mode is None:
        raise SystemExit(__doc__)
    raise SystemExit(mode())

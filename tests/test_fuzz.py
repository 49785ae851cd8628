"""Fuzz tests: CLI argument lists and edge-list text.

Hypothesis draws with ``derandomize=True``, so the suite stays
deterministic.  ``cli.main`` must answer any argument list built from the
subcommands, options and values below, malformed ones included, with an exit
code from its failure table and a message on stderr, never a traceback.
Indices stay at 8 or below so that every instance is cheap, and every path
lies in a temporary directory.  ``parse_edge_list`` must return a graph or
raise ``EdgeListParseError`` or ``CapacityError``, whatever the text.
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dompoly import cli
from dompoly.errors import CapacityError, EdgeListParseError
from dompoly.formulas import FAMILIES
from dompoly.graphs import Graph, parse_edge_list

FIXTURES = Path(__file__).parent / "fixtures"

fuzz = settings(derandomize=True, max_examples=300, deadline=None)

SUBCOMMANDS = ["compute", "certify", "sweep", "roots", "plot", "bogus"]

_small = st.integers(-1, 8).map(str)
_index = st.one_of(
    _small,
    st.tuples(_small, _small).map("..".join),
    st.sampled_from(["", "x", "1..", "..3", "1..x", "1.5", "2...4"]),
)


@st.composite
def family_args(draw) -> str:
    """"name:p1,...,index" with the family's own arity, mostly."""
    name = draw(st.sampled_from([*FAMILIES, "nonsense"]))
    arity = FAMILIES[name].arity if name in FAMILIES else 1
    count = arity - 1 + draw(st.sampled_from([0, 0, 0, 1, -1]))
    fixed = [draw(_small) for _ in range(count)]
    return f"{name}:{','.join([*fixed, draw(_index)])}"


_family = st.one_of(
    family_args(),
    family_args(),
    family_args(),
    st.sampled_from(["", ":", "friendship", "friendship:", ":3", "path:1,,2", "a:b"]),
)
_operand = st.tuples(
    st.sampled_from(["H", "B", "K", "F", "CF", "CP", "book", "path", "Z", ""]),
    st.sampled_from(["n", "n+1", "n+x", "0", "2", "-1", "x", ""]),
).map(":".join)
_join = st.one_of(
    st.lists(_operand, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", ",", "H:n,"]),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """graph.txt (valid), bad.txt (malformed) and an empty directory."""
    d = tmp_path_factory.mktemp("fuzz")
    shutil.copy(FIXTURES / "graph.txt", d / "graph.txt")
    (d / "bad.txt").write_text("3 2\n0 1\n1 1\n", encoding="utf-8")
    (d / "adir").mkdir()
    return d


#: Options each subcommand accepts besides --family, --edge-list and --out.
_ACCEPTS = {
    "compute": ["--odd-only", "--even-only", "--oracle"],
    "certify": ["--odd-only", "--even-only"],
    "sweep": ["--odd-only", "--even-only"],
    "roots": ["--odd-only", "--even-only", "--tol", "--max-iter"],
    "plot": ["--odd-only", "--even-only", "--tol", "--max-iter", "--circle"],
}
_FLAGS = {"--odd-only", "--even-only", "--oracle", "--circle", "--bogus"}


@st.composite
def argvs(draw, workdir: Path) -> list[str]:
    """A subcommand, one source and up to two more options it accepts; one
    draw in four breaks a rule (a foreign option, a second source or none,
    no subcommand), and one in ten is shuffled."""
    values = {
        "--family": _family,
        "--edge-list": st.sampled_from(["graph.txt", "bad.txt", "missing.txt", "adir"]).map(
            lambda p: str(workdir / p)
        ),
        "--join": _join,
        "--range": _index,
        "--out": st.sampled_from(["out.txt", "adir", "nodir/out.txt"]).map(
            lambda p: str(workdir / p)
        ),
        "--tol": st.sampled_from(["1e-12", "1e-8", "1e-3", "nan", "inf", "x"]),
        "--max-iter": st.sampled_from(["500", "3", "0", "-1", "1.5"]),
    }
    everything = sorted(values.keys() | _FLAGS)
    command = draw(st.sampled_from(SUBCOMMANDS))
    broken = command == "bogus" or not draw(st.integers(0, 3))
    sources = ["--family", "--edge-list"]
    if command in ("certify", "sweep"):
        sources.append("--join")
    options = [draw(st.sampled_from(sources))]
    extras = ["--out", *_ACCEPTS.get(command, [])]
    options += draw(st.lists(st.sampled_from(extras), max_size=2))
    if broken:
        options += draw(st.lists(st.sampled_from(everything), max_size=2))
        if not draw(st.integers(0, 3)):
            options = options[1:]
    words = [] if broken and not draw(st.integers(0, 3)) else [command]
    for option in options:
        words.append(option)
        if option in values:
            words.append(draw(values[option]))
        if option == "--join":
            words += ["--range", draw(_index)]
    if not draw(st.integers(0, 9)):
        draw(st.randoms()).shuffle(words)
    return words


_PREFIXES = {code: prefix for _, code, prefix in cli._FAILURES}


@fuzz
@given(data=st.data())
def test_cli_never_raises(workdir, data):
    argv = data.draw(argvs(workdir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() in ("", "all_in_cg: true\n", "all_in_cg: false\n")
    else:
        assert code in _PREFIXES
        message = err.getvalue()
        assert message.startswith(f"{_PREFIXES[code]}: ") and message.endswith("\n")
        assert out.getvalue() == ""


_token = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["", "x", "1.5", "0x3", "1_0", "4097", "99999999999999999999", "٣"]),
)
_junk = st.one_of(st.lists(_token, max_size=3).map(" ".join), st.text(max_size=8))
_edge = st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(lambda e: f"{e[0]} {e[1]}")


@st.composite
def edge_list_texts(draw) -> str:
    """A header "n m" and m edge lines, some of them junk, or junk only."""
    n, m = draw(st.integers(0, 9)), draw(st.integers(0, 5))
    header = draw(st.one_of(st.just(f"{n} {m}"), st.just(f"{n} {m}"), _junk))
    body = draw(st.lists(st.one_of(_edge, _edge, _edge, _junk), min_size=m, max_size=m))
    body += draw(st.lists(st.one_of(st.just(""), _junk), max_size=2))
    return draw(st.sampled_from(["\n", "\r\n", "\t\n"])).join([header, *body])


@fuzz
@given(edge_list_texts())
def test_edge_list_text_raises_only_parse_or_capacity_errors(text):
    try:
        g = parse_edge_list(text)
    except (EdgeListParseError, CapacityError):
        return
    assert isinstance(g, Graph)

"""Fuzz tests: CLI argument lists and edge-list text.

Hypothesis draws with ``derandomize=True``, so the suite stays
deterministic.  ``cli.main`` must answer any argument list built from the
subcommands, options and values below, malformed ones included, with an exit
code from its failure table and a message on stderr, never a traceback.
Indices stay at 8 or below so that every instance is cheap, and every path
lies in a temporary directory.  ``parse_edge_list`` must return a graph or
raise ``EdgeListParseError`` or ``CapacityError``, whatever the text, and
give the same graph, or the same error, message and line number, as the
line-by-line reference parser of ``conftest``.
"""

import contextlib
import io
import itertools
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dompoly import cli
from dompoly.errors import CapacityError, EdgeListParseError
from dompoly.formulas import FAMILIES
from dompoly.graphs import Graph, parse_edge_list

from conftest import reference_parse_edge_list

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
#: Odd endpoints: "-1", "-0" and "01" are decimal integers to the format;
#: "+1", "1_0" and "٣" are not, though int() reads them; int() refuses
#: 4,301 digits.
_ODD = ("-1", "-0", "+1", "01", "1_0", "٣", "1" * 4301)


@st.composite
def edge_list_texts(draw) -> str:
    """A header "n m" and m edge lines, distinct edges as far as n allows,
    then blank or non-blank lines; or junk only.  One edge line may be
    spoiled: another line as "v u", blank, one or three fields, an odd
    field, a self-loop, an endpoint n, or junk."""
    n, m = draw(st.sampled_from([4097, *range(10)])), draw(st.integers(0, 5))
    header = draw(st.one_of(st.just(f"{n} {m}"), st.just(f"{n} {m}"), st.just(f"{n} {m}"), _junk))
    fit = st.integers(0, max(n - 1, 0)).map(str)  # in range, but for n = 0
    edge = st.tuples(fit, fit).map(" ".join)
    distinct = draw(st.permutations(list(itertools.combinations(range(min(n, 10)), 2))))[:m]
    body = [" ".join(map(str, draw(st.permutations(e)))) for e in distinct]
    body += draw(st.lists(edge, min_size=m - len(body), max_size=m - len(body)))
    if body and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        (u, v), (x, y) = body[j].split(), body[i].split()
        spoilt = [f"{y} {x}", "", " ", u, f"{u} {v} {x}", f"{u} {u}", f"{u} {n}", draw(_junk)]
        body[j] = draw(st.sampled_from([*spoilt, *(f"{odd} {v}" for odd in _ODD)]))
    body += draw(st.lists(st.one_of(st.just(""), edge, _junk), max_size=2))
    return draw(st.sampled_from(["\n", "\r\n", "\t\n"])).join([header, *body])


def _parsed(parse, text: str):
    """The graph parse gives for text, or its error's type, message and line."""
    try:
        return parse(text)
    except (EdgeListParseError, CapacityError) as e:
        return type(e), str(e), getattr(e, "line", None)


@fuzz
@given(edge_list_texts())
@example("3 2\n0 1\n1 0\n")
@example("3 1\n1 1\n")
@example("3 1\n0 3\n")
@example("3 2\n-0 1\n01 2\n")
@example("3 1\n+1 2\n")
@example("4 1\n٣ 0\n")
@example("3 1\n" + "1" * 4301 + " 0\n")
@example("3 2\n0 1\n\n1 2\n")
@example("3 1\n0 1\n1 2\n")
@example("4 2\n0 1 2\n3\n")
@example("3 0\n\n \n")
@example("4097 1\n0 x\n")
@example("4097 1\n0 1\n")
def test_edge_list_text_raises_only_parse_or_capacity_errors(text):
    parsed = _parsed(parse_edge_list, text)
    assert isinstance(parsed, (Graph, tuple))
    assert parsed == _parsed(reference_parse_edge_list, text)

"""Command-line interface: compute, certify, sweep, roots, plot.

Instances come from a named family ("friendship:3"), from a family range
("cocktail_party:1..50", the last parameter may be a range), from an
edge-list file, or for certify from a pair of join operands with a symbolic
index ("--join H:n,H:n --range 3..20").  Join operands are the families with
a closed form, by name or short alias.  Instances run one after another and
print in index order.

Each subcommand imports the layers it runs where it first needs them: the
counter (enumeration) only for a graph without a closed form, an edge list
or --oracle, the certifier (realroots) for certify and sweep, the solver
(complexroots, with numpy) for roots and plot, and the SVG writer
(plotting) for plot.  So compute of a family starts with none of them.

Exit codes: 0 success, 1 usage or data error (argparse's own too), 2 capacity
exceeded or out of memory, 3 solver non-convergence, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import CapacityError, NonConvergenceError, OracleMismatchError
from .formulas import FAMILIES, Family, build_family, closed_form, poly_join
from .graphs import FamilySpec, parse_edge_list
from .polynomials import Poly, _decimal

if TYPE_CHECKING:
    from .complexroots import RootSet

TOL_MAX = 1e-6


class _UsageError(ValueError):
    pass


# -- instance sources ------------------------------------------------------------


def _integers(fields: Iterable[str], message: str) -> list[int]:
    """The integers in fields, read by polynomials._decimal: ASCII digits
    only.  A usage error with message where one is not an integer."""
    try:
        return [_decimal(field) for field in fields]
    except ValueError:
        raise _UsageError(message) from None


def _parse_range(text: str) -> range:
    """Inclusive "a..b", or a single integer."""
    if ".." in text:
        lo, hi = _integers(text.partition("..")[::2], f"bad range {text!r}, expected a..b")
        if lo > hi:
            raise _UsageError(f"empty range {text!r}")
        return range(lo, hi + 1)
    (v,) = _integers([text], f"bad integer {text!r}")
    return range(v, v + 1)


def _parse_family_arg(text: str) -> tuple[str, tuple[int, ...], range]:
    """"name:p1,...,range" -> (name, fixed params, values of the last param)."""
    name, sep, rest = text.partition(":")
    if not sep or not name or not rest:
        raise _UsageError(f"expected 'name:params', got {text!r}")
    parts = rest.split(",")
    fixed = tuple(_integers(parts[:-1], f"non-integer parameter in {text!r}"))
    return name, fixed, _parse_range(parts[-1])


def _apply_parity(values: range, odd_only: bool, even_only: bool) -> range:
    if odd_only and even_only:
        raise _UsageError("--odd-only and --even-only are mutually exclusive")
    if odd_only or even_only:
        values = values[(values.start + odd_only) % 2 :: 2]
    if not values:
        raise _UsageError("no instances left after parity filtering")
    return values


def _instances(args) -> list[tuple[str, tuple[int, ...], Poly]]:
    """(label, params, polynomial) from --join, --edge-list or --family.

    Each instance is listed under its index params[-1].  With --oracle
    (compute only), family polynomials are counted on the graph and checked
    against the closed form where there is one.
    """
    if args.join:
        return _join_instances(args)
    if args.edge_list:
        from .enumeration import domination_polynomial

        path = Path(args.edge_list)
        g = parse_edge_list(path.read_text(encoding="utf-8-sig"))  # a leading BOM is skipped
        # bytes of the name that are not UTF-8 become U+FFFD, so every
        # output is UTF-8 and --out gets the bytes stdout does
        label = os.fsencode(path.stem).decode("utf-8", "replace")
        return [(label, (g.n,), domination_polynomial(g))]
    name, fixed, values = _parse_family_arg(args.family)
    out = []
    for v in _apply_parity(values, args.odd_only, args.even_only):
        spec = FamilySpec(name, fixed + (v,))
        p = None if args.oracle else closed_form(spec)
        if p is None:  # counted on the graph: --oracle, or no closed form
            from .enumeration import domination_polynomial

            p = domination_polynomial(build_family(spec))
            expected = closed_form(spec) if args.oracle else None
            if expected is not None and expected != p:
                raise OracleMismatchError(f"enumeration disagrees with the closed form for {spec}")
        out.append((name, spec.params, p))
    return out


# -- join operands ----------------------------------------------------------------

#: Families with a closed form, keyed by their name and by their short alias.
_JOIN_NAMES = {
    key: f for f in FAMILIES.values() if f.closed_form for key in (f.name, f.alias)
}


def _parse_operand(text: str) -> tuple[Family, int | None, int]:
    """"NAME:n", "NAME:n+k" or "NAME:k" -> (family, None for symbolic n, offset)."""
    name, sep, expr = text.partition(":")
    if not sep or name not in _JOIN_NAMES:
        known = ", ".join(sorted(_JOIN_NAMES))
        raise _UsageError(f"bad join operand {text!r} (families: {known})")
    family = _JOIN_NAMES[name]
    expr = expr.strip()
    if expr == "n":
        return family, None, 0
    if expr.startswith("n+"):
        (offset,) = _integers([expr[2:]], f"bad operand index {expr!r}")
        return family, None, offset
    (fixed,) = _integers([expr], f"bad operand index {expr!r} (use n, n+k, or an integer)")
    return family, fixed, 0


def _join_instances(args) -> list[tuple[str, tuple[int], Poly]]:
    """(label, (n,), joined polynomial) for --join T1,T2 over --range."""
    if not args.range:
        raise _UsageError("--join requires --range a..b")
    ops = args.join.split(",")
    if len(ops) != 2:
        raise _UsageError("--join takes exactly two operands, e.g. H:n,H:n")
    parsed = [_parse_operand(op.strip()) for op in ops]
    values = _apply_parity(_parse_range(args.range), args.odd_only, args.even_only)
    label = "+".join(op.strip() for op in ops)
    out = []
    for n in values:
        dg, dh = (
            family.closed_form(fixed if fixed is not None else n + offset)
            for family, fixed, offset in parsed
        )
        out.append((label, (n,), poly_join(dg, dh)))
    return out


# -- output helpers --------------------------------------------------------------


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_field(text: str) -> str:
    """text as a CSV field: quoted, each quote doubled, where it holds a
    comma, a quote or a line break (\\r or \\n), else as is; the bytes of
    csv.writer(lineterminator="\\n") on Python 3.13."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


CSV_HEADER = "family,n,re,im,residual"


def roots_csv(entries: Iterable[tuple[str, int, RootSet]]) -> str:
    """Render (family, n, RootSet) entries as CSV, one row per nonzero root,
    floats as repr, the label as _csv_field writes it."""
    lines = [CSV_HEADER]
    for family, n, rs in entries:
        head = f"{_csv_field(family)},{n}"
        lines += [f"{head},{re!r},{im!r},{res!r}" for re, im, res in rs.roots]
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------------


def _json_array(items: list[str], indent: str, quote: str = "") -> str:
    """An indent=2 JSON array of `items`, each wrapped in `quote`, with its
    closing bracket at `indent`."""
    if not items:
        return "[]"
    step = indent + "  "
    sep = f"{quote},\n{step}{quote}"
    return f"[\n{step}{quote}{sep.join(items)}{quote}\n{indent}]"


def _compute_record(label: str, params: tuple[int, ...], p: Poly, indent: str) -> str:
    step = indent + "  "
    family = json.dumps(label)
    params_json = _json_array([str(v) for v in params], step)
    coeffs_json = _json_array([str(c) for c in p.coeffs], step, '"')
    return (
        f'{{\n{step}"family": {family},\n{step}"params": {params_json},'
        f'\n{step}"coeffs": {coeffs_json}\n{indent}}}'
    )


def _compute_json(instances: list[tuple[str, tuple[int, ...], Poly]]) -> str:
    """Exactly the bytes of ``json.dumps(payload, indent=2)``, where payload
    is {"family", "params", "coeffs": decimal strings} for one instance, else
    an array of them.  With ``indent`` set, json runs its pure-Python encoder;
    here only the label goes through ``json.dumps`` (the C encoder), and the
    numbers, which never need escaping, are joined directly.  Python's limit
    on the digits of an int turned into a string (4,300 by default, since
    3.10.7) is lifted meanwhile, so that every coefficient prints.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if len(instances) == 1:
            return _compute_record(*instances[0], "")
        return _json_array([_compute_record(*inst, "  ") for inst in instances], "")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _cmd_compute(args) -> int:
    _write_output(_compute_json(_instances(args)) + "\n", args.out)
    return 0


def _certificate_rows(args) -> list[dict]:
    from .realroots import certify_cg

    return [
        {"family": label, "n": n, **certify_cg(p).record()}
        for label, (*_, n), p in _instances(args)
    ]


def _cmd_certify(args) -> int:
    rows = _certificate_rows(args)
    lines = [json.dumps(row) for row in rows]
    lines.append(json.dumps({"all_in_cg": all(row["in_cg"] for row in rows)}))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    rows = _certificate_rows(args)
    lines = ["family,n,gamma,nonzero_real_root_count,in_cg"]
    lines += [
        f"{_csv_field(row['family'])},{row['n']},{row['gamma']},"
        f"{row['nonzero_real_root_count']},{str(row['in_cg']).lower()}"
        for row in rows
    ]
    _write_output("\n".join(lines) + "\n", args.out)
    all_in = all(row["in_cg"] for row in rows)
    print(f"all_in_cg: {str(all_in).lower()}", file=sys.stderr)
    return 0


def _root_entries(args) -> list[tuple[str, int, RootSet]]:
    """(label, n, RootSet) per instance.  The solver, and numpy with it, is
    imported here, after the options are checked against realroots.MIN_TOL,
    so that the other subcommands and a usage error start without it, and
    find_roots is looked up on it at each call, where bench/spans.py wraps
    it."""
    from .realroots import MIN_TOL

    if not MIN_TOL <= args.tol <= TOL_MAX:
        raise _UsageError(f"--tol must lie in [{MIN_TOL}, {TOL_MAX}]")
    if args.max_iter < 1:
        raise _UsageError("--max-iter must be positive")
    from . import complexroots

    entries, failed = [], []
    for label, (*_, n), p in _instances(args):
        try:
            roots = complexroots.find_roots(p, tol=args.tol, max_iter=args.max_iter)
            entries.append((label, n, roots))
        except NonConvergenceError as e:
            failed.append((label, n, e))
    if failed:
        listing = ", ".join(
            f"{label}:{n} (max correction {e.max_correction:.3e})" for label, n, e in failed
        )
        raise NonConvergenceError(f"instances failed to converge: {listing}") from failed[0][2]
    return entries


def _cmd_roots(args) -> int:
    _write_output(roots_csv(_root_entries(args)), args.out)
    return 0


def _cmd_plot(args) -> int:
    entries = _root_entries(args)
    points = [(re, im) for _, _, rs in entries for re, im, _ in rs.roots]
    circle = (-1.0, 0.0, 1.0) if args.circle else None
    labels = sorted({label for label, _, _ in entries})
    ns = [n for _, n, _ in entries]
    title = f"{','.join(labels)} roots (n={min(ns)}..{max(ns)})" if entries else ""
    from .plotting import render_scatter

    _write_output(render_scatter(points, circle=circle, title=title), args.out)
    return 0


# -- argument parsing ----------------------------------------------------------------


def _add_source_options(sub, join_ok: bool) -> None:
    sub.add_argument("--family", help="family instance or sweep, e.g. friendship:1..15")
    sub.add_argument("--edge-list", help="path to an edge-list file ('n m' header)")
    if join_ok:
        sub.add_argument("--join", help="two join operands, e.g. H:n+1,B:n")
        sub.add_argument("--range", help="index range a..b for --join")
    sub.add_argument("--odd-only", action="store_true", help="keep odd indices only")
    sub.add_argument("--even-only", action="store_true", help="keep even indices only")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _number(kind: str, read: Callable[[str], float], text: str) -> float:
    """read(text) for ASCII text without the "_" or surrounding whitespace
    that float() also reads (polynomials._decimal reads --max-iter); argparse's
    own message for a bad int or float otherwise."""
    if text.isascii() and "_" not in text and text == text.strip():
        with contextlib.suppress(ValueError):
            return read(text)
    raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}")


def _add_solver_options(sub) -> None:
    sub.add_argument("--tol", type=functools.partial(_number, "float", float), default=1e-12)
    sub.add_argument("--max-iter", type=functools.partial(_number, "int", _decimal), default=500)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so main returns exit code 1."""

    def error(self, message: str):
        raise _UsageError(message)

    def _check_value(self, action, value):
        """argparse's check of a choice, with one message on every Python:
        the choices quoted, as argparse writes them on 3.10 to 3.13.0 (3.13.13
        writes them bare)."""
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


#: The subcommands, in --help order: (name, help, handler, takes --join and
#: --range, takes --tol and --max-iter).
_COMMANDS = (
    ("compute", "print the exact polynomial as JSON", _cmd_compute, False, False),
    ("certify", "certify absence of nonzero real roots (JSON lines)", _cmd_certify, True, False),
    ("sweep", "certification sweep as a CSV table", _cmd_sweep, True, False),
    ("roots", "locate complex roots (CSV)", _cmd_roots, False, True),
    ("plot", "render a root scatter plot (SVG)", _cmd_plot, False, True),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dompoly",
        description="Exact domination polynomials: compute, certify, locate roots, plot.",
    )
    # the options that only some subcommands take
    parser.set_defaults(join=None, range=None, oracle=False)
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, help_text, func, join_ok, solver in _COMMANDS:
        sub[name] = subs.add_parser(name, help=help_text)
        _add_source_options(sub[name], join_ok)
        if solver:
            _add_solver_options(sub[name])
        sub[name].set_defaults(func=func)
    sub["compute"].add_argument(
        "--oracle",
        action="store_true",
        help="count dominating sets from the graph and cross-check the closed form",
    )
    sub["plot"].add_argument(
        "--circle", action="store_true", help="overlay the unit circle centered at -1"
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: building it costs far more
    than one parse, and parse_args leaves it unchanged."""
    return build_parser()


def _validate_source(args) -> None:
    sources = [bool(args.family), bool(args.edge_list), bool(args.join)]
    if sum(sources) != 1:
        raise _UsageError("exactly one of --family, --edge-list, --join is required")
    if args.range and not args.join:
        raise _UsageError("--range applies only to --join")
    if args.edge_list and (args.odd_only or args.even_only):
        raise _UsageError("--odd-only and --even-only do not apply to --edge-list")
    if args.edge_list and args.oracle:
        raise _UsageError("--oracle does not apply to --edge-list: no closed form to check")


#: How main reports a failure: (exception, exit code, stderr prefix), most
#: specific first, since CapacityError is a ValueError.
_FAILURES = (
    (CapacityError, 2, "capacity error"),
    (MemoryError, 2, "capacity error"),
    (NonConvergenceError, 3, "solver error"),
    (OracleMismatchError, 4, "integrity error"),
    (ValueError, 1, "error"),
    (OSError, 1, "error"),
)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _validate_source(args)
        return args.func(args)
    except tuple(kind for kind, _, _ in _FAILURES) as e:
        code, prefix = next((c, p) for kind, c, p in _FAILURES if isinstance(e, kind))
        message = "memory ran out" if isinstance(e, MemoryError) else e  # str() is often ""
        print(f"{prefix}: {message}", file=sys.stderr)
        return code


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

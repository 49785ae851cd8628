"""The benchmark's workloads: seeded lists of dompoly CLI calls, and the checks
that decide whether each call's output is correct.

A workload is built once per run from its seed and then replayed pass after
pass.  Family indices come in pairs of neighbours (n, n+1), and the seed
deals each pair out to two families of nearly equal cost, one index each,
or orders the calls; random graphs have fixed sizes.  So every seed gets
the same mix of call sizes and nearly the same work: call costs grow
steeply with the index (and jump with the bits of the exponent in the
closed forms), and independent draws moved a run's median call, tail call
and throughput by 10-20% from seed to seed.

Every check compares against bench/reference.py or bench/expected.json,
never against dompoly itself.
"""

from __future__ import annotations

import csv
import io
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import reference as ref

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))

#: Upper bound on the root residual, the CLI's default --tol.
ROOT_TOL = 1e-12


class Mismatch(Exception):
    """An output that fails its check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Outcome:
    code: object  # exit code, or the exception a call raised
    stdout: str
    stderr: str
    out_text: str | None  # contents of the --out file, when the call writes one


@dataclass
class Call:
    argv: list[str]
    instances: int
    check: Callable[[Outcome], None]
    out: Path | None = None


def deal(rng: random.Random, pairs) -> tuple[list[int], list[int]]:
    """Split each (n, n+1) pair between two lists, the seed deciding which gets n."""
    first, second = [], []
    for pair in pairs:
        a, b = rng.sample(pair, 2)
        first.append(a)
        second.append(b)
    return first, second


def _pairs(lo: int, hi: int, step: int = 2) -> tuple[tuple[int, int], ...]:
    """Pairs of consecutive indices starting at lo, lo+step, ... below hi."""
    return tuple((n, n + 1) for n in range(lo, hi, step))


# -- shared output checks ----------------------------------------------------------


def _json_lines(text: str) -> tuple[list[dict], bool]:
    lines = [json.loads(line) for line in text.splitlines()]
    expect(bool(lines) and set(lines[-1]) == {"all_in_cg"}, "missing all_in_cg line")
    return lines[:-1], lines[-1]["all_in_cg"]


def _roots_by_n(text: str) -> dict[int, list[tuple[complex, float]]]:
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows[0] == ["family", "n", "re", "im", "residual"], f"bad CSV header {rows[0]}")
    by_n: dict[int, list[tuple[complex, float]]] = {}
    for _, n, re, im, residual in rows[1:]:
        by_n.setdefault(int(n), []).append((complex(float(re), float(im)), float(residual)))
    return by_n


def _check_roots(rows: list[tuple[complex, float]], count: int, root_sum: float, what: str) -> None:
    """Row count, conjugate pairing, residuals, and the sum of the roots (Vieta)."""
    expect(len(rows) == count, f"{what}: {len(rows)} roots, expected {count}")
    roots = [z for z, _ in rows]
    for z, residual in rows:
        expect(residual <= ROOT_TOL, f"{what}: residual {residual} above {ROOT_TOL}")
        if abs(z.imag) > 1e-9:
            paired = any(abs(z.conjugate() - w) < 1e-9 for w in roots)
            expect(paired, f"{what}: {z} lacks its conjugate")
    total = sum(roots)
    scale = max(1.0, sum(abs(z) for z in roots))
    expect(
        abs(total - root_sum) <= 1e-6 * scale, f"{what}: roots sum to {total}, expected {root_sum}"
    )


def _check_family_compute(family: str, n: int, out: Outcome) -> None:
    """Output coefficients against the family formula evaluated in plain ints.

    The last point 2**k lies beyond every coefficient (each is at most D(1)),
    so agreeing there pins down all coefficients, not only a few values.
    """
    _ok(out)
    obj = json.loads(out.stdout)
    expect(obj["family"] == family and obj["params"] == [n], f"wrong instance {obj['family']}")
    coeffs = [int(c) for c in obj["coeffs"]]
    what = f"{family}:{n}"
    expect(len(coeffs) - 1 == ref.order(family, n), f"{what}: degree {len(coeffs) - 1}")
    d1 = sum(coeffs)
    expect(d1 % 2 == 1, f"{what}: D(1) is even")
    for x in (1, 2, -3):
        expect(ref.peval(coeffs, x) == ref.family_value(family, n, x), f"{what}: D({x}) differs")
    k = d1.bit_length() + 1
    packed = ref.peval_pow2(coeffs, k)
    expect(packed == ref.family_value(family, n, 1 << k), f"{what}: coefficients differ")


def _check_verdict(row: dict, expected: list, value, what: str) -> None:
    """Verdict equals the recorded one, and agrees with an exact sign-change search."""
    got = [row["gamma"], row["nonzero_real_root_count"], row["in_cg"]]
    expect(got == expected, f"{what}: verdict {got}, expected {expected}")
    witness = ref.negative_sign_change(value)
    if row["in_cg"]:
        expect(witness is None, f"{what}: in_cg but p changes sign on {witness}")
    else:
        expect(witness is not None, f"{what}: refutation without a sign change")


def _ok(out: Outcome) -> None:
    expect(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[:200]}")


# -- limit_circle ------------------------------------------------------------------

# Complement-of-friendship CF(n) = x((1+x)^(2n) - 1 - 2n x) has degree 2n+1
# and a triple root at zero; for n > 1 its roots sum to -2n.


def _cf_root_sum(n: int) -> int:
    return -2 * n if n > 1 else 0


def _check_cf_range(out: Outcome) -> None:
    _ok(out)
    by_n = _roots_by_n(out.out_text)
    expect(set(by_n) <= set(range(1, 31)), f"unexpected indices {sorted(by_n)}")
    exp = EXPECTED["limit_circle"]
    for n in range(1, 31):
        rows = by_n.get(n, [])
        _check_roots(rows, 2 * n - 2, _cf_root_sum(n), f"CF({n})")
        positive = any(z.real > 1e-9 for z, _ in rows)
        expect(positive == (n >= exp["onset_n"]), f"CF({n}): positive real part onset moved")
    dev = max(abs(abs(z + 1) - 1) for z, _ in by_n[20])
    expect(abs(dev - exp["max_dev_n20"]) <= exp["max_dev_tol"], f"CF(20) circle deviation {dev}")


def _check_svg(out: Outcome) -> None:
    _ok(out)
    root = ET.fromstring(out.out_text)
    ns = "{http://www.w3.org/2000/svg}"
    expect(root.tag == ns + "svg", f"root element {root.tag}")
    expect(root.find(ns + "ellipse") is not None, "no circle overlay")
    dots = len(root.findall(ns + "circle"))
    expected = sum(2 * n - 2 for n in range(1, 31))
    expect(dots == expected, f"{dots} root dots, expected {expected}")


def _check_cf_single(n: int, out: Outcome) -> None:
    _ok(out)
    by_n = _roots_by_n(out.stdout)
    expect(set(by_n) == {n}, f"unexpected indices {sorted(by_n)}")
    _check_roots(by_n[n], 2 * n - 2, _cf_root_sum(n), f"CF({n})")


#: Single-instance indices: with the two range calls a pass takes about
#: five seconds, so each call repeats four or five times in a run.
CF_SINGLES = range(31, 43)


def limit_circle(rng: random.Random, work: Path) -> list[Call]:
    csv_path, svg_path = work / "roots.csv", work / "fig.svg"
    family = "complement_friendship"
    roots_argv = ["roots", "--family", f"{family}:1..30", "--out", str(csv_path)]
    plot_argv = ["plot", "--family", f"{family}:1..30", "--circle", "--out", str(svg_path)]
    calls = [
        Call(roots_argv, 30, _check_cf_range, csv_path),
        Call(plot_argv, 30, _check_svg, svg_path),
    ]
    singles = list(CF_SINGLES)
    rng.shuffle(singles)
    for n in singles:
        calls.append(Call(["roots", "--family", f"{family}:{n}"], 1, partial(_check_cf_single, n)))
    return calls


# -- join_certify ------------------------------------------------------------------

#: Join operand templates of the CLI, as (family, index offset) pairs.
JOINS = {
    "H:n+1,B:n": (("h_witness", 1), ("book", 0)),
    "H:n,H:n": (("h_witness", 0), ("h_witness", 0)),
    "B:n,B:n": (("book", 0), ("book", 0)),
}


def _check_join(pattern: str, n: int, out: Outcome) -> None:
    _ok(out)
    rows, all_in = _json_lines(out.stdout)
    label = pattern.replace(",", "+")
    expect(len(rows) == 1 and rows[0]["family"] == label and rows[0]["n"] == n, "wrong instance")
    (fa, oa), (fb, ob) = JOINS[pattern]
    value = partial(ref.join_value, (fa, n + oa), (fb, n + ob))
    _check_verdict(rows[0], EXPECTED["verdicts"][pattern][n - 1], value, f"{label} n={n}")
    expect(all_in == rows[0]["in_cg"], "all_in_cg disagrees with the row")


def _check_family_rows(family: str, rows: list[dict]) -> None:
    expected = EXPECTED["verdicts"][family]
    expect([r["n"] for r in rows] == list(range(1, len(expected) + 1)), "wrong instance list")
    for row in rows:
        expect(row["family"] == family, f"wrong family {row['family']}")
        n = row["n"]
        _check_verdict(row, expected[n - 1], partial(ref.family_value, family, n), f"{family}:{n}")


def _check_cocktail(out: Outcome) -> None:
    _ok(out)
    rows, all_in = _json_lines(out.stdout)
    _check_family_rows("cocktail_party", rows)
    expect(all_in == all(r["in_cg"] for r in rows), "all_in_cg disagrees with the rows")


def _check_sweep(out: Outcome) -> None:
    _ok(out)
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    parsed = [
        {
            "family": r["family"],
            "n": int(r["n"]),
            "gamma": int(r["gamma"]),
            "nonzero_real_root_count": int(r["nonzero_real_root_count"]),
            "in_cg": {"true": True, "false": False}[r["in_cg"]],
        }
        for r in rows
    ]
    _check_family_rows("friendship", parsed)
    all_in = str(all(r["in_cg"] for r in parsed)).lower()
    expect(out.stderr.strip() == f"all_in_cg: {all_in}", f"summary {out.stderr.strip()!r}")


#: Pairs dealt out to H:n+1,B:n and B:n,B:n, of nearly equal cost; H:n,H:n
#: takes every index.  The parity of each index dealt to the mixed-parity
#: join decides whether it is refuted.
JOIN_PAIRS = _pairs(3, 33)


def join_certify(rng: random.Random, work: Path) -> list[Call]:
    calls = [
        Call(["certify", "--family", "cocktail_party:1..50"], 50, _check_cocktail),
        Call(["sweep", "--family", "friendship:1..15"], 15, _check_sweep),
    ]
    mixed, books = deal(rng, JOIN_PAIRS)
    indices = {
        "H:n+1,B:n": mixed,
        "H:n,H:n": [n for pair in JOIN_PAIRS for n in pair],
        "B:n,B:n": books,
    }
    for pattern in JOINS:
        for n in indices[pattern]:
            argv = ["certify", "--join", pattern, "--range", str(n)]
            calls.append(Call(argv, 1, partial(_check_join, pattern, n)))
    return calls


# -- oracle_enum -----------------------------------------------------------------


@dataclass
class RandomGraph:
    """A join or disjoint union of two connected random parts, relabelled.

    Keeping the parts lets the reference polynomial come from two small
    brute-force counts and the join or product rule.
    """

    parts: list[list[int]]  # closed neighbourhood masks of each part
    joined: bool
    edges: list[tuple[int, int]]
    n: int

    @cached_property
    def poly(self) -> list[int]:
        dg, dh = (ref.domination_counts(p) for p in self.parts)
        return ref.join_poly(dg, dh) if self.joined else ref.pmul(dg, dh)


def _connected_part(rng: random.Random, n: int) -> list[tuple[int, int]]:
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < PART_DENSITY
        ]
        reach, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reach:
                        reach.add(y)
                        frontier.append(y)
        if len(reach) == n:
            return edges


def random_graph(rng: random.Random, n: int, joined: bool) -> RandomGraph:
    n1 = rng.randint(max(6, n - 14), min(14, n - 6))
    sizes = (n1, n - n1)
    part_edges = [_connected_part(rng, m) for m in sizes]
    parts = []
    for m, edges in zip(sizes, part_edges):
        closed = [1 << v for v in range(m)]
        for u, v in edges:
            closed[u] |= 1 << v
            closed[v] |= 1 << u
        parts.append(closed)
    edges = part_edges[0] + [(u + n1, v + n1) for u, v in part_edges[1]]
    if joined:
        edges += [(u, v) for u in range(n1) for v in range(n1, n)]
    label = list(range(n))
    rng.shuffle(label)
    edges = sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)
    return RandomGraph(parts, joined, edges, n)


def _check_graph_compute(g: RandomGraph, out: Outcome) -> None:
    _ok(out)
    coeffs = [int(c) for c in json.loads(out.stdout)["coeffs"]]
    expect(coeffs == g.poly, "polynomial differs from the brute-force reference")
    expect(sum(coeffs) % 2 == 1, "D(1) is even")


def _gamma(p: list[int]) -> int:
    return next(i for i, c in enumerate(p) if c)


def _check_graph_certify(g: RandomGraph, out: Outcome) -> None:
    _ok(out)
    rows, all_in = _json_lines(out.stdout)
    expect(len(rows) == 1 and rows[0]["n"] == g.n, "wrong instance")
    row = rows[0]
    expect(row["gamma"] == _gamma(g.poly), f"gamma {row['gamma']}, expected {_gamma(g.poly)}")
    witness = ref.negative_sign_change(partial(ref.peval, g.poly))
    if witness is not None:
        expect(not row["in_cg"] and row["nonzero_real_root_count"] > 0, f"sign change on {witness}")
    expect(all_in == row["in_cg"], "all_in_cg disagrees with the row")


def _check_graph_roots(g: RandomGraph, out: Outcome) -> None:
    _ok(out)
    by_n = _roots_by_n(out.stdout)
    expect(set(by_n) <= {g.n}, f"unexpected indices {sorted(by_n)}")
    p = g.poly
    _check_roots(by_n.get(g.n, []), g.n - _gamma(p), -p[-2] / p[-1], f"graph of order {g.n}")


#: (vertex count, joined) of the random graphs of one pass.  Enumeration
#: costs 2**n and a join, having more dominating sets, costs more than a
#: union; both are fixed, and the seed draws the graphs themselves.  Two
#: graphs of each size up to 25 give the median call neighbours of similar
#: cost; stopping at 27 keeps a pass to a few seconds.
GRAPHS = tuple((n, joined) for n in range(20, 26) for joined in (True, False)) + (
    (26, True),
    (27, False),
)

#: Edge probability inside each part.  Enumeration time grows with the share
#: of subsets that dominate (a boolean gather per block), and with sparse
#: parts that share ranged from 0.11 to 0.56 across seeds for the unions,
#: moving their time 2.5-fold; dense parts keep it at 0.71-0.97.
PART_DENSITY = 0.7


def oracle_enum(rng: random.Random, work: Path) -> list[Call]:
    calls = []
    for i, (n, joined) in enumerate(GRAPHS):
        g = random_graph(rng, n, joined)
        path = work / f"g{i}.txt"
        path.write_text(f"{n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        for command, check in (
            ("compute", _check_graph_compute),
            ("certify", _check_graph_certify),
            ("roots", _check_graph_roots),
        ):
            calls.append(Call([command, "--edge-list", str(path)], 1, partial(check, g)))
    for family in ("friendship", "book", "h_witness"):
        argv = ["compute", "--family", f"{family}:12", "--oracle"]
        calls.append(Call(argv, 1, partial(_check_family_compute, family, 12)))
    return calls


# -- expand -----------------------------------------------------------------------


#: The closed forms are powers, and the cost of Poly.__pow__ steps up where
#: the exponent gains a bit (n = 128, 256); no pair straddles a step.
#: friendship and book, of nearly equal cost, share the pairs out;
#: h_witness and complement_friendship take every index.
EXPAND_PAIRS = _pairs(100, 400, 19)


def expand(rng: random.Random, work: Path) -> list[Call]:
    friendship, book = deal(rng, EXPAND_PAIRS)
    every = [n for pair in EXPAND_PAIRS for n in pair]
    indices = {
        "h_witness": every,
        "friendship": friendship,
        "book": book,
        "complement_friendship": every,
    }
    calls = []
    for family, ns in indices.items():
        for n in ns:
            argv = ["compute", "--family", f"{family}:{n}"]
            calls.append(Call(argv, 1, partial(_check_family_compute, family, n)))
    return calls


WORKLOADS = {
    "limit_circle": limit_circle,
    "join_certify": join_certify,
    "oracle_enum": oracle_enum,
    "expand": expand,
}

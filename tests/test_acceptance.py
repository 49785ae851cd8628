"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 6 and 7 cover the full stated ranges.  Every instance is
certified with `certify_cg`; the instances that exact arithmetic refutes (the
seven mixed-parity H/B joins and the S_{3,2} iterated coronas) are asserted
refuted, each with rational endpoints a < b < 0 at which the polynomial, or
the factor it is a power of, changes sign, and each witness interval the
certifier reports is checked the same way.  Those refutations are printed as
findings, and the smallest refuted instance of each criterion is
brute-forced from its graph (see README, "Install and test").
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from dompoly import cli
from dompoly.complexroots import circle_deviation, distinct_real_roots, find_roots
from dompoly.enumeration import domination_number, domination_polynomial
from dompoly.formulas import (
    build_family,
    cg_family_factor,
    closed_form,
    poly_H,
    poly_book,
    poly_cocktail,
    poly_complement_friendship,
    poly_corona,
    poly_friendship,
    poly_join,
)
from dompoly.graphs import FamilySpec, corona, join
from dompoly.polynomials import Poly, binomial_power
from dompoly.realroots import certify_cg, check_oddness, count_real_roots

from conftest import criterion_6_joins, expand_from_roots, random_graph

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "complement_friendship_calibration.json").read_text()
)

X = Poly.X


def report(num, description, failures=()):
    failures = list(failures)
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {num:2d}] {status}: {description}"
    if failures:
        line += f" ({len(failures)} failing instance(s))"
    print(line)
    assert not failures, f"criterion {num}: failing instances: {failures}"


def family_instances_for_exactness():
    specs = []
    specs += [FamilySpec("friendship", (n,)) for n in range(1, 5)]
    specs += [FamilySpec("complement_friendship", (n,)) for n in range(1, 5)]
    specs += [FamilySpec("cocktail_party", (n,)) for n in range(1, 6)]
    specs += [FamilySpec("book", (n,)) for n in range(1, 5)]
    specs += [FamilySpec("h_witness", (n,)) for n in range(1, 6)]
    specs += [
        FamilySpec("k_star", (k, n))
        for n in range(2, 13)
        for k in range(1, n)
    ]
    specs += [FamilySpec("complete", (n,)) for n in range(1, 11)]
    return specs


def k_star_join_route(k, n):
    # S_{k,n-k} is the join of K_k with n-k isolated vertices
    dk = binomial_power(k) - 1
    d_empty = X ** (n - k)
    return (binomial_power(k) - 1) * (binomial_power(n - k) - 1) + dk + d_empty


def test_criterion_1_closed_forms_match_enumeration():
    start = time.monotonic()
    failures = []
    for spec in family_instances_for_exactness():
        g = build_family(spec)
        brute = domination_polynomial(g)
        expected = closed_form(spec)
        if expected is None and spec.name == "k_star":
            expected = k_star_join_route(*spec.params)
        if expected is not None and expected != brute:
            failures.append(str(spec))
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 1 runtime {elapsed:.1f}s exceeds 2 minutes"
    report(1, f"closed forms equal enumeration coefficient-exactly ({elapsed:.1f}s)", failures)


def test_criterion_2_join_theorem_random_pairs():
    rng = random.Random(2025_02)
    failures = []
    for i in range(50):
        g = random_graph(rng.randint(1, 6), rng)
        h = random_graph(rng.randint(1, 6), rng)
        formula = poly_join(domination_polynomial(g), domination_polynomial(h))
        if formula != domination_polynomial(join(g, h)):
            failures.append(f"pair {i}")
    report(2, "join formula exact on 50 random pairs (orders <= 6)", failures)


def test_criterion_3_corona_theorem_random_pairs():
    rng = random.Random(2025_03)
    failures = []
    for i in range(30):
        g = random_graph(rng.randint(1, 3), rng)
        h = random_graph(rng.randint(1, 3), rng)
        formula = poly_corona(g.n, domination_polynomial(h))
        if formula != domination_polynomial(corona(g, h)):
            failures.append(f"pair {i}")
    # independence from the base's edge set at fixed order
    for n in (2, 3):
        h = random_graph(3, rng)
        empty_base = random_graph(n, rng, p=0.0)
        full_base = build_family(FamilySpec("complete", (n,)))
        if domination_polynomial(corona(empty_base, h)) != domination_polynomial(
            corona(full_base, h)
        ):
            failures.append(f"edge-independence order {n}")
    report(3, "corona formula exact on 30 random pairs; base edges irrelevant", failures)


def test_criterion_4_cocktail_party_certified():
    start = time.monotonic()
    failures = []
    for n in range(1, 51):
        cert = certify_cg(poly_cocktail(n))
        if not cert.in_cg:
            failures.append(n)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 4 runtime {elapsed:.1f}s exceeds 5 minutes"
    report(4, f"cocktail party 1..50 has no nonzero real roots, exact ({elapsed:.1f}s)", failures)


def test_criterion_5_friendship_parity():
    failures = []
    findings = []
    for n in range(1, 16, 2):
        if not certify_cg(poly_friendship(n)).in_cg:
            failures.append(f"odd n={n}")
    for n in range(2, 15, 2):
        p = poly_friendship(n)
        cert = certify_cg(p)
        if cert.in_cg:
            findings.append(f"even n={n} certified in_cg (recorded, not a failure)")
        else:
            # every real nonzero root of a domination polynomial is negative
            neg = count_real_roots(p.deflate_zero(), float("-inf"), 0)
            if neg < 1:
                failures.append(f"even n={n}: not in_cg but no negative real root")
    for f in findings:
        print(f"[criterion  5] finding: {f}")
    report(5, "friendship in_cg for odd n in 1..15; even verdicts recorded", failures)


def check_verdicts(num, cases):
    """Certify every (label, p, refutation) case; return the failing labels.

    refutation is None when p is expected to have no nonzero real root.
    Otherwise it is (w, a, b): certify_cg must refute p, and w -- p itself or
    a polynomial that p is a power of -- must change sign on the rational
    interval (a, b) with a < b < 0, an exact witness of a nonzero real root
    that shares no code with the certifier.  Every witness pair [a, b] the
    certifier reports must hold as well, checked on w without its zero root:
    a sign change when a < b <= 0, a root when a == b.  Each refutation and
    each certifier witness is printed as a finding.
    """
    failures = []
    for label, p, refutation in cases:
        cert = certify_cg(p)
        if refutation is None:
            if not cert.in_cg:
                failures.append(label)
            continue
        w, a, b = refutation
        if cert.in_cg:
            failures.append(f"{label}: certified in_cg despite a refutation witness")
        elif not (a < b < 0 and w.eval_exact(a) * w.eval_exact(b) < 0):
            failures.append(f"{label}: no sign change on ({a}, {b})")
        else:
            print(f"[criterion {num:2d}] finding: {label} has a real root in ({a}, {b})")
        witnesses = cert.evidence["witnesses"]
        count = cert.nonzero_real_root_count
        if len(witnesses) != count:
            failures.append(f"{label}: {len(witnesses)} certifier witnesses for {count} roots")
        q = w.deflate_zero()
        for lo, hi in witnesses:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo < hi <= 0 and q.eval_exact(lo) * q.eval_exact(hi) < 0:
                print(f"[criterion {num:2d}] finding: {label}: certifier witness ({lo}, {hi})")
            elif lo == hi <= 0 and q.eval_exact(lo) == 0:
                print(f"[criterion {num:2d}] finding: {label}: certifier witness root {lo}")
            else:
                failures.append(f"{label}: certifier witness [{lo}, {hi}] fails its check")
    return failures


#: The joins of criterion 6 that have a nonzero real root: exactly one operand
#: has odd order.  Each maps to rational a < b < 0 where the join changes sign.
JOIN_WITNESSES = {
    "H_5+B_4": (Fraction(-25, 32), Fraction(-49, 64)),
    "H_7+B_6": (Fraction(-53, 64), Fraction(-13, 16)),
    "H_9+B_8": (Fraction(-55, 64), Fraction(-27, 32)),
    "H_11+B_10": (Fraction(-57, 64), Fraction(-7, 8)),
    "B_6+H_5": (Fraction(-55, 64), Fraction(-27, 32)),
    "B_8+H_7": (Fraction(-7, 8), Fraction(-55, 64)),
    "B_10+H_9": (Fraction(-57, 64), Fraction(-7, 8)),
}


def test_criterion_6_join_families_as_stated():
    cases = []
    for label, p in criterion_6_joins():
        witness = JOIN_WITNESSES.get(label)
        cases.append((label, p, witness and (p, *witness)))
    failures = check_verdicts(6, cases)
    labels = {label for label, _, _ in cases}
    failures += [
        f"{label}: witness for an unchecked join" for label in JOIN_WITNESSES if label not in labels
    ]
    # the smallest refuted join, brute-forced from its 21-vertex graph
    g = join(build_family(FamilySpec("h_witness", (5,))), build_family(FamilySpec("book", (4,))))
    if g.n != 21 or domination_polynomial(g) != poly_join(poly_H(5), poly_book(4)):
        failures.append("H_5+B_4: closed form differs from enumeration of the join graph")
    report(
        6,
        f"stated join families in_cg, except {len(JOIN_WITNESSES)} mixed-parity joins"
        " refuted with exact witnesses",
        failures,
    )


#: Rational a < b < 0 where the S_{3,2} base factor changes sign; every
#: iterated corona of S_{3,2} is a power of that factor and shares the root.
S32_WITNESS = (Fraction(-1, 2), Fraction(-31, 64))


def test_criterion_7_iterated_corona_families():
    bases = [
        ("K_2", cg_family_factor("K", 2), 2),
        ("K_4", cg_family_factor("K", 4), 4),
        ("S_{3,2}", cg_family_factor("S", 3, 5), 5),
        ("B_2", cg_family_factor("B2"), 6),
    ]
    cases = []
    for label, factor, m in bases:
        refutation = (factor, *S32_WITNESS) if label == "S_{3,2}" else None
        for base_order in (1, 2, 3):
            level1 = factor**base_order
            level2 = factor ** (base_order * (1 + m))
            cases.append((f"{label} level1 |G|={base_order}", level1, refutation))
            cases.append((f"{label} level2 |G|={base_order}", level2, refutation))
    failures = check_verdicts(7, cases)
    # the refuted factor is D of the 6-vertex graph corona(K_1, S_{3,2})
    g = corona(
        build_family(FamilySpec("complete", (1,))), build_family(FamilySpec("k_star", (3, 5)))
    )
    if domination_polynomial(g) != cg_family_factor("S", 3, 5):
        failures.append("S_{3,2}: factor differs from enumeration of corona(K_1, S_{3,2})")
    report(
        7,
        "iterated coronas of K_2, K_4, B_2 certified at two nesting levels;"
        " S_{3,2} refuted with an exact witness",
        failures,
    )


def test_criterion_8_limit_circle():
    start = time.monotonic()
    dev20 = circle_deviation(find_roots(poly_complement_friendship(20)), -1 + 0j, 1.0)
    dev200 = circle_deviation(find_roots(poly_complement_friendship(200)), -1 + 0j, 1.0)
    elapsed = time.monotonic() - start
    failures = []
    if not dev200.max_dev < dev20.max_dev:
        failures.append(f"dev(200)={dev200.max_dev} !< dev(20)={dev20.max_dev}")
    if not dev200.max_dev < FIXTURES["max_dev_n200_threshold"]:
        failures.append(f"dev(200)={dev200.max_dev} above 0.1")
    # consistency with the committed calibration values
    if abs(dev20.max_dev - FIXTURES["max_dev_n20"]) > 1e-3:
        failures.append(f"dev(20) drifted from fixture: {dev20.max_dev}")
    if abs(dev200.max_dev - FIXTURES["max_dev_n200"]) > 1e-3:
        failures.append(f"dev(200) drifted from fixture: {dev200.max_dev}")
    assert elapsed < 60, f"criterion 8 runtime {elapsed:.1f}s exceeds 1 minute"
    report(
        8,
        f"roots approach the unit circle at -1: dev20={dev20.max_dev:.4f},"
        f" dev200={dev200.max_dev:.4f} ({elapsed:.1f}s)",
        failures,
    )


def test_criterion_9_figure_reproduction(tmp_path, capsys):
    svg_path = tmp_path / "fig.svg"
    code = cli.main(
        ["plot", "--family", "complement_friendship:1..30", "--circle", "--out", str(svg_path)]
    )
    assert code == 0
    svg = svg_path.read_bytes()
    assert svg.startswith(b"<svg") and b"<ellipse" in svg

    csv_path = tmp_path / "roots.csv"
    code = cli.main(
        ["roots", "--family", "complement_friendship:1..30", "--out", str(csv_path)]
    )
    assert code == 0
    capsys.readouterr()
    rows = csv_path.read_text().strip().split("\n")[1:]
    by_n: dict[int, list[complex]] = {}
    for row in rows:
        _, n, re, im, _ = row.split(",")
        by_n.setdefault(int(n), []).append(complex(float(re), float(im)))

    failures = []
    n0 = FIXTURES["positive_real_part_onset_n"]
    for n in range(1, 31):
        roots = by_n.get(n, [])
        if len(roots) != max(0, 2 * n - 2):
            failures.append(f"n={n}: {len(roots)} rows, expected {2 * n - 2}")
            continue
        for z in roots:
            if abs(z.imag) > 1e-9 and not any(
                abs(z.conjugate() - w) < 1e-9 for w in roots
            ):
                failures.append(f"n={n}: root {z} lacks conjugate")
        if n >= n0 and not any(z.real > 1e-9 for z in roots):
            failures.append(f"n={n}: expected a root with positive real part")
        if n < n0 and any(z.real > 1e-9 for z in roots):
            failures.append(f"n={n}: unexpected positive-real-part root before onset")
    report(9, f"figure sweep: SVG plus 2n-2 conjugate roots per n, onset n0={n0}", failures)


def test_criterion_10_structural_invariants():
    failures = []
    polys = []
    for spec in family_instances_for_exactness():
        g = build_family(spec)
        p = closed_form(spec) or domination_polynomial(g)
        polys.append((str(spec), p))
        if g.n <= 12:
            if p.zero_root_multiplicity() != domination_number(g):
                failures.append(f"{spec}: gamma != brute-force domination number")
    rng = random.Random(2025_10)
    for i in range(20):
        g = random_graph(rng.randint(1, 9), rng)
        p = domination_polynomial(g)
        polys.append((f"random {i}", p))
        if p.zero_root_multiplicity() != domination_number(g):
            failures.append(f"random {i}: gamma mismatch")
    for n in range(3, 12):
        polys.append(
            (f"H_{n}+H_{n}", poly_join(poly_H(n), poly_H(n)))
        )
    for label, p in polys:
        if not check_oddness(p):
            failures.append(f"{label}: even dominating-set count")
        if p.eval_exact(-1) == 0:
            failures.append(f"{label}: -1 is a root")
    report(10, f"oddness, -1 non-root, gamma checks on {len(polys)} polynomials", failures)


def test_criterion_11_solver_quality():
    failures = []
    # reconstruction from roots, degree <= 60
    test_polys = [
        ("complement_friendship(25)", poly_complement_friendship(25)),
        ("book(25)", poly_book(25)),
        ("friendship(15)", poly_friendship(15)),
        ("H_12+H_12", poly_join(poly_H(12), poly_H(12))),
    ]
    rng = random.Random(2025_11)
    for i in range(4):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(30, 61))]
        coeffs[-1] = coeffs[-1] or 1
        test_polys.append((f"random {i}", Poly(coeffs)))
    for label, p in test_polys:
        if p.degree < 1:
            continue
        rs = find_roots(p)
        rebuilt = expand_from_roots(rs, p.coeffs[-1])
        worst = max(
            abs(got - want) / max(1.0, abs(want))
            for got, want in zip(rebuilt, p.coeffs)
        )
        if worst > 1e-6:
            failures.append(f"{label}: reconstruction error {worst:.2e}")

    # solver real-root counts agree with exact Sturm counts
    rng = random.Random(2025_12)
    done = 0
    while done < 100:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        p = Poly(coeffs)
        if p.degree < 1:
            continue
        rs = find_roots(p)
        solver_count = (1 if rs.zero_multiplicity else 0) + len(distinct_real_roots(rs))
        sturm_count = count_real_roots(p)
        if solver_count != sturm_count:
            failures.append(f"poly {coeffs}: solver {solver_count} vs sturm {sturm_count}")
        done += 1
    report(11, "root reconstruction <= 1e-6 and 100/100 Sturm agreement", failures)

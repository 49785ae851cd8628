"""Certifier witnesses checked against sympy's real-root isolation.

sympy isolates real roots by its own exact algorithm and shares no code with
``realroots``.  For each polynomial, the deflated polynomial must have as many
distinct real roots under ``sympy.Poly.intervals`` as the certifier counts,
and each certifier witness [a, b] must hold exactly one of them.  Witnesses
are sorted and may share an endpoint, never a root, so together they account
for every root once.
"""

from fractions import Fraction

import pytest
import sympy

from dompoly.formulas import FAMILIES
from dompoly.realroots import certify_cg

from conftest import criterion_6_joins

x = sympy.Symbol("x")


def check_witnesses_with_sympy(p) -> int:
    """Assert the certificate of p against sympy; return its witness count."""
    cert = certify_cg(p)
    q = sympy.Poly(list(reversed(p.deflate_zero().coeffs)), x)
    assert len(q.intervals()) == cert.nonzero_real_root_count
    witnesses = [tuple(map(Fraction, w)) for w in cert.evidence["witnesses"]]
    assert len(witnesses) == cert.nonzero_real_root_count
    for (_, b), (c, _) in zip(witnesses, witnesses[1:]):
        assert b <= c
    for a, b in witnesses:
        inside = q.intervals(inf=sympy.Rational(a), sup=sympy.Rational(b))
        assert len(inside) == 1, f"witness [{a}, {b}] holds {len(inside)} sympy roots"
    return len(witnesses)


@pytest.mark.parametrize("name", [f.name for f in FAMILIES.values() if f.closed_form])
def test_family_witnesses_match_sympy(name):
    closed_form = FAMILIES[name].closed_form
    for n in range(1, 21):
        check_witnesses_with_sympy(closed_form(n))


def test_criterion_6_join_witnesses_match_sympy():
    counts = {label: check_witnesses_with_sympy(p) for label, p in criterion_6_joins()}
    # only the seven mixed-parity joins have nonzero real roots
    assert sum(1 for c in counts.values() if c) == 7

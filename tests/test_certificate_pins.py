"""Pinned certificates: a change to the certifier must reach the same decisions.

Each instance maps to the sha256 of its certificate's ``record()`` together
with the ``nodes``, ``max_depth``, ``bound_exponent`` and
``squarefree_fallback`` stats, so the verdict, every witness, the bisection
tree's size and depth, the root bound and the squarefree path are all
pinned.  The instances are the certificates of the ``join_certify``
benchmark, every closed-form family up to n = 40 and the criterion 6 and 7
instances.  To re-record after an intended change, run from the repo root:

    PYTHONPATH=src python tests/test_certificate_pins.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dompoly.formulas import FAMILIES
from dompoly.realroots import certify_cg

from conftest import (
    BENCHMARK_JOINS,
    criterion_6_joins,
    criterion_7_coronas,
    record_digests,
    run_fresh,
)

PINS = Path(__file__).parent / "fixtures" / "certificate_pins.json"

_PINNED_STATS = ("nodes", "max_depth", "bound_exponent", "squarefree_fallback")


def _instances(group: str):
    """(key, polynomial) pairs of one group of pinned instances."""
    if group == "joins":
        for pattern, build in BENCHMARK_JOINS.items():
            for n in range(1, 33):
                yield f"{pattern} n={n}", build(n)
    elif group == "families":
        for name, family in FAMILIES.items():
            if family.closed_form:
                top = 50 if name == "cocktail_party" else 40
                for n in range(1, top + 1):
                    yield f"{name}:{n}", family.closed_form(n)
    elif group == "criterion_6":
        for label, p in criterion_6_joins():
            yield f"criterion 6 {label}", p
    elif group == "criterion_7":
        for label, _, p in criterion_7_coronas():
            yield f"criterion 7 {label}", p


GROUPS = ["joins", "families", "criterion_6", "criterion_7"]


def _digest(record: dict, stats: dict) -> str:
    pinned = {"record": record, **{key: stats[key] for key in _PINNED_STATS}}
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


def certificate_digest(p) -> str:
    cert = certify_cg(p)
    return _digest(cert.record(), cert.stats)


def _digests(group: str) -> dict[str, str]:
    return {key: certificate_digest(p) for key, p in _instances(group)}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_every_instance_is_pinned(pins):
    assert list(pins) == [key for group in GROUPS for key, _ in _instances(group)]


@pytest.mark.parametrize("group", GROUPS)
def test_certificates_are_pinned(group, pins):
    got = _digests(group)
    assert got == {key: pins.get(key) for key in got}


#: Certifies the polynomial whose coefficients arrive on stdin as JSON, and
#: prints whether numpy was loaded before and after, and the certificate.
_CERTIFY_FRESH = """import json, sys
from dompoly.polynomials import Poly
from dompoly.realroots import certify_cg
p = Poly(json.load(sys.stdin))
before = "numpy" in sys.modules
cert = certify_cg(p)
numpy = [before, "numpy" in sys.modules]
json.dump({"numpy": numpy, "record": cert.record(), "stats": cert.stats}, sys.stdout)
"""


@pytest.mark.parametrize(
    "key",
    # the modular test proves the first squarefree and cannot tell on the
    # second, a square, where the exact gcds decide
    ["criterion 7 B_2 level1 |G|=1", "criterion 7 S_{3,2} level1 |G|=2"],
)
def test_modular_squarefree_test_loads_numpy_on_demand(key, pins, tmp_path):
    """certify_cg imports numpy only for the modular squarefree test: in a
    fresh process a certificate that runs the test loads it then, and still
    matches its pin."""
    p = dict(_instances("criterion_7"))[key]
    proc = run_fresh(["-c", _CERTIFY_FRESH], tmp_path, stdin=json.dumps(p.coeffs))
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout)
    assert out["numpy"] == [False, True] and out["stats"]["modular_test"]
    assert _digest(out["record"], out["stats"]) == pins[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record_digests(PINS, {key: d for group in GROUPS for key, d in _digests(group).items()})

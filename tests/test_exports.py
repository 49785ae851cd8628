"""The package namespace: every exported name exists, so a removed symbol
cannot leave a stale entry in ``__all__`` behind.  ``dompoly._SERVED``, the
one name → module table, serves every name on first access (a module
``__getattr__``), so ``import dompoly`` loads none of the package's modules
and each name loads only its own module and what that imports."""

import importlib
import inspect

import pytest

import dompoly
from conftest import run_fresh


def test_the_surface_is_pinned():
    """A name enters or leaves the package's surface only with an edit here."""
    assert sorted(dompoly.__all__) == [
        "CapacityError",
        "CgCertificate",
        "CircleDeviation",
        "EdgeListParseError",
        "FamilySpec",
        "Graph",
        "MAX_VERTICES",
        "NonConvergenceError",
        "OracleMismatchError",
        "Poly",
        "RootSet",
        "binomial_power",
        "build_family",
        "certify_cg",
        "cg_family_factor",
        "circle_deviation",
        "closed_form",
        "complement",
        "corona",
        "disjoint_union",
        "domination_polynomial",
        "find_roots",
        "join",
        "parse_edge_list",
        "poly_H",
        "poly_book",
        "poly_cocktail",
        "poly_complement_friendship",
        "poly_complete",
        "poly_corona",
        "poly_friendship",
        "poly_join",
        "poly_union",
        "squarefree_factors",
        "to_edge_list",
    ]


def test_every_exported_name_resolves():
    missing = [name for name in dompoly.__all__ if not hasattr(dompoly, name)]
    assert missing == []
    assert len(set(dompoly.__all__)) == len(dompoly.__all__)


def test_star_import():
    namespace = {}
    exec("from dompoly import *", namespace)
    assert set(dompoly.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(dompoly, name) for name in dompoly.__all__)


def test_served_names_come_from_their_modules():
    assert dompoly.__all__ == sorted(dompoly._SERVED)
    for name, module in dompoly._SERVED.items():
        home = importlib.import_module(f"dompoly.{module}")
        obj = getattr(dompoly, name)
        assert obj is getattr(home, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name


#: Imports dompoly, reads each name given as an argument, and prints the
#: ``dompoly.*`` modules then loaded, and numpy if it is.
_REPORT_LOADED = """import sys
import dompoly
for name in sys.argv[1:]:
    getattr(dompoly, name)
print(*sorted(m for m in sys.modules if m.startswith("dompoly.") or m == "numpy"))
"""


@pytest.mark.parametrize(
    "names, loaded",
    [
        ([], []),
        (["Poly"], ["dompoly.polynomials"]),
        (["certify_cg"], ["dompoly.polynomials", "dompoly.realroots"]),
        (
            ["find_roots"],
            [
                "dompoly.complexroots",
                "dompoly.errors",
                "dompoly.polynomials",
                "dompoly.realroots",
                "numpy",
            ],
        ),
    ],
    ids=["import", "Poly", "certify_cg", "find_roots"],
)
def test_a_fresh_process_loads_only_the_modules_it_uses(tmp_path, names, loaded):
    """``import dompoly`` loads none of the package's modules, and the first
    access of a name loads its module and what that imports, nothing else."""
    proc = run_fresh(["-c", _REPORT_LOADED, *names], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == loaded


def test_dir_lists_every_exported_name():
    assert set(dompoly.__all__) <= set(dir(dompoly))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="module 'dompoly' has no attribute 'no_such_name'"):
        dompoly.no_such_name
    assert not hasattr(dompoly, "find_root")

"""The package namespace: every exported name exists, so a removed symbol
cannot leave a stale entry in ``__all__`` behind.  The names of the solver,
the certifier and the counter are served on first access (a module
``__getattr__``), and must behave as the others do."""

import importlib

import pytest

import dompoly


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
    modules = {}
    for name, module in dompoly._SERVED.items():
        modules.setdefault(module, []).append(name)
        assert getattr(dompoly, name) is getattr(importlib.import_module(f"dompoly.{module}"), name)
    assert modules == {
        "complexroots": ["CircleDeviation", "RootSet", "circle_deviation", "find_roots"],
        "realroots": ["CgCertificate", "certify_cg", "squarefree_factors"],
        "enumeration": ["domination_polynomial"],
    }


def test_dir_lists_every_exported_name():
    assert set(dompoly.__all__) <= set(dir(dompoly))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="module 'dompoly' has no attribute 'no_such_name'"):
        dompoly.no_such_name
    assert not hasattr(dompoly, "find_root")

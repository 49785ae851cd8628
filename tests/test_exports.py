"""The package namespace: every exported name exists, so a removed symbol
cannot leave a stale entry in ``__all__`` behind.  The solver's names are
served on first access (a module ``__getattr__``), and must behave as the
others do."""

import pytest

import dompoly


def test_every_exported_name_resolves():
    missing = [name for name in dompoly.__all__ if not hasattr(dompoly, name)]
    assert missing == []
    assert len(set(dompoly.__all__)) == len(dompoly.__all__)


def test_star_import():
    namespace = {}
    exec("from dompoly import *", namespace)
    assert set(dompoly.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(dompoly, name) for name in dompoly.__all__)


def test_solver_names_come_from_complexroots():
    from dompoly import complexroots

    names = ["CircleDeviation", "RootSet", "circle_deviation", "distinct_real_roots", "find_roots"]
    for name in names:
        assert getattr(dompoly, name) is getattr(complexroots, name)


def test_dir_lists_every_exported_name():
    assert set(dompoly.__all__) <= set(dir(dompoly))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="module 'dompoly' has no attribute 'no_such_name'"):
        dompoly.no_such_name
    assert not hasattr(dompoly, "find_root")

"""The package namespace: every exported name exists, so a removed symbol
cannot leave a stale entry in ``__all__`` behind."""

import dompoly


def test_every_exported_name_resolves():
    missing = [name for name in dompoly.__all__ if not hasattr(dompoly, name)]
    assert missing == []
    assert len(set(dompoly.__all__)) == len(dompoly.__all__)


def test_star_import():
    namespace = {}
    exec("from dompoly import *", namespace)
    assert set(dompoly.__all__) <= set(namespace)

"""The package namespace: every name in fueter.__all__ exists, listed once."""

import fueter


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fueter import *", namespace)  # raises AttributeError on a stale entry
    assert [name for name in fueter.__all__ if name not in namespace] == []


def test_exports_listed_once():
    assert len(fueter.__all__) == len(set(fueter.__all__))

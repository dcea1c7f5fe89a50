"""The package namespace."""

import dimtools


def test_star_import_binds_only_the_public_names():
    namespace = {}
    exec("from dimtools import *", namespace)
    assert "io" not in namespace  # the stdlib module, not dimtools.io
    assert set(namespace) - {"__builtins__"} == set(dimtools.__all__)


def test_every_public_name_resolves():
    for name in dimtools.__all__:
        assert getattr(dimtools, name) is not None, name

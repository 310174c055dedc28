"""The package's top-level exports."""

import jpkernel


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from jpkernel import *", namespace)  # raises on a name missing from the package
    assert [name for name in jpkernel.__all__ if name not in namespace] == []

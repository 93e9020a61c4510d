"""Public surface of the package."""

import cvteleport


def test_every_exported_name_resolves():
    for name in cvteleport.__all__:
        assert hasattr(cvteleport, name), name

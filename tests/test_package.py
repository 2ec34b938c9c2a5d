"""The package's public surface."""

import types

import sembench


def test_every_public_name_is_exported():
    bound = {name for name, value in vars(sembench).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert bound <= set(sembench.__all__), bound - set(sembench.__all__)

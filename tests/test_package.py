"""The package's public names."""

import saldet


def test_every_exported_name_resolves_once():
    names = saldet.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(saldet, n)]
    assert not missing, missing

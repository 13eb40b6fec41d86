"""The package's public names and its dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import saldet


def test_every_exported_name_resolves_once():
    names = saldet.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(saldet, n)]
    assert not missing, missing


def test_the_package_imports_with_numpy_only():
    # the README's "Requires numpy only": no test or optional dependency
    # is loaded by the library, the CLI or the benchmark module
    code = (
        "import sys, saldet, saldet.cli, saldet.benchmark\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(saldet.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"

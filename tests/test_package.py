"""The package's public names, its dependencies and its oldest supported Python."""

import ast
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


def test_the_sources_parse_as_python_3_10():
    """pyproject's ``requires-python = ">=3.10"``, checked on a newer interpreter.

    Parsing with ``feature_version=(3, 10)`` refuses syntax newer than
    3.10, such as ``except*``. It does not see calls into the library
    that only 3.11 or later provides; only running on 3.10 does.
    """
    sources = sorted(Path(saldet.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

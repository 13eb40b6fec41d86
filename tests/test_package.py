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

    The package, the tests and perfbench, all of which CI's 3.10 leg
    runs, are read and parsed, never written. Parsing with
    ``feature_version=(3, 10)`` refuses syntax newer than 3.10, such as
    ``except*``. It does not see calls into the library that only 3.11
    or later provides; only running on 3.10 does.
    """
    root = Path(__file__).resolve().parents[1]
    sources = sorted([*Path(saldet.__file__).parent.glob("*.py"),
                      *root.glob("tests/**/*.py"), *root.glob("perfbench/*.py")])
    assert {path.parent.name for path in sources} >= {"saldet", "tests", "golden", "perfbench"}
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

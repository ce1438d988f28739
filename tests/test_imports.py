"""Every import in the package sits at module level, so a module's
dependencies are visible at its top and no cycle is dodged by deferring
one. Each command runs as a fresh process, so what the CLI imports is
paid on every call."""

import ast
import glob
import os
import subprocess
import sys

import subcollect


def _function_imports(path):
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append("%s:%d in %s()" % (os.path.basename(path), node.lineno, fn.name))
    return found


def test_no_import_inside_a_function():
    package = os.path.dirname(subcollect.__file__)
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert paths
    found = sorted({hit for path in paths for hit in _function_imports(path)})
    assert found == []


def test_cli_imports_no_code_generator():
    # dataclasses pulls in inspect, ast, dis and tokenize, and its
    # decorator compiles code for every class at import time.
    src = os.path.dirname(os.path.dirname(subcollect.__file__))
    code = "import sys, subcollect.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []

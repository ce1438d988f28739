"""Every import in the package sits at module level, so a module's
dependencies are visible at its top and no cycle is dodged by deferring
one. Each command runs as a fresh process, so what the CLI imports is
paid on every call. No linter is needed for the rest: every module-level
import is used or exported, every exported name is defined, and every
function, class and method is referenced somewhere else in the package."""

import ast
import collections
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


def _module_names(path):
    """(imported, defined, used, exported) name sets of one module, read
    by ``ast``: what its module-level imports bind, less any line marked
    ``# noqa: F401``; everything bound at module level; every name read
    anywhere; and the strings in ``__all__``."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    imported, defined, exported = set(), set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                defined.add(name)
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported, defined, used, exported


def _package_modules():
    package = os.path.dirname(subcollect.__file__)
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert paths
    return paths


def test_every_import_is_used_or_exported():
    unused = []
    for path in _package_modules():
        imported, _, used, exported = _module_names(path)
        unused += ["%s: %s" % (os.path.basename(path), n) for n in sorted(imported - used - exported)]
    assert unused == []


def test_every_exported_name_is_defined():
    missing = []
    for path in _package_modules():
        _, defined, _, exported = _module_names(path)
        missing += ["%s: %s" % (os.path.basename(path), n) for n in sorted(exported - defined)]
    assert missing == []


def _references(tree):
    """How often each name is read, or named as an attribute, in ``tree``."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def test_every_definition_is_referenced_elsewhere():
    # A function or class that only its own body or the tests name is code
    # that no command runs; dunders are called by Python itself.
    trees = {}
    for path in _package_modules():
        with open(path, encoding="utf-8") as f:
            trees[path] = ast.parse(f.read(), filename=path)
    everywhere = sum((_references(tree) for tree in trees.values()), collections.Counter())
    unreferenced = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] == _references(node)[name]:
                unreferenced.append("%s:%d: %s" % (os.path.basename(path), node.lineno, name))
    assert unreferenced == []

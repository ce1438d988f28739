"""Every import in the package sits at module level, so a module's
dependencies are visible at its top and no cycle is dodged by deferring
one. The one exception is start-up: each command runs as a fresh
process, so what the CLI imports is paid on every call, and a ``cmd_*``
function of ``cli`` imports in its body the modules that only it runs.
No linter is needed for the rest: every import is used or exported,
every exported name is defined, every function, class and method is
referenced somewhere else in the package, and every name that a
module-level assignment binds is read by some module of it."""

import ast
import collections
import glob
import os
import subprocess
import sys

import subcollect

from conftest import build_archive, page

SRC = os.path.dirname(os.path.dirname(subcollect.__file__))


def _tree(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _imports(node):
    return [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _modules(node):
    """The modules an import statement names: ``from . import x`` names
    ``.x``, ``from .spec import y`` names ``.spec``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    prefix = "." * node.level
    if node.module is None:
        return [prefix + alias.name for alias in node.names]
    return [prefix + node.module]


def _function_imports(path):
    """Each import inside a function that the rule does not allow: only a
    ``cmd_*`` function of ``cli`` may import, and only a module that
    ``cli`` does not import at module level."""
    tree = _tree(path)
    top = {m for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for m in _modules(node)}
    found = []
    for fn in _functions(tree):
        allowed = os.path.basename(path) == "cli.py" and fn.name.startswith("cmd_")
        for node in _imports(fn):
            found += ["%s:%d in %s(): %s" % (os.path.basename(path), node.lineno, fn.name, m)
                      for m in _modules(node) if not allowed or m in top]
    return found


def _unused_function_imports(path):
    """Each name that an import inside a function binds and that function
    never reads."""
    unused = []
    for fn in _functions(_tree(path)):
        bound = {alias.asname or alias.name.partition(".")[0]
                 for node in _imports(fn) for alias in node.names}
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += ["%s: %s(): %s" % (os.path.basename(path), fn.name, n) for n in sorted(bound - read)]
    return unused


def test_no_import_inside_a_function():
    found = sorted({hit for path in _package_modules() for hit in _function_imports(path)})
    assert found == []


def test_function_import_rules_catch_what_they_name(tmp_path):
    def write(name, source):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    cli = write("cli.py", "import os\nfrom . import store\n\n\n"
                          "def cmd_a():\n    import csv\n    from . import spec\n    return csv\n\n\n"
                          "def cmd_b():\n    import os\n    from . import store\n    return os, store\n\n\n"
                          "def helper():\n    import json\n    return json\n")
    assert [hit.partition(" in ")[2] for hit in _function_imports(cli)] == [
        "cmd_b(): os", "cmd_b(): .store", "helper(): json"]
    assert _unused_function_imports(cli) == ["cli.py: cmd_a(): spec"]
    other = write("spec.py", "def cmd_a():\n    import csv\n    return csv\n")
    assert _function_imports(other) == ["spec.py:2 in cmd_a(): csv"]


# Modules a command must not load, so that it starts sooner.
NOT_LOADED = {
    "index": {"subcollect.extraction", "subcollect.evaluation", "subcollect.stats",
              "subcollect.htmldoc", "subcollect.relevance", "subcollect.spec",
              "json", "csv", "heapq", "html"},
    "extract": {"subcollect.evaluation", "subcollect.stats", "csv"},
    "evaluate": {"subcollect.stats"},
    "stats": {"subcollect.extraction", "subcollect.evaluation", "subcollect.relevance",
              "subcollect.spec"},
}
NOT_LOADED["get"] = NOT_LOADED["index"]


def test_each_command_loads_only_its_modules(tmp_path):
    captures = [
        ("http://a.de/", "20000101120000", page("a", links=["/x"], text="web archive")),
        ("http://a.de/x", "20000102120000", page("ax", text="more web archive text")),
    ]
    warc = str(build_archive(tmp_path, captures).path)
    spec = tmp_path / "spec.json"
    spec.write_text('{"name": "all", "scopes": {"domains": ["de"]}}')
    index = str(tmp_path / "index.cdx")
    archive = ["--index", index, "--archive-dir", str(tmp_path)]
    argvs = {
        "index": ["index", warc, "--output", index],
        "extract": ["extract", "--spec", str(spec), *archive, "--output", str(tmp_path / "m")],
        "evaluate": ["evaluate", str(tmp_path / "m"), *archive],  # reads the manifest just written
        "stats": ["stats", *archive, "--sample-n", "2", "--output", str(tmp_path / "s.csv")],
        "get": ["get", *archive, "--url", "http://a.de/", "--at", "20000101120000"],
    }
    # The last line of stdout lists the modules loaded once the command ran.
    code = ("import sys; from subcollect.cli import main; code = main(sys.argv[1:]); "
            "print(); print(*sorted(sys.modules)); sys.exit(code)")
    for command, argv in argvs.items():
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.splitlines()[-1].split())
        assert "subcollect.cli" in loaded
        assert sorted(NOT_LOADED[command] & loaded) == [], command


def test_cli_imports_no_code_generator():
    # dataclasses pulls in inspect, ast, dis and tokenize, and its
    # decorator compiles code for every class at import time.
    code = "import sys, subcollect.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
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
        unused += _unused_function_imports(path)
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


def _unreferenced(trees):
    """Each definition in ``trees`` that no module reads: a function or
    class that only its own body names, and a name that a module-level
    assignment binds and no module reads. Dunders, ``__all__`` among
    them, are exempt: Python itself reads them."""
    everywhere = sum((_references(tree) for tree in trees.values()), collections.Counter())
    unreferenced = []
    for path, tree in trees.items():
        named = [(node, node.name, _references(node)[node.name]) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        named += [(node, n.id, 0) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        for node, name, own in named:
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] == own:
                unreferenced.append("%s:%d: %s" % (os.path.basename(path), node.lineno, name))
    return unreferenced


def test_every_definition_is_referenced_elsewhere():
    # A function or class that only its own body or the tests name, or a
    # module-level name that no module reads, is code that no command runs.
    assert _unreferenced({path: _tree(path) for path in _package_modules()}) == []


def test_unreferenced_catches_what_it_names():
    source = (
        "__all__ = ['f']\nUSED = 1\nUNUSED = 2\nA, (B, C) = 1, (2, 3)\nN: int = 0\n"
        "OWNER = type('O', (), {})\nOWNER.attr = USED + B\n\n\n"
        "def f():\n    return f\n\n\nclass K:\n    LIMIT = 3\n"
    )
    other = "import m\nx = m.C + m.K.LIMIT\n"
    trees = {"m.py": ast.parse(source), "other.py": ast.parse(other)}
    assert _unreferenced(trees) == [
        "m.py:10: f", "m.py:3: UNUSED", "m.py:4: A", "m.py:5: N", "other.py:2: x",
    ]

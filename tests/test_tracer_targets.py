"""The benchmark's tracer (``perfbench/tracing.py``) wraps program
functions by module and name. A function renamed or moved in ``src/``
would break the traced benchmark run; these tests name it first."""

import importlib
import importlib.util
import inspect
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    """The program's ``subcollect.<module>.<attr>``, a dotted path, or None."""
    owner = importlib.import_module("subcollect." + module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_resolves_in_the_program():
    tracing = _tracing()
    names = [(m, attr) for m, attr, _ in tracing.TARGETS]
    names += [("cli", "cmd_" + c) for c in tracing.CLI_COMMANDS]
    assert [(m, attr) for m, attr in names if not callable(_resolve(m, attr))] == []
    assert [(m, attr) for m, attr, _ in tracing.GENERATORS
            if not inspect.isgeneratorfunction(_resolve(m, attr))] == []
    assert {m for m, _ in names} <= set(tracing.MODULES)


def test_a_missing_name_does_not_resolve():
    assert _resolve("spec", "in_scope_metadata") is not None
    assert _resolve("spec", "no_such_function") is None
    assert _resolve("store", "ArchiveIndex.no_such_method") is None

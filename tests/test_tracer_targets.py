"""The benchmark's tracer (``perfbench/tracing.py``) wraps program
functions by module and name. A function renamed or moved in ``src/``
would break the traced benchmark run, and so would a ``stats`` span that
lost a count the run reads; these tests name either first."""

import importlib
import importlib.util
import inspect
import os

from subcollect import stats

from conftest import build_archive, damage_warc, page

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


def test_stats_spans_keep_the_shapes_the_benchmark_reads(tmp_path):
    # The benchmark reads stats.analyze_sample.dropped as its "sampled"
    # count (the sample's length) less its "out" count (the result's
    # length), and needs a stats.link_in_archive_rate span on each run.
    captures = [("http://%s.de/" % h, "2000010%d120000" % (i + 1), page(h, links=["/x"]))
                for i, h in enumerate("abc")]
    fx = build_archive(tmp_path, captures)
    damage_warc(fx.path, fx.index.lookup_nearest("http://c.de/", "20000103120000"), "digest")
    tracing = _tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        report = stats.build_report(fx.index, fx.archive, 10, 0)
    finally:
        tracing.uninstall(restore)
    spans = tracing.aggregate(tracer)
    sampled = spans["stats.analyze_sample"]
    assert (sampled["calls"], sampled["sampled"], sampled["out"]) == (1, 3, 2)
    assert spans["stats.link_in_archive_rate"]["calls"] >= 1
    assert [(r.sampled_pages, r.internal_link_rate) for r in report.rows] == [(3, 0.0)]

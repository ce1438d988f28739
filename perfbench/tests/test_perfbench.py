"""Tests of the benchmark itself: generator, statistics, spans, processes.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

import gen
import run
import tracing

SMALL = {
    "SCAN": {"captures": 200, "de_hosts": 10, "org_hosts": 2, "html": 150, "out_of_time": 20,
             "out_of_domain": 20, "topic_in": 10, "topic_out": 2, "corrupt": 3, "queries": 60},
    "CLOSURE": {"hosts": 4, "urls_per_host": 5, "size": 10, "queries": 60},
}


@pytest.fixture
def small(monkeypatch):
    for table, values in SMALL.items():
        for key, value in values.items():
            monkeypatch.setitem(getattr(gen, table), key, value)


def tree_bytes(root):
    out = {}
    for d, _, files in os.walk(root):
        for name in files:
            path = os.path.join(d, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def generated(workload, seed, dest):
    gen.generate(workload, seed, str(dest))
    return tree_bytes(dest)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(small, tmp_path, workload):
    a = generated(workload, 5, tmp_path / "a")
    b = generated(workload, 5, tmp_path / "b")
    c = generated(workload, 6, tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys()
    assert a["truth.json"] != c["truth.json"]
    assert any(a[k] != c[k] for k in a if k.endswith((".warc", ".warc.gz")))


def test_generator_plants_exact_counts(small, tmp_path):
    p = gen.SCAN
    counts = []
    for seed in (1, 2):
        truth = gen.generate("scan-content", seed, str(tmp_path / str(seed)))
        assert len(truth["captures"]) == p["captures"]
        assert truth["html_count"] == p["html"]
        assert len(truth["topic"]) == p["topic_in"]
        assert len(truth["corrupt"]) == p["corrupt"]
        assert not set(map(tuple, truth["topic"])) & set(map(tuple, truth["corrupt"]))
        counts.append(truth["expect"]["candidates"])
    assert counts[0] == counts[1] == p["captures"] - p["out_of_time"] - p["out_of_domain"]


def test_query_answers_match_brute_force(small, tmp_path):
    truth = gen.generate("closure-snapshot", 3, str(tmp_path))
    by_url = {}
    for url, ts, sha, *_ in truth["captures"]:
        by_url.setdefault(url, []).append((ts, sha))
    assert any(q["answer"] is None for q in truth["queries"])
    for q in truth["queries"]:
        caps = by_url.get(q["url"])
        if not caps:
            assert q["answer"] is None
            continue
        target = gen.epoch_of(q["at"])
        best = min(abs(gen.epoch_of(ts) - target) for ts, _ in caps)
        earliest = min(ts for ts, _ in caps if abs(gen.epoch_of(ts) - target) == best)
        assert q["answer"][:2] == [q["url"], earliest]


def test_nearest_breaks_ties_to_the_earlier_capture():
    caps = {"u": [{"url": "u", "ts": "20000101000010"}, {"url": "u", "ts": "20000101000000"}]}
    assert gen.nearest(caps, "u", "20000101000005")["ts"] == "20000101000000"
    assert gen.nearest(caps, "u", "20000101000006")["ts"] == "20000101000010"
    assert gen.nearest(caps, "v", "20000101000006") is None


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(1000)), 0.99) == 989
    assert run.percentile(list(range(999)), 0.99) is None
    assert run.percentile(list(range(20)), 0.50) == 9
    assert run.percentile(list(range(19)), 0.50) is None
    assert run.percentile([5.0] * 1000 + [1.0] * 10, 0.99) == 5.0


def test_self_time_on_a_hand_built_tree():
    #  0: root  [0, 10]
    #  1: a     [1, 4]   child of root
    #  2: a.x   [2, 3]   child of a
    #  3: b     [3, 6]   child of root, overlaps a
    #  4: c     [8, 12]  child of root, runs past it
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    # root: children cover [1, 6] and [8, 10] -> 7 of 10.
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_tracer_nesting_and_aggregate():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf(n):
        return list(range(n))

    inner = tracing.wrap(tracer, "m.leaf", leaf, tracing._after(lambda r: {"items": len(r)}))

    def outer():
        inner(2)
        inner(3)

    traced_outer = tracing.wrap(tracer, "m.outer", outer)
    tracer.new_trace()
    traced_outer()
    agg = tracing.aggregate(tracer)
    # Clock reads: outer opens 0; leaf 1..2; leaf 3..4; outer closes 5.
    assert agg["m.outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert agg["m.leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0, "items": 5}
    assert set(tracer.trace) == {1}
    assert list(tracer.parent) == [-1, 0, 0]


def test_generator_spans_exclude_the_consumer():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    def records():
        yield 0, 7
        yield 1, 8

    items = tracing.wrap_generator(tracer, "g", records, lambda item: {"bytes": item[1]})
    assert list(items()) == [(0, 7), (1, 8)]
    agg = tracing.aggregate(tracer)
    assert agg["g"]["calls"] == 3  # two items and the final StopIteration
    assert agg["g"]["bytes"] == 15


def test_install_wraps_every_binding_and_uninstall_restores():
    from subcollect import extraction, htmldoc, relevance, spec, store, urls

    before = (extraction.parse_html, extraction.is_relevant, spec.canonicalize_url,
              store.canonicalize_url, store.Archive.fetch)
    assert not any(hasattr(fn, "__wrapped__") for fn in before)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for fn in (extraction.parse_html, htmldoc.parse_html, extraction.is_relevant,
                   relevance.is_relevant, spec.canonicalize_url, store.canonicalize_url,
                   urls.canonicalize_url, store.Archive.fetch, store.ArchiveIndex.load.__func__):
            assert hasattr(fn, "__wrapped__"), fn
        store.ArchiveIndex([]).entries_for("http://a.de/x")
        assert tracing.aggregate(tracer)["urls.canonicalize_url"]["calls"] == 1
    finally:
        tracing.uninstall(restore)
    after = (extraction.parse_html, extraction.is_relevant, spec.canonicalize_url,
             store.canonicalize_url, store.Archive.fetch)
    assert after == before


def test_peak_rss_is_per_child_from_wait4(tmp_path):
    big = [sys.executable, "-c", "b = bytearray(96 << 20); b[::4096] = b'x' * len(b[::4096])"]
    small = [sys.executable, "-c", "pass"]
    code, wall, big_kib = run.run_process(big, str(tmp_path / "big"))
    assert code == 0 and wall > 0
    # The launching process's own memory must not show up in a child's figure.
    ballast = bytearray(128 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    code, _, small_kib = run.run_process(small, str(tmp_path / "small"))
    del ballast
    assert code == 0
    assert big_kib >= 96 * 1024
    assert small_kib < 64 * 1024


def test_compare_allows_only_evaluate_float_digits():
    want = {"stdout": b"lc_sum=1.5\nfetches=3\n", "evaluate.csv": b"m,f,0.7221959878033157\n"}
    digits = {"stdout": want["stdout"], "evaluate.csv": b"m,f,0.7221959878033193\n"}
    assert run.compare("evaluate", want, digits) == ([], ["evaluate.csv"])
    assert run.compare("stats", {"stats.csv": b"1.0"}, {"stats.csv": b"1.0000000000001"})[0]
    wrong = {"stdout": b"lc_sum=1.5\nfetches=4\n", "evaluate.csv": want["evaluate.csv"]}
    assert run.compare("evaluate", want, wrong)[0] == ["stdout differs"]


def test_benchmark_json_lists_the_measured_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in run.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)


def test_reference_job_is_fixed_work():
    import calib

    assert calib.job() == calib.job()


def test_speed_scale_brings_times_to_the_reference_speed():
    assert run.speed_scale([run.REFERENCE_S]) == 1.0
    # A machine running at half speed takes twice as long for the job.
    assert run.speed_scale([2 * run.REFERENCE_S] * 4) == 0.5
    # Half the time at each of two speeds: the mean, not either level.
    slow, fast = 1.6 * run.REFERENCE_S, run.REFERENCE_S
    assert run.speed_scale([slow, fast, fast, slow]) == pytest.approx(1 / 1.3)

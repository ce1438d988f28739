"""Benchmark processes that import the program as a library.

    child.py loop  INDEX ARCHIVE_DIR QUERIES RESULTS
        Loads the index once, then answers every (url, at) query in a
        closed loop with ArchiveIndex.lookup_nearest + Archive.fetch.
        Writes one line per query: status, url, timestamp, digest and the
        query's latency in nanoseconds.

    child.py trace PLAN_JSON
        Runs the plan's CLI commands in-process through
        subcollect.cli.main, first untraced and then with every traced
        function wrapped, then the query loop traced, and writes the
        spans and a summary.

Both expect the program's source directory on PYTHONPATH.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
import time

import tracing


def query_loop(index, archive, queries, out, tracer=None):
    from subcollect.store import CorruptSnapshotError, SnapshotNotFound

    for url, at in queries:
        if tracer is not None:
            tracer.new_trace()
        ref = None
        t0 = time.perf_counter_ns()
        try:
            ref = index.lookup_nearest(url, at)
            archive.fetch(ref)
            status = "found"
        except SnapshotNotFound:
            status = "notfound"
        except CorruptSnapshotError:
            status = "corrupt"
        t1 = time.perf_counter_ns()
        if ref is None:
            out.write("%s %s - - %d\n" % (status, url, t1 - t0))
        else:
            out.write("%s %s %s %s %d\n" % (status, ref.canonical_url, ref.timestamp14, ref.digest, t1 - t0))


def read_queries(path):
    with open(path, encoding="utf-8") as f:
        return [tuple(line.split()) for line in f if line.strip()]


def cmd_loop(index_path, archive_dir, queries_path, results_path, tracer=None):
    from subcollect.store import Archive, ArchiveIndex

    queries = read_queries(queries_path)
    index = ArchiveIndex.load(index_path)
    archive = Archive(directory=archive_dir)
    with open(results_path, "w", encoding="utf-8") as out:
        query_loop(index, archive, queries, out, tracer)


def _rss_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def run_main(main, argv, out_prefix):
    """Call the CLI entry point in-process; stdout and stderr go to files."""
    out, err = io.BytesIO(), io.BytesIO()
    wrappers = [io.TextIOWrapper(b, encoding="utf-8", write_through=True) for b in (out, err)]
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrappers
    t0 = time.perf_counter()
    try:
        code = main(argv)
    finally:
        wall = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    for suffix, wrapper in zip((".stdout", ".stderr"), wrappers):
        wrapper.flush()
        with open(out_prefix + suffix, "wb") as f:
            f.write(wrapper.detach().getvalue())
    return {"code": code, "wall": wall}


def cmd_trace(plan_path):
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    from subcollect import cli
    from subcollect.store import ArchiveIndex

    # Index memory first, in a fresh heap: resident bytes per capture.
    gc.collect()
    before = _rss_bytes()
    index = ArchiveIndex.load(plan["index"])
    gc.collect()
    rss_per_capture = (_rss_bytes() - before) / len(index)
    del index
    gc.collect()

    def run_pass(argv_key, out_dir, tracer=None):
        walls = {}
        for cmd in plan["commands"]:
            if tracer is not None:
                tracer.new_trace()
            walls[cmd["key"]] = run_main(cli.main, cmd[argv_key], os.path.join(out_dir, cmd["key"]))
        return walls

    # Untraced, traced, untraced again: the first pass warms up imports and
    # caches, and the overhead is the traced pass against the last one.
    summary = {"rss_bytes_per_capture": rss_per_capture}
    run_pass("argv", plan["untraced_dir"])
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    summary["traced"] = run_pass("traced_argv", plan["traced_dir"], tracer)
    loop = plan["loop"]
    tracer.new_trace()
    cmd_loop(loop["index"], loop["archive_dir"], loop["queries"], loop["results"], tracer)
    tracing.uninstall(restore)
    summary["untraced"] = run_pass("argv", plan["untraced_dir"])

    summary["layers"] = tracing.aggregate(tracer)
    summary["scan_candidates"] = tracing.children_count(
        tracer, "extraction.index_prefilter", "extraction.scan_extract", "kept"
    )
    summary["spans"] = len(tracer)
    tracer.write(plan["spans"])
    with open(plan["summary"], "w", encoding="utf-8") as f:
        json.dump(summary, f)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "loop":
        cmd_loop(*rest)
    elif mode == "trace":
        cmd_trace(*rest)
    else:
        sys.exit("unknown mode %r" % mode)

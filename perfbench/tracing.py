"""Span tracing around the program's public functions.

``install(tracer)`` replaces each traced function with a wrapper that
records a span (name, trace id, parent span, start, end, counts), in
every module and class that binds it, so calls through a
``from ... import`` name are traced as well. Spans stay in memory, in
flat arrays, until the run writes them out; ``aggregate`` turns them
into per-name totals with self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

MODULES = (
    "warc", "store", "urls", "spec", "htmldoc",
    "relevance", "extraction", "evaluation", "stats", "cli",
)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.trace = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}  # span id -> {quantity: number}
        self.trace_id = 0
        self._stack = []

    def new_trace(self):
        """Later spans belong to the next command or query."""
        self.trace_id += 1

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.trace.append(self.trace_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid, counts=None):
        self.end[sid] = self.clock()
        self._stack.pop()
        if counts:
            self.counts[sid] = counts

    def __len__(self):
        return len(self.name)

    def write(self, path):
        """One JSON line per span: [trace, id, parent, name, start, end, counts]."""
        with open(path, "w", encoding="utf-8") as f:
            for sid in range(len(self.name)):
                row = [
                    self.trace[sid], sid, self.parent[sid], self.names[self.name[sid]],
                    self.start[sid], self.end[sid], self.counts.get(sid, {}),
                ]
                f.write(json.dumps(row) + "\n")


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    count once.
    """
    children = {}
    for sid, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    out = []
    for sid in range(len(starts)):
        lo, hi = starts[sid], ends[sid]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(sid, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def aggregate(tracer):
    """{span name: {"calls", "s", "self_s", <count sums>}}.

    Spans that ended in an exception add 1 to "raised.<ExceptionName>".
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out = {}
    for sid, nid in enumerate(tracer.name):
        agg = out.get(tracer.names[nid])
        if agg is None:
            agg = out[tracer.names[nid]] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        agg["calls"] += 1
        agg["s"] += tracer.end[sid] - tracer.start[sid]
        agg["self_s"] += selfs[sid]
        for key, value in tracer.counts.get(sid, {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def children_count(tracer, child, parent, key):
    """Sum of ``key`` over spans named ``child`` directly under ``parent``."""
    total = 0
    for sid, nid in enumerate(tracer.name):
        p = tracer.parent[sid]
        if tracer.names[nid] == child and p >= 0 and tracer.names[tracer.name[p]] == parent:
            total += tracer.counts.get(sid, {}).get(key, 0)
    return total


# -- wrappers --------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def wrap(tracer, name, fn, counts=None):
    """Span per call. ``counts(args, kwargs)`` runs before the call and
    returns a function from the result to a dict of counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        after = counts(args, kwargs) if counts else None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(sid, {"raised." + type(exc).__name__: 1})
            raise
        tracer.close(sid, after(result) if after else None)
        return result

    return wrapper


def wrap_generator(tracer, name, fn, counts):
    """Span per resumption of a generator, so its time excludes the
    consumer's work between items."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        try:
            while True:
                sid = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(sid)
                    return
                except BaseException as exc:
                    tracer.close(sid, {"raised." + type(exc).__name__: 1})
                    raise
                tracer.close(sid, counts(item))
                yield item
        finally:
            it.close()

    return wrapper


def _ingest_counts(args, kwargs):
    stats = args[2] if len(args) > 2 else kwargs.get("stats")
    before = stats.skipped if stats is not None else 0

    def after(entries):
        skipped = stats.skipped - before if stats is not None else 0
        return {"responses": len(entries), "skipped": skipped}

    return after


def _read_counts(args, kwargs):
    n = _arg(args, kwargs, 2, "length")
    return lambda record: {"bytes": n}


def _fetch_counts(args, kwargs):
    n = _arg(args, kwargs, 1, "ref").length
    return lambda snapshot: {"bytes": n}


def _parse_counts(args, kwargs):
    n = len(_arg(args, kwargs, 0, "body"))
    return lambda page: {"bytes": n, "outlinks": len(page.outlinks), "tokens": len(page.tokens)}


def _closure_counts(args, kwargs):
    archive = _arg(args, kwargs, 1, "archive")
    before = archive.counter.fetches
    return lambda result: {"added": result[1], "fetches": archive.counter.fetches - before}


def _export_counts(args, kwargs):
    path = _arg(args, kwargs, 2, "path")
    return lambda result: {"bytes": os.path.getsize(path)}


def _sized(i, name, key="in"):
    def counts(args, kwargs):
        n = len(_arg(args, kwargs, i, name))
        return lambda result: {key: n, "out": len(result)}

    return counts


def _after(fn):
    """Counts that depend on the result only."""
    return lambda args, kwargs: fn


# (module, attribute path, counts or None); cli commands are listed below.
TARGETS = [
    ("warc", "read_record", _read_counts),
    ("store", "ingest_warc", _ingest_counts),
    ("store", "ArchiveIndex.save", None),
    ("store", "ArchiveIndex.load", _after(lambda idx: {"entries": len(idx)})),
    ("store", "Archive.fetch", _fetch_counts),
    ("store", "ArchiveIndex.lookup_nearest", None),
    ("store", "ArchiveIndex.entries_for", None),
    ("urls", "canonicalize_url", None),
    ("urls", "host_of", None),
    ("spec", "in_scope_metadata", _after(lambda ok: {"passed": int(bool(ok))})),
    ("htmldoc", "parse_html", _parse_counts),
    ("relevance", "is_relevant", _after(lambda v: {"relevant": int(v.relevant)})),
    ("extraction", "index_prefilter", _after(lambda kept: {"kept": len(kept)})),
    ("extraction", "scan_extract", _after(lambda kept: {"kept": len(kept)})),
    ("extraction", "select_versions", _sized(0, "candidates")),
    ("extraction", "connect_closure", _closure_counts),
    ("extraction", "enforce_size", _sized(0, "members")),
    ("extraction", "export_warc", _export_counts),
    ("extraction", "SubCollection.write_manifest", None),
    ("evaluation", "evaluate", _after(lambda rep: {"fetches": rep.fetches})),
    ("evaluation", "link_completeness", None),
    ("evaluation", "representativeness", None),
    ("stats", "build_report", None),
    ("stats", "analyze_sample", _sized(0, "sample", key="sampled")),
    ("stats", "link_in_archive_rate", None),
]
CLI_COMMANDS = ("index", "extract", "evaluate", "stats", "get")
GENERATORS = [
    ("warc", "iter_records", lambda item: {"records": 1, "bytes": item[1]}),
]


def install(tracer):
    """Wrap every target wherever the program binds it.

    Returns what ``uninstall`` needs to put the originals back.
    """
    pkg = "subcollect"
    mods = {m: importlib.import_module("%s.%s" % (pkg, m)) for m in MODULES}
    plan = [(m, attr, "%s.%s" % (m, attr), counts, False) for m, attr, counts in TARGETS]
    plan += [("cli", "cmd_" + c, "cli." + c, None, False) for c in CLI_COMMANDS]
    plan += [(m, attr, "%s.%s" % (m, attr), counts, True) for m, attr, counts in GENERATORS]

    originals = {}
    restore = []
    for mod_name, attr, span_name, counts, is_gen in plan:
        owner = mods[mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if is_gen:
            wrapped = wrap_generator(tracer, span_name, fn, counts)
        else:
            wrapped = wrap(tracer, span_name, fn, counts)
        if isinstance(owner, type):
            restore.append((owner, leaf, raw))
            setattr(owner, leaf, classmethod(wrapped) if is_classmethod else wrapped)
        else:
            originals[id(fn)] = (fn, wrapped)

    # Module-level functions: rebind in every program module that holds them.
    program = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
    for module in program:
        for key, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((module, key, value))
                setattr(module, key, hit[1])
    return restore


def uninstall(restore):
    for owner, attr, original in restore:
        setattr(owner, attr, original)

"""Sub-collection extraction pipeline.

Stages: index prefilter (metadata scopes, zero fetches) -> content scan
(one fetch per candidate) -> version selection (timeline keeps all,
snapshot picks one capture per URL inside the narrowest shared time
window) -> link closure (connected mode) -> size enforcement
(stratified downsample). Every stage is deterministic given the same
archive, spec, and seed.

The scan and the closure read captures through one memo per run
(:func:`_read`): each capture is fetched, parsed and judged at most
once, and the memo keeps only its outlinks and relevance verdict, so the
memory of a scan grows with the links of the pages it reads, not with
their text. A capture that cannot be read is stored as None and counted
once in ``errors``; it never becomes a member, so every member of an
extracted collection can be read. An HTML page that
:func:`relevance.could_be_relevant` rules out from its decoded text is
not relevant, and is neither tokenized nor judged; its links are parsed
only for a closure of policy "all_links", which adds pages unjudged, and
else the memo holds ``Page(None, False)``.
"""

from __future__ import annotations

import functools
import heapq
import random
from bisect import bisect_left, bisect_right
from collections import namedtuple

# perfbench's tracer wraps parse_html and is_relevant in this module too.
from .htmldoc import PageAnalysis, fetch_capture, page_text, parse_html
from .relevance import could_be_relevant, is_relevant
from .spec import in_scope_metadata
from .store import atomic_open, read_rows, timestamp14_to_epoch
from .urls import host_of

__all__ = [
    "Member",
    "Page",
    "SubCollection",
    "index_prefilter",
    "scan_extract",
    "min_window_select",
    "select_versions",
    "connect_closure",
    "enforce_size",
    "extract",
    "export_warc",
]

MANIFEST_HEADER = "SUBCOLLECT-MANIFEST 1"


# entry is an IndexEntry; origin is "scan" or "closure".
Member = namedtuple("Member", "entry origin")


def _member_order(m):
    """Manifest order: canonical URL, then capture time."""
    return (m.entry.canonical_url, m.entry.timestamp14)


class SubCollection:
    __slots__ = ("members", "spec_digest", "counters")

    def __init__(self, members=None, spec_digest="", counters=None):
        self.members = [] if members is None else members
        self.spec_digest = spec_digest
        self.counters = {} if counters is None else counters

    def entries(self):
        return [m.entry for m in self.members]

    def member_urls(self):
        return {m.entry.canonical_url for m in self.members}

    def sort(self):
        self.members.sort(key=_member_order)

    def write_manifest(self, f):
        """Write the manifest to the text file ``f``."""
        lines = [MANIFEST_HEADER, "spec-digest %s" % self.spec_digest]
        for m in self.members:
            e = m.entry
            lines.append(
                "%s %s %s %s" % (e.canonical_url, e.timestamp14, e.digest, m.origin)
            )
        f.write("\n".join(lines) + "\n")

    @classmethod
    def read_manifest(cls, path, index):
        """Load a manifest; members resolve to their entries in ``index``."""
        coll = cls()

        def spec_digest(line):
            if not line.startswith("spec-digest "):
                raise ValueError("missing spec-digest line")
            coll.spec_digest = line.split(" ", 1)[1]

        def member(url, ts, digest, origin):
            for entry in index.entries_for(url):
                if entry.timestamp14 == ts and entry.digest == digest:
                    return Member(entry=entry, origin=origin)
            raise ValueError("manifest member not in index: %s %s" % (url, ts))

        coll.members = read_rows(path, MANIFEST_HEADER, member, first=spec_digest)
        return coll


def index_prefilter(index, spec):
    """Entries passing the metadata scopes, in index order, decided once
    per URL; performs zero fetches and is lossless for URL/domain/time
    scopes."""
    return [e for captures in index.by_url.values() for e in in_scope_metadata(spec, captures)]


# outlinks is a list of LinkRecord, or None where no closure reads it; relevant is the verdict.
Page = namedtuple("Page", "outlinks relevant")


def _read(archive, entry, spec, pages):
    """The Page of the capture ``entry``, or None when it cannot be read.

    ``pages`` is the memo of one run, keyed by the whole entry, since the
    index keeps apart two captures of one URL in the same second. The
    first call fetches, parses and judges the capture, stores either
    outcome and drops the analysis with its tokens, so each capture is
    fetched and judged at most once.
    """
    if entry not in pages:
        snapshot = fetch_capture(archive, entry)
        if snapshot is None:
            pages[entry] = None
        elif not snapshot.ref.is_html:
            pages[entry] = Page([], is_relevant(PageAnalysis(), spec).relevant)
        else:
            text, url = page_text(snapshot), snapshot.ref.canonical_url
            if could_be_relevant(text, spec):
                analysis = parse_html(text, url)
                pages[entry] = Page(analysis.outlinks, is_relevant(analysis, spec).relevant)
            else:
                unjudged = spec.link_mode == "connected" and spec.closure_policy == "all_links"
                links = parse_html(text, url, tokens=False).outlinks if unjudged else None
                pages[entry] = Page(links, False)
    return pages[entry]


def scan_extract(archive, candidates, spec, pages):
    """Fetch every candidate once and apply the content scopes.

    ``candidates`` is the result of :func:`index_prefilter`. Returns the
    kept entries (candidate order); each candidate is read through the
    run's ``pages`` memo, and one that cannot be read is not kept.
    """
    kept = []
    for entry in candidates:
        page = _read(archive, entry, spec, pages)
        if page is not None and page.relevant:
            kept.append(entry)
    return kept


def min_window_select(candidates):
    """One capture per URL minimizing the overall time window.

    ``candidates`` maps canonical URL -> ascending timestamp14 list.
    Returns {url: chosen timestamp14}. The window is the narrowest
    closed interval containing at least one capture of every URL;
    width ties resolve to the earliest-starting window. k-way merge
    with a min-heap: O(N log k) for N captures over k URLs.
    """
    if not candidates:
        return {}
    urls = sorted(candidates)
    lists = []
    for url in urls:
        times = candidates[url]
        if not times:
            raise ValueError("empty capture list for %s" % url)
        lists.append([(timestamp14_to_epoch(t), t) for t in times])

    heap = [(lists[i][0][0], i, 0) for i in range(len(urls))]
    heapq.heapify(heap)
    cur_max = max(item[0] for item in heap)
    best_width = best_start = best_end = None

    while True:
        low, li, ei = heapq.heappop(heap)
        width = cur_max - low
        if best_width is None or width < best_width or (
            width == best_width and low < best_start
        ):
            best_width, best_start, best_end = width, low, cur_max
        if ei + 1 >= len(lists[li]):
            break  # this list is exhausted; no further full window exists
        nxt = lists[li][ei + 1][0]
        heapq.heappush(heap, (nxt, li, ei + 1))
        cur_max = max(cur_max, nxt)

    chosen = {}
    for i, url in enumerate(urls):
        # Earliest capture inside the winning window.
        for epoch, ts in lists[i]:
            if best_start <= epoch <= best_end:
                chosen[url] = ts
                break
    return chosen


def select_versions(candidates, version_mode):
    """Timeline keeps every candidate; snapshot keeps one capture per URL,
    chosen jointly by :func:`min_window_select`."""
    if version_mode == "timeline":
        return list(candidates)
    by_url = {}
    for e in candidates:
        by_url.setdefault(e.canonical_url, []).append(e)
    times = {
        url: sorted({e.timestamp14 for e in ents}) for url, ents in by_url.items()
    }
    chosen_ts = min_window_select(times)
    selected = []
    for url, ents in sorted(by_url.items()):
        ts = chosen_ts[url]
        matches = sorted(
            (e for e in ents if e.timestamp14 == ts), key=lambda e: e.digest
        )
        selected.append(matches[0])
    return selected


def connect_closure(members, archive, index, spec, pages):
    """Grow ``members`` until every in-archive link target is represented.

    For each member s and each outlink of s that has at least one
    capture in the index but none in the collection, the capture
    temporally nearest to s's crawl time is added (ties to the earlier
    capture). Link targets are canonical, so a target is looked up in the
    index's per-URL groups as it is. Runs to fixpoint, or stops after
    spec.closure_max_depth rounds. A candidate capture is read through the
    run's ``pages`` memo before it is added, and skipped when it cannot be
    read; with policy "relevant_links" it is also skipped unless it passes
    the content scopes.

    Returns (members, closure_added_count). Termination is guaranteed:
    membership grows monotonically inside a finite index.
    """
    members = list(members)
    present = {m.entry.canonical_url for m in members}
    groups = index.by_url
    judge = spec.closure_policy == "relevant_links"
    added = 0
    depth = 0
    frontier = sorted(members, key=_member_order)

    while frontier:
        if spec.closure_max_depth is not None and depth >= spec.closure_max_depth:
            break
        depth += 1
        new_members = []
        for m in frontier:
            for link in _read(archive, m.entry, spec, pages).outlinks:
                if link.target in present or link.target not in groups:
                    continue  # represented already, or not available in the archive
                capture = index.lookup_nearest(link.target, m.entry.timestamp14)
                target = _read(archive, capture, spec, pages)
                if target is None or (judge and not target.relevant):
                    continue
                present.add(link.target)
                new_members.append(Member(entry=capture, origin="closure"))
                added += 1
        members.extend(new_members)
        frontier = sorted(new_members, key=_member_order)
    return members, added


def _largest_remainder_quotas(weights, total):
    """Integer quotas summing to ``total``, proportional to ``weights``.

    ``weights`` is an ordered list of (key, weight); returns {key: quota}.
    """
    weight_sum = float(sum(w for _, w in weights))
    raw = [(key, total * w / weight_sum) for key, w in weights]
    quotas = {key: int(r) for key, r in raw}
    shortfall = total - sum(quotas.values())
    by_remainder = sorted(raw, key=lambda kr: (-(kr[1] - int(kr[1])), kr[0]))
    for key, _ in by_remainder[:shortfall]:
        quotas[key] += 1
    return quotas


def enforce_size(members, size_scope, index, seed):
    """Seeded stratified downsample to exactly ``size_scope`` members.

    Strata are (host, crawl year); quotas follow the archive-wide
    stratum distribution with largest-remainder rounding, and stratum
    shortfalls are refilled from the strata with the most members left.
    Scan-origin members are preferred over closure additions inside a
    stratum, so downsizing removes closure leaves first.
    """
    if size_scope is None or size_scope >= len(members):
        return list(members)

    host = functools.cache(host_of)  # once per URL, not per capture

    def stratum(entry):
        return (host(entry.canonical_url), entry.timestamp14[:4])

    by_stratum = {}
    for m in sorted(members, key=_member_order):
        by_stratum.setdefault(stratum(m.entry), []).append(m)

    archive_counts = {}
    for e in index:
        key = stratum(e)
        archive_counts[key] = archive_counts.get(key, 0) + 1

    weights = [(key, archive_counts.get(key, 0)) for key in sorted(by_stratum)]
    if all(w == 0 for _, w in weights):
        weights = [(key, len(by_stratum[key])) for key in sorted(by_stratum)]
    quotas = _largest_remainder_quotas(weights, size_scope)

    rng = random.Random(seed)
    picked = {}
    for key in sorted(by_stratum):
        pool = by_stratum[key]
        want = min(quotas.get(key, 0), len(pool))
        scan_pool = [m for m in pool if m.origin == "scan"]
        closure_pool = [m for m in pool if m.origin == "closure"]
        take = rng.sample(scan_pool, min(want, len(scan_pool)))
        if len(take) < want:
            take += rng.sample(closure_pool, want - len(take))
        picked[key] = take

    # Refill quota lost to small strata from the largest remaining pools.
    # ``left`` keeps each stratum's members not yet picked, in the order of
    # ``by_stratum``, where the members equal to a pick form one run.
    left = {}
    for key, pool in by_stratum.items():
        taken = set(picked[key])
        left[key] = [m for m in pool if m not in taken]
    total = sum(len(v) for v in picked.values())
    while total < size_scope:
        key = min(
            by_stratum,
            key=lambda key: (-(len(by_stratum[key]) - len(picked[key])), key),
        )
        pool = left[key]
        if not pool:
            break
        pick = rng.choice(pool)
        picked[key].append(pick)
        order = _member_order(pick)
        lo = bisect_left(pool, order, key=_member_order)
        hi = bisect_right(pool, order, lo=lo, key=_member_order)
        pool[lo:hi] = [m for m in pool[lo:hi] if m != pick]
        total += 1

    out = [m for key in sorted(picked) for m in picked[key]]
    out.sort(key=_member_order)
    return out


def extract(archive, index, spec):
    """Run the full pipeline and return the resulting SubCollection."""
    fetches_before = archive.counter.fetches
    pages = {}

    candidates = index_prefilter(index, spec)
    kept = scan_extract(archive, candidates, spec, pages)
    selected = select_versions(kept, spec.version_mode)
    members = [Member(entry=e, origin="scan") for e in selected]

    closure_added = 0
    if spec.link_mode == "connected":
        members, closure_added = connect_closure(members, archive, index, spec, pages)

    members = enforce_size(members, spec.size_scope, index, spec.seed)

    coll = SubCollection(members=members, spec_digest=spec.digest())
    coll.sort()
    coll.counters = {
        "candidates_scanned": len(candidates),
        "fetches": archive.counter.fetches - fetches_before,
        "closure_added": closure_added,
        "errors": sum(1 for p in pages.values() if p is None),
        "members": len(coll.members),
    }
    return coll


def export_warc(collection, archive, path):
    """Copy the members' original WARC records verbatim, manifest order."""
    with atomic_open(path, "wb") as f:
        for m in collection.members:
            f.write(archive.raw_record(m.entry))

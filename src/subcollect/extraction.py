"""Sub-collection extraction pipeline.

Stages: index prefilter (metadata scopes, zero fetches) -> content scan
(one fetch per candidate) -> version selection (timeline keeps all,
snapshot picks one capture per URL inside the narrowest shared time
window) -> link closure (connected mode) -> size enforcement
(stratified downsample). Every stage is deterministic given the same
archive, spec, and seed.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .htmldoc import PageAnalysis, parse_html
from .relevance import is_relevant
from .spec import in_scope_metadata
from .store import CorruptSnapshotError, SnapshotNotFound, timestamp14_to_epoch
from .urls import host_of

__all__ = [
    "Member",
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


@dataclass(frozen=True)
class Member:
    entry: object  # IndexEntry
    origin: str  # "scan" | "closure"


def _member_order(m):
    """Manifest order: canonical URL, then capture time."""
    return (m.entry.canonical_url, m.entry.timestamp14)


@dataclass
class SubCollection:
    members: list = field(default_factory=list)
    spec_digest: str = ""
    counters: dict = field(default_factory=dict)
    link_mode: str = "disconnected"
    version_mode: str = "timeline"

    def entries(self):
        return [m.entry for m in self.members]

    def member_urls(self):
        return {m.entry.canonical_url for m in self.members}

    def sort(self):
        self.members.sort(key=_member_order)

    def write_manifest(self, path):
        lines = [MANIFEST_HEADER, "spec-digest %s" % self.spec_digest]
        for m in self.members:
            e = m.entry
            lines.append(
                "%s %s %s %s" % (e.canonical_url, e.timestamp14, e.digest, m.origin)
            )
        # Write atomically enough for our purposes: full content in one go,
        # so a failed earlier stage never leaves a partial manifest.
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def read_manifest(cls, path, index=None):
        """Load a manifest; with an index, members resolve to full entries."""
        coll = cls()
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            if header != MANIFEST_HEADER:
                raise ValueError("not a %s file: %s" % (MANIFEST_HEADER, path))
            digest_line = f.readline().rstrip("\n")
            if not digest_line.startswith("spec-digest "):
                raise ValueError("%s: missing spec-digest line" % path)
            coll.spec_digest = digest_line.split(" ", 1)[1]
            for lineno, line in enumerate(f, start=3):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                if len(parts) != 4:
                    raise ValueError("%s:%d: bad manifest line" % (path, lineno))
                url, ts, digest, origin = parts
                entry = None
                if index is not None:
                    for cand in index.entries_for(url):
                        if cand.timestamp14 == ts and cand.digest == digest:
                            entry = cand
                            break
                    if entry is None:
                        raise SnapshotNotFound("%s %s" % (url, ts))
                else:
                    from .store import IndexEntry

                    entry = IndexEntry(
                        canonical_url=url, timestamp14=ts, digest=digest, original_url=url
                    )
                coll.members.append(Member(entry=entry, origin=origin))
        return coll


def index_prefilter(index, spec):
    """Entries passing the metadata scopes; performs zero fetches and is
    lossless for URL/domain/time scopes."""
    return [e for e in index if in_scope_metadata(spec, e)]


def _analyze(snapshot):
    """Page analysis for a fetched snapshot; non-HTML yields an empty one."""
    if not snapshot.ref.is_html:
        return PageAnalysis()
    charset = None
    for name, value in snapshot.http_headers:
        if name.lower() == "content-type" and "charset=" in value.lower():
            charset = value.lower().split("charset=")[-1].split(";")[0].strip()
            break
    return parse_html(snapshot.body, snapshot.ref.canonical_url, charset_hint=charset)


def scan_extract(
    archive, index, spec, workers=1, analyses=None, errors=None, candidates=None
):
    """Fetch every prefiltered candidate once and apply the content scopes.

    Returns the kept entries (candidate order). Corrupt candidates are
    skipped and tallied in ``errors``; extraction continues. With an
    ``analyses`` dict the per-page analyses are cached for later stages.
    ``candidates`` is the result of ``index_prefilter(index, spec)`` when
    the caller already has it.
    """
    if candidates is None:
        candidates = index_prefilter(index, spec)

    def evaluate(entry):
        try:
            snap = archive.fetch(entry)
        except (CorruptSnapshotError, OSError) as exc:
            return entry, None, exc
        analysis = _analyze(snap)
        return entry, analysis, None

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, candidates))
    else:
        results = [evaluate(e) for e in candidates]

    kept = []
    for entry, analysis, exc in results:
        if exc is not None:
            if errors is not None:
                errors.append((entry, str(exc)))
            continue
        if analyses is not None:
            analyses[(entry.canonical_url, entry.timestamp14)] = analysis
        if is_relevant(analysis, spec).relevant:
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


def connect_closure(members, archive, index, spec, analyses=None, errors=None):
    """Grow ``members`` until every in-archive link target is represented.

    For each member s and each outlink of s that has at least one
    capture in the index but none in the collection, the capture
    temporally nearest to s's crawl time is added (ties to the earlier
    capture). Runs to fixpoint, or stops after spec.closure_max_depth
    rounds. With policy "relevant_links" a candidate capture is only
    added if it passes the content scopes.

    Returns (members, closure_added_count). Termination is guaranteed:
    membership grows monotonically inside a finite index.
    """
    if analyses is None:
        analyses = {}
    members = list(members)
    present = {m.entry.canonical_url for m in members}
    added = 0
    depth = 0
    frontier = sorted(members, key=_member_order)

    def analysis_of(entry):
        key = (entry.canonical_url, entry.timestamp14)
        if key not in analyses:
            try:
                analyses[key] = _analyze(archive.fetch(entry))
            except (CorruptSnapshotError, OSError) as exc:
                if errors is not None:
                    errors.append((entry, str(exc)))
                analyses[key] = PageAnalysis()
        return analyses[key]

    while frontier:
        if spec.closure_max_depth is not None and depth >= spec.closure_max_depth:
            break
        depth += 1
        new_members = []
        for m in frontier:
            analysis = analysis_of(m.entry)
            for link in analysis.outlinks:
                if link.target in present:
                    continue
                try:
                    capture = index.lookup_nearest(link.target, m.entry.timestamp14)
                except SnapshotNotFound:
                    continue  # not available in the archive
                if spec.closure_policy == "relevant_links" and spec.has_content_scopes():
                    if not is_relevant(analysis_of(capture), spec).relevant:
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

    def stratum(entry):
        return (host_of(entry.canonical_url), entry.timestamp14[:4])

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


def extract(archive, index, spec, workers=1):
    """Run the full pipeline and return the resulting SubCollection."""
    fetches_before = archive.counter.fetches
    analyses = {}
    errors = []

    candidates = index_prefilter(index, spec)
    kept = scan_extract(
        archive,
        index,
        spec,
        workers=workers,
        analyses=analyses,
        errors=errors,
        candidates=candidates,
    )
    selected = select_versions(kept, spec.version_mode)
    members = [Member(entry=e, origin="scan") for e in selected]

    closure_added = 0
    if spec.link_mode == "connected":
        members, closure_added = connect_closure(
            members, archive, index, spec, analyses=analyses, errors=errors
        )

    members = enforce_size(members, spec.size_scope, index, spec.seed)

    coll = SubCollection(
        members=members,
        spec_digest=spec.digest(),
        link_mode=spec.link_mode,
        version_mode=spec.version_mode,
    )
    coll.sort()
    coll.counters = {
        "candidates_scanned": len(candidates),
        "fetches": archive.counter.fetches - fetches_before,
        "closure_added": closure_added,
        "errors": len(errors),
        "members": len(coll.members),
    }
    return coll


def export_warc(collection, archive, path):
    """Copy the members' original WARC records verbatim, manifest order."""
    with open(path, "wb") as f:
        for m in collection.members:
            f.write(archive.raw_record(m.entry))

"""Quality metrics for extracted sub-collections.

Precision/recall need a labeled truth set; link completeness, temporal
width, facet entropy and representativeness are computed directly from
the collection, the index, and the archive. Metrics that are undefined
on a given input (empty result, empty truth, no outlinks) report None
rather than a misleading 0 or 1.

``evaluate`` names each metric of the report once, in output order;
``EvaluationReport`` only formats that list.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from .htmldoc import analyze
from .spec import in_scope_metadata
from .store import read_rows, timestamp14_to_epoch
from .urls import canonicalize_url, host_of

__all__ = [
    "load_truth",
    "EvaluationReport",
    "precision",
    "recall",
    "link_completeness",
    "temporal_width",
    "representativeness",
    "facet_entropy",
    "evaluate",
]

TRUTH_HEADER = "SUBCOLLECT-TRUTH 1"
FACETS = ("host", "mime", "year")  # in output order


def load_truth(path):
    """The labeled truth set in ``path``: a frozenset of (url, timestamp14)
    pairs, from a ``SUBCOLLECT-TRUTH 1`` header line and one
    ``url timestamp14`` pair per line; blank lines are skipped. URLs are
    canonicalized as the index's are; a line with an invalid URL or
    timestamp raises ValueError naming ``path:line``."""

    def row(url, ts):
        timestamp14_to_epoch(ts)
        return canonicalize_url(url), ts

    return frozenset(read_rows(path, TRUTH_HEADER, row))


def _member_refs(collection):
    return {(m.entry.canonical_url, m.entry.timestamp14) for m in collection.members}


def precision(collection, truth):
    """|retrieved relevant| / |retrieved|; None on an empty result."""
    refs = _member_refs(collection)
    if not refs:
        return None
    hits = sum(1 for r in refs if r in truth)
    return hits / len(refs)


def recall(collection, truth):
    """|retrieved relevant| / |relevant|; None on an empty truth set."""
    if len(truth) == 0:
        return None
    refs = _member_refs(collection)
    hits = sum(1 for r in truth if r in refs)
    return hits / len(truth)


def stratified_recall(collection, truth):
    """Recall split by (host, year) stratum of the truth references.

    Relevance estimators can behave differently on the extracted subset
    than on the whole archive, so the global recall alone can mislead.
    """
    refs = _member_refs(collection)
    per = {}
    for url, ts in truth:
        key = (host_of(url), ts[:4])
        hit, total = per.get(key, (0, 0))
        per[key] = (hit + (1 if (url, ts) in refs else 0), total + 1)
    return {key: hit / total for key, (hit, total) in per.items()}


def default_link_oracle(index, spec):
    """Default notion of a \"relevant outlink\": the target has at least
    one index entry, inside the spec's metadata scopes when given.

    The oracle takes a canonical URL, as link targets are, and looks it
    up in the index's per-URL groups as it is. The verdict depends on the
    URL only, so it is computed once per URL.
    """
    groups = index.by_url

    @functools.cache
    def oracle(target_url):
        captures = groups.get(target_url)
        if captures is None:
            return False
        return spec is None or bool(in_scope_metadata(spec, captures))

    return oracle


def link_completeness(collection, archive, index, spec=None):
    """Per-member fraction of relevant outlink targets present in the
    collection; relevant as ``default_link_oracle(index, spec)`` judges.

    Returns (lc_sum, lc_mean): the plain sum over members and the mean
    over members that have at least one relevant outlink (None when no
    member has any). Only links are read, so members are parsed
    without tokens.

    Unlike ``extract`` and ``stats``, which count or drop a capture they
    cannot read, a member that cannot be read raises: the score of a
    collection that was not read in full would mislead, so ``evaluate``
    ends with exit code 2.
    """
    oracle = default_link_oracle(index, spec)
    member_urls = collection.member_urls()
    lc_sum = 0.0
    contributing = 0
    for m in collection.members:
        analysis = analyze(archive.fetch(m.entry), tokens=False)
        relevant = [t for t in dict.fromkeys(analysis.outlink_targets()) if oracle(t)]
        if not relevant:
            continue
        retrieved = sum(1 for t in relevant if t in member_urls)
        lc_sum += retrieved / len(relevant)
        contributing += 1
    lc_mean = lc_sum / contributing if contributing else None
    return lc_sum, lc_mean


def temporal_width(collection):
    """Crawl-time span of the collection in seconds (0 for one member)."""
    if not collection.members:
        return None
    epochs = [timestamp14_to_epoch(m.entry.timestamp14) for m in collection.members]
    return max(epochs) - min(epochs)


def _facet_counts(entries, facet):
    """A Counter of the facet's values over ``entries``, first seen first."""
    if facet == "host":
        host = functools.cache(host_of)  # once per URL, not per capture
        return Counter(host(e.canonical_url) for e in entries)
    if facet == "year":
        return Counter(e.timestamp14[:4] for e in entries)
    if facet == "mime":
        return Counter(e.mime for e in entries)
    raise ValueError("unknown facet %r" % facet)


def _archive_facet_counts(index, facet):
    """``_facet_counts(index, facet)``, the host of each URL's captures
    taken once."""
    if facet != "host":
        return _facet_counts(index, facet)
    counts = Counter()
    for url, captures in index.by_url.items():
        counts[host_of(url)] += len(captures)
    return counts


def _distribution(counts):
    total = sum(counts.values())
    return {v: c / total for v, c in counts.items()}


def _entropy(probs):
    total = 0  # a left fold, as sum() of floats is compensated from Python 3.12 on
    for p in probs:
        if p > 0:
            total += p * math.log2(p)
    return -total


def _jsd(p, q):
    """Jensen-Shannon divergence, base 2, bounded [0, 1]."""
    # Sorted, so the float sums do not depend on the string hash seed.
    support = sorted(set(p) | set(q))
    m = {v: 0.5 * (p.get(v, 0.0) + q.get(v, 0.0)) for v in support}
    h_m = _entropy(m.values())
    h_p = _entropy(p.values())
    h_q = _entropy(q.values())
    return h_m - 0.5 * (h_p + h_q)


def representativeness(collection, index, facet):
    """1 - JSD(collection facet distribution, archive facet distribution).

    1.0 means the collection mirrors the archive on this facet; 0.0
    means disjoint support. None for an empty collection.
    """
    if not collection.members:
        return None
    p = _distribution(_facet_counts(collection.entries(), facet))
    q = _distribution(_archive_facet_counts(index, facet))
    return 1.0 - _jsd(p, q)


def facet_entropy(collection, facet):
    """Shannon entropy of the facet distribution, normalized to [0, 1]
    by log2 of the number of observed values; single value -> 0."""
    if not collection.members:
        return None
    dist = _distribution(_facet_counts(collection.entries(), facet))
    if len(dist) <= 1:
        return 0.0
    return _entropy(dist.values()) / math.log2(len(dist))


class EvaluationReport:
    """``items``: (metric, facet parts, value) of each defined metric, in
    output order, then ``("fetches", (), fetches)``."""

    __slots__ = ("items", "fetches")

    def __init__(self, items, fetches):
        self.items = [item for item in items if item[2] is not None] + [("fetches", (), fetches)]
        self.fetches = fetches

    def as_key_values(self):
        """Flat key=value lines: metric.facet..., where a stratum's recall
        is keyed recall.<host>.<year>."""
        lines = []
        for metric, facet, value in self.items:
            key = ".".join((metric.removesuffix("_stratum"),) + facet)
            lines.append(("%s=%.10g" if isinstance(value, float) else "%s=%s") % (key, value))
        return lines

    def as_csv_rows(self):
        """(metric, facet, value) rows, the facet parts joined by ':'."""
        return [(metric, ":".join(facet), value) for metric, facet, value in self.items]


def evaluate(collection, archive, index, truth=None, spec=None):
    """Compute the full metric suite over one collection; ``spec``, when
    given, scopes link completeness to its metadata scopes.

    ``fetches`` in the report is the archive counter delta of this run,
    i.e. the disk-access cost of the evaluation itself.
    """
    fetches_before = archive.counter.fetches
    items = []
    if truth is not None:
        items += [("precision", (), precision(collection, truth)),
                  ("recall", (), recall(collection, truth))]
    lc_sum, lc_mean = link_completeness(collection, archive, index, spec=spec)
    items += [("lc_sum", (), lc_sum), ("lc_mean", (), lc_mean),
              ("temporal_width_seconds", (), temporal_width(collection))]
    items += [("representativeness", (f,), representativeness(collection, index, f)) for f in FACETS]
    items += [("facet_entropy", (f,), facet_entropy(collection, f)) for f in FACETS]
    if truth is not None:
        items += [("recall_stratum", hy, v)
                  for hy, v in sorted(stratified_recall(collection, truth).items())]
    return EvaluationReport(items, archive.counter.fetches - fetches_before)

"""Quality metrics for extracted sub-collections.

Precision/recall need a labeled truth set; link completeness, temporal
width, facet entropy and representativeness are computed directly from
the collection, the index, and the archive. Metrics that are undefined
on a given input (empty result, empty truth, no outlinks) report None
rather than a misleading 0 or 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .spec import in_scope_metadata
from .store import timestamp14_to_epoch
from .urls import host_of

__all__ = [
    "TruthSet",
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
FACETS = ("host", "year", "mime")


@dataclass
class TruthSet:
    relevant_refs: set = field(default_factory=set)  # {(canonical_url, ts14)}

    def __len__(self):
        return len(self.relevant_refs)

    def __contains__(self, ref):
        return ref in self.relevant_refs

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(TRUTH_HEADER + "\n")
            for url, ts in sorted(self.relevant_refs):
                f.write("%s %s\n" % (url, ts))

    @classmethod
    def load(cls, path):
        refs = set()
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            if header != TRUTH_HEADER:
                raise ValueError("not a %s file: %s" % (TRUTH_HEADER, path))
            for lineno, line in enumerate(f, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                if len(parts) != 2:
                    raise ValueError("%s:%d: expected 'url timestamp14'" % (path, lineno))
                refs.add((parts[0], parts[1]))
        return cls(relevant_refs=refs)


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
    hits = sum(1 for r in truth.relevant_refs if r in refs)
    return hits / len(truth)


def stratified_recall(collection, truth):
    """Recall split by (host, year) stratum of the truth references.

    Relevance estimators can behave differently on the extracted subset
    than on the whole archive, so the global recall alone can mislead.
    """
    refs = _member_refs(collection)
    per = {}
    for url, ts in truth.relevant_refs:
        key = (host_of(url), ts[:4])
        hit, total = per.get(key, (0, 0))
        per[key] = (hit + (1 if (url, ts) in refs else 0), total + 1)
    return {key: hit / total for key, (hit, total) in per.items()}


def default_link_oracle(index, spec=None):
    """Default notion of a \"relevant outlink\": the target has at least
    one index entry, inside the spec's metadata scopes when given.

    The verdict depends on the URL only, so it is computed once per URL.
    """

    @functools.cache
    def oracle(target_url):
        try:
            entries = index.entries_for(target_url)
        except Exception:
            return False
        if spec is None:
            return bool(entries)
        return any(in_scope_metadata(spec, e) for e in entries)

    return oracle


def link_completeness(collection, archive, index, oracle=None, analyses=None):
    """Per-member fraction of relevant outlink targets present in the
    collection.

    Returns (lc_sum, lc_mean): the plain sum over members and the mean
    over members that have at least one relevant outlink (None when no
    member has any).
    """
    from .extraction import _analyze

    if oracle is None:
        oracle = default_link_oracle(index)
    member_urls = collection.member_urls()
    lc_sum = 0.0
    contributing = 0
    for m in collection.members:
        key = (m.entry.canonical_url, m.entry.timestamp14)
        if analyses is not None and key in analyses:
            analysis = analyses[key]
        else:
            analysis = _analyze(archive.fetch(m.entry))
            if analyses is not None:
                analyses[key] = analysis
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


def _facet_value(entry, facet):
    if facet == "host":
        return host_of(entry.canonical_url)
    if facet == "year":
        return entry.timestamp14[:4]
    if facet == "mime":
        return entry.mime
    raise ValueError("unknown facet %r" % facet)


def _distribution(entries, facet):
    counts = {}
    for e in entries:
        v = _facet_value(e, facet)
        counts[v] = counts.get(v, 0) + 1
    total = sum(counts.values())
    return {v: c / total for v, c in counts.items()}


def _entropy(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


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
    p = _distribution(collection.entries(), facet)
    q = _distribution(list(index), facet)
    return 1.0 - _jsd(p, q)


def facet_entropy(collection, facet):
    """Shannon entropy of the facet distribution, normalized to [0, 1]
    by log2 of the number of observed values; single value -> 0."""
    if not collection.members:
        return None
    dist = _distribution(collection.entries(), facet)
    if len(dist) <= 1:
        return 0.0
    return _entropy(dist.values()) / math.log2(len(dist))


@dataclass
class EvaluationReport:
    precision: float = None
    recall: float = None
    recall_by_stratum: dict = field(default_factory=dict)
    lc_sum: float = None
    lc_mean: float = None
    temporal_width_seconds: int = None
    representativeness: dict = field(default_factory=dict)
    facet_entropy: dict = field(default_factory=dict)
    fetches: int = 0

    def as_key_values(self):
        """Flat key=value lines; undefined metrics are omitted."""
        lines = []

        def put(key, value):
            if value is None:
                return
            if isinstance(value, float):
                lines.append("%s=%.10g" % (key, value))
            else:
                lines.append("%s=%s" % (key, value))

        put("precision", self.precision)
        put("recall", self.recall)
        put("lc_sum", self.lc_sum)
        put("lc_mean", self.lc_mean)
        put("temporal_width_seconds", self.temporal_width_seconds)
        for facet in sorted(self.representativeness):
            put("representativeness.%s" % facet, self.representativeness[facet])
        for facet in sorted(self.facet_entropy):
            put("facet_entropy.%s" % facet, self.facet_entropy[facet])
        for (h, y) in sorted(self.recall_by_stratum):
            put("recall.%s.%s" % (h, y), self.recall_by_stratum[(h, y)])
        put("fetches", self.fetches)
        return lines

    def as_csv_rows(self):
        """(metric, facet, value) rows mirroring as_key_values."""
        rows = []

        def put(metric, facet, value):
            if value is not None:
                rows.append((metric, facet, value))

        put("precision", "", self.precision)
        put("recall", "", self.recall)
        put("lc_sum", "", self.lc_sum)
        put("lc_mean", "", self.lc_mean)
        put("temporal_width_seconds", "", self.temporal_width_seconds)
        for facet in sorted(self.representativeness):
            put("representativeness", facet, self.representativeness[facet])
        for facet in sorted(self.facet_entropy):
            put("facet_entropy", facet, self.facet_entropy[facet])
        for (h, y) in sorted(self.recall_by_stratum):
            put("recall_stratum", "%s:%s" % (h, y), self.recall_by_stratum[(h, y)])
        put("fetches", "", self.fetches)
        return rows


def evaluate(collection, archive, index, truth=None, oracle=None, analyses=None):
    """Compute the full metric suite over one collection.

    ``fetches`` in the report is the archive counter delta of this run,
    i.e. the disk-access cost of the evaluation itself.
    """
    fetches_before = archive.counter.fetches
    report = EvaluationReport()
    if truth is not None:
        report.precision = precision(collection, truth)
        report.recall = recall(collection, truth)
        report.recall_by_stratum = stratified_recall(collection, truth)
    report.lc_sum, report.lc_mean = link_completeness(
        collection, archive, index, oracle=oracle, analyses=analyses
    )
    report.temporal_width_seconds = temporal_width(collection)
    for facet in FACETS:
        rep = representativeness(collection, index, facet)
        if rep is not None:
            report.representativeness[facet] = rep
        ent = facet_entropy(collection, facet)
        if ent is not None:
            report.facet_entropy[facet] = ent
    report.fetches = archive.counter.fetches - fetches_before
    return report

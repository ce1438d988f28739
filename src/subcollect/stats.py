"""Archive-wide measurements: snapshot volume, link-in-archive rates,
tag evolution, and outlink counts per crawl year.

Everything except the per-year snapshot histogram runs over a seeded
uniform sample of the archive's HTML captures, so the cost is bounded
on arbitrarily large archives and every run is reproducible from
(index, n, seed). Only links and tag counts are measured, so sampled
pages are parsed without tokens. ``_by_year`` groups the sample for
every per-year mean, and ``build_report`` puts each year's numbers into
one ``YearRow``.
"""

from __future__ import annotations

import csv
import random
from collections import Counter, namedtuple

from .htmldoc import TAG_CLASSES, analyze_capture

__all__ = [
    "StatsReport",
    "snapshots_per_year",
    "sample_refs",
    "analyze_sample",
    "link_in_archive_rate",
    "tag_stats",
    "outlink_stats",
    "build_report",
]


def snapshots_per_year(index):
    """Exact per-year capture counts straight from the index; no fetches."""
    counts = Counter(e.timestamp14[:4] for e in index)
    return {int(year): n for year, n in counts.items()}


def sample_refs(index, n, seed):
    """Uniform reservoir sample of min(n, #HTML entries) HTML captures.

    Single pass in index order (algorithm R); deterministic per seed.
    The returned refs keep index order so downstream work is stable.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    rng = random.Random(seed)
    reservoir = []
    seen = 0
    for e in index:
        if not e.is_html:
            continue
        seen += 1
        if len(reservoir) < n:
            reservoir.append(e)
        else:
            j = rng.randrange(seen)
            if j < n:
                reservoir[j] = e
    reservoir.sort(key=lambda e: (e.canonical_url, e.timestamp14))
    return reservoir


def analyze_sample(sample, archive):
    """Fetch and parse every sampled page: [(entry, PageAnalysis)].

    Exactly len(sample) fetches; captures that cannot be read are dropped.
    The analyses carry no tokens.
    """
    pairs = [(e, analyze_capture(archive, e, tokens=False)) for e in sample]
    return [(e, analysis) for e, analysis in pairs if analysis is not None]


def _macro_mean(values):
    return sum(values) / len(values) if values else None


def _by_year(analyzed):
    """{year: [PageAnalysis]} in ascending year order, pages in sample order."""
    pages = {}
    for entry, analysis in analyzed:
        pages.setdefault(int(entry.timestamp14[:4]), []).append(analysis)
    return dict(sorted(pages.items()))


def link_in_archive_rate(analyzed, index):
    """Per-year (internal_rate, external_rate): the mean over pages of
    the per-page fraction of outlinks whose target has a capture in
    the index, from any year. Link targets are canonical, so each is
    looked up in the index's per-URL groups as it is.

    Pages without links of a kind are excluded from that kind's mean.
    """
    groups = index.by_url

    def mean_rate(link_lists):
        return _macro_mean([
            sum(1 for l in links if l.target in groups) / len(links)
            for links in link_lists if links
        ])

    return {
        year: (mean_rate([a.internal_outlinks() for a in pages]),
               mean_rate([a.external_outlinks() for a in pages]))
        for year, pages in _by_year(analyzed).items()
    }


def tag_stats(analyzed):
    """Per-year mean tag counts, plus each tag's series normalized by
    its maximum across years (0/0 defined as 0).

    Returns (averages, normalized): {year: {tag: value}} both.
    """
    averages = {
        year: {t: sum(a.tag_counts[t] for a in pages) / len(pages) for t in TAG_CLASSES}
        for year, pages in _by_year(analyzed).items()
    }
    peaks = {t: max((avg[t] for avg in averages.values()), default=0.0) for t in TAG_CLASSES}
    normalized = {
        y: {t: avg[t] / peaks[t] if peaks[t] > 0 else 0.0 for t in TAG_CLASSES}
        for y, avg in averages.items()
    }
    return averages, normalized


def outlink_stats(analyzed):
    """Per-year mean outlinks per page: {year: (total, internal, external)}."""
    out = {}
    for year, pages in _by_year(analyzed).items():
        avg_int = sum(len(a.internal_outlinks()) for a in pages) / len(pages)
        avg_ext = sum(len(a.external_outlinks()) for a in pages) / len(pages)
        # Total is the sum of the two averages so the partition identity
        # avg_total == avg_internal + avg_external holds bit-exactly.
        out[year] = (avg_int + avg_ext, avg_int, avg_ext)
    return out


# One row of the wide CSV; the fields are its columns, in order, and the
# tag averages follow TAG_CLASSES.
YearRow = namedtuple(
    "YearRow",
    "year snapshot_count sampled_pages"
    " internal_link_rate external_link_rate"
    " avg_scripts avg_style_elements avg_linked_styles avg_table avg_div"
    " avg_outlinks_total avg_outlinks_internal avg_outlinks_external",
)


class StatsReport:
    __slots__ = ("rows", "normalized_tags", "sample_size")

    def __init__(self, sample_size, normalized_tags):
        self.rows = []  # YearRow, ascending year
        self.normalized_tags = normalized_tags  # {year: {tag: [0,1]}}
        self.sample_size = sample_size

    def write_wide_csv(self, f):
        """One row per year, plot-ready, to the open text file ``f``."""
        w = csv.writer(f)
        w.writerow(YearRow._fields)
        for row in self.rows:
            w.writerow(["" if v is None else v for v in row])

    def write_long_csv(self, f):
        """year,metric,value rows, including the normalized tag series, to
        the open text file ``f``."""
        w = csv.writer(f)
        w.writerow(["year", "metric", "value"])
        for row in self.rows:
            for c, v in zip(YearRow._fields[1:], row[1:]):
                if v is not None:
                    w.writerow([row.year, c, v])
            for tag in TAG_CLASSES:
                norm = self.normalized_tags.get(row.year, {}).get(tag)
                if norm is not None:
                    w.writerow([row.year, "normalized_%s" % tag, norm])


def build_report(index, archive, n, seed):
    """Compute the full statistics suite over one indexed archive."""
    histogram = snapshots_per_year(index)
    sample = sample_refs(index, n, seed)
    analyzed = analyze_sample(sample, archive)

    rates = link_in_archive_rate(analyzed, index)
    averages, normalized = tag_stats(analyzed)
    outlinks = outlink_stats(analyzed)
    sampled_per_year = snapshots_per_year(sample)

    report = StatsReport(len(sample), normalized)
    for year in sorted(set(histogram) | set(sampled_per_year)):
        tags = averages.get(year)
        report.rows.append(
            YearRow(
                year,
                histogram.get(year, 0),
                sampled_per_year.get(year, 0),
                *rates.get(year, (None, None)),
                *(None if tags is None else tags[t] for t in TAG_CLASSES),
                *outlinks.get(year, (None, None, None)),
            )
        )
    return report

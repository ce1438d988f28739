"""Archive-wide measurements: snapshot volume, link-in-archive rates,
tag evolution, and outlink counts per crawl year.

Everything except the per-year snapshot histogram runs over a seeded
uniform sample of the archive's HTML captures, so the cost is bounded
on arbitrarily large archives. Each sampled page is parsed without
tokens and reduced at once to a fixed-size ``SampledPage``: its crawl
year, tag counts, outlink counts and link-in-archive shares. No parsed
page outlives its record, so memory grows by one record per sampled
page, whatever its links. ``build_report`` groups the records by year
in one pass and puts each year's numbers into one ``YearRow``. A run is
reproducible from (index, n, seed).
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


# All the report keeps of a sampled page: its crawl year, tag counts,
# internal and external outlink counts, and for each of these two kinds
# the share of link targets captured in the index (None without links).
SampledPage = namedtuple(
    "SampledPage",
    ["year", *TAG_CLASSES, "internal", "external", "internal_share", "external_share"],
)


def analyze_sample(sample, archive, index):
    """[SampledPage] of the sampled pages, in sample order.

    Exactly len(sample) fetches; captures that cannot be read are dropped.
    Link targets are canonical, so each is looked up in the index's per-URL
    groups as it is; a capture from any year counts.
    """
    groups = index.by_url
    pages = []
    for e in sample:
        analysis = analyze_capture(archive, e, tokens=False)
        if analysis is None:
            continue
        internal = [l.target in groups for l in analysis.outlinks if l.kind == "internal"]
        external = [l.target in groups for l in analysis.outlinks if l.kind == "external"]
        pages.append(SampledPage(
            int(e.timestamp14[:4]), *(analysis.tag_counts[t] for t in TAG_CLASSES),
            len(internal), len(external), _share(internal), _share(external),
        ))
    return pages


def _share(hits):
    return sum(hits) / len(hits) if hits else None


def link_in_archive_rate(shares):
    """Mean of the per-page shares that are not None, or None if none is;
    they are added by a left fold in sample order, not by ``sum``, which
    Python 3.12 made compensated for floats."""
    shares = [s for s in shares if s is not None]
    total = 0
    for s in shares:
        total += s
    return total / len(shares) if shares else None


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
    sampled_per_year = snapshots_per_year(sample)
    pages = {}
    for page in analyze_sample(sample, archive, index):
        pages.setdefault(page.year, []).append(page)
    # {year: the YearRow fields after sampled_pages}, ascending year
    means = {}
    for year, group in sorted(pages.items()):
        _, *counts, internal_shares, external_shares = zip(*group)
        *averages, internal, external = [sum(c) / len(group) for c in counts]
        # Total is the sum of the two averages so the partition identity
        # avg_total == avg_internal + avg_external holds bit-exactly.
        means[year] = (
            link_in_archive_rate(internal_shares), link_in_archive_rate(external_shares),
            *averages, internal + external, internal, external,
        )
    # Each tag's series normalized by its maximum across years (0/0 is 0).
    tags = slice(2, 2 + len(TAG_CLASSES))
    peaks = [max(series) for series in zip(*(m[tags] for m in means.values()))]
    normalized = {
        year: {t: avg / peak if peak > 0 else 0.0
               for t, avg, peak in zip(TAG_CLASSES, m[tags], peaks)}
        for year, m in means.items()
    }
    report = StatsReport(len(sample), normalized)
    unsampled = (None,) * (len(YearRow._fields) - 3)
    for year in sorted(set(histogram) | set(sampled_per_year)):
        report.rows.append(YearRow(
            year, histogram.get(year, 0), sampled_per_year.get(year, 0),
            *means.get(year, unsampled),
        ))
    return report

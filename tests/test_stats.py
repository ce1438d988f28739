import csv
import random

import pytest

from subcollect import stats
from subcollect.htmldoc import analyze_capture
from subcollect.stats import (
    analyze_sample,
    build_report,
    link_in_archive_rate,
    sample_refs,
    snapshots_per_year,
)

from conftest import build_archive, damage_warc, page, traced_peak


def ts(year, i=0):
    return "%04d01%02d120000" % (year, (i % 27) + 1)


# snapshots_per_year --------------------------------------------------------


def test_year_histogram(tmp_path):
    captures = [("http://a.de/%d" % i, ts(1999, i), page(str(i))) for i in range(2)]
    captures += [("http://b.de/%d" % i, ts(2000, i), page(str(i))) for i in range(3)]
    fx = build_archive(tmp_path, captures)
    assert snapshots_per_year(fx.index) == {1999: 2, 2000: 3}
    assert fx.archive.counter.fetches == 0


def test_year_histogram_empty(tmp_path):
    fx = build_archive(tmp_path, [])
    assert snapshots_per_year(fx.index) == {}


def test_year_histogram_totals(tmp_path):
    captures = [
        ("http://h%d.de/" % i, ts(1998 + (i % 5), i), page(str(i))) for i in range(23)
    ]
    fx = build_archive(tmp_path, captures)
    assert sum(snapshots_per_year(fx.index).values()) == len(fx.index)


# sample_refs ---------------------------------------------------------------


def test_sample_all_when_n_large(tmp_path):
    captures = [("http://h%d.de/" % i, ts(2000, i), page(str(i))) for i in range(5)]
    captures.append(("http://img.de/", ts(2000, 9), b"\x89PNG", "image/png"))
    fx = build_archive(tmp_path, captures)
    sample = sample_refs(fx.index, 100, seed=1)
    assert len(sample) == 5  # non-HTML entry excluded
    assert all(e.is_html for e in sample)


def test_sample_deterministic(tmp_path):
    captures = [("http://h%d.de/" % i, ts(2000, i), page(str(i))) for i in range(30)]
    fx = build_archive(tmp_path, captures)
    s1 = sample_refs(fx.index, 10, seed=42)
    s2 = sample_refs(fx.index, 10, seed=42)
    assert s1 == s2
    assert len(s1) == 10


def test_sample_inclusion_frequency_uniform(tmp_path):
    # Statistical check of reservoir uniformity over many seeds.
    captures = [("http://h%d.de/" % i, ts(2000, i), page(str(i))) for i in range(50)]
    fx = build_archive(tmp_path, captures)
    n, trials = 10, 400
    counts = {}
    for seed in range(trials):
        for e in sample_refs(fx.index, n, seed=seed):
            counts[e.canonical_url] = counts.get(e.canonical_url, 0) + 1
    expected = trials * n / 50
    sigma = (trials * (n / 50) * (1 - n / 50)) ** 0.5
    for url, c in counts.items():
        assert abs(c - expected) < 5 * sigma, url
    assert len(counts) == 50


# analyze_sample ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["digest", "truncated"])
def test_analyze_sample_drops_a_capture_damaged_after_indexing(tmp_path, kind):
    # Page i links to i pages, so each record tells which page it is.
    captures = [("http://%s.de/" % h, ts(2000, i), page(h, links=["/x"] * i))
                for i, h in enumerate("abc")]
    fx = build_archive(tmp_path, captures)
    damage_warc(fx.path, fx.index.lookup_nearest("http://c.de/", ts(2000, 2)), kind)
    sample = sample_refs(fx.index, 10, 0)
    fetched = []
    real_fetch = fx.archive.fetch

    def fetch(entry):
        fetched.append(entry)
        return real_fetch(entry)

    fx.archive.fetch = fetch
    analyzed = analyze_sample(sample, fx.archive, fx.index)
    assert [p.internal for p in analyzed] == [0, 1]
    assert fetched == sample  # one fetch per sampled page, the damaged one too


def test_analyze_sample_keeps_no_tokens(tmp_path, monkeypatch):
    words = " ".join("word%d" % i for i in range(500))
    captures = [
        ("http://a.de/%d" % i, ts(2000, i), page(text=words, links=["/x"])) for i in range(40)
    ]
    fx = build_archive(tmp_path, captures)
    parsed = []

    def analyze_capture(archive, entry, tokens=True):
        parsed.append(real_analyze_capture(archive, entry, tokens))
        return parsed[-1]

    real_analyze_capture = stats.analyze_capture
    monkeypatch.setattr(stats, "analyze_capture", analyze_capture)
    analyzed = analyze_sample(sample_refs(fx.index, 100, 0), fx.archive, fx.index)
    assert len(parsed) == len(analyzed) == 40
    assert all(a.tokens == [] for a in parsed)
    assert all(a.outlink_targets() == ["http://a.de/x"] for a in parsed)
    assert set(analyzed) == {stats.SampledPage(2000, 0, 0, 0, 0, 0, 1, 0, 0.0, None)}


def test_build_report_keeps_no_parsed_page(tmp_path):
    # 400 pages of 200 links each: their parsed outlinks alone take about
    # 12 MB, one fixed-size record per page about 80 KB.
    captures = [
        ("http://a.de/p%d" % i, ts(2000, i),
         page(links=["/p%d/%d" % (i, j) for j in range(100)]
              + ["http://b%d.de/%d" % (i, j) for j in range(100)]))
        for i in range(400)
    ]
    fx = build_archive(tmp_path, captures)
    peak, report = traced_peak(build_report, fx.index, fx.archive, 400, 0)
    assert [(r.sampled_pages, r.avg_outlinks_total) for r in report.rows] == [(400, 200.0)]
    assert peak < 1_000_000


# link_in_archive_rate ------------------------------------------------------


def rows(fx, n=100, seed=0):
    """{year: YearRow} of the report over ``fx``."""
    return {r.year: r for r in build_report(fx.index, fx.archive, n, seed).rows}


def test_rate_all_links_indexed(tmp_path):
    captures = [
        ("http://a.de/", ts(2000), page(links=["/x", "http://b.de/"])),
        ("http://a.de/x", ts(2000, 2), page("x")),
        ("http://b.de/", ts(2000, 3), page("b")),
    ]
    fx = build_archive(tmp_path, captures)
    row = rows(fx)[2000]
    assert row.internal_link_rate == pytest.approx(1.0)
    assert row.external_link_rate == pytest.approx(1.0)


def test_rate_half_contained(tmp_path):
    captures = [
        ("http://a.de/", ts(2000), page(links=["/x", "/missing"])),
        ("http://a.de/x", ts(2000, 2), page("x")),
    ]
    fx = build_archive(tmp_path, captures)
    row = rows(fx)[2000]
    # Two sampled pages: the hub (1/2 contained) and x (no links, excluded).
    assert row.internal_link_rate == pytest.approx(0.5)
    assert row.external_link_rate is None


def test_rate_counts_a_capture_from_any_year(tmp_path):
    captures = [
        ("http://a.de/", ts(2000), page(links=["/x"])),
        ("http://a.de/x", ts(2005), page("later only")),
    ]
    fx = build_archive(tmp_path, captures)
    assert rows(fx)[2000].internal_link_rate == pytest.approx(1.0)


def test_rate_mean_is_sum_over_count(tmp_path):
    # Ten shares of 0.1, added by a left fold, over the count: on every
    # Python 0.09999999999999999, where the builtin sum gives 0.1 from 3.12 on.
    links = ["/target"] + ["/missing%d" % j for j in range(9)]
    captures = [("http://a.de/p%d" % i, ts(2000, i), page(links=links)) for i in range(10)]
    captures.append(("http://a.de/target", ts(2000, 10), b"\x89PNG", "image/png"))
    fx = build_archive(tmp_path, captures)
    row = rows(fx)[2000]
    assert row.sampled_pages == 10
    assert row.internal_link_rate == 0.09999999999999999
    assert link_in_archive_rate([0.1] * 10) == 0.09999999999999999
    assert link_in_archive_rate([None, 0.5, None]) == 0.5
    assert link_in_archive_rate([None]) is None


def test_planted_rate_recovery(tmp_path):
    # Generator knows the ground truth: 70% of links point at indexed pages.
    rng = random.Random(123)
    n_pages, links_per_page = 120, 12
    captures = []
    for i in range(n_pages):
        links = []
        for j in range(links_per_page):
            if rng.random() < 0.7:
                links.append("http://a.de/p%d" % rng.randrange(n_pages))
            else:
                links.append("http://a.de/missing-%d-%d" % (i, j))
        captures.append(("http://a.de/p%d" % i, ts(2000, i), page(links=links)))
    fx = build_archive(tmp_path, captures)
    internal = rows(fx, n_pages)[2000].internal_link_rate
    assert internal == pytest.approx(0.7, abs=0.05)


def test_per_year_means_over_interleaved_years(tmp_path):
    # Seven pages from three years, sampled in interleaved year order; each
    # mean is computed here the way the module is meant to: rates averaged
    # over pages in sample order, tag and outlink counts summed per year
    # and then divided once.
    rng = random.Random(7)
    years = [2001, 1999, 2000, 2001, 1999, 2000, 2001]
    captures = []
    for i, year in enumerate(years):
        links = ["/p%d" % rng.randrange(10) for _ in range(rng.randrange(1, 5))]
        links += ["http://ext%d.de/" % rng.randrange(3) for _ in range(rng.randrange(0, 4))]
        anchors = "".join('<a href="%s">l</a>' % href for href in links)
        body = "<div>%s</div>%s%s" % ("<div></div>" * i, "<script>s</script>" * (i % 3), anchors)
        captures.append(("http://a.de/p%d" % i, ts(year, i), body.encode("utf-8")))
    captures.append(("http://ext1.de/", ts(1990), page("ext")))
    fx = build_archive(tmp_path, captures)
    sample = sample_refs(fx.index, 100, 0)
    assert [int(e.timestamp14[:4]) for e in sample] == years + [1990]
    analyzed = [(int(e.timestamp14[:4]), analyze_capture(fx.archive, e, tokens=False))
                for e in sample]

    def pages(year):
        return [a for y, a in analyzed if y == year]

    def links(a, kind):
        return [l for l in a.outlinks if l.kind == kind]

    def mean_rate(link_lists):
        fracs = [sum(1 for l in links if fx.index.entries_for(l.target)) / len(links)
                 for links in link_lists if links]
        return sum(fracs) / len(fracs) if fracs else None

    report = build_report(fx.index, fx.archive, 100, 0)
    got = {r.year: r for r in report.rows}
    assert list(got) == list(report.normalized_tags) == [1990, 1999, 2000, 2001]
    for y in (1999, 2000, 2001):
        assert (got[y].internal_link_rate, got[y].external_link_rate) == (
            mean_rate([links(a, "internal") for a in pages(y)]),
            mean_rate([links(a, "external") for a in pages(y)]))

    for t, column in (("script", "avg_scripts"), ("div", "avg_div")):
        averages = {y: sum(a.tag_counts[t] for a in pages(y)) / len(pages(y)) for y in got}
        for y in got:
            assert getattr(got[y], column) == averages[y]
            assert report.normalized_tags[y][t] == averages[y] / max(averages.values())

    for y in (1999, 2000, 2001):
        internal = sum(len(links(a, "internal")) for a in pages(y)) / len(pages(y))
        external = sum(len(links(a, "external")) for a in pages(y)) / len(pages(y))
        assert got[y][-3:] == (internal + external, internal, external)


# tags ----------------------------------------------------------------------


def test_tag_constant_average(tmp_path):
    body = b"<script>a</script><script>b</script><p>t</p>"
    captures = [("http://h%d.de/" % i, ts(2000 + i % 2, i), body) for i in range(6)]
    fx = build_archive(tmp_path, captures)
    report = build_report(fx.index, fx.archive, 100, 0)
    for row in report.rows:
        assert row.avg_scripts == pytest.approx(2.0)
        assert report.normalized_tags[row.year]["script"] == pytest.approx(1.0)
    assert [row.year for row in report.rows] == [2000, 2001]


def test_tag_single_year_normalizes_to_one(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", ts(2000), b"<div>x</div>")])
    normalized = build_report(fx.index, fx.archive, 10, 0).normalized_tags
    assert normalized[2000]["div"] == pytest.approx(1.0)
    assert normalized[2000]["table"] == 0.0  # absent tag: 0/0 defined as 0


def test_tag_normalized_by_max(tmp_path):
    captures = [("http://a.de/", ts(2000), b"<div>1</div>")]
    captures += [
        ("http://b.de/", ts(2005), b"<div>1</div><div>2</div><div>3</div><div>4</div>")
    ]
    fx = build_archive(tmp_path, captures)
    normalized = build_report(fx.index, fx.archive, 10, 0).normalized_tags
    assert normalized[2000]["div"] == pytest.approx(0.25)
    assert normalized[2005]["div"] == pytest.approx(1.0)


# outlinks ------------------------------------------------------------------


def test_outlink_average(tmp_path):
    captures = [
        ("http://a.de/", ts(2000), page(links=["/1", "/2"])),
        ("http://b.de/", ts(2000, 2), page(links=["/1", "/2", "/3", "/4"])),
    ]
    fx = build_archive(tmp_path, captures)
    assert rows(fx, 10)[2000].avg_outlinks_total == pytest.approx(3.0)


def test_outlink_partition_identity(tmp_path):
    rng = random.Random(7)
    captures = []
    for i in range(25):
        links = []
        for j in range(rng.randrange(6)):
            host = "a.de" if rng.random() < 0.5 else "other%d.de" % j
            links.append("http://%s/p%d" % (host, j))
        captures.append(("http://a.de/p%d" % i, ts(1998 + i % 4, i), page(links=links)))
    fx = build_archive(tmp_path, captures)
    for year, row in rows(fx).items():
        total, internal, external = row[-3:]
        assert total == pytest.approx(internal + external, abs=1e-12), year


# report --------------------------------------------------------------------


def test_build_report_and_csv(tmp_path):
    captures = [
        ("http://a.de/", ts(2000), page(links=["/x"])),
        ("http://a.de/x", ts(2000, 2), page("x")),
        ("http://b.de/", ts(2001), page("b")),
    ]
    fx = build_archive(tmp_path, captures)
    report = build_report(fx.index, fx.archive, n=10, seed=5)
    assert sum(r.snapshot_count for r in report.rows) == len(fx.index)
    assert fx.archive.counter.fetches == report.sample_size

    wide = tmp_path / "stats.csv"
    long = tmp_path / "stats_long.csv"
    with open(wide, "w", newline="") as w, open(long, "w", newline="") as l:
        report.write_wide_csv(w)
        report.write_long_csv(l)
    with open(wide) as f:
        rows = list(csv.DictReader(f))
    assert [r["year"] for r in rows] == ["2000", "2001"]
    with open(long) as f:
        lines = list(csv.reader(f))
    assert lines[0] == ["year", "metric", "value"]
    metrics = {l[1] for l in lines[1:]}
    assert "snapshot_count" in metrics
    assert "normalized_div" in metrics


def test_report_deterministic(tmp_path):
    captures = [("http://h%d.de/" % i, ts(2000 + i % 3, i), page(str(i))) for i in range(20)]
    fx = build_archive(tmp_path, captures)
    r1 = build_report(fx.index, fx.archive, n=8, seed=3)
    r2 = build_report(fx.index, fx.archive, n=8, seed=3)
    w1, w2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    for r, path in ((r1, w1), (r2, w2)):
        with open(path, "w", newline="") as f:
            r.write_wide_csv(f)
    assert w1.read_bytes() == w2.read_bytes()

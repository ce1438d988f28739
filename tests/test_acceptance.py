"""Acceptance suite: one test per criterion, each at its stated
tolerance, printing a PASS line on success (run with -s to see them)."""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from subcollect.cli import main
from subcollect.evaluation import (
    facet_entropy,
    link_completeness,
    precision,
    recall,
    representativeness,
    temporal_width,
)
from subcollect.extraction import (
    Member,
    SubCollection,
    extract,
    index_prefilter,
    min_window_select,
)
from subcollect.spec import SubCollectionSpec
from subcollect.stats import build_report
from subcollect.store import Archive, ArchiveIndex, ingest_warc, timestamp14_to_epoch
from subcollect.urls import host_of

from conftest import build_archive, index_entry, iso_of, page
import warcwriter


def ok(n, name):
    print("\nACCEPTANCE %d (%s): PASS" % (n, name))


def ts(sec):
    return "2000%02d%02d%02d%02d%02d" % (
        (sec // 2592000) % 12 + 1,
        (sec // 86400) % 27 + 1,
        (sec // 3600) % 24,
        (sec // 60) % 60,
        sec % 60,
    )


# 1. window-selection oracle equivalence ------------------------------------


def test_acceptance_1_window_oracle_equivalence():
    rng = random.Random(20160522)
    start = time.monotonic()
    for _ in range(1000):
        k = rng.randint(1, 5)
        candidates = {}
        for i in range(k):
            n = rng.randint(1, 6)
            times = sorted(rng.sample(range(0, 5000), n))
            candidates["http://u%d.de/" % i] = [ts(t) for t in times]
        epoch = {
            t: timestamp14_to_epoch(t) for ts_list in candidates.values() for t in ts_list
        }
        chosen = min_window_select(candidates)
        epochs = [epoch[t] for t in chosen.values()]
        got = (max(epochs) - min(epochs), min(epochs))
        best = None
        for combo in itertools.product(*(candidates[u] for u in sorted(candidates))):
            es = [epoch[t] for t in combo]
            key = (max(es) - min(es), min(es))
            if best is None or key < best:
                best = key
        assert got == best, (candidates, chosen)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "took %.2fs" % elapsed
    ok(1, "window selection matches exhaustive oracle, %.2fs" % elapsed)


# 2. connected-closure fixpoint ---------------------------------------------


def test_acceptance_2_closure_fixpoint(tmp_path):
    rng = random.Random(42)
    for trial in range(100):
        n_pages = rng.randint(3, 50)
        urls = ["http://p%d.de/" % i for i in range(n_pages)]
        captures = []
        for i, url in enumerate(urls):
            links = rng.sample(urls, min(rng.randint(0, 3), n_pages))
            captures.append((url, ts(rng.randrange(10**6)), page(str(i), links=links)))
        d = tmp_path / ("t%d" % trial)
        d.mkdir()
        fx = build_archive(d, captures)
        # Seed from a random subset of the archive via a URL scope.
        seeds = rng.sample(urls, rng.randint(1, min(5, n_pages)))
        spec = SubCollectionSpec(
            url_scope=tuple(seeds), link_mode="connected", closure_policy="all_links"
        )
        coll = extract(fx.archive, fx.index, spec)
        member_urls = coll.member_urls()
        from subcollect.htmldoc import analyze

        for m in coll.members:
            analysis = analyze(fx.archive.fetch(m.entry))
            for link in analysis.outlinks:
                if fx.index.entries_for(link.target):
                    assert link.target in member_urls, (trial, m.entry.canonical_url)
    ok(2, "connected closure reaches a true fixpoint on 100 random archives")


# 3. metric exactness --------------------------------------------------------

TOL = 1e-9


def test_acceptance_3_metric_exactness(tmp_path):
    # lc fixture: s1 has 1 of 2 relevant outlinks retrieved, s2 has 1 of 1.
    captures = [
        ("http://s1.de/", "20000101000000", page(links=["http://in.de/", "http://out.de/"])),
        ("http://s2.de/", "20000101000100", page(links=["http://in.de/"])),
        ("http://in.de/", "20000103000000", page("in")),
        ("http://out.de/", "20000104000000", page("out")),
    ]
    fx = build_archive(tmp_path, captures)

    def coll_from(urls):
        members = [
            Member(entry=fx.index.entries_for(u)[0], origin="scan") for u in urls
        ]
        return SubCollection(members=members)

    c = coll_from(["http://s1.de/", "http://s2.de/", "http://in.de/"])
    lc_sum, lc_mean = link_completeness(c, fx.archive, fx.index)
    assert abs(lc_sum - 1.5) < TOL
    assert abs(lc_mean - 0.75) < TOL

    truth = frozenset(
        {
            ("http://s1.de/", "20000101000000"),
            ("http://s2.de/", "20000101000100"),
            ("http://out.de/", "20000104000000"),
        }
    )
    assert abs(precision(c, truth) - 2 / 3) < TOL
    assert abs(recall(c, truth) - 2 / 3) < TOL

    two_members = coll_from(["http://s1.de/", "http://s2.de/"])
    assert temporal_width(two_members) == 60

    # Host facet: collection on one host, archive uniform over two hosts.
    cap2 = [
        ("http://a.de/1", "20000101000000", page("a1")),
        ("http://a.de/2", "20000102000000", page("a2")),
        ("http://b.de/1", "20000103000000", page("b1")),
        ("http://b.de/2", "20000104000000", page("b2")),
    ]
    d2 = tmp_path / "rep"
    d2.mkdir()
    fx2 = build_archive(d2, cap2)
    only_a = SubCollection(
        members=[
            Member(entry=e, origin="scan")
            for e in fx2.index
            if host_of(e.canonical_url) == "a.de"
        ]
    )
    assert abs(representativeness(only_a, fx2.index, "host") - 0.6887218755408672) < TOL

    import math

    half_q_q = SubCollection(
        members=[
            Member(entry=e, origin="scan")
            for e in [
                index_entry("http://a.de/1", "20000101000000"),
                index_entry("http://a.de/2", "20000101000001"),
                index_entry("http://b.de/", "20000101000002"),
                index_entry("http://c.de/", "20000101000003"),
            ]
        ]
    )
    assert abs(facet_entropy(half_q_q, "host") - 1.5 / math.log2(3)) < TOL
    ok(3, "metrics reproduce hand-computed fixture values to 1e-9")


# 4. ingest round-trip at 10,000 records ------------------------------------


def test_acceptance_4_ingest_roundtrip_10k(tmp_path):
    start = time.monotonic()
    n = 10000
    blobs = []
    for i in range(n):
        body = page("p%d" % i, links=["/l%d" % (i % 97)], text="content %d" % i)
        blobs.append(
            warcwriter.make_response_record(
                "http://h%d.de/p%d" % (i % 211, i), iso_of(ts(i * 31)), body
            )
        )
    path = tmp_path / "big.warc"
    warcwriter.write_warc(str(path), blobs)

    entries = ingest_warc(str(path))
    assert len(entries) == n
    index = ArchiveIndex(entries)
    spec = SubCollectionSpec(time_scope=("19900101000000", "20991231235959"))
    with Archive(str(path.parent)) as archive:
        coll = extract(archive, index, spec)
    # fetch() verifies the SHA-256 digest of every record on the way.
    assert coll.counters["fetches"] == n
    assert coll.counters["errors"] == 0
    assert len(coll.members) == n
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "took %.1fs" % elapsed
    ok(4, "10k-record ingest+index+scan in %.1fs, digests verified" % elapsed)


# 5. planted link-in-archive rate -------------------------------------------


def test_acceptance_5_planted_rate_recovery(tmp_path):
    # Paper-reported context, not a target: real archives showed roughly
    # 50-80% internal / 20-60% external containment; here the generator
    # plants 0.70 exactly and the estimator must recover it.
    rng = random.Random(777)
    n_pages, links_per_page = 900, 12  # 10,800 planted links
    captures = []
    for i in range(n_pages):
        links = []
        for j in range(links_per_page):
            if rng.random() < 0.70:
                links.append("http://a.de/p%d" % rng.randrange(n_pages))
            else:
                links.append("http://a.de/missing-%d-%d" % (i, j))
        captures.append(("http://a.de/p%d" % i, ts(i * 40), page(links=links)))
    fx = build_archive(tmp_path, captures)
    rows = build_report(fx.index, fx.archive, n_pages, seed=0).rows
    overall = [r.internal_link_rate for r in rows if r.internal_link_rate is not None]
    measured = sum(overall) / len(overall)
    assert abs(measured - 0.70) <= 0.02, measured
    ok(5, "planted containment 0.70 recovered as %.4f" % measured)


# 6. CLI determinism ---------------------------------------------------------


def test_acceptance_6_cli_determinism(tmp_path):
    archive_dir = tmp_path / "archive"
    archive_dir.mkdir()
    rng = random.Random(9)
    captures = []
    for i in range(40):
        links = ["http://h%d.de/" % rng.randrange(8)]
        captures.append(
            ("http://h%d.de/p%d" % (i % 8, i), ts(i * 997), page(str(i), links=links))
        )
    blobs = [warcwriter.make_response_record(u, iso_of(t), b) for u, t, b in captures]
    warcwriter.write_warc(str(archive_dir / "f.warc"), blobs)
    index_path = tmp_path / "idx"
    assert main(["index", str(archive_dir / "f.warc"), "--output", str(index_path)]) == 0

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "det",
                "scopes": {"domains": ["de"], "size": 15},
                "link_mode": "connected",
                "seed": 3,
            }
        )
    )
    manifests = []
    for i in range(3):
        out = tmp_path / ("m%d" % i)
        code = main(
            [
                "extract",
                "--spec", str(spec_path),
                "--index", str(index_path),
                "--archive-dir", str(archive_dir),
                "--output", str(out),
            ]
        )
        assert code == 0
        manifests.append(out.read_bytes())
    assert manifests[0] == manifests[1] == manifests[2]

    stats_out = []
    for i in range(2):
        out = tmp_path / ("s%d.csv" % i)
        code = main(
            [
                "stats",
                "--index", str(index_path),
                "--archive-dir", str(archive_dir),
                "--sample-n", "20",
                "--seed", "5",
                "--output", str(out),
            ]
        )
        assert code == 0
        stats_out.append(out.read_bytes())
    assert stats_out[0] == stats_out[1]
    ok(6, "cmd_extract and cmd_stats byte-identical across runs")


# 7. scope conjunction monotonicity -----------------------------------------

_hosts = ["a.de", "b.de", "news.a.de", "c.org", "www.b.de"]
_years = ["1998", "2001", "2005", "2009"]


@st.composite
def _index_entries(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_hosts),
                st.integers(0, 4),
                st.sampled_from(_years),
            ),
            min_size=1,
            max_size=25,
        )
    )
    entries = []
    for i, (host, p, year) in enumerate(rows):
        url = "http://%s/p%d" % (host, p)
        entries.append(
            index_entry(
                canonical_url=url,
                timestamp14="%s0601%06d" % (year, i),
                digest="%064x" % i,
            )
        )
    return ArchiveIndex(entries)


@st.composite
def _spec_pair(draw):
    """(base, narrowed): the narrowed spec is the base plus extra scopes."""
    kwargs = {}
    if draw(st.booleans()):
        kwargs["domain_scope"] = tuple(
            draw(st.lists(st.sampled_from(_hosts + ["de", "org"]), min_size=1, max_size=2))
        )
    if draw(st.booleans()):
        y1, y2 = sorted(draw(st.tuples(st.sampled_from(_years), st.sampled_from(_years))))
        kwargs["time_scope"] = ("%s0101000000" % y1, "%s1231235959" % y2)
    if not kwargs:
        kwargs["domain_scope"] = ("de", "org")
    base = SubCollectionSpec(**kwargs)

    narrowed = base
    if base.url_scope is None and draw(st.booleans()):
        urls = tuple(
            "http://%s/p%d" % (h, p)
            for h, p in draw(
                st.lists(
                    st.tuples(st.sampled_from(_hosts), st.integers(0, 4)),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        narrowed = narrowed._replace(url_scope=urls)
    if base.domain_scope is None:
        narrowed = narrowed._replace(
            domain_scope=(draw(st.sampled_from(_hosts + ["de"])),)
        )
    if base.time_scope is None:
        y = draw(st.sampled_from(_years))
        narrowed = narrowed._replace(time_scope=("%s0101000000" % y, "%s1231235959" % y))
    return base, narrowed


@settings(max_examples=300, deadline=None)
@given(index=_index_entries(), pair=_spec_pair())
def test_acceptance_7_conjunction_monotonicity(index, pair):
    base, narrowed = pair
    base_set = {(e.canonical_url, e.timestamp14) for e in index_prefilter(index, base)}
    narrowed_set = {
        (e.canonical_url, e.timestamp14) for e in index_prefilter(index, narrowed)
    }
    assert narrowed_set <= base_set


def test_acceptance_7_report():
    ok(7, "adding a scope never adds a prefilter member (300 random cases)")


# 8. stats identities --------------------------------------------------------


def test_acceptance_8_stats_identities(tmp_path):
    from subcollect.htmldoc import TAG_CLASSES
    from subcollect.stats import snapshots_per_year

    rng = random.Random(5)
    for trial in range(5):
        captures = []
        n = rng.randint(5, 40)
        for i in range(n):
            links = [
                "http://%s/t%d" % (rng.choice(["a.de", "b.de", "x.org"]), j)
                for j in range(rng.randrange(5))
            ]
            tags = b"<div></div>" * rng.randrange(4) + b"<table></table>" * rng.randrange(3)
            body = page(str(i), links=links) + tags
            captures.append(
                ("http://%s/p%d" % (rng.choice(["a.de", "b.de"]), i),
                 "%d%010d" % (rng.randint(1996, 2004), 101000000 + i), body)
            )
        d = tmp_path / ("t%d" % trial)
        d.mkdir()
        fx = build_archive(d, captures)

        hist = snapshots_per_year(fx.index)
        assert sum(hist.values()) == len(fx.index)

        report = build_report(fx.index, fx.archive, n=n, seed=trial)
        for row in report.rows:
            if row.avg_outlinks_total is not None:
                assert row.avg_outlinks_total == pytest.approx(
                    row.avg_outlinks_internal + row.avg_outlinks_external, abs=0
                )

        normalized = report.normalized_tags
        averages = {r.year: dict(zip(TAG_CLASSES, r[5:10]))
                    for r in report.rows if r.year in normalized}
        for tag in ("script", "style_element", "linked_style", "table", "div"):
            if any(averages[y][tag] > 0 for y in averages):
                assert max(normalized[y][tag] for y in normalized) == 1.0
    ok(8, "stats identities hold exactly on random fixtures")

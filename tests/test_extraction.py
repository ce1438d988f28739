import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from subcollect.extraction import (
    Member,
    SubCollection,
    _largest_remainder_quotas,
    connect_closure,
    enforce_size,
    export_warc,
    extract,
    index_prefilter,
    min_window_select,
    scan_extract,
    select_versions,
)
from subcollect.spec import SubCollectionSpec
from subcollect.store import IndexEntry, timestamp14_to_epoch
from subcollect.urls import host_of

from conftest import build_archive, page


def ts(sec):
    """Second offsets into one day, so epoch deltas equal the offsets."""
    return "20000101%02d%02d%02d" % (sec // 3600, (sec // 60) % 60, sec % 60)


def brute_window(candidates):
    """Exhaustive oracle: try every combination of one capture per URL."""
    urls = sorted(candidates)
    best = None
    for combo in itertools.product(*(candidates[u] for u in urls)):
        epochs = [timestamp14_to_epoch(t) for t in combo]
        width, start = max(epochs) - min(epochs), min(epochs)
        key = (width, start)
        if best is None or key < best[0]:
            best = (key, dict(zip(urls, combo)))
    return best


# min_window_select ---------------------------------------------------------


def test_window_three_list_example():
    candidates = {
        "http://a.de/": [ts(1), ts(5), ts(9)],
        "http://b.de/": [ts(4), ts(10)],
        "http://c.de/": [ts(6), ts(7)],
    }
    chosen = min_window_select(candidates)
    assert chosen == {
        "http://a.de/": ts(5),
        "http://b.de/": ts(4),
        "http://c.de/": ts(6),
    }
    (width, start), _ = brute_window(candidates)
    assert width == 2


def test_window_single_url_picks_first():
    chosen = min_window_select({"http://a.de/": [ts(3), ts(8)]})
    assert chosen == {"http://a.de/": ts(3)}


def test_window_shared_time_width_zero():
    candidates = {u: [ts(5)] for u in ("http://a.de/", "http://b.de/", "http://c.de/")}
    chosen = min_window_select(candidates)
    assert set(chosen.values()) == {ts(5)}


def test_window_empty_input():
    assert min_window_select({}) == {}


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(0, 3600), min_size=1, max_size=6, unique=True),
        min_size=1,
        max_size=5,
    )
)
def test_window_matches_exhaustive_oracle(data):
    candidates = {
        "http://u%d.de/" % i: sorted(ts(s) for s in times) for i, times in enumerate(data)
    }
    chosen = min_window_select(candidates)
    epochs = [timestamp14_to_epoch(t) for t in chosen.values()]
    got_width = max(epochs) - min(epochs)
    got_start = min(epochs)
    (want_width, want_start), _ = brute_window(candidates)
    assert got_width == want_width
    assert got_start == want_start


# prefilter / scan ----------------------------------------------------------


def test_prefilter_time_scope_whole_archive(three_hosts):
    spec = SubCollectionSpec(time_scope=("19990101000000", "20991231235959"))
    got = index_prefilter(three_hosts.index, spec)
    assert len(got) == len(three_hosts.index)
    assert three_hosts.archive.counter.fetches == 0


def test_prefilter_url_scope(three_hosts):
    spec = SubCollectionSpec(url_scope=("http://a.de/",))
    got = index_prefilter(three_hosts.index, spec)
    assert {e.timestamp14 for e in got} == {"20000101120000", "20010101120000"}


def test_prefilter_domain_scope(three_hosts):
    spec = SubCollectionSpec(domain_scope=("a.de",))
    assert len(index_prefilter(three_hosts.index, spec)) == 3


def test_scan_without_content_scopes_equals_prefilter(three_hosts):
    spec = SubCollectionSpec(domain_scope=("a.de",))
    kept = scan_extract(three_hosts.archive, three_hosts.index, spec)
    assert kept == index_prefilter(three_hosts.index, spec)
    assert three_hosts.archive.counter.fetches == 3


def test_scan_keyword_filter(tmp_path):
    captures = [
        ("http://h%d.de/" % i, ts(60 * i), page(text=text))
        for i, text in enumerate(
            [
                "web archive research",
                "cooking recipes",
                "the web archive again",
                "gardening",
                "sports news",
                "more cooking",
            ]
        )
    ]
    fx = build_archive(tmp_path, captures)
    spec = SubCollectionSpec(
        time_scope=("19990101000000", "20991231235959"),
        keyword_scope=("web", "archive"),
        relevance_threshold=0.5,
    )
    kept = scan_extract(fx.archive, fx.index, spec)
    assert {e.canonical_url for e in kept} == {"http://h0.de/", "http://h2.de/"}
    assert fx.archive.counter.fetches == 6


def test_scan_empty_archive(tmp_path):
    fx = build_archive(tmp_path, [])
    spec = SubCollectionSpec(domain_scope=("de",))
    assert scan_extract(fx.archive, fx.index, spec) == []
    assert fx.archive.counter.fetches == 0


def test_scan_corrupt_candidate_skipped(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://a.de/", ts(0), page("ok")),
            ("http://b.de/", ts(60), page("to corrupt")),
        ],
    )
    victim = next(e for e in fx.index if e.canonical_url == "http://b.de/")
    data = bytearray(fx.path.read_bytes())
    data[victim.offset + victim.length - 10] ^= 0xFF
    fx.path.write_bytes(bytes(data))
    errors = []
    spec = SubCollectionSpec(domain_scope=("de",))
    kept = scan_extract(fx.archive, fx.index, spec, errors=errors)
    assert [e.canonical_url for e in kept] == ["http://a.de/"]
    assert len(errors) == 1


# select_versions -----------------------------------------------------------


def test_timeline_keeps_all(three_hosts):
    spec = SubCollectionSpec(domain_scope=("de",))
    kept = scan_extract(three_hosts.archive, three_hosts.index, spec)
    assert len(select_versions(kept, "timeline")) == 6


def test_snapshot_one_per_url(three_hosts):
    spec = SubCollectionSpec(domain_scope=("de",))
    kept = scan_extract(three_hosts.archive, three_hosts.index, spec)
    selected = select_versions(kept, "snapshot")
    urls = [e.canonical_url for e in selected]
    assert len(urls) == len(set(urls)) == 4


def test_snapshot_follows_window_example(tmp_path):
    captures = []
    for url, times in [
        ("http://a.de/", [1, 5, 9]),
        ("http://b.de/", [4, 10]),
        ("http://c.de/", [6, 7]),
    ]:
        for t in times:
            captures.append((url, ts(t), page("%s%d" % (url, t))))
    fx = build_archive(tmp_path, captures)
    spec = SubCollectionSpec(domain_scope=("de",))
    kept = scan_extract(fx.archive, fx.index, spec)
    selected = select_versions(kept, "snapshot")
    got = {e.canonical_url: e.timestamp14 for e in selected}
    assert got == {"http://a.de/": ts(5), "http://b.de/": ts(4), "http://c.de/": ts(6)}


# connect_closure -----------------------------------------------------------


def closure_spec(**kw):
    defaults = dict(domain_scope=("de",), link_mode="connected")
    defaults.update(kw)
    return SubCollectionSpec(**defaults)


def member_of(index, url, ts14):
    entry = next(
        e for e in index.entries_for(url) if e.timestamp14 == ts14
    )
    return Member(entry=entry, origin="scan")


def test_closure_ignores_unindexed_targets(tmp_path):
    fx = build_archive(
        tmp_path, [("http://a.de/", ts(0), page(links=["http://gone.de/"]))]
    )
    members = [member_of(fx.index, "http://a.de/", ts(0))]
    grown, added = connect_closure(members, fx.archive, fx.index, closure_spec())
    assert added == 0
    assert len(grown) == 1


def test_closure_picks_nearest_capture(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://s.de/", "20050601000000", page(links=["http://u.de/"])),
            ("http://u.de/", "20030601000000", page("old")),
            ("http://u.de/", "20060601000000", page("new")),
        ],
    )
    members = [member_of(fx.index, "http://s.de/", "20050601000000")]
    grown, added = connect_closure(members, fx.archive, fx.index, closure_spec())
    assert added == 1
    added_member = [m for m in grown if m.origin == "closure"][0]
    assert added_member.entry.timestamp14 == "20060601000000"  # |1yr| < |2yr|


def test_closure_chain_reaches_fixpoint(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://s.de/", ts(0), page(links=["http://u.de/"])),
            ("http://u.de/", ts(60), page(links=["http://v.de/"])),
            ("http://v.de/", ts(120), page("leaf")),
        ],
    )
    members = [member_of(fx.index, "http://s.de/", ts(0))]
    grown, added = connect_closure(members, fx.archive, fx.index, closure_spec())
    assert added == 2
    assert {m.entry.canonical_url for m in grown} == {
        "http://s.de/",
        "http://u.de/",
        "http://v.de/",
    }


def test_closure_depth_limit(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://s.de/", ts(0), page(links=["http://u.de/"])),
            ("http://u.de/", ts(60), page(links=["http://v.de/"])),
            ("http://v.de/", ts(120), page("leaf")),
        ],
    )
    members = [member_of(fx.index, "http://s.de/", ts(0))]
    grown, added = connect_closure(
        members, fx.archive, fx.index, closure_spec(closure_max_depth=1)
    )
    assert added == 1
    assert {m.entry.canonical_url for m in grown} == {"http://s.de/", "http://u.de/"}


def test_closure_relevant_links_policy(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            (
                "http://s.de/",
                ts(0),
                page(text="web archive", links=["http://yes.de/", "http://no.de/"]),
            ),
            ("http://yes.de/", ts(60), page(text="web archive material")),
            ("http://no.de/", ts(120), page(text="cooking only")),
        ],
    )
    spec = closure_spec(
        closure_policy="relevant_links",
        keyword_scope=("web", "archive"),
        relevance_threshold=0.3,
    )
    members = [member_of(fx.index, "http://s.de/", ts(0))]
    grown, added = connect_closure(members, fx.archive, fx.index, spec)
    assert {m.entry.canonical_url for m in grown} == {"http://s.de/", "http://yes.de/"}
    assert added == 1


# enforce_size --------------------------------------------------------------


def make_members(index):
    return [Member(entry=e, origin="scan") for e in index]


def test_enforce_size_noop_when_large_enough(three_hosts):
    members = make_members(three_hosts.index)
    assert enforce_size(members, 10, three_hosts.index, seed=1) == members
    assert enforce_size(members, None, three_hosts.index, seed=1) == members


def test_enforce_size_equal_strata_split(tmp_path):
    captures = []
    for host, base in (("a.de", 0), ("b.de", 3600)):
        for i in range(10):
            captures.append(("http://%s/p%d" % (host, i), ts(base + i), page(str(i))))
    fx = build_archive(tmp_path, captures)
    members = make_members(fx.index)
    out = enforce_size(members, 10, fx.index, seed=7)
    hosts = [m.entry.host for m in out]
    assert len(out) == 10
    assert hosts.count("a.de") == 5 and hosts.count("b.de") == 5


def test_enforce_size_largest_remainder_quotas(tmp_path):
    captures = []
    for host, count, base in (("a.de", 30, 0), ("b.de", 20, 10000), ("c.de", 10, 20000)):
        for i in range(count):
            captures.append(("http://%s/p%d" % (host, i), ts(base + i), page(str(i))))
    fx = build_archive(tmp_path, captures)
    members = make_members(fx.index)
    out = enforce_size(members, 6, fx.index, seed=3)
    hosts = [m.entry.host for m in out]
    assert len(out) == 6
    assert hosts.count("a.de") == 3
    assert hosts.count("b.de") == 2
    assert hosts.count("c.de") == 1


def test_enforce_size_deterministic(tmp_path):
    captures = [("http://h%d.de/" % (i % 5), ts(i), page(str(i))) for i in range(40)]
    fx = build_archive(tmp_path, captures)
    members = make_members(fx.index)
    a = enforce_size(members, 12, fx.index, seed=9)
    b = enforce_size(members, 12, fx.index, seed=9)
    assert a == b
    c = enforce_size(members, 12, fx.index, seed=10)
    assert len(c) == 12


# extract pipeline ----------------------------------------------------------


def test_extract_url_time_spec(three_hosts):
    spec = SubCollectionSpec(
        url_scope=("http://a.de/",),
        time_scope=("20000101000000", "20011231235959"),
    )
    coll = extract(three_hosts.archive, three_hosts.index, spec)
    assert [(m.entry.canonical_url, m.entry.timestamp14) for m in coll.members] == [
        ("http://a.de/", "20000101120000"),
        ("http://a.de/", "20010101120000"),
    ]
    assert coll.counters["candidates_scanned"] == 2
    assert coll.counters["fetches"] == 2


def test_extract_connected_snapshot_invariants(three_hosts):
    spec = SubCollectionSpec(
        domain_scope=("de",), link_mode="connected", version_mode="snapshot"
    )
    coll = extract(three_hosts.archive, three_hosts.index, spec)
    urls = [m.entry.canonical_url for m in coll.members]
    assert len(urls) == len(set(urls))  # snapshot uniqueness survives closure
    member_urls = set(urls)
    for m in coll.members:
        snap = three_hosts.archive.fetch(m.entry)
        from subcollect.extraction import _analyze

        for link in _analyze(snap).outlinks:
            if three_hosts.index.entries_for(link.target):
                assert link.target in member_urls


def test_extract_nothing_matches(three_hosts):
    spec = SubCollectionSpec(url_scope=("http://zzz.de/",))
    coll = extract(three_hosts.archive, three_hosts.index, spec)
    assert coll.members == []
    assert coll.counters["fetches"] == 0


def test_extract_deterministic_across_workers(three_hosts, tmp_path):
    spec = SubCollectionSpec(domain_scope=("de",), link_mode="connected")
    outputs = []
    for workers in (1, 1, 4):
        coll = extract(three_hosts.archive, three_hosts.index, spec, workers=workers)
        path = tmp_path / ("m%d" % len(outputs))
        coll.write_manifest(str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_manifest_roundtrip(three_hosts, tmp_path):
    spec = SubCollectionSpec(domain_scope=("a.de",))
    coll = extract(three_hosts.archive, three_hosts.index, spec)
    path = tmp_path / "manifest"
    coll.write_manifest(str(path))
    text = path.read_text()
    assert text.startswith("SUBCOLLECT-MANIFEST 1\nspec-digest %s\n" % spec.digest())
    loaded = SubCollection.read_manifest(str(path), index=three_hosts.index)
    assert [(m.entry.canonical_url, m.entry.timestamp14, m.origin) for m in loaded.members] == [
        (m.entry.canonical_url, m.entry.timestamp14, m.origin) for m in coll.members
    ]


def test_members_pass_their_own_scopes(three_hosts):
    # Precision-first contract: re-checking every member must succeed.
    from subcollect.spec import in_scope_metadata

    spec = SubCollectionSpec(
        domain_scope=("de",),
        keyword_scope=("web", "archive"),
        relevance_threshold=0.2,
    )
    coll = extract(three_hosts.archive, three_hosts.index, spec)
    from subcollect.extraction import _analyze
    from subcollect.relevance import is_relevant

    assert coll.members  # fixture has one matching page
    for m in coll.members:
        assert in_scope_metadata(spec, m.entry)
        analysis = _analyze(three_hosts.archive.fetch(m.entry))
        assert is_relevant(analysis, spec).relevant


def test_export_warc_verbatim(three_hosts, tmp_path):
    spec = SubCollectionSpec(domain_scope=("a.de",))
    coll = extract(three_hosts.archive, three_hosts.index, spec)
    out = tmp_path / "export.warc"
    export_warc(coll, three_hosts.archive, str(out))
    blob = out.read_bytes()
    pos = 0
    for m in coll.members:
        raw = three_hosts.archive.raw_record(m.entry)
        assert blob[pos : pos + len(raw)] == raw
        pos += len(raw)
    assert pos == len(blob)


def test_extract_runs_index_prefilter_once(three_hosts, monkeypatch):
    from subcollect import extraction

    calls = []

    def counting_prefilter(index, spec):
        calls.append(spec)
        return index_prefilter(index, spec)

    monkeypatch.setattr(extraction, "index_prefilter", counting_prefilter)
    spec = SubCollectionSpec(domain_scope=("de",), link_mode="connected")
    coll = extract(three_hosts.archive, three_hosts.index, spec)
    assert len(calls) == 1
    assert coll.counters["candidates_scanned"] == len(three_hosts.index)


def enforce_size_before(members, size_scope, index, seed):
    """enforce_size as it was with a quadratic refill: the oracle."""
    if size_scope is None or size_scope >= len(members):
        return list(members)

    def stratum(entry):
        return (host_of(entry.canonical_url), entry.timestamp14[:4])

    by_stratum = {}
    for m in sorted(members, key=lambda m: (m.entry.canonical_url, m.entry.timestamp14)):
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

    total = sum(len(v) for v in picked.values())
    while total < size_scope:
        remaining = sorted(
            by_stratum,
            key=lambda key: (-(len(by_stratum[key]) - len(picked[key])), key),
        )
        key = remaining[0]
        pool = [m for m in by_stratum[key] if m not in picked[key]]
        if not pool:
            break
        picked[key].append(rng.choice(pool))
        total += 1

    out = [m for key in sorted(picked) for m in picked[key]]
    out.sort(key=lambda m: (m.entry.canonical_url, m.entry.timestamp14))
    return out


capture = st.builds(
    lambda host, path, year, sec, digest: IndexEntry(
        "http://%s/%s" % (host, path), "%d0101%s" % (year, ts(sec)[8:]), digest=digest
    ),
    st.sampled_from(["a.de", "www.b.de"]),
    st.sampled_from(["", "p"]),
    st.sampled_from([2001, 2002]),
    st.integers(0, 1),
    st.sampled_from(["", "x"]),
)


@settings(max_examples=300)
@given(
    pool=st.lists(
        st.tuples(capture, st.sampled_from(["scan", "closure"])), min_size=1, max_size=6
    ),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=30),
    archive_extra=st.lists(capture, max_size=30),
    cut=st.integers(1, 10),
    seed=st.integers(0, 3),
)
def test_enforce_size_equals_quadratic_refill(pool, picks, archive_extra, cut, seed):
    # Members may repeat, so equal members in one stratum are covered;
    # archive-only captures shift the quotas, so strata fall short and
    # the refill runs.
    members = [Member(entry=e, origin=o) for e, o in (pool[i % len(pool)] for i in picks)]
    size_scope = max(0, len(members) - cut)
    index = [m.entry for m in members] + archive_extra
    assert enforce_size(members, size_scope, index, seed) == enforce_size_before(
        members, size_scope, index, seed
    )


def test_enforce_size_refill_skips_members_equal_to_a_pick():
    late = IndexEntry("http://www.b.de/p", "20020101000000")
    early = IndexEntry("http://www.b.de/", "20010101000000")
    members = [
        Member(late, "closure"), Member(late, "scan"), Member(early, "closure"),
        Member(late, "scan"), Member(late, "closure"), Member(late, "scan"),
    ]
    other = IndexEntry("http://a.de/", early.timestamp14)
    index = [m.entry for m in members] + [early] * 4 + [other] * 2
    out = enforce_size(members, 5, index, seed=2)
    assert out == enforce_size_before(members, 5, index, seed=2)

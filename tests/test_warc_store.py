import bisect
import datetime
import gzip
import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from subcollect import warc
from subcollect.store import (
    Archive,
    ArchiveIndex,
    CorruptSnapshotError,
    IndexEntry,
    IngestStats,
    SnapshotNotFound,
    ingest_warc,
    timestamp14_from_iso,
    timestamp14_to_epoch,
)

from conftest import FILE_ID, build_archive, iso_of, page


def test_timestamp_transcription():
    assert timestamp14_from_iso("2005-11-30T14:30:00Z") == "20051130143000"


def test_ingest_counts_only_responses(tmp_path):
    blobs = []
    for i in range(3):
        ts = "2000010%d120000" % (i + 1)
        blobs.append(
            warc.make_response_record("http://a.de/%d" % i, iso_of(ts), page("p%d" % i))
        )
        blobs.append(
            warc.make_record("request", "http://a.de/%d" % i, iso_of(ts), b"GET / HTTP/1.1\r\n")
        )
    path = tmp_path / "mixed.warc"
    warc.write_warc(str(path), blobs)
    entries = ingest_warc(str(path))
    assert len(entries) == 3


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.warc"
    path.write_bytes(b"")
    assert ingest_warc(str(path)) == []


def test_ingest_skips_response_without_uri(tmp_path):
    good = warc.make_response_record("http://a.de/", iso_of("20000101120000"), page())
    bad = warc.make_record("response", None, iso_of("20000101120000"), b"HTTP/1.1 200 OK\r\n\r\nhi")
    path = tmp_path / "f.warc"
    warc.write_warc(str(path), [bad, good])
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    assert len(entries) == 1
    assert stats.skipped == 1


def test_truncated_record_names_offset(tmp_path):
    good = warc.make_response_record("http://a.de/", iso_of("20000101120000"), page())
    path = tmp_path / "t.warc"
    path.write_bytes(good + good[: len(good) // 2])
    with pytest.raises(warc.WarcFormatError) as excinfo:
        ingest_warc(str(path))
    assert excinfo.value.offset == len(good)


def test_fetch_roundtrip_and_digest(tmp_path):
    body = page("hello", text="round trip")
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", body)])
    entry = fx.index.entries[0]
    assert entry.digest == hashlib.sha256(body).hexdigest()
    snap = fx.archive.fetch(entry)
    assert snap.body == body
    assert ("Content-Type", "text/html") in snap.http_headers


def test_fetch_increments_counter(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page())])
    entry = fx.index.entries[0]
    fx.archive.fetch(entry)
    fx.archive.fetch(entry)
    assert fx.archive.counter.fetches == 2
    assert fx.archive.counter.bytes_read == 2 * entry.length


def test_fetch_tampered_file_raises_corruption(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page(text="orig"))])
    entry = fx.index.entries[0]
    data = bytearray(fx.path.read_bytes())
    # Flip one payload byte without touching structure.
    data[entry.offset + entry.length - 10] ^= 0xFF
    fx.path.write_bytes(bytes(data))
    with pytest.raises(CorruptSnapshotError):
        fx.archive.fetch(entry)


def test_fetch_offset_out_of_range(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page())])
    from dataclasses import replace

    bad = replace(fx.index.entries[0], offset=10**6)
    with pytest.raises(OSError):
        fx.archive.fetch(bad)


def test_gzip_records_roundtrip(tmp_path):
    body = page("gz", text="compressed record")
    fx = build_archive(
        tmp_path, [("http://a.de/", "20000101120000", body)], gzip_records=True
    )
    entry = fx.index.entries[0]
    assert fx.path.read_bytes()[:2] == b"\x1f\x8b"
    assert fx.archive.fetch(entry).body == body


def test_whole_file_gzip_rejected_not_truncated(tmp_path):
    # One gzip member holding five records: all but the first would have
    # no offset of their own, so the file is rejected, not cut to one record.
    blobs = [
        warc.make_response_record("http://a.de/%d" % i, iso_of("20000101120000"), page("p"))
        for i in range(5)
    ]
    path = tmp_path / "whole.warc.gz"
    path.write_bytes(gzip.compress(b"".join(blobs)))
    with pytest.raises(warc.WarcFormatError, match="per-record gzip"):
        list(warc.iter_records(str(path)))


def test_mixed_plain_and_gzip(tmp_path):
    b1 = warc.make_response_record("http://a.de/1", iso_of("20000101120000"), page("1"))
    b2 = warc.make_response_record("http://a.de/2", iso_of("20000102120000"), page("2"))
    path = tmp_path / "mixed.warc"
    import zlib

    comp = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
    path.write_bytes(b1 + comp.compress(b2) + comp.flush())
    entries = ingest_warc(str(path), file_id="mixed.warc")
    assert len(entries) == 2
    archive = Archive()
    archive.register("mixed.warc", str(path))
    for e in entries:
        archive.fetch(e)
    assert archive.counter.fetches == 2


def test_lookup_nearest(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://u.de/", "20030601000000", page("03")),
            ("http://u.de/", "20070601000000", page("07")),
        ],
    )
    assert fx.index.lookup_nearest("http://u.de/", "20040601000000").timestamp14 == "20030601000000"


def test_lookup_nearest_tie_goes_earlier(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://u.de/", "20030101000000", page("03")),
            ("http://u.de/", "20050101000000", page("05")),
        ],
    )
    # 20040101000000 is equidistant from both captures.
    assert fx.index.lookup_nearest("http://u.de/", "20040101000000").timestamp14 == "20030101000000"


def test_lookup_nearest_single_capture(tmp_path):
    fx = build_archive(tmp_path, [("http://u.de/", "20030101000000", page())])
    assert fx.index.lookup_nearest("http://u.de/", "20130101000000").timestamp14 == "20030101000000"


def test_lookup_absent_url_is_not_found(tmp_path):
    fx = build_archive(tmp_path, [("http://u.de/", "20030101000000", page())])
    with pytest.raises(SnapshotNotFound):
        fx.index.lookup_nearest("http://other.de/", "20030101000000")


def test_lookup_nearest_is_global_minimizer(tmp_path):
    times = ["20000101000000", "20030601120000", "20051231235959", "20100101000000"]
    fx = build_archive(tmp_path, [("http://u.de/", t, page(t)) for t in times])
    from subcollect.store import timestamp14_to_epoch

    for target in ["19990101000000", "20040101000000", "20051231235958", "20201231000000"]:
        got = fx.index.lookup_nearest("http://u.de/", target)
        t0 = timestamp14_to_epoch(target)
        best = min(abs(timestamp14_to_epoch(t) - t0) for t in times)
        assert abs(got.epoch - t0) == best


def test_snapshots_of_sorted(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://u.de/", "20010101000000", page("1")),
            ("http://u.de/", "20030101000000", page("3")),
            ("http://u.de/", "20020101000000", page("2")),
        ],
    )
    assert fx.index.snapshots_of("http://u.de/") == [
        "20010101000000",
        "20020101000000",
        "20030101000000",
    ]


def test_snapshots_of_absent_url(tmp_path):
    fx = build_archive(tmp_path, [("http://u.de/", "20010101000000", page())])
    assert fx.index.snapshots_of("http://nope.de/") == []


def test_same_time_same_digest_deduplicated(tmp_path):
    body = page("dup")
    fx = build_archive(
        tmp_path,
        [
            ("http://u.de/", "20010101000000", body),
            ("http://u.de/", "20010101000000", body),
        ],
    )
    assert fx.index.snapshots_of("http://u.de/") == ["20010101000000"]


def test_same_time_different_digest_kept(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://u.de/", "20010101000000", page("one")),
            ("http://u.de/", "20010101000000", page("two")),
        ],
    )
    assert fx.index.snapshots_of("http://u.de/") == ["20010101000000", "20010101000000"]


def test_index_serialization_roundtrip(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://a.de/", "20000101120000", page("a")),
            ("http://b.de/x?q=1", "20010101120000", page("b"), "text/plain"),
        ],
    )
    out = tmp_path / "idx"
    fx.index.save(str(out))
    loaded = ArchiveIndex.load(str(out))
    assert len(loaded) == len(fx.index)
    for got, want in zip(loaded, fx.index):
        assert got.to_line() == want.to_line()


def test_index_save_is_sorted(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://b.de/", "20010101120000", page("b")),
            ("http://a.de/", "20020101120000", page("a2")),
            ("http://a.de/", "20000101120000", page("a1")),
        ],
    )
    out = tmp_path / "idx"
    fx.index.save(str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "SUBCOLLECT-CDX 1"
    keys = [tuple(l.split(" ")[:2]) for l in lines[1:]]
    assert keys == sorted(keys)


def test_full_scan_fetches_every_entry_once(tmp_path):
    captures = [
        ("http://h%d.de/" % i, "200%d0101000000" % (i % 10), page(str(i)))
        for i in range(20)
    ]
    fx = build_archive(tmp_path, captures)
    for e in fx.index:
        fx.archive.fetch(e)
    assert fx.archive.counter.fetches == len(fx.index)


def test_fractional_second_warc_date_truncated():
    assert timestamp14_from_iso("2009-01-01T00:00:00.123Z") == "20090101000000"
    assert timestamp14_from_iso("2009-01-01T00:00:59.999999Z") == "20090101000059"
    with pytest.raises(ValueError):
        timestamp14_from_iso("2009-01-01T00:00:00.Z")


def test_ingest_warc_1_1_fractional_date(tmp_path):
    rec = warc.make_response_record("http://a.de/", "2009-01-01T00:00:00.123Z", page())
    path = tmp_path / "f.warc"
    warc.write_warc(str(path), [rec])
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    assert [e.timestamp14 for e in entries] == ["20090101000000"]
    assert stats.skipped == 0


def test_whitespace_url_survives_save_and_load(tmp_path):
    blobs = [
        warc.make_response_record("http://a.de/a b", iso_of("20000101120000"), page("ab")),
        warc.make_response_record("http://a.de/c", iso_of("20000101120000"), page("c")),
    ]
    path = tmp_path / "ws.warc"
    warc.write_warc(str(path), blobs)
    index = ArchiveIndex(ingest_warc(str(path)))
    index.save(str(tmp_path / "ws.cdx"))
    loaded = ArchiveIndex.load(str(tmp_path / "ws.cdx"))
    assert [e.canonical_url for e in loaded] == ["http://a.de/a%20b", "http://a.de/c"]
    assert loaded.lookup_nearest("http://a.de/a b", "20000101120000").canonical_url == (
        "http://a.de/a%20b"
    )


def test_entries_for_canonicalizes_only_on_miss(tmp_path):
    fx = build_archive(tmp_path, [("http://u.de/x", "20030101000000", page())])
    assert fx.index.entries_for("http://u.de/x") == fx.index.entries_for("HTTP://U.DE:80/x#f")
    assert len(fx.index.entries_for("http://u.de/x")) == 1
    assert fx.index.has_url("http://U.de/x") and not fx.index.has_url("http://u.de/y")


_TS14 = st.datetimes(
    min_value=datetime.datetime(1995, 1, 1), max_value=datetime.datetime(2030, 12, 31)
).map(lambda d: d.strftime("%Y%m%d%H%M%S"))


def _linear_nearest(entries, target_ts14):
    """Nearest capture by a full scan; the earlier capture wins ties."""
    target = timestamp14_to_epoch(target_ts14)
    return min(entries, key=lambda e: (abs(e.epoch - target), e.timestamp14))


def _epoch_bisect_nearest(entries, target_ts14):
    """The nearest-capture search as it was done over epochs."""
    target = timestamp14_to_epoch(target_ts14)
    times = [e.epoch for e in entries]
    i = bisect.bisect_left(times, target)
    best = None
    for j in (i - 1, i):
        if 0 <= j < len(entries):
            dist = abs(times[j] - target)
            if best is None or dist < best[0]:
                best = (dist, entries[j])
    return best[1]


@settings(max_examples=300)
@given(
    times=st.lists(_TS14, min_size=1, max_size=12),
    digests=st.lists(st.sampled_from("ab"), min_size=12, max_size=12),
    target=_TS14,
    near=st.booleans(),
)
def test_lookup_nearest_equals_oracles(times, digests, target, near):
    url = "http://u.de/"
    if near:
        # Aim at a capture, or the exact midpoint between two, to force ties.
        a, b = sorted(times)[0], sorted(times)[-1]
        target = a if a == b else time.strftime(
            "%Y%m%d%H%M%S",
            time.gmtime((timestamp14_to_epoch(a) + timestamp14_to_epoch(b)) // 2),
        )
    entries = [
        IndexEntry(canonical_url=url, timestamp14=t, digest=d)
        for t, d in zip(times, digests)
    ]
    index = ArchiveIndex(entries)
    got = index.lookup_nearest(url, target)
    assert got == _epoch_bisect_nearest(index.entries_for(url), target)
    if len(set(times)) == len(times):
        assert got == _linear_nearest(index.entries_for(url), target)

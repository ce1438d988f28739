import bisect
import datetime
import gzip
import hashlib
import io
import os
import stat
import threading
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from subcollect import store, warc
from subcollect.htmldoc import analyze
from subcollect.urls import canonicalize_url
from subcollect.store import (
    Archive,
    ArchiveIndex,
    ArchiveIOError,
    CorruptSnapshotError,
    IngestStats,
    SnapshotNotFound,
    atomic_open,
    ingest_warc,
    timestamp14_from_iso,
    timestamp14_to_epoch,
)

from conftest import FILE_ID, build_archive, damage_warc, index_entry, iso_of, page, traced_peak
import reference_warc
import warcwriter


def test_timestamp_transcription():
    assert timestamp14_from_iso("2005-11-30T14:30:00Z") == "20051130143000"


def test_ingest_counts_only_responses(tmp_path):
    blobs = []
    for i in range(3):
        ts = "2000010%d120000" % (i + 1)
        blobs.append(
            warcwriter.make_response_record("http://a.de/%d" % i, iso_of(ts), page("p%d" % i))
        )
        blobs.append(
            warcwriter.make_record("request", "http://a.de/%d" % i, iso_of(ts), b"GET / HTTP/1.1\r\n")
        )
    path = tmp_path / "mixed.warc"
    warcwriter.write_warc(str(path), blobs)
    entries = ingest_warc(str(path))
    assert len(entries) == 3


def test_ingest_counts_passed_over_records_by_type(tmp_path):
    kinds = list(store.PASSED_OVER) + ["response", "x-custom", "Response", None]
    blobs = [
        warcwriter.make_record(kind, "http://a.de/", iso_of("20000101120000"), b"x")
        if kind else b"WARC/1.0\r\nContent-Length: 1\r\n\r\nx\r\n\r\n"
        for kind in kinds
    ]
    path = tmp_path / "types.warc"
    warcwriter.write_warc(str(path), blobs)
    stats = IngestStats()
    assert ingest_warc(str(path), stats=stats) == []
    # The response's payload is not HTTP: skipped, not passed over.
    assert (stats.records, stats.responses, stats.skipped) == (len(kinds), 0, 1)
    assert stats.passed_over == {
        "warcinfo": 1, "request": 1, "metadata": 1, "revisit": 1, "resource": 1,
        "conversion": 1, "continuation": 1, "other": 3,
    }


def test_ingest_canonicalizes_each_target_uri_once(tmp_path, monkeypatch):
    calls = []

    def counting(url):
        calls.append(url)
        return canonicalize_url(url)

    monkeypatch.setattr(store, "canonicalize_url", counting)
    uris = ["http://A.de/", "http://b.de/x", "http://A.de/", "http://a.de/", "http://b.de/x"]
    blobs = [
        warcwriter.make_response_record(uri, iso_of("2000010%d120000" % (i + 1)), page(str(i)))
        for i, uri in enumerate(uris)
    ]
    path = tmp_path / "repeat.warc"
    warcwriter.write_warc(str(path), blobs)
    entries = ingest_warc(str(path))
    assert calls == ["http://A.de/", "http://b.de/x", "http://a.de/"]
    assert [e.canonical_url for e in entries] == [
        "http://a.de/", "http://b.de/x", "http://a.de/", "http://a.de/", "http://b.de/x"
    ]
    assert entries[0].canonical_url is entries[2].canonical_url


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.warc"
    path.write_bytes(b"")
    assert ingest_warc(str(path)) == []


def test_ingest_skips_response_without_uri(tmp_path):
    good = warcwriter.make_response_record("http://a.de/", iso_of("20000101120000"), page())
    bad = warcwriter.make_record("response", None, iso_of("20000101120000"), b"HTTP/1.1 200 OK\r\n\r\nhi")
    path = tmp_path / "f.warc"
    warcwriter.write_warc(str(path), [bad, good])
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    assert len(entries) == 1
    assert stats.skipped == 1


def test_ingest_strips_angle_brackets_from_target_uri(tmp_path):
    # The WARC/1.0 spec's examples write the target URI as "<http://...>".
    plain = warcwriter.make_response_record("http://a.de/", iso_of("20000101120000"), page())
    bracketed = warcwriter.make_response_record("<http://b.de/>", iso_of("20000101120000"), page())
    path = tmp_path / "f.warc"
    warcwriter.write_warc(str(path), [plain, bracketed])
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    assert (stats.responses, stats.skipped) == (2, 0)
    assert [e.canonical_url for e in entries] == ["http://a.de/", "http://b.de/"]


_URI = ("WARC-Target-URI", "http://a.de/")
_DATE = ("WARC-Date", "2000-01-01T12:00:00Z")


@pytest.mark.parametrize("headers, indexed", [
    ([("WARC-Type", "response"), ("warc-type", "request"), _URI, _DATE], True),
    ([("WARC-Type", "request"), ("WARC-TYPE", "response"), _URI, _DATE], False),
    ([("WARC-Type", "response"), _URI, ("WARC-Target-URI", "http://b.de/"), _DATE], True),
    ([("WARC-Type", "response"), _URI, _DATE, ("WARC-Date", "2005-01-01T00:00:00Z")], True),
])
def test_the_first_of_a_repeated_header_counts(tmp_path, headers, indexed):
    # Header names match in any case, and the first header of a name counts.
    http = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + page()
    path = tmp_path / "repeat.warc"
    path.write_bytes(warcwriter._serialize_record(headers + [("Content-Length", len(http))], http))
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    if indexed:
        assert [(e.canonical_url, e.timestamp14) for e in entries] == [
            ("http://a.de/", "20000101120000")
        ]
        assert (stats.responses, stats.skipped, sum(stats.passed_over.values())) == (1, 0, 0)
    else:
        assert entries == [] and (stats.responses, stats.skipped) == (0, 0)
        assert {k: n for k, n in stats.passed_over.items() if n} == {"request": 1}


def test_truncated_record_names_offset(tmp_path):
    good = warcwriter.make_response_record("http://a.de/", iso_of("20000101120000"), page())
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
    assert snap.content_type == "text/html"


def ingest_http(tmp_path, head, body):
    """The WARC of one response record of ``head`` and ``body``, indexed:
    (its only entry, an Archive over it)."""
    payload = head.encode("latin-1") + b"\r\n\r\n" + body
    path = tmp_path / FILE_ID
    record = warcwriter.make_record("response", "http://a.de/", iso_of("20000101120000"), payload)
    warcwriter.write_warc(str(path), [record])
    [entry] = ingest_warc(str(path))
    return entry, Archive(str(tmp_path))


def test_mime_and_charset_come_from_the_first_content_type(tmp_path):
    # An ASCII page: decoded as UTF-16, as a charset from the second
    # header would have it, it would give no links and no such tokens.
    head = "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Type: text/html; charset=utf-16"
    entry, archive = ingest_http(tmp_path, head, page(text="web archive", links=["http://c.de/"]))
    with archive:
        snap = archive.fetch(entry)
        analysis = analyze(snap)
    assert analysis.outlink_targets() == ["http://c.de/"]
    assert {"web", "archive"} <= set(analysis.tokens)
    assert entry.mime == snap.content_type == "text/html"


def test_a_response_without_content_type_has_no_mime_and_no_charset(tmp_path):
    head = "HTTP/1.1 200 OK\r\nServer: x"
    assert warc.parse_http_response(head.encode() + b"\r\n\r\nbody") == (200, "", b"body")
    entry, archive = ingest_http(tmp_path, head, page(text="web archive"))
    with archive:
        snap = archive.fetch(entry)
    assert (entry.mime, snap.content_type) == ("", "")
    assert analyze(snap).tokens == []  # not HTML, so not parsed


def test_fetch_increments_counter(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page())])
    entry = fx.index.entries[0]
    fx.archive.fetch(entry)
    fx.archive.fetch(entry)
    assert fx.archive.counter.fetches == 2


def test_fetch_tampered_file_raises_corruption(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page(text="orig"))])
    entry = fx.index.entries[0]
    data = bytearray(fx.path.read_bytes())
    # Flip one payload byte without touching structure.
    data[entry.offset + entry.length - 10] ^= 0xFF
    fx.path.write_bytes(bytes(data))
    with pytest.raises(CorruptSnapshotError):
        fx.archive.fetch(entry)


def test_fetch_entry_without_digest_is_a_mismatch(tmp_path):
    # An entry whose digest is blank cannot be verified, so it fails as a
    # mismatch even when its body is intact.
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page(text="orig"))])
    blank = fx.index.entries[0]._replace(digest="")
    with pytest.raises(CorruptSnapshotError, match="digest mismatch for http://a.de/@20000101120000"):
        fx.archive.fetch(blank)


def test_fetch_offset_out_of_range(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page())])
    bad = fx.index.entries[0]._replace(offset=10**6)
    with pytest.raises(OSError):
        fx.archive.fetch(bad)


@pytest.mark.parametrize(
    "fields", [{"length": 10**12}, {"length": 2**64}, {"offset": 2**64}]
)
def test_span_past_end_of_file_rejected_before_reading(tmp_path, monkeypatch, fields):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page())])
    bad = fx.index.entries[0]._replace(**fields)

    def no_read(*args):
        raise AssertionError("read attempted")

    monkeypatch.setattr(warc.os, "pread", no_read)
    for read in (fx.archive.fetch, fx.archive.raw_record):
        with pytest.raises(ArchiveIOError) as excinfo:
            read(bad)
        assert str(excinfo.value) == "record at %d+%d exceeds size of %s" % (
            bad.offset, bad.length, fx.path)


def test_file_that_shrank_while_open_raises_archive_io_error(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page())])
    entry = fx.index.entries[0]
    fx.archive.fetch(entry)
    damage_warc(fx.path, entry, "truncated")
    for read in (fx.archive.fetch, fx.archive.raw_record):
        with pytest.raises(ArchiveIOError, match="exceeds size of " + str(fx.path)):
            read(entry)


def test_open_files_capped_least_recently_used_closed(tmp_path, monkeypatch):
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    def open_now():
        return sum(not f.closed for f in opened)

    refs = []
    for i in range(store.MAX_OPEN_FILES + 3):
        name = "%03d.warc" % i
        record = warcwriter.make_response_record("http://h%d.de/" % i, iso_of("20000101120000"), page())
        warcwriter.write_warc(str(tmp_path / name), [record])
        refs += ingest_warc(str(tmp_path / name))
    monkeypatch.setattr(store, "open", spy_open, raising=False)
    with Archive(directory=str(tmp_path)) as archive:
        for ref in refs + refs:
            assert archive.fetch(ref).body == page()
            archive.fetch(refs[0])  # the most recently used file stays open
            assert open_now() <= store.MAX_OPEN_FILES
        assert open_now() == store.MAX_OPEN_FILES
        assert sum(f.name.endswith("000.warc") for f in opened) == 1
        assert len(opened) == 1 + 2 * (len(refs) - 1)
    assert open_now() == 0


@pytest.mark.parametrize(
    "kind, error, message",
    [
        ("missing", ArchiveIOError, "No such file"),
        ("truncated", ArchiveIOError, "exceeds size of"),
        ("header", CorruptSnapshotError, "malformed header line 'WARC-Type  response'"),
        ("content-length", CorruptSnapshotError, "Content-Length"),
    ],
)
def test_fetch_from_damaged_warc(tmp_path, kind, error, message):
    fx = build_archive(tmp_path, [("http://a.de/", "20000101120000", page())])
    entry = fx.index.entries[0]
    damage_warc(fx.path, entry, kind)
    with pytest.raises(error) as excinfo:
        fx.archive.fetch(entry)
    assert message in str(excinfo.value)
    if error is ArchiveIOError:
        assert str(fx.path) in str(excinfo.value)


@pytest.mark.parametrize("gzip_records", [False, True])
def test_ingest_non_ascii_content_length_names_path_and_offset(tmp_path, gzip_records):
    # "\u00b2279".isdigit() holds, but int() rejects the superscript two.
    blobs = [
        warcwriter.make_response_record("http://a.de/%d" % i, iso_of("20000101120000"), page())
        for i in range(2)
    ]
    blobs[1] = blobs[1].replace(b"Content-Length: ", "Content-Length: \u00b2".encode(), 1)
    if gzip_records:
        blobs = [_gzip_member(b) for b in blobs]
    path = tmp_path / "f.warc"
    path.write_bytes(b"".join(blobs))
    with pytest.raises(warc.WarcFormatError) as excinfo:
        ingest_warc(str(path))
    assert excinfo.value.offset == len(blobs[0])
    assert str(excinfo.value).startswith(str(path) + ": ")


def test_non_ascii_http_status_is_not_a_response(tmp_path):
    payload = b"HTTP/1.1 \xb200 OK\r\n\r\nhi"  # latin-1 superscript two
    assert warc.parse_http_response(payload) is None
    path = tmp_path / "f.warc"
    record = warcwriter.make_record("response", "http://a.de/", iso_of("20000101120000"), payload)
    warcwriter.write_warc(str(path), [record])
    stats = IngestStats()
    assert ingest_warc(str(path), stats=stats) == [] and stats.skipped == 1


def test_ingest_skips_non_ascii_port(tmp_path):
    blobs = [
        warcwriter.make_response_record(url, iso_of("20000101120000"), page())
        for url in ["http://a.de:\u0668\u0660/", "http://a.de:80/"]
    ]
    path = tmp_path / "f.warc"
    warcwriter.write_warc(str(path), blobs)
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    assert [e.canonical_url for e in entries] == ["http://a.de/"] and stats.skipped == 1


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
        warcwriter.make_response_record("http://a.de/%d" % i, iso_of("20000101120000"), page("p"))
        for i in range(5)
    ]
    path = tmp_path / "whole.warc.gz"
    path.write_bytes(gzip.compress(b"".join(blobs)))
    with pytest.raises(warc.WarcFormatError, match="per-record gzip"):
        list(warc.iter_records(str(path)))


def test_mixed_plain_and_gzip(tmp_path):
    b1 = warcwriter.make_response_record("http://a.de/1", iso_of("20000101120000"), page("1"))
    b2 = warcwriter.make_response_record("http://a.de/2", iso_of("20000102120000"), page("2"))
    path = tmp_path / "mixed.warc"
    import zlib

    comp = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
    path.write_bytes(b1 + comp.compress(b2) + comp.flush())
    entries = ingest_warc(str(path))
    assert len(entries) == 2
    with Archive(str(tmp_path)) as archive:
        for e in entries:
            archive.fetch(e)
    assert archive.counter.fetches == 2


def _gzip_member(blob):
    comp = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
    return comp.compress(blob) + comp.flush()


def _padded_record(header_block_size, payload=b"x"):
    """A record whose header block, through its blank line, has the given size."""
    head = b"WARC/1.0\r\nWARC-Type: resource\r\nContent-Length: %d\r\nX-Pad: " % len(payload)
    pad = b"a" * (header_block_size - len(head) - 4)
    return head + pad + b"\r\n\r\n" + payload + b"\r\n\r\n"


def test_iter_records_spans_of_large_records_and_long_headers(tmp_path):
    big = os.urandom(100_000)
    blobs = [
        warcwriter.make_response_record("http://a.de/1", iso_of("20000101120000"), page("1")),
        warcwriter.make_response_record("http://a.de/2", iso_of("20000101120000"), big),
        _padded_record(70_000),  # header block crosses 64 KiB
        _gzip_member(warcwriter.make_response_record("http://a.de/3", iso_of("20000101120000"), big)),
        _padded_record(10_000),
        # A bare LF line and a CR CR LF do not end the header block.
        b"WARC/1.0\r\nX-A: 1\r\n\nX-B: 2\r\r\nContent-Length: 1\r\n\r\nx\r\n\r\n",
        warcwriter.make_response_record("http://a.de/4", iso_of("20000101120000"), page("4")),
    ]
    path = tmp_path / "big.warc"
    path.write_bytes(b"".join(blobs))
    spans = [(offset, length) for offset, length, _ in warc.iter_records(str(path))]
    offsets = [sum(len(b) for b in blobs[:i]) for i in range(len(blobs))]
    assert spans == list(zip(offsets, map(len, blobs)))
    with open(path, "rb") as f:
        for (offset, length), (_, _, rec) in zip(spans, warc.iter_records(str(path))):
            assert warc.read_record(f, offset, length) == rec.payload
    entries = ingest_warc(str(path))
    with Archive(str(tmp_path)) as archive:
        assert [archive.fetch(e).body == big for e in entries] == [False, True, True, False]


@pytest.mark.parametrize("gzip_records", [False, True])
def test_iter_records_reads_each_byte_once(tmp_path, monkeypatch, gzip_records):
    class CountingFile(io.FileIO):
        read_bytes = 0

        def readinto(self, buffer):
            n = super().readinto(buffer)
            CountingFile.read_bytes += n or 0
            return n

    fx = build_archive(
        tmp_path,
        [("http://a.de/%d" % i, "20000101120000", page(str(i))) for i in range(300)],
        gzip_records=gzip_records,
    )
    monkeypatch.setattr(
        warc, "open", lambda path, mode: io.BufferedReader(CountingFile(path, mode)),
        raising=False,
    )
    assert len(list(warc.iter_records(str(fx.path)))) == 300
    # Each record used to read 64 KiB and seek back: the file many times over.
    assert CountingFile.read_bytes <= fx.path.stat().st_size + io.DEFAULT_BUFFER_SIZE


def test_header_block_limit_is_one_mib(tmp_path):
    path = tmp_path / "h.warc"
    path.write_bytes(_padded_record(1 << 20))
    assert [length for _, length, _ in warc.iter_records(str(path))] == [(1 << 20) + 5]
    path.write_bytes(_padded_record((1 << 20) + 1))
    with pytest.raises(warc.WarcFormatError, match="unterminated header block"):
        list(warc.iter_records(str(path)))
    path.write_bytes(_padded_record(1 << 20)[:1000])
    with pytest.raises(warc.WarcFormatError, match="truncated record header"):
        list(warc.iter_records(str(path)))


def test_close_and_exit_close_every_file_the_archive_opened(tmp_path, monkeypatch):
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(store, "open", spy_open, raising=False)
    one = build_archive(tmp_path, [("http://a.de/", "20000101120000", page("1"))], name="1.warc")
    two = build_archive(tmp_path, [("http://b.de/", "20000101120000", page("2"))], name="2.warc")
    refs = [*one.index, *two.index]
    with Archive(directory=str(tmp_path)) as archive:
        for ref in refs + refs:
            archive.fetch(ref)
            data = (tmp_path / ref.file_id).read_bytes()
            assert archive.raw_record(ref) == data[ref.offset : ref.offset + ref.length]
        assert len(opened) == 2 and not any(f.closed for f in opened)
    assert all(f.closed for f in opened)
    archive.fetch(refs[0])  # a closed archive opens the file again
    archive.close()
    assert len(opened) == 3 and all(f.closed for f in opened)


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
    assert [e.timestamp14 for e in fx.index.entries_for("http://u.de/")] == [
        "20010101000000",
        "20020101000000",
        "20030101000000",
    ]


def test_snapshots_of_absent_url(tmp_path):
    fx = build_archive(tmp_path, [("http://u.de/", "20010101000000", page())])
    assert [e.timestamp14 for e in fx.index.entries_for("http://nope.de/")] == []


def test_same_time_same_digest_deduplicated(tmp_path):
    body = page("dup")
    fx = build_archive(
        tmp_path,
        [
            ("http://u.de/", "20010101000000", body),
            ("http://u.de/", "20010101000000", body),
        ],
    )
    assert [e.timestamp14 for e in fx.index.entries_for("http://u.de/")] == ["20010101000000"]


def test_same_time_different_digest_kept(tmp_path):
    fx = build_archive(
        tmp_path,
        [
            ("http://u.de/", "20010101000000", page("one")),
            ("http://u.de/", "20010101000000", page("two")),
        ],
    )
    assert [e.timestamp14 for e in fx.index.entries_for("http://u.de/")] == [
        "20010101000000",
        "20010101000000",
    ]


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
        assert got.fields() == want.fields()


def test_index_load_keeps_one_string_per_url_mime_and_file(tmp_path):
    captures = [("http://a.de/", "200%d0101120000" % i, page("a")) for i in range(3)]
    captures.append(("http://b.de/", "20000101120000", page("b"), "text/plain"))
    entries = list(build_archive(tmp_path, captures, name="one.warc").index)
    again = [(url, ts14, page("again")) for url, ts14, _ in captures[:2]]
    entries += build_archive(tmp_path, again, name="two.warc").index
    index = ArchiveIndex(entries)
    path = tmp_path / "idx"
    index.save(str(path))
    loaded = ArchiveIndex.load(str(path))
    assert loaded.entries == index.entries
    for field in ("canonical_url", "mime", "file_id"):
        for value in {getattr(e, field) for e in loaded}:
            shared = {id(getattr(e, field)) for e in loaded if getattr(e, field) == value}
            assert len(shared) == 1, (field, value)
    assert len(loaded.entries_for("http://a.de/")) == 5


@pytest.mark.parametrize(
    "line, message",
    [
        ("http://a.de/ 2000 only-three-fields", "expected 8 fields, got 3"),
        ("http://a.de/ 20000101000000 - 200 d f 0 1 x", "expected 8 fields, got 9"),
        ("http://a.de/ 20000101000000 - 2x0 d f 0 1", "invalid literal for int() with base 10: '2x0'"),
        ("http://a.de/ 20000101000000 - 200 d f 0 ", "invalid literal for int() with base 10: ''"),
        ("http://a.de/ 20000101000000 - 200 d f -5 1", "offset and length must not be negative"),
        ("http://a.de/ 20000101000000 - 200 d f 0 -1", "offset and length must not be negative"),
        ("http://a.de/ 20000101000000 - 200 d ../o.warc 0 1",
         "file id must be a bare file name, got '../o.warc'"),
        ("http://a.de/ 20000101000000 - 200 d /tmp/o.warc 0 1",
         "file id must be a bare file name, got '/tmp/o.warc'"),
        ("http://a.de/ 20000101000000 - 200 d . 0 1", "file id must be a bare file name, got '.'"),
        ("http://a.de/ 20000101000000 - 200 d .. 0 1", "file id must be a bare file name, got '..'"),
        ("http://a.de/ 20000101000000 - 200 d  0 1", "file id must be a bare file name, got ''"),
    ],
)
def test_index_load_error_names_path_line_and_fault(tmp_path, line, message):
    path = tmp_path / "idx"
    path.write_text("SUBCOLLECT-CDX 1\n\n%s\n" % line)  # the blank line is skipped
    with pytest.raises(ValueError) as excinfo:
        ArchiveIndex.load(str(path))
    assert str(excinfo.value) == "%s:3: %s" % (path, message)


def _cdx_lines(n):
    return ["http://a.de/ 2000010100000%d text/html 200 d%d f.warc %d 10" % (i, i, 10 * i)
            for i in range(n)]


@pytest.mark.parametrize(
    "lines, lineno",
    [
        # The first entry moved to the end used to be sorted back in silently.
        (_cdx_lines(4)[1:] + _cdx_lines(4)[:1], 5),
        (_cdx_lines(2) + _cdx_lines(2)[1:] + ["http://b.de/ 20000101000000 - 200 d f.warc 0 1"], 4),
        (["http://b.de/ 20000101000000 - 200 d f.warc 0 1", ""] + _cdx_lines(1), 4),
    ],
    ids=["moved", "repeated", "after-a-blank-line"],
)
def test_index_load_rejects_an_entry_out_of_order(tmp_path, lines, lineno):
    path = tmp_path / "idx"
    path.write_text("SUBCOLLECT-CDX 1\n%s\n" % "\n".join(lines))
    with pytest.raises(ValueError) as excinfo:
        ArchiveIndex.load(str(path))
    assert str(excinfo.value) == "%s:%d: entry out of order" % (path, lineno)


def test_index_load_keeps_every_line_it_accepts(tmp_path):
    # Two entries of one capture in two WARCs: ArchiveIndex() keeps one,
    # and load, which used to go through it, now keeps both lines.
    a = index_entry("http://a.de/", "20000101000000", digest="d", file_id="f.warc")
    b = a._replace(file_id="g.warc")
    path = tmp_path / "idx"
    path.write_text("SUBCOLLECT-CDX 1\n%s\n" % "\n".join(" ".join(e.fields()) for e in (a, b)))
    assert ArchiveIndex.load(str(path)).entries == [a, b]
    assert ArchiveIndex([a, b]).entries == [b]


def test_a_mime_of_a_dash_is_indexed_as_none(tmp_path):
    # The index writes no mime as "-", so a "-" mime came back as none
    # and sorted apart from where the index had written it.
    fx = build_archive(tmp_path, [
        ("http://a.de/", "20000101000000", page("1"), "-"),
        ("http://a.de/", "20000101000000", page("2"), "+x/y"),
    ])
    assert sorted(e.mime for e in fx.index) == ["", "+x/y"]
    fx.index.save(str(tmp_path / "idx"))
    assert ArchiveIndex.load(str(tmp_path / "idx")).entries == fx.index.entries


@pytest.mark.parametrize("kind", ["index", "manifest", "truth"])
def test_invalid_utf8_names_its_line(tmp_path, kind):
    from subcollect.evaluation import load_truth
    from subcollect.extraction import SubCollection

    text = {
        "index": "SUBCOLLECT-CDX 1\n\n%s\n" % _cdx_lines(1)[0],
        "manifest": "SUBCOLLECT-MANIFEST 1\nspec-digest x\nhttp://a.de/ 20000101000000 d0 scan\n",
        "truth": "SUBCOLLECT-TRUTH 1\nhttp://b.de/ 20000101000000\nhttp://a.de/ 20000101000000\n",
    }[kind]
    data = text.encode()
    at = data.index(b"2000", data.index(b"http://a.de/"))  # on line 3
    path = tmp_path / kind
    # A bad byte, then more lines, so a reader's read-ahead passes line 3.
    path.write_bytes(data[:at] + b"\xff" + data[at:] + b"\n" * 10000)
    read = {
        "index": ArchiveIndex.load,
        "manifest": lambda p: SubCollection.read_manifest(p, ArchiveIndex()),
        "truth": load_truth,
    }[kind]
    with pytest.raises(ValueError) as excinfo:
        read(str(path))
    position = at - data.rindex(b"\n", 0, at) - 1
    assert str(excinfo.value) == (
        "%s:3: 'utf-8' codec can't decode byte 0xff in position %d: invalid start byte"
        % (path, position)
    )
    assert type(excinfo.value) is ValueError


@pytest.mark.parametrize("file_id", ["", ".", "..", "a/b.warc", "/tmp/o.warc"])
def test_index_save_refuses_a_file_id_load_rejects(tmp_path, file_id):
    good = index_entry("http://a.de/", "20000101000000", file_id="f.warc")
    bad = index_entry("http://b.de/", "20000101000000", file_id=file_id)
    path = tmp_path / "idx"
    with pytest.raises(ValueError) as excinfo:
        ArchiveIndex([good, bad]).save(str(path))
    assert str(excinfo.value) == "%s:3: file id must be a bare file name, got %r" % (
        path, file_id,
    )
    assert os.listdir(tmp_path) == []  # no index, no temporary file


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
    rec = warcwriter.make_response_record("http://a.de/", "2009-01-01T00:00:00.123Z", page())
    path = tmp_path / "f.warc"
    warcwriter.write_warc(str(path), [rec])
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    assert [e.timestamp14 for e in entries] == ["20090101000000"]
    assert stats.skipped == 0


def test_whitespace_url_survives_save_and_load(tmp_path):
    blobs = [
        warcwriter.make_response_record("http://a.de/a b", iso_of("20000101120000"), page("ab")),
        warcwriter.make_response_record("http://a.de/c", iso_of("20000101120000"), page("c")),
    ]
    path = tmp_path / "ws.warc"
    warcwriter.write_warc(str(path), blobs)
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
    assert fx.index.entries_for("http://U.de/x") and not fx.index.entries_for("http://u.de/y")


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
        index_entry(canonical_url=url, timestamp14=t, digest=d)
        for t, d in zip(times, digests)
    ]
    index = ArchiveIndex(entries)
    got = index.lookup_nearest(url, target)
    assert got == _epoch_bisect_nearest(index.entries_for(url), target)
    if len(set(times)) == len(times):
        assert got == _linear_nearest(index.entries_for(url), target)


def test_atomic_open_replaces_on_success(tmp_path):
    target = tmp_path / "out"
    target.write_text("old")
    plain = tmp_path / "plain"
    plain.write_text("x")
    with atomic_open(str(target), "w", encoding="utf-8") as f:
        f.write("new")
        assert target.read_text() == "old"  # nothing visible until the block ends
    assert target.read_text() == "new"
    assert os.stat(target).st_mode == os.stat(plain).st_mode
    assert sorted(os.listdir(tmp_path)) == ["out", "plain"]


def test_atomic_open_failure_keeps_target_and_removes_temp(tmp_path):
    target = tmp_path / "out"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(str(target), "w", encoding="utf-8") as f:
            f.write("partial")
            raise RuntimeError("writer failed")
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["out"]
    missing = tmp_path / "new"
    with pytest.raises(RuntimeError):
        with atomic_open(str(missing), "wb") as f:
            f.write(b"partial")
            raise RuntimeError("writer failed")
    assert os.listdir(tmp_path) == ["out"]


def test_index_save_failure_leaves_no_file(tmp_path):
    index = ArchiveIndex([index_entry("http://a.de/", "20000101000000")])
    target = tmp_path / "idx"
    target.mkdir()
    with pytest.raises(OSError):
        index.save(str(target))
    assert target.is_dir() and os.listdir(tmp_path) == ["idx"]


def test_atomic_open_follows_a_symlink(tmp_path):
    real = tmp_path / "real"
    real.write_text("old")
    link = tmp_path / "link"
    link.symlink_to(real)
    with atomic_open(str(link), "w", encoding="utf-8") as f:
        f.write("new")
    assert link.is_symlink() and real.read_text() == "new"


def test_atomic_open_writes_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as f:
            got.append(f.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    with atomic_open(str(fifo), "wb") as f:
        f.write(b"data")
    reader.join(10)
    assert got == [b"data"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


# --- the payload reader against the decoding parser it replaced -----------


def decoding_parse_record(data, offset):
    """warc._parse_record as it was: it decoded every header line."""
    head_end = data.find(b"\r\n\r\n")
    if head_end < 0:
        raise warc.WarcFormatError("truncated record header", offset)
    head = data[:head_end].decode("utf-8", "replace")
    lines = head.split("\r\n")
    if not lines[0].startswith("WARC/"):
        raise warc.WarcFormatError("missing WARC version line", offset)
    headers = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise warc.WarcFormatError("malformed header line %r" % line, offset)
        headers.append((name.strip(), value.strip()))
    # The first header named Content-Length in any case.
    length = next((v for k, v in headers if k.lower() == "content-length"), None)
    if length is None or not length.isdigit():
        raise warc.WarcFormatError("missing or invalid Content-Length", offset)
    length = int(length)
    body_start = head_end + 4
    if len(data) < body_start + length + 4:
        raise warc.WarcFormatError("truncated record payload", offset)
    if data[body_start + length : body_start + length + 4] != b"\r\n\r\n":
        raise warc.WarcFormatError("missing record terminator", offset)
    return warc.WarcRecord(headers, data[body_start : body_start + length]), body_start + length + 4


def decoded_content_length(data):
    """The Content-Length value that decoding_parse_record reads."""
    head = data[: data.find(b"\r\n\r\n")].decode("utf-8", "replace")
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            return value.strip()


_ARABIC_INDIC = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"


@st.composite
def records(draw):
    """One record's bytes, often slightly damaged: header names and values
    padded with Unicode whitespace, lengths off by one or written in
    other digits, stray CR and LF, bytes that are not UTF-8, missing
    terminators."""
    payload = draw(st.binary(max_size=30) | st.text("ab\r\n", max_size=12).map(str.encode))
    n = str(len(payload) + draw(st.sampled_from([0, 0, 0, 1, -1])))
    if draw(st.booleans()):
        n = "".join(_ARABIC_INDIC[int(c)] if c.isdigit() else c for c in n)
    form = draw(st.sampled_from(["{}", " {} ", "\u00a0{}\t", "\u00b2{}", "{}x", "", "\x1c{}"]))
    value = form.format(n)
    name = draw(st.sampled_from([
        "Content-Length", "content-LENGTH", " Content-Length\t", "\u3000Content-Length",
        "Content-Lengths", "X-Content-Length", "Content Length",
    ]))
    line = st.sampled_from(["WARC-Type: response", "Content-Length: 3", "Content-Length", "a:"])
    text = st.text("ab:- \t\r\n\u00a0\u00e9", max_size=8)
    others = draw(st.lists(line | line | text, max_size=3))
    others.insert(draw(st.integers(0, len(others))), name + ":" + value)
    version = draw(st.sampled_from(["WARC/1.0", "WARC/1.0", "WARC/1.1", "warc/1.0"]))
    head = "\r\n".join([version, *others]).encode("utf-8")
    if draw(st.booleans()):
        head = head.replace("\u00e9".encode("utf-8"), b"\xe9")  # not UTF-8
    ending = draw(st.sampled_from([b"\r\n\r\n"] * 3 + [b"\r\n", b"\n\r\n\r", b""]))
    return head + b"\r\n\r\n" + payload + ending


@settings(max_examples=600)
@given(data=records(), gzipped=st.booleans())
def test_read_record_equals_decoding_parser(tmp_path_factory, data, gzipped):
    try:
        rec, used = decoding_parse_record(data, 0)
        want = rec.payload
    except warc.WarcFormatError as exc:
        want = str(exc)
    except ValueError:  # int() of a Content-Length in Unicode digits
        want = None
    # The one intended difference: a Content-Length in other than ASCII
    # digits, which the old parser took when int() did, now fails alike
    # in every reader.
    if not isinstance(want, str) or want.startswith(("truncated record payload", "missing record")):
        if not decoded_content_length(data).isascii():
            want = "missing or invalid Content-Length (record at offset 0)"
    path = tmp_path_factory.getbasetemp() / "record.warc"
    path.write_bytes(_gzip_member(data) if gzipped else data)

    def outcome(read):
        try:
            return read()
        except warc.WarcFormatError as exc:
            return str(exc).replace(str(path) + ": ", "", 1)

    with open(path, "rb") as f:
        assert outcome(lambda: warc.read_record(f, 0, path.stat().st_size)) == want
    # iter_records' plain and gzip paths apply the same rule to the
    # first record; a gzip member must not hold more than that record.
    first = outcome(lambda: next(warc.iter_records(str(path)))[2].payload)
    if gzipped and isinstance(want, bytes) and data[used:].strip():
        assert "more than one record" in first
    else:
        assert first == want


# --- the one-pass reader against the line-reading reader it replaced ------


def header_map(pairs):
    """The header map of the (name, value) pairs that the line reader
    gives: each name lower-cased, the first of each name kept."""
    headers = {}
    for name, value in pairs:
        headers.setdefault(name.lower(), value)
    return headers


def outcome(read, path, headers=lambda headers: headers):
    """Every (offset, length, header map, payload) that ``read(path)``
    yields, its headers read by ``headers``, then the WarcFormatError
    message without the path, or None."""
    got = []
    try:
        for offset, length, rec in read(str(path)):
            got.append((offset, length, headers(rec.headers), rec.payload))
    except warc.WarcFormatError as exc:
        return got, str(exc).replace(str(path) + ": ", "", 1)
    return got, None


def assert_readers_agree(path):
    want = outcome(reference_warc.iter_records, path, header_map)
    assert outcome(warc.iter_records, path) == want
    return want


def _filler(size):
    """A valid record of exactly ``size`` bytes (at least 45)."""
    head = b"WARC/1.0\r\nContent-Length: %d\r\n\r\n" % 0
    n = size - len(head) - 4
    for _ in range(2):  # the length's digits count toward the size
        head = b"WARC/1.0\r\nContent-Length: %d\r\n\r\n" % n
        n = size - len(head) - 4
    return head + b"f" * n + b"\r\n\r\n"


@st.composite
def warc_files(draw):
    """Several records, plain and gzip mixed, each possibly damaged as in
    records(), after a filler that ends anywhere in the last few KiB
    before the reader's first buffer boundary, so that later records
    straddle it."""
    blobs = []
    if draw(st.booleans()):
        blobs.append(_filler(warc._CHUNK - draw(st.integers(0, 3000))))
    valid = st.builds(
        warcwriter.make_response_record,
        st.sampled_from(["http://a.de/", "http://b.de/x"]),
        st.just("2000-01-01T12:00:00Z"),
        st.binary(max_size=3000),
    )
    for data in draw(st.lists(valid | valid | records(), min_size=1, max_size=5)):
        blobs.append(_gzip_member(data) if draw(st.booleans()) else data)
    blobs.append(draw(st.sampled_from([b"", b"", b"\r\n", b"\x1f", b"WARC/1.0\r\n"])))
    return b"".join(blobs)


@settings(max_examples=300)
@given(data=warc_files())
def test_iter_records_equals_line_reader(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "records.warc"
    path.write_bytes(data)
    assert_readers_agree(path)


@pytest.mark.parametrize("gzipped", [False, True])
@pytest.mark.parametrize("spot", [
    "record start", "magic", "version line", "header", "blank line", "payload start",
    "payload", "terminator", "record end",
])
def test_records_straddling_the_buffer_boundary(tmp_path, gzipped, spot):
    # The first buffer ends at `spot` of the second record (for a gzip
    # member, at the same count of its compressed bytes); the third
    # record is longer than a buffer.
    second = warcwriter.make_response_record("http://a.de/2", iso_of("20000101120000"), b"y" * 700)
    head = second.index(b"\r\n\r\n") + 4
    cut = {
        "record start": 0, "magic": 1, "version line": 5, "header": 60,
        "blank line": head - 2, "payload start": head, "payload": head + 300,
        "terminator": len(second) - 2, "record end": len(second),
    }[spot]
    third = warcwriter.make_response_record(
        "http://a.de/3", iso_of("20000101120000"), os.urandom(3 * warc._CHUNK)
    )
    blobs = [second, third, second]
    if gzipped:
        blobs = list(map(_gzip_member, blobs))
    blobs.insert(0, _filler(warc._CHUNK - min(cut, len(blobs[0]))))
    path = tmp_path / "straddle.warc"
    path.write_bytes(b"".join(blobs))
    got, error = assert_readers_agree(path)
    assert error is None and [length for _, length, _, _ in got] == list(map(len, blobs))


@pytest.mark.parametrize("extra, cut, error", [
    (0, False, None),
    (1, False, "unterminated header block (record at offset 1000)"),
    # The file ends 1 MiB into a header block, before its blank line.
    (10, True, "truncated record header (record at offset 1000)"),
])
def test_header_block_limit_after_other_records(tmp_path, extra, cut, error):
    block = _padded_record((1 << 20) + extra)
    block = block[: 1 << 20] if cut else block + _filler(50)
    path = tmp_path / "h.warc"
    path.write_bytes(_filler(1000) + block)
    got, got_error = assert_readers_agree(path)
    assert got_error == error and len(got) == (3 if error is None else 1)


def test_payload_length_past_the_file_end_is_truncation(tmp_path):
    # The line reader asked the file for the whole claimed length and
    # failed with MemoryError or OverflowError; the length is now
    # checked against the file's size before any read.
    path = tmp_path / "huge.warc"
    for digits in (b"99999999999999", b"9" * 22):
        path.write_bytes(
            _filler(100) + b"WARC/1.0\r\nContent-Length: %s\r\n\r\nabc\r\n\r\n" % digits
        )
        got, error = outcome(warc.iter_records, path)
        assert len(got) == 1 and error == "truncated record payload (record at offset 100)"


def test_iter_records_memory_stays_bounded(tmp_path, monkeypatch):
    # About 20 MB in records of a few KiB. A reader that holds the whole
    # file would peak at its size; one that maps it would read no bytes
    # through the file object.
    record = warcwriter.make_response_record("http://a.de/", iso_of("20000101120000"), b"z" * 2000)
    path = tmp_path / "big.warc"
    with open(path, "wb") as f:
        for _ in range(20_000_000 // len(record)):
            f.write(record)
    reads = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            reads.append(n or 0)
            return n

    monkeypatch.setattr(
        warc, "open", lambda path, mode: io.BufferedReader(CountingFile(path, mode)),
        raising=False,
    )
    peak, n = traced_peak(lambda: sum(1 for _ in warc.iter_records(str(path))))
    assert n == 20_000_000 // len(record)
    assert sum(reads) == path.stat().st_size
    assert peak < 2 << 20


def test_abandoned_iteration_closes_the_file(tmp_path, monkeypatch):
    opened = []

    def spy_open(path, mode):
        opened.append(open(path, mode))
        return opened[-1]

    fx = build_archive(
        tmp_path, [("http://a.de/%d" % i, "20000101120000", page(str(i))) for i in range(5)]
    )
    monkeypatch.setattr(warc, "open", spy_open, raising=False)
    records = warc.iter_records(str(fx.path))
    next(records)
    del records
    assert len(opened) == 1 and opened[0].closed

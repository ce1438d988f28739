"""The index contract: ``ingest_warc`` -> ``ArchiveIndex.save`` ->
``ArchiveIndex.load`` and ``read_url_rows``. Whatever ``save`` writes,
both readers accept; whatever they would reject, ``save`` refuses with
``PATH:N`` and leaves no file."""

import os
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from subcollect.store import ArchiveIndex, IngestStats, ingest_warc, read_url_rows

from conftest import index_entry, iso_of, page
import warcwriter


@pytest.mark.parametrize(
    "content_type, mime",
    [
        ("text/html", "text/html"),
        ("Text/HTML; charset=utf-8", "text/html"),
        (" application/xhtml+xml ;q=1", "application/xhtml+xml"),
        ("+x/y", "+x/y"),
        # Not one type/subtype pair of tokens: indexed as no mime. The first
        # used to be kept whole, so index wrote a line of 9 fields.
        ("text/html charset=utf-8", ""),
        ("text / html", ""),
        ("text/html/x", ""),
        ("text", ""),
        ("text/", ""),
        ("/html", ""),
        ("-", ""),
        ("téxt/html", ""),
        ("text/h(tml)", ""),
        ("", ""),
    ],
)
def test_ingest_keeps_a_mime_only_when_it_is_a_media_type(tmp_path, content_type, mime):
    path = tmp_path / "f.warc"
    rec = warcwriter.make_response_record("http://a.de/", iso_of("20000101120000"), page(),
                                          content_type=content_type)
    warcwriter.write_warc(str(path), [rec])
    assert [e.mime for e in ingest_warc(str(path))] == [mime]


def test_a_cr_in_a_file_id_is_saved_loaded_and_point_read(tmp_path):
    # load read in text mode, where a lone CR ends a line, so it rejected
    # with "expected 8 fields, got 6" the line that save wrote and that
    # read_url_rows, which splits on LF only, accepted.
    e = index_entry("http://a.de/", "20000101000000", digest="d", file_id="a\rb.warc")
    path = str(tmp_path / "idx")
    ArchiveIndex([e]).save(path)
    assert ArchiveIndex.load(path).entries == [e]
    assert read_url_rows(path, "http://a.de/") == [e]


# Header values stay on one line of their record; everything else may be drawn.
_VALUE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=24)
_CONTENT_TYPE = st.sampled_from([
    "text/html", "text/html; charset=utf-8", "text/html charset=utf-8", "TEXT/Plain",
    "application/pdf", "-", "", "text/html;", " text/html ", "a b/c",
]) | _VALUE
_TARGET_URI = st.sampled_from([
    "http://a.de/", "http://a.de/x?q=1", "HTTP://A.DE:80/", "http://a.de/a b", "<http://b.de/>",
    "http://b.de/é", "http://[bad/", "ftp://a.de/", "http://a.de/%0D",
]) | st.text(st.characters(min_codepoint=0x20, max_codepoint=0x2FF), max_size=24)
_WARC_DATE = st.sampled_from([
    "2000-01-01T12:00:00Z", "2000-01-01T12:00:00.5Z", "2000-02-30T00:00:00Z",
    "0000-01-01T00:00:00Z", "1999-12-31T23:59:60Z", "2000-01-01",
]) | _VALUE
_WARC_NAME = st.text(st.sampled_from("ab.-_ \ré中"), min_size=1, max_size=8).filter(
    lambda name: name not in (".", "..")
)
_RECORD = st.tuples(_TARGET_URI, _WARC_DATE, _CONTENT_TYPE)


@settings(max_examples=300, deadline=None)
@given(
    warcs=st.lists(
        st.tuples(_WARC_NAME, st.lists(_RECORD, min_size=1, max_size=4)),
        min_size=1, max_size=3, unique_by=lambda warc: warc[0],
    )
)
@example(warcs=[("f.warc", [("http://a.de/", "2000-01-01T12:00:00Z", "text/html charset=utf-8")])])
@example(warcs=[("a\rb.warc", [("http://a.de/", "2000-01-01T12:00:00Z", "text/html")])])
@example(warcs=[("a b.warc", [("http://a.de/", "2000-01-01T12:00:00Z", "text/html")])])
def test_what_save_writes_both_readers_accept(tmp_path_factory, warcs):
    directory = tmp_path_factory.mktemp("contract")
    entries = []
    stats = IngestStats()
    for name, records in warcs:
        path = directory / name
        warcwriter.write_warc(str(path), [
            warcwriter.make_response_record(uri, date, page(str(i)), content_type=ctype)
            for i, (uri, date, ctype) in enumerate(records)
        ])
        entries += ingest_warc(str(path), stats=stats)
    assert stats.responses + stats.skipped == sum(len(records) for _, records in warcs)
    index = ArchiveIndex(entries)
    path = str(directory / "index.cdx")
    try:
        index.save(path)
    except ValueError as exc:
        assert re.match(re.escape(path) + r":[0-9]+: ", str(exc)), exc
        assert sorted(os.listdir(directory)) == sorted(name for name, _ in warcs)
        return
    assert ArchiveIndex.load(path).entries == index.entries
    for url in {e.canonical_url for e in index}:
        assert read_url_rows(path, url) == index.entries_for(url)

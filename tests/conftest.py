"""Shared fixtures: synthetic WARC archives built in-memory per test."""

from __future__ import annotations

import os
import tracemalloc
from urllib.parse import urlsplit

import pytest
from hypothesis import settings

from subcollect.htmldoc import parse_html
from subcollect.store import Archive, ArchiveIndex, IndexEntry, IngestStats, ingest_warc

import warcwriter
from warcwriter import damage_warc, iso_of, page  # noqa: F401 (tests import them here)

FILE_ID = "fixture.warc"

# HYPOTHESIS_PROFILE=ci: no per-example deadline, which a shared runner can
# miss, and a failure prints the blob that reproduces it.
settings.register_profile("ci", deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def urlsplit_host(url):
    """host_of as computed by urlsplit alone: the reference for host_of."""
    hostport = urlsplit(url).netloc.rsplit("@", 1)[-1]
    if hostport.startswith("["):
        return hostport.partition("]")[0] + "]"
    return hostport.partition(":")[0].lower()


def index_entry(canonical_url, timestamp14, mime="application/octet-stream", http_status=200,
                digest="", file_id="", offset=0, length=0):
    """An IndexEntry built by hand; the fields a test leaves out take these
    values. ``Archive.fetch`` fails on an entry whose digest is empty,
    since such an entry cannot be verified."""
    return IndexEntry(canonical_url, timestamp14, mime, http_status, digest, file_id, offset, length)


def traced_peak(fn, *args):
    """(peak, result): the most memory that tracemalloc saw allocated at
    once during ``fn(*args)``, in bytes, and what the call returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def link_kinds(page_url, *hrefs):
    """The kind parse_html gives each link of a page of these hrefs."""
    html = "".join('<a href="%s">x</a>' % h for h in hrefs)
    return [l.kind for l in parse_html(html, page_url).outlinks]


class FixtureArchive:
    def __init__(self, path, entries, stats):
        self.path = path
        self.index = ArchiveIndex(entries)
        self.stats = stats
        self.archive = Archive(str(path.parent))
        _open_archives.append(self.archive)

    def __len__(self):
        return len(self.index)


# Archives that build_archive made during the running test.
_open_archives = []


@pytest.fixture(autouse=True)
def close_fixture_archives():
    """Close, at each test's teardown, the WARC files its archives opened."""
    yield
    while _open_archives:
        _open_archives.pop().close()


def build_archive(tmp_path, captures, gzip_records=False, name=FILE_ID):
    """captures: iterable of (url, ts14, body[, content_type]) tuples."""
    blobs = []
    for cap in captures:
        url, ts14, body = cap[0], cap[1], cap[2]
        ctype = cap[3] if len(cap) > 3 else "text/html"
        if isinstance(body, str):
            body = body.encode("utf-8")
        blobs.append(warcwriter.make_response_record(url, iso_of(ts14), body, content_type=ctype))
    path = tmp_path / name
    warcwriter.write_warc(str(path), blobs, gzip_records=gzip_records)
    stats = IngestStats()
    entries = ingest_warc(str(path), stats=stats)
    return FixtureArchive(path, entries, stats)


@pytest.fixture
def three_hosts(tmp_path):
    """Six captures over three hosts and two years, with a small link graph."""
    captures = [
        ("http://a.de/", "20000101120000", page("a", links=["/x", "http://b.de/"])),
        ("http://a.de/x", "20000102120000", page("ax", text="web archive topics")),
        ("http://a.de/", "20010101120000", page("a2", links=["/x"])),
        ("http://b.de/", "20000601120000", page("b", text="unrelated content")),
        ("http://b.de/", "20010601120000", page("b2")),
        ("http://c.de/", "20010301120000", page("c", links=["http://a.de/"])),
    ]
    return build_archive(tmp_path, captures)

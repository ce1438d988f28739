"""Shared fixtures: synthetic WARC archives built in-memory per test."""

from __future__ import annotations

from urllib.parse import urlsplit

import pytest

from subcollect import warc
from subcollect.store import Archive, ArchiveIndex, ingest_warc

FILE_ID = "fixture.warc"


def iso_of(ts14):
    """14-digit timestamp -> WARC-Date string."""
    return "%s-%s-%sT%s:%s:%sZ" % (
        ts14[0:4], ts14[4:6], ts14[6:8], ts14[8:10], ts14[10:12], ts14[12:14]
    )


def urlsplit_host(url):
    """host_of as computed by urlsplit alone: the reference for host_of."""
    hostport = urlsplit(url).netloc.rsplit("@", 1)[-1]
    if hostport.startswith("["):
        return hostport.partition("]")[0] + "]"
    return hostport.partition(":")[0].lower()


def page(title="", links=(), text=""):
    """Small HTML page with the given anchors and body text."""
    anchors = "".join('<a href="%s">link</a>' % href for href in links)
    return (
        "<html><head><title>%s</title></head><body><p>%s</p>%s</body></html>"
        % (title, text, anchors)
    ).encode("utf-8")


class FixtureArchive:
    def __init__(self, path, entries, stats):
        self.path = path
        self.index = ArchiveIndex(entries)
        self.stats = stats
        self.archive = Archive()
        self.archive.register(FILE_ID, str(path))

    def __len__(self):
        return len(self.index)


def build_archive(tmp_path, captures, gzip_records=False, name=FILE_ID):
    """captures: iterable of (url, ts14, body[, content_type]) tuples."""
    blobs = []
    for cap in captures:
        url, ts14, body = cap[0], cap[1], cap[2]
        ctype = cap[3] if len(cap) > 3 else "text/html"
        if isinstance(body, str):
            body = body.encode("utf-8")
        blobs.append(warc.make_response_record(url, iso_of(ts14), body, content_type=ctype))
    path = tmp_path / name
    warc.write_warc(str(path), blobs, gzip_records=gzip_records)
    from subcollect.store import IngestStats

    stats = IngestStats()
    entries = ingest_warc(str(path), file_id=name, stats=stats)
    fx = FixtureArchive(path, entries, stats)
    fx.archive._paths[name] = str(path)
    return fx


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

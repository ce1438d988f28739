"""Offset-addressed archive store.

Turns WARC files into a sorted line-oriented index (one entry per
archived capture), serves nearest-in-time lookups, and counts every
snapshot fetch so algorithms can be compared by disk accesses instead
of wall-clock time.
"""

from __future__ import annotations

import bisect
import calendar
import hashlib
import operator
import os
import re
import threading
import time
from dataclasses import dataclass

from . import warc
from .urls import CanonicalizationError, canonicalize_url, host_of

__all__ = [
    "IndexEntry",
    "Snapshot",
    "AccessCounter",
    "ArchiveIndex",
    "Archive",
    "SnapshotNotFound",
    "CorruptSnapshotError",
    "ArchiveIOError",
    "IngestStats",
    "ingest_warc",
    "timestamp14_from_iso",
    "timestamp14_to_epoch",
]

INDEX_HEADER = "SUBCOLLECT-CDX 1"

# WARC/1.1 dates may carry a decimal fraction of a second (ISO 28500:2017).
_FRACTION_RE = re.compile(r"\.[0-9]+(?=[Zz]\Z)")
_TIMESTAMP14 = operator.attrgetter("timestamp14")


class SnapshotNotFound(LookupError):
    """The requested URL (or capture) is not in the index."""


class CorruptSnapshotError(Exception):
    """Fetched bytes do not match the indexed digest."""


class ArchiveIOError(OSError):
    """Archive file missing, unreadable, or offset out of range."""


def timestamp14_from_iso(iso_date):
    """\"2005-11-30T14:30:00Z\" -> \"20051130143000\"; a fraction of a
    second (\"...:00.123Z\") is truncated."""
    iso_date = _FRACTION_RE.sub("", iso_date.strip(), count=1)
    st = time.strptime(iso_date, "%Y-%m-%dT%H:%M:%SZ")
    return time.strftime("%Y%m%d%H%M%S", st)


def timestamp14_to_epoch(ts14):
    """14-digit UTC timestamp -> POSIX seconds."""
    if len(ts14) != 14 or not ts14.isdigit():
        raise ValueError("bad timestamp14: %r" % ts14)
    return calendar.timegm(time.strptime(ts14, "%Y%m%d%H%M%S"))


def is_valid_timestamp14(ts14):
    try:
        timestamp14_to_epoch(ts14)
    except ValueError:
        return False
    return True


@dataclass(frozen=True, order=True)
class IndexEntry:
    """One archived capture: canonical URL + crawl time + byte range."""

    canonical_url: str
    timestamp14: str
    mime: str = "application/octet-stream"
    http_status: int = 200
    digest: str = ""
    file_id: str = ""
    offset: int = 0
    length: int = 0
    original_url: str = ""

    @property
    def host(self):
        return host_of(self.canonical_url)

    @property
    def year(self):
        return int(self.timestamp14[:4])

    @property
    def epoch(self):
        return timestamp14_to_epoch(self.timestamp14)

    @property
    def is_html(self):
        return "html" in self.mime

    def to_line(self):
        return " ".join(
            [
                self.canonical_url,
                self.timestamp14,
                self.mime or "-",
                str(self.http_status),
                self.digest,
                self.file_id,
                str(self.offset),
                str(self.length),
            ]
        )

    @classmethod
    def from_line(cls, line):
        parts = line.split(" ")
        if len(parts) != 8:
            raise ValueError("index line must have 8 fields, got %d" % len(parts))
        url, ts, mime, status, digest, file_id, offset, length = parts
        return cls(
            canonical_url=url,
            timestamp14=ts,
            mime="" if mime == "-" else mime,
            http_status=int(status),
            digest=digest,
            file_id=file_id,
            offset=int(offset),
            length=int(length),
            original_url=url,
        )


@dataclass
class Snapshot:
    """A fetched capture: the indexed identity plus HTTP headers and body."""

    ref: IndexEntry
    http_headers: list
    body: bytes


class AccessCounter:
    """Thread-safe monotonic fetch/byte counters (the run-time metric)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.fetches = 0
        self.bytes_read = 0

    def record(self, nbytes):
        with self._lock:
            self.fetches += 1
            self.bytes_read += nbytes

    def snapshot(self):
        with self._lock:
            return self.fetches, self.bytes_read


@dataclass
class IngestStats:
    records: int = 0
    responses: int = 0
    skipped: int = 0
    bytes: int = 0


def ingest_warc(path, file_id=None, stats=None):
    """Index every HTTP-response record of one WARC file.

    Request/metadata/warcinfo records are passed over silently; response
    records missing WARC-Target-URI or WARC-Date (or carrying a
    non-HTTP payload) are skipped and tallied in ``stats.skipped``.
    """
    if file_id is None:
        file_id = os.path.basename(path)
    if stats is None:
        stats = IngestStats()
    entries = []
    for offset, length, rec in warc.iter_records(path):
        stats.records += 1
        stats.bytes += length
        if rec.record_type != "response":
            continue
        uri = rec.header("WARC-Target-URI")
        date = rec.header("WARC-Date")
        if not uri or not date:
            stats.skipped += 1
            continue
        parsed = warc.parse_http_response(rec.payload)
        if parsed is None:
            stats.skipped += 1
            continue
        status, http_headers, body = parsed
        try:
            canonical = canonicalize_url(uri)
            ts14 = timestamp14_from_iso(date)
        except (CanonicalizationError, ValueError):
            stats.skipped += 1
            continue
        mime = ""
        for name, value in http_headers:
            if name.lower() == "content-type":
                mime = value.split(";")[0].strip().lower()
                break
        entries.append(
            IndexEntry(
                canonical_url=canonical,
                timestamp14=ts14,
                mime=mime,
                http_status=status,
                digest=hashlib.sha256(body).hexdigest(),
                file_id=file_id,
                offset=offset,
                length=length,
                original_url=uri,
            )
        )
        stats.responses += 1
    return entries


class ArchiveIndex:
    """Sorted in-memory index over IndexEntry rows with per-URL lookup."""

    def __init__(self, entries=()):
        uniq = {}
        for e in entries:
            uniq[(e.canonical_url, e.timestamp14, e.digest)] = e
        self.entries = sorted(uniq.values())
        self._by_url = {}
        for e in self.entries:
            self._by_url.setdefault(e.canonical_url, []).append(e)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def urls(self):
        return self._by_url.keys()

    def entries_for(self, url):
        """All captures of one URL, ascending by time.

        Keys are canonical and canonicalization is idempotent, so ``url``
        is canonicalized only when it is not a key as given.
        """
        found = self._by_url.get(url)
        if found is None:
            found = self._by_url.get(canonicalize_url(url), [])
        return found

    def has_url(self, url):
        return bool(self.entries_for(url))

    def snapshots_of(self, url):
        """Ascending capture timestamps; same-time duplicates collapse
        unless their digests differ."""
        return [e.timestamp14 for e in self.entries_for(url)]

    def lookup_nearest(self, url, target_ts14):
        """Capture of ``url`` closest in time to ``target_ts14``.

        Equidistant ties go to the earlier capture. Raises
        SnapshotNotFound when the URL has no captures at all.
        """
        candidates = self.entries_for(url)
        if not candidates:
            raise SnapshotNotFound(url)
        target = timestamp14_to_epoch(target_ts14)
        # Zero-padded 14-digit UTC timestamps sort in time order, so only
        # the two neighbours of the insertion point need epochs.
        i = bisect.bisect_left(candidates, target_ts14, key=_TIMESTAMP14)
        best = None
        for c in candidates[max(i - 1, 0) : i + 1]:
            dist = abs(c.epoch - target)
            if best is None or dist < best[0]:
                best = (dist, c)
        return best[1]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(INDEX_HEADER + "\n")
            for e in self.entries:
                f.write(e.to_line() + "\n")

    @classmethod
    def load(cls, path):
        entries = []
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            if header != INDEX_HEADER:
                raise ValueError("not a %s file: %s" % (INDEX_HEADER, path))
            for lineno, line in enumerate(f, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    entries.append(IndexEntry.from_line(line))
                except ValueError as exc:
                    raise ValueError("%s:%d: %s" % (path, lineno, exc)) from exc
        return cls(entries)


class Archive:
    """Read access to the WARC files behind an index.

    ``directory`` maps each entry's file_id to <directory>/<file_id>;
    explicit paths can be registered instead. Files are immutable, so
    any number of workers may fetch concurrently; the shared counter
    uses atomic increments.
    """

    def __init__(self, directory=None, counter=None):
        self.directory = directory
        self._paths = {}
        self.counter = counter if counter is not None else AccessCounter()

    def register(self, file_id, path):
        self._paths[file_id] = path

    def _path_for(self, file_id):
        if file_id in self._paths:
            return self._paths[file_id]
        if self.directory is not None:
            return os.path.join(self.directory, file_id)
        raise ArchiveIOError("no path known for archive file %r" % file_id)

    def fetch(self, ref):
        """Fetch one snapshot; one disk access, ref.length bytes."""
        path = self._path_for(ref.file_id)
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise ArchiveIOError(str(exc)) from exc
        if ref.offset + ref.length > size:
            raise ArchiveIOError(
                "record at %d+%d exceeds size of %s" % (ref.offset, ref.length, path)
            )
        try:
            rec = warc.read_record(path, ref.offset, ref.length)
        except warc.WarcFormatError as exc:
            raise CorruptSnapshotError(str(exc)) from exc
        self.counter.record(ref.length)
        parsed = warc.parse_http_response(rec.payload)
        if parsed is None:
            raise CorruptSnapshotError("record at %d is not an HTTP response" % ref.offset)
        status, headers, body = parsed
        digest = hashlib.sha256(body).hexdigest()
        if ref.digest and digest != ref.digest:
            raise CorruptSnapshotError(
                "digest mismatch for %s@%s" % (ref.canonical_url, ref.timestamp14)
            )
        return Snapshot(ref=ref, http_headers=headers, body=body)

    def raw_record(self, ref):
        """On-disk record bytes, for verbatim WARC export."""
        return warc.raw_record_bytes(self._path_for(ref.file_id), ref.offset, ref.length)

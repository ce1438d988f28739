"""Offset-addressed archive store.

Turns WARC files into a sorted line-oriented index (one entry per
archived capture), serves nearest-in-time lookups, and counts every
snapshot fetch so algorithms can be compared by disk accesses instead
of wall-clock time. A loaded index keeps one string object per distinct
URL, mime type and file id, which the captures of one URL and the
entries of one WARC share. An :class:`Archive` keeps up to
:data:`MAX_OPEN_FILES` WARC files open from their first fetch until
:meth:`Archive.close`.

The index, the manifest and the truth set are line files, all read by
:func:`read_rows`, in binary: a header line, then a row of space-separated
fields per line. A line ends at LF, one CR before it is dropped (a lone CR
ends no line), each line is decoded as UTF-8 by itself, blank lines are
skipped, and every error is named ``path:line``. :meth:`ArchiveIndex.save`
reads each line it writes back through the row rule of
:meth:`ArchiveIndex.load`, timestamp included, so the index holds only
lines that both its readers accept. A valid timestamp is stated once, as
one compiled calendar regex that the row rule, :func:`is_valid_timestamp14`
and :func:`timestamp14_to_epoch` all check with; the last caches the start
of each month it meets.

The index is sorted: each entry sorts strictly after the one before it,
as :meth:`ArchiveIndex.save` writes them, and :meth:`ArchiveIndex.load`
rejects a line that does not. So the lines of one URL are adjacent: a
loaded index hands out each URL's captures as one group
(:attr:`ArchiveIndex.by_url`), and :func:`read_url_rows` finds them by a
binary search over the file, reading only the header, about log2(file
size) probed lines and the URL's own lines, which :func:`read_rows` then
reads. It trusts the order of the lines it does not read.
"""

from __future__ import annotations

import bisect
import contextlib
import datetime
import functools
import hashlib
import operator
import os
import re
from collections import namedtuple
from types import MappingProxyType

from . import warc
from .urls import canonicalize_url
from .warc import ArchiveIOError

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
    "read_rows",
    "read_url_rows",
    "nearest",
    "atomic_open",
    "timestamp14_from_iso",
    "timestamp14_to_epoch",
]

INDEX_HEADER = "SUBCOLLECT-CDX 1"

_TIMESTAMP14 = operator.itemgetter(1)  # IndexEntry.timestamp14
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()

# "%Y-%m-%dT%H:%M:%SZ" with the field patterns and the case-insensitive
# T and Z of the time module's parser: a 4-digit year, 1- or 2-digit
# fields, any Unicode digits. WARC/1.1 dates may also carry a decimal
# fraction of a second (ISO 28500:2017), which is dropped.
_ISO_DATE_RE = re.compile(
    r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
    r"[Tt](2[0-3]|[0-1]\d|\d):([0-5]\d|\d):(6[0-1]|[0-5]\d|\d)(?:\.[0-9]+)?[Zz]\Z"
)

# A valid timestamp14, "%Y%m%d%H%M%S" in ASCII digits: a calendar date
# from year 0001, with February 29 in the years that 4 divides, except the
# centuries that 400 does not; hours 00-23, minutes 00-59, seconds 00-61.
_LEAP_YEAR = r"(?:[0-9][0-9](?:0[48]|[2468][048]|[13579][26])|(?:0[48]|[2468][048]|[13579][26])00)"
_TIMESTAMP14_MATCH = re.compile(
    r"(?:(?!0000)[0-9]{4}"
    r"(?:(?:0[1-9]|1[0-2])(?:0[1-9]|1[0-9]|2[0-8])|(?:0[13-9]|1[0-2])(?:29|30)|(?:0[13578]|1[02])31)"
    r"|%s0229)"
    r"(?:[01][0-9]|2[0-3])[0-5][0-9](?:[0-5][0-9]|6[01])" % _LEAP_YEAR
).fullmatch


class SnapshotNotFound(LookupError):
    """The requested URL (or capture) is not in the index."""


class CorruptSnapshotError(Exception):
    """Fetched bytes do not match the indexed digest."""


def timestamp14_from_iso(iso_date):
    """\"2005-11-30T14:30:00Z\" -> \"20051130143000\"; a fraction of a
    second (\"...:00.123Z\") is truncated and the year zero-padded."""
    m = _ISO_DATE_RE.match(iso_date.strip())
    if m is None:
        raise ValueError("bad ISO date: %r" % iso_date)
    year, month, day, hour, minute, second = map(int, m.groups())
    datetime.date(year, month, day)  # raises ValueError for year 0 or day 31 of June
    return "%04d%02d%02d%02d%02d%02d" % (year, month, day, hour, minute, second)


@functools.lru_cache(maxsize=4096)
def _month_start(month):
    """POSIX seconds at the start of the day before the first of ``month``,
    YYYYMM as an int; an archive spans far fewer months than the cache."""
    return (datetime.date(month // 100, month % 100, 1).toordinal() - _EPOCH_ORDINAL - 1) * 86400


def timestamp14_to_epoch(ts14):
    """14-digit UTC timestamp -> POSIX seconds; ValueError unless
    :func:`is_valid_timestamp14`."""
    if _TIMESTAMP14_MATCH(ts14) is None:
        raise ValueError("bad timestamp14: %r" % ts14)
    day, second = divmod(int(ts14), 1000000)
    month, day = divmod(day, 100)
    minute = second // 100  # hours and minutes, HHMM
    # HHMMSS - 40 * HHMM - 2400 * HH = 3600 * HH + 60 * MM + SS
    return _month_start(month) + day * 86400 + second - 40 * minute - 2400 * (minute // 100)


def is_valid_timestamp14(ts14):
    """Whether ``ts14`` is 14 ASCII digits that form a calendar date from
    year 1, hours 00-23, minutes 00-59 and seconds 00-61 (leap seconds
    count on into the next minute)."""
    return _TIMESTAMP14_MATCH(ts14) is not None


class IndexEntry(
    namedtuple(
        "IndexEntry",
        "canonical_url timestamp14 mime http_status digest file_id offset length",
    )
):
    """One archived capture: canonical URL + crawl time + byte range.

    A tuple, so entries order, compare and hash field by field in C.
    """

    __slots__ = ()

    @property
    def epoch(self):
        return timestamp14_to_epoch(self.timestamp14)

    @property
    def is_html(self):
        return "html" in self.mime

    def fields(self):
        """The fields of the entry's index line, which joins them with spaces."""
        return [
            self.canonical_url,
            self.timestamp14,
            self.mime or "-",
            str(self.http_status),
            self.digest,
            self.file_id,
            str(self.offset),
            str(self.length),
        ]


# A fetched capture: its IndexEntry, first Content-Type ("" if none) and body.
Snapshot = namedtuple("Snapshot", "ref content_type body")


class AccessCounter:
    """Monotonic fetch counter (the run-time metric)."""

    def __init__(self):
        self.fetches = 0


# The record types of ISO 28500 that ingest passes over; any other
# WARC-Type is counted as "other".
PASSED_OVER = (
    "warcinfo", "request", "metadata", "revisit", "resource", "conversion", "continuation",
)


class IngestStats:
    __slots__ = ("records", "responses", "skipped", "bytes", "passed_over")

    def __init__(self):
        self.records = self.responses = self.skipped = self.bytes = 0
        # non-response records by WARC-Type, in PASSED_OVER order, then "other"
        self.passed_over = dict.fromkeys(PASSED_OVER + ("other",), 0)


def ingest_warc(path, stats=None):
    """Index every HTTP-response record of one WARC file.

    Each entry's file_id is the file's base name. Records of any other
    type are passed over and counted by type in ``stats.passed_over``;
    response records missing WARC-Target-URI or WARC-Date (or carrying
    a non-HTTP payload) are skipped and tallied in ``stats.skipped``.
    Each distinct Target-URI is canonicalized, and each distinct
    Content-Type read, once per file, so the entries of one URL share one
    string, as do those of one mime type: the essence that
    :func:`warc.media_type` reads from the response's first Content-Type.
    """
    file_id = os.path.basename(path)
    if stats is None:
        stats = IngestStats()
    passed_over = stats.passed_over
    canonical = {}  # Target-URI -> canonical URL
    mimes = {}  # Content-Type -> mime type
    entries = []
    for offset, length, rec in warc.iter_records(path):
        stats.records += 1
        stats.bytes += length
        headers = rec.headers
        kind = headers.get("warc-type")
        if kind != "response":
            passed_over[kind if kind in passed_over else "other"] += 1
            continue
        uri = headers.get("warc-target-uri")
        if uri and uri[0] == "<" and uri[-1] == ">":  # the WARC/1.0 examples' form
            uri = uri[1:-1]
        date = headers.get("warc-date")
        if not uri or not date:
            stats.skipped += 1
            continue
        parsed = warc.parse_http_response(rec.payload)
        if parsed is None:
            stats.skipped += 1
            continue
        status, content_type, body = parsed
        try:
            if uri not in canonical:
                canonical[uri] = canonicalize_url(uri)
            ts14 = timestamp14_from_iso(date)
        except ValueError:
            stats.skipped += 1
            continue
        if content_type not in mimes:
            mimes[content_type] = warc.media_type(content_type)[0]
        entries.append(IndexEntry(canonical[uri], ts14, mimes[content_type], status,
                                  hashlib.sha256(body).hexdigest(), file_id, offset, length))
        stats.responses += 1
    return entries


def _index_row():
    """``row(*fields)``, the IndexEntry of an index line, for one reading
    of the file: a URL in its canonical form, a timestamp that
    :func:`is_valid_timestamp14` accepts, status, offset and length of
    ASCII digits only, a bare file name as file id, and each entry sorting
    strictly after the one before. Entries share each distinct URL, mime
    and file id, and each distinct URL and file id is checked once."""
    make = IndexEntry._make
    urls, mimes, file_ids = {}, {"-": ""}, {}  # "-" is no mime
    last = ()  # sorts before every entry

    def row(url, ts, mime, status, digest, file_id, offset, length):
        nonlocal last
        if _TIMESTAMP14_MATCH(ts) is None:
            raise ValueError("bad timestamp14: %r" % ts)
        digits = status + offset + length
        status, offset, length = int(status), int(offset), int(length)
        if offset < 0 or length < 0:
            raise ValueError("offset and length must not be negative")
        if not (digits.isascii() and digits.isdigit()):  # int() also takes "+5", "1_0", " 7"
            raise ValueError("status, offset and length must be ASCII digits")
        if url not in urls:
            if canonicalize_url(url) != url:  # no lookup of a canonical URL would reach it
                raise ValueError("URL not in canonical form: %r" % url)
            urls[url] = url
        if file_id not in file_ids:
            if "/" in file_id or file_id in ("", ".", ".."):  # not inside the archive directory
                raise ValueError("file id must be a bare file name, got %r" % file_id)
            file_ids[file_id] = file_id
        entry = make((
            urls[url], ts, mimes.setdefault(mime, mime),
            status, digest, file_ids[file_id], offset, length,
        ))
        if entry <= last:
            raise ValueError("entry out of order")
        last = entry
        return entry

    return row


def nearest(captures, target_ts14):
    """The capture of ``captures``, one URL's in ascending order and not
    empty, closest in time to ``target_ts14``; equidistant ties go to the
    earlier capture."""
    target = timestamp14_to_epoch(target_ts14)
    # Zero-padded 14-digit UTC timestamps sort in time order, so only
    # the two neighbours of the insertion point need epochs.
    i = bisect.bisect_left(captures, target_ts14, key=_TIMESTAMP14)
    best = None
    for c in captures[max(i - 1, 0) : i + 1]:
        dist = abs(c.epoch - target)
        if best is None or dist < best[0]:
            best = (dist, c)
    return best[1]


class ArchiveIndex:
    """Sorted in-memory index over IndexEntry rows with per-URL lookup."""

    def __init__(self, entries=()):
        uniq = {}
        for e in entries:
            uniq[(e.canonical_url, e.timestamp14, e.digest)] = e
        self._set(sorted(uniq.values()))

    def _set(self, entries):
        """Index ``entries``, which are sorted."""
        self.entries = entries
        self._by_url = {}
        for e in entries:
            self._by_url.setdefault(e.canonical_url, []).append(e)
        # Read-only: canonical URL -> its captures, ascending by time, in
        # index order.
        self.by_url = MappingProxyType(self._by_url)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def entries_for(self, url):
        """All captures of one URL, ascending by time.

        Keys are canonical and canonicalization is idempotent, so ``url``
        is canonicalized only when it is not a key as given.
        """
        found = self._by_url.get(url)
        if found is None:
            found = self._by_url.get(canonicalize_url(url), [])
        return found

    def lookup_nearest(self, url, target_ts14):
        """Capture of ``url`` closest in time to ``target_ts14``.

        Equidistant ties go to the earlier capture. Raises
        SnapshotNotFound when the URL has no captures at all.
        """
        candidates = self.entries_for(url)
        if not candidates:
            raise SnapshotNotFound(url)
        return nearest(candidates, target_ts14)

    def save(self, path):
        """Write the index. Each line must hold no LF and read back, by the
        row rule of :meth:`load`, as the entry it was written from; one
        that does not fails the save with ``path:line`` and leaves no file."""
        row = _index_row()
        spaces = row.__code__.co_argcount - 1
        with atomic_open(path, "wb") as f:
            f.write(INDEX_HEADER.encode() + b"\n")
            for lineno, e in enumerate(self.entries, start=2):
                fields = e.fields()
                line = " ".join(fields)
                try:
                    # With no space inside a field, load splits the line into these fields.
                    if line.count(" ") != spaces or "\n" in line or row(*fields) != e:
                        raise ValueError("%r does not read back as written" % line)
                    f.write(line.encode("utf-8") + b"\n")
                except ValueError as exc:
                    raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None

    @classmethod
    def load(cls, path):
        """The index file ``path``, an entry per line. A line that breaks
        the row rule of :func:`_index_row`, its order included, fails the
        load with ``path:line``."""
        index = cls.__new__(cls)
        index._set(read_rows(path, INDEX_HEADER, _index_row()))
        return index


def _strip(raw):
    """A line read in binary without its line end, "\\n" or "\\r\\n"."""
    return raw.removesuffix(b"\n").removesuffix(b"\r")


def read_rows(path, header, row, first=None, seek=None, stop=None):
    """``row(*fields)`` of each line of the line file ``path``.

    Line 1 must be ``header``; ``first``, when given, is called with line 2.
    ``seek(f)``, when given, then moves the open file to the start of the
    next line to read. A later line is blank, and skipped, or has one
    space-separated field per parameter of ``row``; ``stop(line)``, when
    given, is called with each such line in bytes and ends the reading at
    the first it is true of. Any ValueError, such as a CanonicalizationError
    or a byte that is not UTF-8, is raised again as a plain ValueError that
    starts with ``path:line:``, counting the LFs before the line.
    """
    width = row.__code__.co_argcount
    rows = []
    with open(path, "rb") as f:
        try:
            raw = f.readline()
            if _strip(raw).decode("utf-8") != header:
                raise ValueError("not a %s file" % header)
            if first is not None:
                raw = f.readline()
                first(_strip(raw).decode("utf-8"))
            if seek is not None:
                seek(f)
            for raw in f:
                line = _strip(raw)
                if line:  # a blank line is skipped
                    if stop is not None and stop(line):
                        break
                    fields = line.decode("utf-8").split(" ")
                    if len(fields) != width:
                        raise ValueError("expected %d fields, got %d" % (width, len(fields)))
                    rows.append(row(*fields))
        except ValueError as exc:
            start = f.tell() - len(raw)  # of the line that failed
            f.seek(0)
            lineno = f.read(start).count(b"\n") + 1
            raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
    return rows


def _first_field_from(f, pos):
    """The first field, in bytes, of the first non-blank line that starts
    at or after ``pos``, which is past the header; None past the last."""
    f.seek(pos - 1)
    f.readline()  # the rest of the line that holds byte pos - 1
    for raw in f:
        line = _strip(raw)
        if line:
            return line.partition(b" ")[0]
    return None


def read_url_rows(path, url):
    """The entries of the canonical ``url`` in the index file ``path``,
    ascending: what ``ArchiveIndex.load(path).entries_for(url)`` gives.

    A binary search over byte offsets finds the first line whose first
    field is at least ``url``; :func:`read_rows` reads on from there, by
    the row rule of ``load``, order included, up to the first line of
    another URL. Fields compare as UTF-8 bytes, in the code point order
    that ``save`` sorts by; whole lines are never compared, since a URL
    may hold a character that sorts below the space.
    """
    # A lone surrogate, from a command line that is not UTF-8, encodes to
    # bytes that no UTF-8 line holds.
    key = url.encode("utf-8", "surrogatepass")

    def seek(f):
        lo, hi = f.tell(), os.fstat(f.fileno()).st_size
        while lo < hi:
            mid = (lo + hi) // 2
            field = _first_field_from(f, mid)
            if field is None or field >= key:
                hi = mid
            else:
                lo = mid + 1
        f.seek(lo - 1)
        f.readline()  # to the end of the line that holds byte lo - 1

    return read_rows(path, INDEX_HEADER, _index_row(), seek=seek,
                     stop=lambda line: line.partition(b" ")[0] != key)


# WARCs are commonly cut at 1 GB, so an archive may hold thousands, more
# than the 1024 files (256 on macOS) a process may open by default. 128
# leaves half the lower limit to the rest of the process.
MAX_OPEN_FILES = 128


class Archive:
    """Read access to the WARC files behind an index.

    An entry's record is read from <directory>/<file_id>, where the file
    id is the WARC's base name at indexing time. Each file is opened on
    its first fetch and stays open until :meth:`close`, which leaving a
    ``with Archive(...) as archive:`` block calls; past MAX_OPEN_FILES,
    the file used longest ago is closed. ``counter`` tallies every fetch.
    """

    def __init__(self, directory):
        self.directory = directory
        self._files = {}  # file_id -> (file, size at opening), least recently used first
        self.counter = AccessCounter()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        files, self._files = self._files, {}
        for f, _ in files.values():
            f.close()

    def _file(self, ref):
        """The open WARC of ``ref``, whose span must fit its size at opening."""
        files = self._files
        opened = files.pop(ref.file_id, None)
        if opened is None:
            if len(files) >= MAX_OPEN_FILES:
                files.pop(next(iter(files)))[0].close()
            try:
                f = open(os.path.join(self.directory, ref.file_id), "rb", buffering=0)
            except OSError as exc:
                raise ArchiveIOError(str(exc)) from exc
            opened = f, os.fstat(f.fileno()).st_size
        files[ref.file_id] = opened
        f, size = opened
        if ref.offset + ref.length > size:
            raise ArchiveIOError(
                "record at %d+%d exceeds size of %s" % (ref.offset, ref.length, f.name)
            )
        return f

    def fetch(self, ref):
        """Fetch one snapshot; one positioned read of ref.length bytes."""
        try:
            payload = warc.read_record(self._file(ref), ref.offset, ref.length)
        except warc.WarcFormatError as exc:
            raise CorruptSnapshotError(str(exc)) from exc
        self.counter.fetches += 1
        parsed = warc.parse_http_response(payload)
        if parsed is None:
            raise CorruptSnapshotError("record at %d is not an HTTP response" % ref.offset)
        _, content_type, body = parsed
        if hashlib.sha256(body).hexdigest() != ref.digest:  # a blank digest never matches
            raise CorruptSnapshotError(
                "digest mismatch for %s@%s" % (ref.canonical_url, ref.timestamp14)
            )
        return Snapshot(ref=ref, content_type=content_type, body=body)

    def raw_record(self, ref):
        """On-disk record bytes, for verbatim WARC export."""
        return warc.read_span(self._file(ref), ref.offset, ref.length)


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` for writing.

    When the block completes the file replaces ``path``; when anything
    fails it is removed, so ``path`` is left either complete or as it was.
    A symlink's target is replaced, not the link. A path that exists and
    is not a regular file, such as /dev/null or a pipe, is written in
    place: replacing it would put a regular file where the device was.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as f:
            yield f
        return
    path = os.path.realpath(path)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise

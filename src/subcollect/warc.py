"""Minimal WARC/1.0 reader and writer.

Supports plain and per-record-gzipped records in the same file
(gzip detected by the 1f 8b magic at record start). A gzip member that
holds more than one record, as in a whole-file-gzipped WARC, is an
error: its later records have no offset of their own. Only the header
fields needed for indexing are interpreted; everything else is kept
verbatim so records can be copied out byte-for-byte.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

__all__ = [
    "ArchiveIOError",
    "WarcFormatError",
    "WarcRecord",
    "iter_records",
    "read_record",
    "read_span",
    "parse_http_response",
    "make_response_record",
    "write_warc",
]

CRLF = b"\r\n"
_GZIP_MAGIC = b"\x1f\x8b"
_MAX_HEADER = 1 << 20  # bytes a record header block may take, through its blank line


class ArchiveIOError(OSError):
    """Archive file missing, unreadable, or offset out of range."""


class WarcFormatError(ValueError):
    """Malformed or truncated WARC data; ``offset`` names the record start."""

    def __init__(self, message, offset):
        super().__init__("%s (record at offset %d)" % (message, offset))
        self.offset = offset


@dataclass
class WarcRecord:
    headers: list = field(default_factory=list)  # ordered (name, value) pairs
    payload: bytes = b""

    def header(self, name):
        name = name.lower()
        for k, v in self.headers:
            if k.lower() == name:
                return v
        return None


def _content_length(lines, offset):
    """Payload length that a header block names, checked on bytes.

    ``lines`` is the block split on CRLF, from the version line to the
    blank line, exclusive. Every later line needs a colon. The first
    whose name, stripped, is Content-Length in any case gives the length
    in ASCII digits. Only that line is decoded: no other character
    lowercases into "content-length", so ``bytes.lower`` finds every
    candidate.
    """
    if not lines[0].startswith(b"WARC/"):
        raise WarcFormatError("missing WARC version line", offset)
    length = None
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            line = line.decode("utf-8", "replace")
            raise WarcFormatError("malformed header line %r" % line, offset)
        if length is None and b"content-length" in name.lower():
            if name.decode("utf-8", "replace").strip().lower() == "content-length":
                length = value.decode("utf-8", "replace").strip()
    if length is None or not (length.isascii() and length.isdigit()):
        raise WarcFormatError("missing or invalid Content-Length", offset)
    return int(length)


def _payload(data, start, end, offset):
    """``data[start:end]``, which the record terminator must follow."""
    if len(data) < end + 4:
        raise WarcFormatError("truncated record payload", offset)
    if data[end : end + 4] != b"\r\n\r\n":
        raise WarcFormatError("missing record terminator", offset)
    return data[start:end]


def _split_record(data, offset):
    """(header lines, payload, bytes used) of the record that starts ``data``."""
    head_end = data.find(b"\r\n\r\n")
    if head_end < 0:
        raise WarcFormatError("truncated record header", offset)
    lines = data[:head_end].split(CRLF)
    end = head_end + 4 + _content_length(lines, offset)
    return lines, _payload(data, head_end + 4, end, offset), end + 4


def _read_gzip_member(f, offset):
    """Decompress one gzip member starting at the current file position.

    Returns (decompressed bytes, compressed length); leaves the file
    positioned at the first byte after the member. The input is taken
    from the file's buffer with ``peek`` and only the bytes the member
    used are skipped, so no byte is read from the file twice.
    """
    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
    out = []
    consumed = 0
    while not decomp.eof:
        chunk = f.peek()
        if not chunk:
            raise WarcFormatError("truncated gzip member", offset)
        try:
            out.append(decomp.decompress(chunk))
        except zlib.error as exc:
            raise WarcFormatError("bad gzip data: %s" % exc, offset) from exc
        used = len(chunk) - len(decomp.unused_data)
        f.seek(used, os.SEEK_CUR)
        consumed += used
    return b"".join(out), consumed


def _read_plain_record(f, offset):
    """(header lines, payload, bytes used) of the uncompressed record at
    the current position.

    The header block is read line by line and the payload in one read,
    so every byte is read once and the file is left at the next record.
    """
    lines = []
    size = 0
    while True:
        line = f.readline(_MAX_HEADER + 1 - size)
        if not line:
            raise WarcFormatError("truncated record header", offset)
        size += len(line)
        if size > _MAX_HEADER:
            raise WarcFormatError("unterminated header block", offset)
        # The block ends at the first CRLF CRLF: an empty line after a CRLF.
        if line == CRLF and lines and lines[-1].endswith(CRLF):
            break
        lines.append(line)
    lines = b"".join(lines)[:-2].split(CRLF)
    length = _content_length(lines, offset)
    return lines, _payload(f.read(length + 4), 0, length, offset), size + length + 4


def iter_records(path):
    """Yield (offset, length, WarcRecord) for every record in the file.

    ``length`` is the on-disk byte span of the record (compressed span
    for gzipped records), so (offset, length) round-trips via
    :func:`read_record`. A WarcFormatError's message starts with ``path``.
    """
    with open(path, "rb") as f:
        try:
            while True:
                offset = f.tell()
                magic = f.read(2)
                if not magic:
                    return
                f.seek(offset)
                if magic == _GZIP_MAGIC:
                    data, consumed = _read_gzip_member(f, offset)
                    lines, payload, used = _split_record(data, offset)
                    if data[used:].strip():
                        raise WarcFormatError(
                            "gzip member holds more than one record; records can be"
                            " located by offset only when each is its own gzip member"
                            " (per-record gzip)",
                            offset,
                        )
                else:
                    lines, payload, consumed = _read_plain_record(f, offset)
                headers = []
                for line in lines[1:]:
                    name, _, value = line.decode("utf-8", "replace").partition(":")
                    headers.append((name.strip(), value.strip()))
                yield offset, consumed, WarcRecord(headers, payload)
        except WarcFormatError as exc:
            exc.args = ("%s: %s" % (path, exc),)
            raise


def read_span(f, offset, length):
    """The ``length`` bytes at ``offset`` of the open file ``f``, in one
    positioned read: a record's on-disk bytes, still gzipped if stored so.
    The caller checks the span against the file's size; a short read
    means the file shrank since."""
    data = os.pread(f.fileno(), length, offset)
    if len(data) < length:
        raise ArchiveIOError("record at %d+%d exceeds size of %s" % (offset, length, f.name))
    return data


def read_record(f, offset, length):
    """Payload of the record that :func:`iter_records` located at
    (offset, length) in the open file ``f``. The framing is checked as
    :func:`iter_records` checks it; the header block is not decoded."""
    data = read_span(f, offset, length)
    if data[:2] == _GZIP_MAGIC:
        try:
            data = zlib.decompress(data, 16 + zlib.MAX_WBITS)
        except zlib.error as exc:
            raise WarcFormatError("bad gzip data: %s" % exc, offset) from exc
    return _split_record(data, offset)[1]


def parse_http_response(payload):
    """Split an HTTP response payload into (status, headers, body).

    Returns None if the payload is not an HTTP response.
    """
    if not payload.startswith(b"HTTP/"):
        return None
    head_end = payload.find(b"\r\n\r\n")
    if head_end < 0:
        head_end = len(payload)
        body = b""
    else:
        body = payload[head_end + 4 :]
    head = payload[:head_end].decode("latin-1")
    lines = head.split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not (parts[1].isascii() and parts[1].isdigit()):
        return None
    status = int(parts[1])
    headers = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers.append((name.strip(), value.strip()))
    return status, headers, body


def _serialize_record(headers, payload):
    buf = [b"WARC/1.0", CRLF]
    for name, value in headers:
        buf += [name.encode("utf-8"), b": ", str(value).encode("utf-8"), CRLF]
    buf += [CRLF, payload, CRLF, CRLF]
    return b"".join(buf)


def make_response_record(url, iso_date, body, status=200, content_type="text/html"):
    """Build the bytes of one WARC response record wrapping an HTTP response."""
    http = b"".join(
        [
            b"HTTP/1.1 %d OK\r\n" % status,
            b"Content-Type: %s\r\n" % content_type.encode("latin-1"),
            b"Content-Length: %d\r\n" % len(body),
            b"\r\n",
            body,
        ]
    )
    headers = [
        ("WARC-Type", "response"),
        ("WARC-Target-URI", url),
        ("WARC-Date", iso_date),
        ("Content-Type", "application/http; msgtype=response"),
        ("Content-Length", str(len(http))),
    ]
    return _serialize_record(headers, http)


def make_record(record_type, url, iso_date, payload):
    """Build an arbitrary-typed record (request/metadata/warcinfo fixtures)."""
    headers = [("WARC-Type", record_type)]
    if url:
        headers.append(("WARC-Target-URI", url))
    if iso_date:
        headers.append(("WARC-Date", iso_date))
    headers.append(("Content-Length", str(len(payload))))
    return _serialize_record(headers, payload)


def write_warc(path, record_blobs, gzip_records=False):
    """Write pre-serialized record byte blobs to ``path``.

    With ``gzip_records`` each record becomes its own gzip member.
    """
    comp_level = 6
    with open(path, "wb") as f:
        for blob in record_blobs:
            if gzip_records:
                comp = zlib.compressobj(comp_level, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
                f.write(comp.compress(blob))
                f.write(comp.flush())
            else:
                f.write(blob)

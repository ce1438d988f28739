"""Minimal WARC/1.0 reader and writer.

Supports plain and per-record-gzipped records in the same file
(gzip detected by the 1f 8b magic at record start). A gzip member that
holds more than one record, as in a whole-file-gzipped WARC, is an
error: its later records have no offset of their own. Only the header
fields needed for indexing are interpreted; everything else is kept
verbatim so records can be copied out byte-for-byte.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

__all__ = [
    "WarcFormatError",
    "WarcRecord",
    "iter_records",
    "read_record",
    "parse_http_response",
    "make_response_record",
    "write_warc",
]

CRLF = b"\r\n"
_GZIP_MAGIC = b"\x1f\x8b"
_CHUNK = 1 << 16


class WarcFormatError(ValueError):
    """Malformed or truncated WARC data; ``offset`` names the record start."""

    def __init__(self, message, offset):
        super().__init__("%s (record at offset %d)" % (message, offset))
        self.offset = offset


@dataclass
class WarcRecord:
    headers: list = field(default_factory=list)  # ordered (name, value) pairs
    payload: bytes = b""

    def header(self, name, default=None):
        name = name.lower()
        for k, v in self.headers:
            if k.lower() == name:
                return v
        return default

    @property
    def record_type(self):
        return self.header("WARC-Type", "")


def _parse_record(data, offset):
    """Parse one uncompressed record from ``data``; returns (record, consumed)."""
    head_end = data.find(b"\r\n\r\n")
    if head_end < 0:
        raise WarcFormatError("truncated record header", offset)
    head = data[:head_end].decode("utf-8", "replace")
    lines = head.split("\r\n")
    if not lines[0].startswith("WARC/"):
        raise WarcFormatError("missing WARC version line", offset)
    headers = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise WarcFormatError("malformed header line %r" % line, offset)
        headers.append((name.strip(), value.strip()))
    rec = WarcRecord(headers=headers)
    length = rec.header("Content-Length")
    if length is None or not length.isdigit():
        raise WarcFormatError("missing or invalid Content-Length", offset)
    length = int(length)
    body_start = head_end + 4
    if len(data) < body_start + length + 4:
        raise WarcFormatError("truncated record payload", offset)
    rec.payload = data[body_start : body_start + length]
    if data[body_start + length : body_start + length + 4] != b"\r\n\r\n":
        raise WarcFormatError("missing record terminator", offset)
    return rec, body_start + length + 4


def _read_gzip_member(f, offset):
    """Decompress one gzip member starting at the current file position.

    Returns (decompressed bytes, compressed length); leaves the file
    positioned at the first byte after the member.
    """
    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
    out = []
    fed = 0
    while not decomp.eof:
        chunk = f.read(_CHUNK)
        if not chunk:
            raise WarcFormatError("truncated gzip member", offset)
        fed += len(chunk)
        try:
            out.append(decomp.decompress(chunk))
        except zlib.error as exc:
            raise WarcFormatError("bad gzip data: %s" % exc, offset) from exc
    consumed = fed - len(decomp.unused_data)
    f.seek(offset + consumed)
    return b"".join(out), consumed


def _read_plain_record(f, offset):
    """Read one uncompressed record incrementally from the current position."""
    buf = b""
    while True:
        head_end = buf.find(b"\r\n\r\n")
        if head_end >= 0:
            break
        chunk = f.read(_CHUNK)
        if not chunk:
            raise WarcFormatError("truncated record header", offset)
        buf += chunk
        if len(buf) > 1 << 20:
            raise WarcFormatError("unterminated header block", offset)
    # Header block is in hand; Content-Length tells us the full span.
    for line in buf[:head_end].split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            value = line.split(b":", 1)[1].strip()
            if not value.isdigit():
                raise WarcFormatError("invalid Content-Length", offset)
            total = head_end + 4 + int(value) + 4
            break
    else:
        raise WarcFormatError("missing or invalid Content-Length", offset)
    if len(buf) < total:
        buf += f.read(total - len(buf))
    rec, consumed = _parse_record(buf[:total], offset)
    f.seek(offset + consumed)
    return rec, consumed


def iter_records(path):
    """Yield (offset, length, WarcRecord) for every record in the file.

    ``length`` is the on-disk byte span of the record (compressed span
    for gzipped records), so (offset, length) round-trips via
    :func:`read_record`.
    """
    with open(path, "rb") as f:
        while True:
            offset = f.tell()
            magic = f.read(2)
            if not magic:
                return
            f.seek(offset)
            if magic == _GZIP_MAGIC:
                data, consumed = _read_gzip_member(f, offset)
                rec, used = _parse_record(data, offset)
                if data[used:].strip():
                    raise WarcFormatError(
                        "gzip member holds more than one record; records can be"
                        " located by offset only when each is its own gzip member"
                        " (per-record gzip)",
                        offset,
                    )
                yield offset, consumed, rec
            else:
                rec, consumed = _read_plain_record(f, offset)
                yield offset, consumed, rec


def read_record(path, offset, length):
    """Re-read one record previously located by :func:`iter_records`."""
    with open(path, "rb") as f:
        f.seek(offset)
        data = f.read(length)
    if len(data) < length:
        raise WarcFormatError("record extends past end of file", offset)
    if data[:2] == _GZIP_MAGIC:
        try:
            data = zlib.decompress(data, 16 + zlib.MAX_WBITS)
        except zlib.error as exc:
            raise WarcFormatError("bad gzip data: %s" % exc, offset) from exc
    rec, _ = _parse_record(data, offset)
    return rec


def raw_record_bytes(path, offset, length):
    """The record's on-disk bytes, verbatim (still compressed if gzipped)."""
    with open(path, "rb") as f:
        f.seek(offset)
        data = f.read(length)
    if len(data) < length:
        raise WarcFormatError("record extends past end of file", offset)
    return data


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
    if len(parts) < 2 or not parts[1].isdigit():
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

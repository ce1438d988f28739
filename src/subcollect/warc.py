"""Minimal WARC/1.0 reader.

Supports plain and per-record-gzipped records in the same file
(gzip detected by the 1f 8b magic at record start). A gzip member that
holds more than one record, as in a whole-file-gzipped WARC, is an
error: its later records have no offset of their own.

:func:`iter_records` reads a file in one pass through one bounded
buffer: it finds each header block with one search for its blank line
and decompresses each gzip member from the same buffer. One rule,
:func:`_parse_header`, decodes a header block once and gives both its
header map and its Content-Length, for :func:`iter_records` and
:func:`read_record` alike: a header name matches in any case, and the
first header of a name counts. Only the header fields needed for
indexing are interpreted; everything else is kept verbatim so records
can be copied out byte-for-byte. Of an HTTP response's head,
:func:`parse_http_response` gives only the status and the first
Content-Type; :func:`media_type` is the one rule that ingest and the
page parser read its mime and charset by.
"""

from __future__ import annotations

import os
import re
import zlib
from collections import namedtuple

__all__ = [
    "ArchiveIOError",
    "WarcFormatError",
    "WarcRecord",
    "iter_records",
    "read_record",
    "read_span",
    "parse_http_response",
    "media_type",
]

_GZIP_MAGIC = b"\x1f\x8b"
_MAX_HEADER = 1 << 20  # bytes a record header block may take, through its blank line
_CHUNK = 1 << 16  # bytes iter_records reads at a time
_GZIP_PIECE = 1 << 14  # compressed bytes handed to zlib at a time
# A Content-Type trimmed of HTTP whitespace: an essence of two HTTP tokens up to just past a ";"
# or the end, then one parameter per match, a name and either an opening quote and a value up to
# its closing quote or the end, or an unquoted value less its trailing whitespace. The parameter
# patterns compile on first use, through re's cache: the get command reads no Content-Type.
_TOKEN = r"[-!#$%&'*+.^_`|~0-9A-Za-z]+"
_ESSENCE_MATCH = re.compile(r"(%s/%s)[\t\n\r ]*(?:;|\Z)" % (_TOKEN, _TOKEN)).match
_PARAMETER = r'(?s)[\t\n\r ]*([^;=]*)(?:=(?:(")((?:[^"\\]|\\.)*\\?)"?|([^;]*[^;\t\n\r ])?))?[^;]*;?'
_QUOTED_STRING_TOKEN = "".join(map(chr, [9, *range(0x20, 0x7F), *range(0x80, 0x100)]))


class ArchiveIOError(OSError):
    """Archive file missing, unreadable, or offset out of range."""


class WarcFormatError(ValueError):
    """Malformed or truncated WARC data; ``offset`` names the record start."""

    def __init__(self, message, offset):
        super().__init__("%s (record at offset %d)" % (message, offset))
        self.offset = offset


# headers: each header name of the block, stripped and lower-cased, mapped
# to the stripped value of its first line.
WarcRecord = namedtuple("WarcRecord", "headers payload")


def _parse_header(block, offset):
    """(headers, Content-Length) of a header block: the bytes from the
    version line up to the blank line, exclusive.

    The block is decoded once. Every line after the version line needs a
    colon; names and values are stripped, and each name, lower-cased, maps
    to the value of its first line. Content-Length gives the payload
    length in ASCII digits.
    """
    lines = block.decode("utf-8", "replace").split("\r\n")
    if not lines[0].startswith("WARC/"):
        raise WarcFormatError("missing WARC version line", offset)
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise WarcFormatError("malformed header line %r" % line, offset)
        headers.setdefault(name.strip().lower(), value.strip())
    length = headers.get("content-length", "")
    if not (length.isascii() and length.isdigit()):
        raise WarcFormatError("missing or invalid Content-Length", offset)
    return headers, int(length)


def _payload(data, start, end, offset):
    """``data[start:end]``, which the record terminator must follow."""
    if len(data) < end + 4:
        raise WarcFormatError("truncated record payload", offset)
    if data[end : end + 4] != b"\r\n\r\n":
        raise WarcFormatError("missing record terminator", offset)
    return data[start:end]


def _split_record(data, offset):
    """(headers, payload, bytes used) of the record that starts ``data``."""
    head_end = data.find(b"\r\n\r\n")
    if head_end < 0:
        raise WarcFormatError("truncated record header", offset)
    headers, length = _parse_header(data[:head_end], offset)
    end = head_end + 4 + length
    return headers, _payload(data, head_end + 4, end, offset), end + 4


def iter_records(path):
    """Yield (offset, length, WarcRecord) for every record in the file.

    ``length`` is the on-disk byte span of the record (compressed span
    for gzipped records), so (offset, length) round-trips via
    :func:`read_record`. A WarcFormatError's message starts with ``path``.

    The file is read once, front to back, through one buffer of about
    :data:`_CHUNK` bytes, which grows only to hold a longer record.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buf = b""
        base = 0  # file offset of buf[0]
        pos = 0  # where the next record starts in buf
        try:
            while True:
                if len(buf) - pos < len(_GZIP_MAGIC):
                    buf, base, pos = buf[pos:] + f.read(_CHUNK), base + pos, 0
                    if not buf:
                        return
                offset = base + pos
                if buf.startswith(_GZIP_MAGIC, pos):
                    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
                    out = []
                    while not decomp.eof:
                        if pos == len(buf):
                            buf, base, pos = f.read(_CHUNK), base + pos, 0
                            if not buf:
                                raise WarcFormatError("truncated gzip member", offset)
                        piece = buf[pos : pos + _GZIP_PIECE]
                        try:
                            out.append(decomp.decompress(piece))
                        except zlib.error as exc:
                            raise WarcFormatError("bad gzip data: %s" % exc, offset) from exc
                        pos += len(piece) - len(decomp.unused_data)
                    data = b"".join(out)
                    headers, payload, used = _split_record(data, offset)
                    if data[used:].strip():
                        raise WarcFormatError(
                            "gzip member holds more than one record; records can be"
                            " located by offset only when each is its own gzip member"
                            " (per-record gzip)",
                            offset,
                        )
                else:
                    # The block ends at the first CRLF CRLF, at most
                    # _MAX_HEADER bytes from the record start.
                    head_end = buf.find(b"\r\n\r\n", pos, pos + _MAX_HEADER)
                    while head_end < 0:
                        if len(buf) - pos > _MAX_HEADER:
                            raise WarcFormatError("unterminated header block", offset)
                        more = f.read(_CHUNK)
                        if not more:
                            raise WarcFormatError("truncated record header", offset)
                        buf, base, pos = buf[pos:] + more, offset, 0
                        head_end = buf.find(b"\r\n\r\n", 0, _MAX_HEADER)
                    headers, length = _parse_header(buf[pos:head_end], offset)
                    end = head_end + 4 + length
                    if len(buf) < end + 4 and base + len(buf) < size:
                        # The rest of a record longer than the buffer, as
                        # far as the file goes.
                        more = f.read(min(end + 4, size - base) - len(buf))
                        buf, base, head_end, end = buf[pos:] + more, offset, head_end - pos, end - pos
                        pos = 0
                    payload = _payload(buf, head_end + 4, end, offset)
                    pos = end + 4
                yield offset, base + pos - offset, WarcRecord(headers, payload)
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
    :func:`iter_records` checks it, by the same header rule."""
    data = read_span(f, offset, length)
    if data[:2] == _GZIP_MAGIC:
        try:
            data = zlib.decompress(data, 16 + zlib.MAX_WBITS)
        except zlib.error as exc:
            raise WarcFormatError("bad gzip data: %s" % exc, offset) from exc
    return _split_record(data, offset)[1]


def parse_http_response(payload):
    """Split an HTTP response payload into (status, content_type, body).

    ``content_type`` is the stripped value of the first header named
    Content-Type in any case, or "" when there is none. Returns None if
    the payload is not an HTTP response.
    """
    if not payload.startswith(b"HTTP/"):
        return None
    head, _, body = payload.partition(b"\r\n\r\n")  # no blank line: all head, no body
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not (parts[1].isascii() and parts[1].isdigit()):
        return None
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep and name.strip().lower() == "content-type":
            return int(parts[1]), value.strip(), body
    return int(parts[1]), "", body


def media_type(value):
    """(essence, charset) of a Content-Type, by WHATWG's "parse a MIME type": "type/subtype" lower-cased,
    or "" for no media type, and the first parameter named ``charset`` in any case whose value is not
    empty unquoted and holds only HTTP quoted-string token code points, or None."""
    m = _ESSENCE_MATCH(value.strip("\t\n\r "))
    if m is None:
        return "", None
    essence, parameters = m.group(1).lower(), m.string[m.end():]
    for name, quote, quoted, bare in re.findall(_PARAMETER, parameters) if parameters else ():
        charset = re.sub(r"(?s)\\(.)", r"\1", quoted) if quote else bare
        if name.lower() == "charset" and (quote or bare) and not charset.strip(_QUOTED_STRING_TOKEN):
            return essence, charset
    return essence, None

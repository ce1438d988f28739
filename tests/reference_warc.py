"""The WARC reader that ``subcollect.warc.iter_records`` replaced.

``iter_records`` (a header block read one ``readline`` at a time, or a
gzip member decompressed through the file's ``peek`` buffer) and
``_content_length`` (the Content-Length rule applied to undecoded header
lines) are the previous implementations, copied unchanged, and serve as
the reference that the one-pass buffered reader is compared against.
The helpers that were not rewritten are imported from ``warc``.
"""

import os
import zlib

from subcollect.warc import _GZIP_MAGIC, _MAX_HEADER, WarcFormatError, WarcRecord, _payload

CRLF = b"\r\n"


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

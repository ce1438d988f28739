"""WARC writer for test fixtures: builds the record bytes that the
readers in ``subcollect.warc`` parse. The package itself only reads
WARCs; ``extract --export-warc`` copies record spans as stored.

It also builds small pages and damages written records. It imports
neither pytest nor Hypothesis, so ``golden`` runs without them.
"""

import zlib

CRLF = b"\r\n"


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


def iso_of(ts14):
    """14-digit timestamp -> WARC-Date string."""
    return "%s-%s-%sT%s:%s:%sZ" % (
        ts14[0:4], ts14[4:6], ts14[6:8], ts14[8:10], ts14[10:12], ts14[12:14]
    )


def page(title="", links=(), text=""):
    """Small HTML page with the given anchors and body text."""
    anchors = "".join('<a href="%s">link</a>' % href for href in links)
    return (
        "<html><head><title>%s</title></head><body><p>%s</p>%s</body></html>"
        % (title, text, anchors)
    ).encode("utf-8")


def damage_warc(path, entry, kind):
    """Damage the plain record of ``entry``, the last in the WARC at ``path``.

    "missing" deletes the file; "truncated" cuts the record's last byte;
    "header" takes the colon out of its first header line;
    "content-length" puts a superscript two, a Unicode digit that int()
    rejects, before its Content-Length; "digest" flips one body byte.
    """
    if kind == "missing":
        path.unlink()
        return
    data = bytearray(path.read_bytes())
    if kind == "truncated":
        del data[entry.offset + entry.length - 1 :]
    elif kind == "header":
        data[data.index(b":", entry.offset)] = ord(" ")
    elif kind == "content-length":
        at = data.index(b"Content-Length: ", entry.offset) + len(b"Content-Length: ")
        data[at:at] = "\u00b2".encode("utf-8")
    else:
        data[entry.offset + entry.length - 10] ^= 0xFF
    path.write_bytes(bytes(data))

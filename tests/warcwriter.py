"""WARC writer for test fixtures: builds the record bytes that the
readers in ``subcollect.warc`` parse. The package itself only reads
WARCs; ``extract --export-warc`` copies record spans as stored.
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

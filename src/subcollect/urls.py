"""URL canonicalization and host comparison helpers.

Canonical form: lowercase scheme and host, no fragment, no default port,
path never empty, query preserved byte-for-byte. Canonicalization is
idempotent, which makes URL-scope matching and link deduplication
deterministic.
"""

from __future__ import annotations

import re
from urllib.parse import quote, urlsplit

__all__ = [
    "CanonicalizationError",
    "canonicalize_url",
    "host_of",
    "same_host",
    "strip_www",
]

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
# Hostname: letters, digits, hyphen, dot, plus percent-encoded / IDN bytes.
_HOST_OK_RE = re.compile(r"^[a-z0-9._~%-]+$")


class CanonicalizationError(ValueError):
    """Raised for URLs that cannot be canonicalized.

    ``position`` is the index of the first offending byte in the input.
    """

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def canonicalize_url(url):
    """Return the canonical form of an absolute http/https URL.

    Lowercases scheme and host, strips the fragment and default ports
    (80 for http, 443 for https), and turns an empty path into "/".
    The query string is kept as given; parameter order can be
    semantically significant so it is never sorted. A space left inside
    the URL is escaped as "%20", so a canonical URL fits one field of a
    space-separated index line. Tab, CR and LF are already dropped by
    urlsplit; other whitespace is kept as given unless it ends the URL.
    """
    if not isinstance(url, str):
        raise CanonicalizationError("URL must be a string", 0)
    url = url.strip()
    if not url:
        raise CanonicalizationError("empty URL", 0)

    m = _SCHEME_RE.match(url)
    if m is None:
        raise CanonicalizationError("missing URL scheme", 0)
    scheme = url[: m.end() - 1].lower()
    if scheme not in ("http", "https"):
        raise CanonicalizationError("unsupported scheme %r" % scheme, 0)
    rest = url[m.end() :]
    if not rest.startswith("//"):
        raise CanonicalizationError("URL is not absolute", m.end())

    try:
        parts = urlsplit(url)
    except ValueError as exc:  # such as an unclosed "[" in the host
        raise CanonicalizationError(str(exc), m.end() + 2) from exc
    netloc = parts.netloc
    if not netloc:
        raise CanonicalizationError("empty host", m.end() + 2)

    # Split off userinfo and port before validating the hostname.
    hostport = netloc.rsplit("@", 1)[-1]
    userinfo = netloc[: -len(hostport) - 1] if "@" in netloc else ""
    # Positions below count from the netloc, which follows "scheme://".
    host_at = m.end() + 2 + len(userinfo) + (1 if userinfo else 0)
    if hostport.startswith("["):
        # Bracketed IPv6 literal: keep verbatim apart from lowercasing.
        host, _, port = hostport.partition("]")
        host += "]"
        if port and not port.startswith(":"):
            raise CanonicalizationError(
                "text %r after bracketed host" % port, host_at + len(host)
            )
        port = port.lstrip(":")
    else:
        host, _, port = hostport.partition(":")
    host = host.lower()
    if not host:
        raise CanonicalizationError("empty host", host_at)
    if not host.startswith("[") and not _HOST_OK_RE.match(host):
        bad = next(i for i, c in enumerate(host) if not _HOST_OK_RE.match(c))
        raise CanonicalizationError(
            "invalid character %r in host" % host[bad], host_at + bad
        )
    if port:
        if not port.isdigit():
            raise CanonicalizationError(
                "invalid port %r" % port, host_at + len(hostport) - len(port)
            )
        if (scheme == "http" and port == "80") or (scheme == "https" and port == "443"):
            port = ""

    netloc = host
    if port:
        netloc += ":" + port
    if userinfo:
        netloc = userinfo + "@" + netloc

    path = parts.path or "/"
    out = "%s://%s%s" % (scheme, netloc, path)
    if parts.query:
        out += "?" + parts.query
    out = out.replace(" ", "%20")
    # The strip() above would drop whitespace left at the end (such as
    # U+00A0 before an empty query or a fragment) on a second pass, so it
    # is escaped to keep canonicalization idempotent.
    if out[-1].isspace():
        kept = out.rstrip()
        out = kept + quote(out[len(kept) :])
    return out


def host_of(url):
    """Hostname (no port, no userinfo) of a canonical URL."""
    start = url.find("://") + 3
    end = url.find("/", start)
    netloc = url[start:end] if end >= 0 else url[start:]
    if start < 3 or "?" in netloc or "#" in netloc:
        # No "://", or a query or fragment ends the netloc before any "/".
        netloc = urlsplit(url).netloc
    hostport = netloc.rsplit("@", 1)[-1]
    if hostport.startswith("["):
        return hostport.partition("]")[0] + "]"
    return hostport.partition(":")[0].lower()


def strip_www(host):
    """Drop a single leading "www." label, if present."""
    if host.startswith("www.") and len(host) > 4:
        return host[4:]
    return host


def same_host(url_a, url_b, ignore_www=True):
    """True iff both URLs live on the same host.

    With ``ignore_www`` (the default) one leading "www." label is
    stripped from each side before comparing.
    """
    a, b = host_of(url_a), host_of(url_b)
    if ignore_www:
        a, b = strip_www(a), strip_www(b)
    return a == b

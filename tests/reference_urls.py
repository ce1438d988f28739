"""The urllib-based URL code that ``subcollect.urls`` replaced.

``canonicalize_url`` and ``link_target`` are the previous implementations,
copied unchanged but for the port rule (ASCII digits only), and serve as
the reference that the hand-written canonicalizer and link resolver are
compared against. They run on the Python under test, so shapes on which
``urlsplit`` differs between Python releases are kept out of the
comparisons (see ``version_dependent``).
"""

import re
from urllib.parse import quote, urljoin, urlsplit

from subcollect.urls import CanonicalizationError

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
_HOST_OK_RE = re.compile(r"^[a-z0-9._~%-]+$")
DROP_SCHEMES = ("javascript:", "mailto:", "data:", "about:", "tel:", "ftp:", "file:")


def canonicalize_url(url):
    if not isinstance(url, str):
        raise CanonicalizationError(url, "URL must be a string", 0)
    url = url.strip()
    if not url:
        raise CanonicalizationError(url, "empty URL", 0)

    m = _SCHEME_RE.match(url)
    if m is None:
        raise CanonicalizationError(url, "missing URL scheme", 0)
    scheme = url[: m.end() - 1].lower()
    if scheme not in ("http", "https"):
        raise CanonicalizationError(url, "unsupported scheme %r" % scheme, 0)
    rest = url[m.end() :]
    if not rest.startswith("//"):
        raise CanonicalizationError(url, "URL is not absolute", m.end())

    try:
        parts = urlsplit(url)
    except ValueError as exc:  # such as an unclosed "[" in the host
        raise CanonicalizationError(url, str(exc), m.end() + 2) from exc
    netloc = parts.netloc
    if not netloc:
        raise CanonicalizationError(url, "empty host", m.end() + 2)

    hostport = netloc.rsplit("@", 1)[-1]
    userinfo = netloc[: -len(hostport) - 1] if "@" in netloc else ""
    host_at = m.end() + 2 + len(userinfo) + (1 if userinfo else 0)
    if hostport.startswith("["):
        host, _, port = hostport.partition("]")
        host += "]"
        if port and not port.startswith(":"):
            raise CanonicalizationError(
                url, "text %r after bracketed host" % port, host_at + len(host)
            )
        port = port.lstrip(":")
    else:
        host, _, port = hostport.partition(":")
    host = host.lower()
    if not host:
        raise CanonicalizationError(url, "empty host", host_at)
    if not host.startswith("[") and not _HOST_OK_RE.match(host):
        bad = next(i for i, c in enumerate(host) if not _HOST_OK_RE.match(c))
        raise CanonicalizationError(
            url, "invalid character %r in host" % host[bad], host_at + bad
        )
    if port:
        if not (port.isascii() and port.isdigit()):
            raise CanonicalizationError(
                url, "invalid port %r" % port, host_at + len(hostport) - len(port)
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
    if out[-1].isspace():
        kept = out.rstrip()
        out = kept + quote(out[len(kept) :])
    return out


def link_target(base_url, href):
    """Canonical target of one stripped href on ``base_url``, or None."""
    if href.lower().startswith(DROP_SCHEMES):
        return None
    try:
        return canonicalize_url(urljoin(base_url, href))
    except ValueError:  # CanonicalizationError, or urlsplit rejecting the URL
        return None


def base_url(page_url, href, previous):
    """The base after ``<base href>``; ``previous`` when urljoin rejects it."""
    try:
        return urljoin(page_url, href)
    except ValueError:
        return previous


# Before Python 3.11, urlsplit read any run of scheme characters before
# the first ":" as a scheme, such as "1a" in "1a:b".
_OLD_SCHEME_RE = re.compile(r"[0-9+.-][a-zA-Z0-9+.-]*:")
_C0_OR_SPACE = "".join(map(chr, range(0x21)))


def version_dependent(href):
    """True for an href that urlsplit reads differently across the Python
    releases that the package supports."""
    cleaned = href.lstrip(_C0_OR_SPACE)
    for c in "\t\r\n":
        cleaned = cleaned.replace(c, "")
    return _OLD_SCHEME_RE.match(cleaned) is not None

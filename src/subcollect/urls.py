"""URL canonicalization, link resolution and host comparison helpers.

Canonical form: lowercase scheme and host, no fragment, no default port,
path never empty, query preserved byte-for-byte. Canonicalization is
idempotent, which makes URL-scope matching and link deduplication
deterministic.

Links resolve as RFC 3986 section 5.2 says (merge, then remove dot
segments), with the quirks of the join in CPython's ``urllib.parse``,
which this module replaces: empty segments of a relative merge
collapse, ``..`` above the root is dropped, a ";params" ending the last
segment is split off and dropped when empty, and an href with the base's
own scheme but no "//", such as ``http:x``, is relative. A scheme starts
with a letter (RFC 3986 section 3.1), and a bracketed host must be an
IPv6 address or an IPvFuture literal, whichever Python runs: the split
in ``urllib.parse`` has differed between releases on both points.

Most URLs are already canonical, so one regex (``_PLAIN_MATCH``) passes
them through: an absolute URL with a lower-case ``http`` or ``https``
scheme, a non-empty host of ``[a-z0-9.-]`` characters (empty labels and
leading or trailing dots are kept as written), no userinfo or port, a
rooted path without ";", a non-empty query or none, no fragment, and no
characters but RFC 3986 unreserved and sub-delims, ":", "@", "/", "%"
and, in the query, "?". Canonicalization returns such a URL unchanged,
and so does resolution of it as an href against any base, so both
return it at once, with the host that the regex captures. A rooted href
with no dot segment, such as ``/p31``, resolves to the base's
"scheme://host" and the href joined, so when that passes the regex it is
returned at once too, and ``page_base`` builds the base of a URL that
passes from the match. Any other URL takes the full path, with the same
result and errors.
"""

from __future__ import annotations

import ipaddress
import re
import unicodedata
from collections import namedtuple

__all__ = [
    "Base",
    "CanonicalizationError",
    "SpecError",
    "canonicalize_url",
    "host_of",
    "page_base",
    "rebase",
    "resolve",
    "strip_www",
]

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
# Hostname: letters, digits, hyphen, dot, plus percent-encoded / IDN bytes.
_HOST_OK_RE = re.compile(r"^[a-z0-9._~%-]+$")
# What follows "scheme://": netloc, path and query; a fragment is left over.
_AFTER_SCHEME_RE = re.compile(r"([^/?#]*)([^?#]*)\??([^#]*)")
# A URL reference: scheme, netloc (after "//"), path, query, fragment.
_REFERENCE_RE = re.compile(
    r"(?:([a-zA-Z][a-zA-Z0-9+.-]*):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?", re.DOTALL
)
# A URL that canonicalization and resolution return unchanged (see the
# module docstring); group 1 is its host.
_PLAIN_MATCH = re.compile(
    r"https?://([a-z0-9.-]+)/[a-zA-Z0-9._~%!$&'()*+,=:@/-]*"
    r"(?:\?[a-zA-Z0-9._~%!$&'()*+,;=:@/?-]+)?"
).fullmatch
_IPV_FUTURE_RE = re.compile(r"v[a-fA-F0-9]+\..+\Z")
# Stripped from the start of an href: C0 controls and space (WHATWG URL).
_C0_OR_SPACE = "".join(map(chr, range(0x21)))


class CanonicalizationError(ValueError):
    """Raised for URLs that cannot be canonicalized.

    ``url`` is the input without surrounding whitespace and ``position``
    the index of the first offending character in it.
    """

    def __init__(self, url, message, position):
        super().__init__("%r: %s (at position %d)" % (url, message, position))
        self.url = url
        self.position = position


class SpecError(ValueError):
    """Invalid specification; message carries the offending field path."""


def _netloc_error(netloc):
    """Why a netloc is malformed whatever the scheme, or None.

    Brackets must pair up around an IPv6 address or an IPvFuture literal,
    and NFKC normalization must not turn a character into a delimiter.
    """
    if "[" in netloc or "]" in netloc:
        if "[" not in netloc or "]" not in netloc:
            return "Invalid IPv6 URL"
        literal = netloc.partition("[")[2].partition("]")[0]
        if literal.startswith("v"):
            if not _IPV_FUTURE_RE.match(literal):
                return "IPvFuture address is invalid"
        else:
            try:
                address = ipaddress.ip_address(literal)
            except ValueError as exc:
                return str(exc)
            if address.version == 4:
                return "An IPv4 address cannot be in brackets"
    if not netloc.isascii():
        plain = netloc.replace("@", "").replace(":", "").replace("#", "").replace("?", "")
        normal = unicodedata.normalize("NFKC", plain)
        if normal != plain and any(c in normal for c in "/?#@:"):
            return "netloc '%s' contains invalid characters under NFKC normalization" % netloc
    return None


def _authority(scheme, netloc, url, at):
    """Canonical netloc and host of an http(s) URL.

    ``netloc`` starts at position ``at`` of ``url``, which only error
    messages use. Lowercases the host, checks its characters and the
    port, drops the scheme's default port, and keeps userinfo as given.
    """
    error = _netloc_error(netloc)
    if error:
        raise CanonicalizationError(url, error, at)
    if not netloc:
        raise CanonicalizationError(url, "empty host", at)

    # Split off userinfo and port before validating the hostname.
    hostport = netloc.rsplit("@", 1)[-1]
    userinfo = netloc[: -len(hostport) - 1] if "@" in netloc else ""
    host_at = at + len(userinfo) + (1 if userinfo else 0)
    if hostport.startswith("["):
        # Bracketed IPv6 literal: keep verbatim apart from lowercasing.
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
    netloc = host
    if port:
        if not (port.isascii() and port.isdigit()):
            raise CanonicalizationError(
                url, "invalid port %r" % port, host_at + len(hostport) - len(port)
            )
        if not ((scheme == "http" and port == "80") or (scheme == "https" and port == "443")):
            netloc += ":" + port
    if userinfo:
        netloc = userinfo + "@" + netloc
    return netloc, host


def _join(prefix, path, query):
    """``prefix`` ("scheme://netloc"), path and query as one canonical URL."""
    out = prefix + path + "?" + query if query else prefix + path
    out = out.replace(" ", "%20")
    # Canonicalization strips whitespace that ends a URL, such as U+00A0
    # before an empty query or a fragment, so a second pass would drop it:
    # it is escaped instead, to keep canonicalization idempotent.
    if out[-1].isspace():
        kept = out.rstrip()
        out = kept + "".join("%%%02X" % b for b in out[len(kept) :].encode())
    return out


def _canonicalize(url):
    """Canonical form and host of an absolute http/https URL."""
    if not isinstance(url, str):
        raise CanonicalizationError(url, "URL must be a string", 0)
    m = _PLAIN_MATCH(url)
    if m is not None:
        return url, m[1]
    url = url.strip()
    if not url:
        raise CanonicalizationError(url, "empty URL", 0)

    m = _SCHEME_RE.match(url)
    if m is None:
        raise CanonicalizationError(url, "missing URL scheme", 0)
    scheme = url[: m.end() - 1].lower()
    if scheme != "http" and scheme != "https":
        raise CanonicalizationError(url, "unsupported scheme %r" % scheme, 0)
    at = m.end() + 2
    if not url.startswith("//", m.end()):
        raise CanonicalizationError(url, "URL is not absolute", m.end())

    rest = url[at:]
    if "\t" in rest or "\r" in rest or "\n" in rest:
        rest = rest.replace("\t", "").replace("\r", "").replace("\n", "")
    netloc, path, query = _AFTER_SCHEME_RE.match(rest).groups()
    netloc, host = _authority(scheme, netloc, url, at)
    return _join(scheme + "://" + netloc, path or "/", query), host


def canonicalize_url(url):
    """Return the canonical form of an absolute http/https URL.

    Lowercases scheme and host, strips the fragment and default ports
    (80 for http, 443 for https), and turns an empty path into "/".
    The query string is kept as given; parameter order can be
    semantically significant so it is never sorted. A space left inside
    the URL is escaped as "%20", so a canonical URL fits one field of a
    space-separated index line. Tab, CR and LF are dropped; other
    whitespace is kept as given unless it ends the URL.
    """
    return _canonicalize(url)[0]


# Link resolution ------------------------------------------------------------


# What the links of a page resolve against. ``prefix`` is "scheme://netloc"
# of the canonical base URL, and None when only absolute links can
# resolve: the base is not a canonical http(s) URL. ``stack`` holds the
# directory segments left by dot-segment removal, ``directory`` is
# "/".join(stack) + "/", rooted, ``url`` the canonical base URL, and
# ``path`` the path that a query- or fragment-only href keeps.
Base = namedtuple(
    "Base", "scheme prefix host stack directory url path query",
    defaults=(None, None, (), None, None, None, None),
)


def _push(stack, segments):
    """Push path segments onto ``stack`` as the join does: "." is skipped,
    and ".." pops a segment, the root too, unless none is left."""
    for seg in segments:
        if seg == "..":
            if stack:
                stack.pop()
        elif seg != ".":
            stack.append(seg)
    return stack


def _remove_dots(stack, segments):
    """The rooted path left by pushing ``segments`` onto ``stack``."""
    _push(stack, segments)
    if segments[-1] == "." or segments[-1] == "..":
        stack.append("")
    path = "/".join(stack)
    return path if path[:1] == "/" else "/" + path


def _split_params(path):
    """(path, params): ";params" split off the last segment, as the join
    does; it writes the ";" back only when params is not empty."""
    i = path.find(";", max(path.rfind("/"), 0))
    if i < 0:
        return path, ""
    return path[:i], path[i + 1 :]


def _base(url, host):
    """Base for a canonical http(s) URL and its host."""
    m = _SCHEME_RE.match(url)
    netloc, path, query = _AFTER_SCHEME_RE.match(url, m.end() + 2).groups()
    same, params = _split_params(path)
    stack = _push([], [""] + [seg for seg in path.split("/")[1:-1] if seg])
    directory = "/".join(stack) + "/" if stack else "/"
    if directory[:1] != "/":
        directory = "/" + directory
    return Base(
        scheme=url[: m.end() - 1],
        prefix=url[: m.end() + 2 + len(netloc)],
        host=host,
        stack=tuple(stack),
        directory=directory,
        path=same + ";" + params if params else same,
        query=query,
        url=url,
    )


def page_base(url):
    """Base for the links of a page at ``url``; CanonicalizationError
    when the page URL cannot be canonicalized."""
    m = _PLAIN_MATCH(url) if isinstance(url, str) else None
    if m is not None:
        at = m.end(1)
        path, _, query = url[at:].partition("?")
        if "//" not in path and "/." not in path:  # no empty or dot segment: as _base
            directory = path[: path.rfind("/") + 1]
            stack = tuple(directory.split("/")[:-1])
            return Base(url[: m.start(1) - 3], url[:at], m[1], stack, directory, url, path, query)
    return _base(*_canonicalize(url))


def _clean(href):
    """An href as URL parsers read it: no leading C0 controls or spaces,
    and no tab, CR or LF anywhere."""
    href = href.lstrip(_C0_OR_SPACE)
    if "\t" in href or "\r" in href or "\n" in href:
        href = href.replace("\t", "").replace("\r", "").replace("\n", "")
    return href


def resolve(base, href):
    """(canonical URL, host) of ``href`` resolved against ``base``, or
    None when that is no canonical http(s) URL.

    ``href`` is the attribute value without surrounding whitespace.
    """
    if not href:
        return None if base.prefix is None else (base.url, base.host)
    if href[0] == "h":  # most relative hrefs do not pay for the regex
        m = _PLAIN_MATCH(href)
        if m is not None:
            return href, m[1]
    elif href[0] == "/" and href[1:2] != "/" and "/." not in href and base.prefix is not None:
        url = base.prefix + href  # a rooted path with no dot segment
        if _PLAIN_MATCH(url) is not None:
            return url, base.host
    scheme, netloc, path, query, fragment = _REFERENCE_RE.match(_clean(href)).groups()
    if scheme is None:
        scheme = base.scheme
    else:
        scheme = scheme.lower()
        if scheme != base.scheme:
            try:
                return _canonicalize(href)
            except CanonicalizationError:
                return None
    if scheme != "http" and scheme != "https":
        return None

    params = ""
    if ";" in path:
        path, params = _split_params(path)
    if netloc:
        if not (path or params or query or fragment):
            netloc = netloc.rstrip()  # it ends the URL, which is stripped
        try:
            netloc, host = _authority(scheme, netloc, href, 0)
        except CanonicalizationError:
            return None
        prefix = scheme + "://" + netloc
    elif base.prefix is None:
        return None
    else:
        prefix, host = base.prefix, base.host
        if not path and not params:
            path = base.path
            if not query:
                query = base.query
        elif path[:1] == "/":
            if "." in path:
                segments = path.split("/")
                if "." in segments or ".." in segments:
                    path = _remove_dots([], segments)
        else:
            segments = path.split("/")
            if "//" in path:  # empty segments collapse, except the last
                segments = [seg for seg in segments[:-1] if seg] + segments[-1:]
                path = "/".join(segments)
            if "." in path and ("." in segments or ".." in segments):
                path = _remove_dots(list(base.stack), segments)
            else:
                path = base.directory + path
    if params:
        path += ";" + params
    if not fragment:
        # The resolved URL ends here, and canonicalization strips it.
        if query:
            query = query.rstrip()
        else:
            path = path.rstrip()
    return _join(prefix, path or "/", query), host


def rebase(page, base, href):
    """Base for the links after a ``<base href>``.

    ``href`` resolves against the page URL. A ``javascript:`` or
    ``data:`` URL, or one with a malformed netloc, leaves ``base`` as it
    is; any other that is no canonical http(s) URL keeps only absolute
    links resolvable.
    """
    ref = _clean(href)
    scheme, netloc = _REFERENCE_RE.match(ref).group(1, 2)
    scheme = scheme.lower() if scheme else page.scheme
    if scheme == "javascript" or scheme == "data":
        return base
    if netloc and _netloc_error(netloc):
        return base
    # A base URL is read as a URL parser reads it, so an absolute one is
    # canonicalized as cleaned, not as written.
    resolved = resolve(page, href if scheme == page.scheme else ref)
    return Base(scheme) if resolved is None else _base(*resolved)


# Hosts ----------------------------------------------------------------------


def host_of(url):
    """Hostname (no port, no userinfo) of a canonical URL."""
    start = url.find("://") + 3
    end = url.find("/", start)
    netloc = url[start:end] if end >= 0 else url[start:]
    if start < 3 or "?" in netloc or "#" in netloc:
        # No "://", or a query or fragment ends the netloc before any "/".
        netloc = _REFERENCE_RE.match(_clean(url)).group(2) or ""
    hostport = netloc.rsplit("@", 1)[-1]
    if hostport.startswith("["):
        return hostport.partition("]")[0] + "]"
    return hostport.partition(":")[0].lower()


def strip_www(host):
    """Drop a single leading "www." label, if present."""
    if host.startswith("www.") and len(host) > 4:
        return host[4:]
    return host

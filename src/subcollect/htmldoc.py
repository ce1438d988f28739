"""Tolerant HTML analysis for archived pages.

Pages from the mid-90s onward are frequently malformed, so parsing is
best-effort: any input yields an analysis, never an exception. The
analysis carries exactly what downstream stages need: text tokens,
resolved outlinks, and counts for a handful of layout-indicative tags.

A page is read in one left-to-right pass. Every tag is found and its
end located the same way; attributes are read only for the tags the
analysis uses: a, base, link, script and style (table and div are only
counted). The rules follow the WHATWG HTML tokenizer where they matter
here:

- ``<`` and an ASCII letter open a start tag, ``</`` and a letter an end
  tag. The name runs to whitespace, ``/`` or ``>``. Tag and attribute
  names are case-insensitive. Whitespace inside a tag is tab, line feed,
  carriage return, form feed and space only; U+00A0 and other Unicode
  spaces are ordinary characters there.
- Attribute values are quoted, single-quoted or unquoted, and their
  character references are decoded. A quote opens a value only right
  after ``=``, and a tag ends at the first ``>`` outside a quoted value.
  ``href`` and ``rel`` take the first attribute of that name with a
  non-empty value.
- Every ``<base href>`` re-bases the links after it.
- The bodies of ``<script>`` and ``<style>`` are raw text, up to
  ``</script`` or ``</style`` (any case) followed by whitespace, ``/`` or
  ``>``, and give no tokens. A self-closing ``<script/>`` is counted but
  opens no body.
- Comments (``<!--`` to ``-->``; ``<!-->`` and ``<!--->`` are empty
  ones), other ``<!...>`` and ``<?...>`` (to the first ``>``) and
  ``</>`` add nothing.
- A ``<`` that starts none of these is text. Text runs between markup
  are entity-decoded and tokenized separately, so a token never spans
  markup.
- A tag, comment or raw-text body left open at the end of input is
  dropped, and so is everything after its start.

Each character is read a bounded number of times, so the time is linear
in the length of the page, malformed or not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from urllib.parse import urljoin

from .urls import canonicalize_url, host_of, same_host, strip_www

__all__ = ["PageAnalysis", "LinkRecord", "parse_html", "classify_link", "tokenize"]

TAG_CLASSES = ("script", "style_element", "linked_style", "table", "div", "anchor")

# Maximal runs of Unicode letters/digits (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_CHARSET_RE = re.compile(rb"charset\s*=\s*[\"']?([A-Za-z0-9_-]+)", re.IGNORECASE)
_DROP_SCHEMES = ("javascript:", "mailto:", "data:", "about:", "tel:", "ftp:", "file:")

# Markup at a "<". Groups: the "/" of an end tag, and the tag name.
_MARKUP_RE = re.compile(r"<(?:(/?)([a-zA-Z][^\t\n\r\f />]*)|[!?/])")
# One attribute: separators, a name, then optionally "=" and a value. A
# quote that is never closed runs to the end of input and leaves its
# closing group (3 or 5) empty.
_ATTR_RE = re.compile(
    r"""[\t\n\r\f /]*([^\t\n\r\f />][^\t\n\r\f /=>]*)"""
    r"""(?:[\t\n\r\f ]*=[\t\n\r\f ]*(?:"([^"]*)("?)|'([^']*)('?)|([^\t\n\r\f >]*)))?"""
)
_COMMENT_END_RE = re.compile(r"--!?>")
_RAW_TEXT_END_RE = {
    "script": re.compile(r"</script[\t\n\f\r />]", re.IGNORECASE),
    "style": re.compile(r"</style[\t\n\f\r />]", re.IGNORECASE),
}


def tokenize(text):
    """Lowercase letter/digit runs; no stemming, no stopword removal."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


@dataclass(frozen=True)
class LinkRecord:
    target: str  # absolute canonical URL
    kind: str  # "internal" | "external"


@dataclass
class PageAnalysis:
    tokens: list = field(default_factory=list)
    outlinks: list = field(default_factory=list)
    tag_counts: dict = field(default_factory=lambda: {t: 0 for t in TAG_CLASSES})

    def outlink_targets(self):
        return [l.target for l in self.outlinks]

    def internal_outlinks(self):
        return [l for l in self.outlinks if l.kind == "internal"]

    def external_outlinks(self):
        return [l for l in self.outlinks if l.kind == "external"]


def classify_link(target, page_url, ignore_www=True):
    """\"internal\" when target and page share a host (one leading
    \"www.\" stripped), \"external\" otherwise."""
    return "internal" if same_host(target, page_url, ignore_www) else "external"


def _read_attrs(text, pos, wanted=None):
    """Read a tag's attributes from ``pos``, just after its name.

    Returns (end, self_closing, value): ``end`` is the index after the
    closing ``>``, or -1 when the tag is open at the end of input;
    ``value`` is the decoded first non-empty value of the attribute named
    ``wanted``, or None.
    """
    value = None
    while True:
        m = _ATTR_RE.match(text, pos)
        if m is None:
            break
        name, dq, dq_close, sq, sq_close, bare = m.groups()
        if dq is not None:
            if not dq_close:
                return -1, False, None
            raw = dq
        elif sq is not None:
            if not sq_close:
                return -1, False, None
            raw = sq
        else:
            raw = bare
        if raw and value is None and name.lower() == wanted:
            value = unescape(raw)
        pos = m.end()
    # Only separators can stand between the last attribute and the ">".
    gt = text.find(">", pos)
    if gt < 0:
        return -1, False, None
    return gt + 1, gt > pos and text[gt - 1] == "/", value


def _tag_end(text, pos):
    """Index after the ``>`` closing a tag whose attributes start at
    ``pos``, or -1 when the tag is open at the end of input."""
    gt = text.find(">", pos)
    if gt < 0:
        return -1
    if text.find('"', pos, gt) < 0 and text.find("'", pos, gt) < 0:
        return gt + 1
    return _read_attrs(text, pos)[0]


def _markup_end(text, lt):
    """Index after the markup that starts with ``<!``, ``<?``, or ``</``
    and no letter, at ``lt``; -1 when it is open at the end of input."""
    if text.startswith("<!--", lt):
        if text.startswith(">", lt + 4):
            return lt + 5
        if text.startswith("->", lt + 4):
            return lt + 6
        m = _COMMENT_END_RE.search(text, lt + 4)
        return m.end() if m else -1
    gt = text.find(">", lt + 2)
    return gt + 1 if gt >= 0 else -1


def _link(base_url, href, page_host, ignore_www):
    """LinkRecord for one href, or None when the href is dropped."""
    if href.lower().startswith(_DROP_SCHEMES):
        return None
    try:
        target = canonicalize_url(urljoin(base_url, href))
    except ValueError:  # CanonicalizationError, or urlsplit rejecting the URL
        return None
    # classify_link with the page's host key computed once per page.
    host = host_of(target)
    if ignore_www:
        host = strip_www(host)
    return LinkRecord(target=target, kind="internal" if host == page_host else "external")


def _scan(text, page_url, ignore_www):
    """Analysis of decoded page text, in one left-to-right pass."""
    analysis = PageAnalysis()
    outlinks = analysis.outlinks
    counts = analysis.tag_counts
    base_url = page_url
    page_host = host_of(page_url)
    if ignore_www:
        page_host = strip_www(page_host)

    n = len(text)
    texts = []  # the page's text, a piece per stretch between markup
    pos = 0
    while pos < n:
        m = _MARKUP_RE.search(text, pos)
        if m is None:
            texts.append(text[pos:])
            break
        if m.start() > pos:
            texts.append(text[pos : m.start()])
        slash, tag = m.groups()
        if tag is None:  # "<!", "<?", or "</" and no letter
            end = _markup_end(text, m.start())
        elif slash:  # an end tag
            end = _tag_end(text, m.end())
            tag = None
        else:
            tag = tag.lower()
            if tag == "a" or tag == "base":
                end, _, href = _read_attrs(text, m.end(), "href")
            elif tag == "link":
                end, _, rel = _read_attrs(text, m.end(), "rel")
            elif tag == "script" or tag == "style":
                end, self_closing, _ = _read_attrs(text, m.end())
            else:
                end = _tag_end(text, m.end())
        if end < 0:
            break

        if tag == "a":
            if href:
                link = _link(base_url, href.strip(), page_host, ignore_www)
                if link is not None:
                    outlinks.append(link)
                    counts["anchor"] += 1
        elif tag == "table" or tag == "div":
            counts[tag] += 1
        elif tag == "script" or tag == "style":
            counts["script" if tag == "script" else "style_element"] += 1
            if not self_closing:
                close = _RAW_TEXT_END_RE[tag].search(text, end)
                end = _tag_end(text, close.end() - 1) if close else -1
                if end < 0:
                    break
        elif tag == "link":
            if rel and "stylesheet" in rel.lower():
                counts["linked_style"] += 1
        elif tag == "base" and href:
            try:
                base_url = urljoin(page_url, href.strip())
            except ValueError:
                pass  # an unusable <base> leaves the links on the old base
        pos = end

    # Pieces are joined with a space, which neither a token nor a
    # character reference can span. The copy is exact-size: analyses are
    # cached per page, and a list built by appending keeps spare capacity.
    analysis.tokens = list(tokenize(unescape(" ".join(texts))))
    return analysis


def _decode(body, charset_hint):
    for charset in (charset_hint, _meta_charset(body)):
        if not charset:
            continue
        try:
            return body.decode(charset, "replace")
        except LookupError:
            continue
    # Era-appropriate fallback: Latin-1 never fails to decode.
    return body.decode("latin-1", "replace")


def _meta_charset(body):
    m = _CHARSET_RE.search(body[:4096])
    return m.group(1).decode("ascii") if m else None


def parse_html(body, page_url, charset_hint=None, ignore_www=True):
    """Analyze one archived page; never raises on bad markup.

    Relative hrefs resolve against <base href> when present, else
    ``page_url``. javascript:/mailto:/data: links are dropped; text
    inside <script> and <style> contributes no tokens.
    """
    try:
        page_url = canonicalize_url(page_url)
    except ValueError:
        return PageAnalysis()
    if isinstance(body, bytes):
        text = _decode(body, charset_hint)
    else:
        text = body
    return _scan(text, page_url, ignore_www)

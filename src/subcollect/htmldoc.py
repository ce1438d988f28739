"""Tolerant HTML analysis for archived pages.

Pages from the mid-90s onward are frequently malformed, so parsing is
best-effort: any input yields an analysis, never an exception. The
analysis carries exactly what downstream stages need: text tokens,
resolved outlinks, and counts for a handful of layout-indicative tags.
Only relevance reads tokens, so a caller that reads only links and tags
(``evaluate``, ``stats``) passes ``tokens=False``: the text between
markup is then neither collected nor entity-decoded nor tokenized, and
the outlinks and tag counts are the same. ``extract`` decodes a page once
(:func:`page_text`), and parses it only if ``relevance.could_be_relevant``
does not rule it out from that text.

A page is read in one left-to-right pass of scan steps, each one
``_STEP_RE.match`` at the position where the text not yet read starts.
The regex first consumes a run of what the analysis passes over: text, a
``<`` that opens no markup, and every whole tag it ignores whose rest
holds no quote (any end tag, or a start tag not named a, base, link,
script, style, table or div). It then matches the markup that ends the
run, if any: a tag, a comment or a declaration, which Python code reads.
A tag whose rest holds no quote is matched whole, up to its ``>``, and so
is an ``<a>`` whose first attribute is a non-empty quoted href and whose
other attributes hold no quote; the regex captures that href. Only the
attributes of the other a, base and link tags, and of script and style
tags that have any, are read again. The rest of what was matched whole
is done with: table and div are only counted, the href is decoded, and a
bare script or style opens its raw-text body at the ``>``. Helpers read
on past the match over quoted attributes, comments, declarations and
raw-text bodies. The next step starts where what they read ends. A run
holds at most ``_RUN`` ignored tags and lone ``<``s, since the regex
engine keeps a record of each until the match ends; at that bound the
markup group reads the next tag even if it is ignored, and the scan
passes over it. When tokens are collected, the runs are the text, and
the same ignored-tag pattern turns their tags into spaces.

The time is linear in the length of the page, malformed or not. Within a
step, each alternative of the run either consumes what it reads or fails
before a quote, a ``>`` or the end of input: a failed ignored tag is then
the markup that ends the run, which its reader consumes at least that far,
or the scan stops at it. So each character is read a bounded number of
times. A whole ``<a>`` that fails stops at a quote or at the end of
input, and the tag's reader then reads at least that far.
The rules follow the WHATWG HTML tokenizer where they matter here:

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
- Every ``<base href>`` re-bases the links after it. A ``javascript:`` or
  ``data:`` base is ignored, as WHATWG's "frozen base URL" rule says.
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

Tokens are the maximal runs of Unicode letters and digits (``_``
excluded), lowercased; ``_TOKEN_RE`` matches them. Text that is all
ASCII, as most pages are, takes a faster path to the same list: one
``translate`` through a 128-entry table (A-Z lowered, a-z and 0-9 kept,
every other character a space), then ``split()``. On ASCII text the
regex's word characters are exactly a-z, A-Z, 0-9 and ``_``, and
``lower()`` maps only A-Z, so the two paths agree. Any other text takes
the regex, whose Unicode case rules (such as U+0130 lowering to two code
points) a table could not follow.

Links resolve with ``urls.resolve``: RFC 3986 section 5.2 with the quirks
of CPython's ``urllib.parse`` join kept (see ``urls``), fragments
dropped. The page URL and each ``<base href>`` are split once; each href
is then resolved and canonicalized in one pass, and an absolute href
already in canonical form passes through as it is. A link that does not
resolve to a canonical http(s) URL, such as a ``mailto:`` one, is
dropped. A link is internal when its host equals the page's, one leading
``www.`` stripped from each, and external otherwise.
"""

from __future__ import annotations

import codecs
import re
from collections import namedtuple
from html import unescape

from .store import CorruptSnapshotError
from .urls import CanonicalizationError, page_base, rebase, resolve, strip_www
from .warc import media_type

__all__ = [
    "PageAnalysis", "LinkRecord", "parse_html", "page_text", "analyze", "fetch_capture",
    "analyze_capture", "tokenize",
]

TAG_CLASSES = ("script", "style_element", "linked_style", "table", "div")

# Maximal runs of Unicode letters/digits (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# ASCII text is tokenized by this table and ``split()``: A-Z lowered,
# a-z and 0-9 kept, every other ASCII character (``_`` too) a space.
_ASCII_TOKEN_TABLE = str.maketrans(
    {i: chr(i).lower() if chr(i).isalnum() else " " for i in range(128)}
)
# A charset declared in a <meta> tag, by its charset attribute or its content;
# the tag ends at the next "<" or ">", so each byte is read by one match.
_CHARSET_RE = re.compile(rb"<meta[\t\n\r\f /][^<>]*?charset\s*=\s*[\"']?([A-Za-z0-9_-]+)", re.I)
# ``codecs.lookup`` names of codecs no browser decodes a page with; they
# turn ASCII text into garbage or nothing.
_NOT_PAGE_ENCODINGS = frozenset("punycode idna undefined unicode-escape raw-unicode-escape".split())

# A tag the analysis reads nothing from, when no quote stands between its
# name and its ">": an end tag, or a start tag not named a, base, link,
# script, style, table or div (its name runs to whitespace, "/" or ">").
_IGNORED_TAG = r"<(?:/|(?!(?i:a|base|link|script|style|table|div)[\t\n\r\f />]))[a-zA-Z][^>\"']*>"
_IGNORED_TAG_RE = re.compile(_IGNORED_TAG)
# The regex engine keeps a record per repetition of a group until a match
# ends, so a run holds at most this many ignored tags and lone "<"s.
_RUN = 64
# One scan step, matched where the text not yet read starts: a run of
# text, "<"s that open no markup and ignored tags, then, as group 1, the
# markup that ends it, if any. Groups 2 and 3 are the raw value, double-
# or single-quoted, of an <a> whose first attribute is a non-empty quoted
# href and whose rest holds no other quote; else groups 4-6 are the "/" of
# an end tag, the tag name, and the rest of the tag up to its ">" when
# that holds no quote. No markup but a quoted href runs past the first
# ">" after its "<". The patterns use no atomic groups and no possessive
# quantifiers, which Python 3.10 (the oldest that requires-python allows)
# does not compile.
_STEP_RE = re.compile(
    r"[^<]*(?:(?:%s|<(?![a-zA-Z/!?]))[^<]*){0,%d}"
    r"(<(?:(?i:a[\t\n\r\f /]+href)[\t\n\r\f ]*=[\t\n\r\f ]*(?:\"([^\"]+)\"|'([^']+)')[^>\"']*>"
    r"|(/?)([a-zA-Z][^\t\n\r\f />]*)([^>\"']*>)?|[!?/]))?" % (_IGNORED_TAG, _RUN)
)
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
    if text.isascii():
        return text.translate(_ASCII_TOKEN_TABLE).split()
    return [t.lower() for t in _TOKEN_RE.findall(text)]


# target is an absolute canonical URL; kind is "internal" or "external".
LinkRecord = namedtuple("LinkRecord", "target kind")
_new_tuple = tuple.__new__


class PageAnalysis:
    __slots__ = ("tokens", "outlinks", "tag_counts")

    def __init__(self, tokens=None):
        self.tokens = [] if tokens is None else tokens
        self.outlinks = []
        self.tag_counts = dict.fromkeys(TAG_CLASSES, 0)

    def outlink_targets(self):
        return [l.target for l in self.outlinks]


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


def _link(base, href, page_host):
    """LinkRecord for one href, or None when it resolves to no http(s) URL;
    ``page_host`` is the page's host with its leading "www." stripped."""
    resolved = resolve(base, href)
    if resolved is None:
        return None
    target, host = resolved
    kind = "internal" if strip_www(host) == page_host else "external"
    return _new_tuple(LinkRecord, (target, kind))  # skips the Python-level __new__


def _scan(text, page, tokens):
    """Analysis of decoded page text, in one left-to-right pass; the text
    pieces are collected and tokenized only when ``tokens`` is true."""
    analysis = PageAnalysis()
    outlinks = analysis.outlinks
    counts = analysis.tag_counts
    base = page
    page_host = strip_www(page.host)

    step = _STEP_RE.match
    n = len(text)
    texts = []  # the text read, a piece per run, its ignored tags included
    pos = 0  # where the text not yet read starts
    while pos < n:
        m = step(text, pos)
        start = m.start(1)
        if start < 0:  # the end of input, or a lone "<" at the run's bound
            if tokens:
                texts.append(text[pos : m.end()])
            pos = m.end()
            continue
        if tokens and start > pos:
            texts.append(text[pos:start])
        dq, sq, slash, tag, rest = m.group(2, 3, 4, 5, 6)
        if dq or sq:  # an <a> read whole
            tag, href, end = "a", unescape(dq or sq), m.end()
        elif tag is None:  # "<!", "<?", or "</" and no letter
            end = _markup_end(text, start)
        elif slash:  # an end tag
            end = m.end() if rest else _read_attrs(text, m.end())[0]
            tag = None
        else:
            tag = tag.lower()
            if tag == "a" or tag == "base":
                end, _, href = _read_attrs(text, m.end(5), "href")
            elif tag == "link":
                end, _, rel = _read_attrs(text, m.end(5), "rel")
            elif tag == "script" or tag == "style":
                end, self_closing = (m.end(), False) if rest == ">" else _read_attrs(text, m.end(5))[:2]
            else:
                end = m.end() if rest else _read_attrs(text, m.end())[0]
        if end < 0:
            break

        if tag == "a":
            if href:
                link = _link(base, href.strip(), page_host)
                if link is not None:
                    outlinks.append(link)
        elif tag == "table" or tag == "div":
            counts[tag] += 1
        elif tag == "script" or tag == "style":
            counts["script" if tag == "script" else "style_element"] += 1
            if not self_closing:
                close = _RAW_TEXT_END_RE[tag].search(text, end)
                end = close.end() if close else -1
                if end > 0 and text[end - 1] != ">":  # whitespace or "/" ends the name
                    end = _read_attrs(text, end - 1)[0]
                if end < 0:
                    break
        elif tag == "link":
            if rel and "stylesheet" in rel.lower():
                counts["linked_style"] += 1
        elif tag == "base" and href:
            base = rebase(page, base, href.strip())
        pos = end

    if tokens:
        # Ignored tags become spaces, and pieces are joined with a space,
        # which neither a token nor a character reference can span.
        analysis.tokens = tokenize(unescape(_IGNORED_TAG_RE.sub(" ", " ".join(texts))))
    return analysis


def _decode(body, charset_hint):
    for charset in (charset_hint, _meta_charset(body)):
        try:
            if charset and codecs.lookup(charset).name not in _NOT_PAGE_ENCODINGS:
                return body.decode(charset, "replace")
        except (LookupError, ValueError):  # unknown, has a NUL, or no "replace" decoder
            continue
    # Era-appropriate fallback: Latin-1 never fails to decode.
    return body.decode("latin-1", "replace")


def _meta_charset(body):
    m = _CHARSET_RE.search(body[:4096])
    return m.group(1).decode("ascii") if m else None


def parse_html(body, page_url, charset_hint=None, tokens=True):
    """Analyze one archived page; never raises on bad markup.

    Relative hrefs resolve against <base href> when present, else
    ``page_url``. Links to anything but http(s) URLs, such as
    javascript:/mailto:/data: ones, are dropped; text inside <script>
    and <style> contributes no tokens. With ``tokens`` false the text
    between markup is skipped and the analysis has no tokens.
    """
    try:
        page = page_base(page_url)
    except CanonicalizationError:
        return PageAnalysis()
    text = _decode(body, charset_hint) if isinstance(body, bytes) else body
    return _scan(text, page, tokens)


def page_text(snapshot):
    """An HTML snapshot's text, by its content_type's charset, its <meta> one or Latin-1."""
    return _decode(snapshot.body, media_type(snapshot.content_type)[1])


def analyze(snapshot, tokens=True):
    """Page analysis for a fetched snapshot; non-HTML yields an empty one."""
    if not snapshot.ref.is_html:
        return PageAnalysis()
    return parse_html(page_text(snapshot), snapshot.ref.canonical_url, tokens=tokens)


def fetch_capture(archive, entry):
    """The Snapshot of the capture ``entry``; None when it cannot be read."""
    try:
        return archive.fetch(entry)
    except (CorruptSnapshotError, OSError):
        return None


def analyze_capture(archive, entry, tokens=True):
    """Fetch and analyze the capture ``entry``; None when it cannot be read."""
    snapshot = fetch_capture(archive, entry)
    return None if snapshot is None else analyze(snapshot, tokens)

"""The markup scan and tokenizer that ``subcollect.htmldoc`` replaced.

``_scan`` (a ``search`` call and a ``_tag_end`` or ``_read_attrs`` call
per tag) and ``tokenize`` (one Unicode regex) are the previous
implementations, copied unchanged, and serve as the reference that the
scan steps and the ASCII translate-and-split tokenizer are compared
against. The helpers that were not rewritten are imported from
``htmldoc``.
"""

import re
from html import unescape

from subcollect.htmldoc import (
    PageAnalysis, _RAW_TEXT_END_RE, _link, _markup_end, _read_attrs,
)
from subcollect.urls import CanonicalizationError, page_base, rebase, strip_www

# Maximal runs of Unicode letters/digits (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Markup at a "<". Groups: the "/" of an end tag, and the tag name.
_MARKUP_RE = re.compile(r"<(?:(/?)([a-zA-Z][^\t\n\r\f />]*)|[!?/])")


def tokenize(text):
    """Lowercase letter/digit runs; no stemming, no stopword removal."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def _tag_end(text, pos):
    """Index after the ``>`` closing a tag whose attributes start at
    ``pos``, or -1 when the tag is open at the end of input."""
    gt = text.find(">", pos)
    if gt < 0:
        return -1
    if text.find('"', pos, gt) < 0 and text.find("'", pos, gt) < 0:
        return gt + 1
    return _read_attrs(text, pos)[0]


def _scan(text, page):
    """Analysis of decoded page text, in one left-to-right pass."""
    analysis = PageAnalysis()
    outlinks = analysis.outlinks
    counts = analysis.tag_counts
    base = page
    page_host = strip_www(page.host)

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
                link = _link(base, href.strip(), page_host)
                if link is not None:
                    outlinks.append(link)
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
            base = rebase(page, base, href.strip())
        pos = end

    # Pieces are joined with a space, which neither a token nor a
    # character reference can span. The copy is exact-size: analyses are
    # cached per page, and a list built by appending keeps spare capacity.
    analysis.tokens = list(tokenize(unescape(" ".join(texts))))
    return analysis


def parse_html(text, page_url):
    """``htmldoc.parse_html`` on decoded text, through the reference scan."""
    try:
        page = page_base(page_url)
    except CanonicalizationError:
        return PageAnalysis()
    return _scan(text, page)

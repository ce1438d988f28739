"""Tolerant HTML analysis for archived pages.

Pages from the mid-90s onward are frequently malformed, so parsing is
best-effort on top of html.parser: any input yields an analysis, never
an exception. The analysis carries exactly what downstream stages
need: text tokens, resolved outlinks, and counts for a handful of
layout-indicative tags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import urljoin

from .urls import CanonicalizationError, canonicalize_url, host_of, same_host, strip_www

__all__ = ["PageAnalysis", "LinkRecord", "parse_html", "classify_link", "tokenize"]

TAG_CLASSES = ("script", "style_element", "linked_style", "table", "div", "anchor")

# Maximal runs of Unicode letters/digits (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_CHARSET_RE = re.compile(rb"charset\s*=\s*[\"']?([A-Za-z0-9_-]+)", re.IGNORECASE)
_DROP_SCHEMES = ("javascript:", "mailto:", "data:", "about:", "tel:", "ftp:", "file:")


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


class _Collector(HTMLParser):
    def __init__(self, page_url, ignore_www):
        super().__init__(convert_charrefs=True)
        self.page_url = page_url
        self.ignore_www = ignore_www
        self.base_url = page_url
        self.page_host = self._host_key(host_of(page_url))
        self.analysis = PageAnalysis()
        self._suppress_text = 0  # inside <script>/<style>

    def _host_key(self, host):
        return strip_www(host) if self.ignore_www else host

    def handle_starttag(self, tag, attrs):
        counts = self.analysis.tag_counts
        if tag == "script":
            counts["script"] += 1
            self._suppress_text += 1
        elif tag == "style":
            counts["style_element"] += 1
            self._suppress_text += 1
        elif tag in ("table", "div"):
            counts[tag] += 1
        elif tag == "link":
            rel = next((v for k, v in attrs if k == "rel" and v), "")
            if "stylesheet" in rel.lower():
                counts["linked_style"] += 1
        elif tag == "base":
            href = next((v for k, v in attrs if k == "href" and v), None)
            if href:
                self.base_url = urljoin(self.page_url, href.strip())
        elif tag == "a":
            href = next((v for k, v in attrs if k == "href" and v), None)
            if href:
                self._add_link(href.strip())

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag in ("script", "style"):
            self._suppress_text -= 1

    def handle_endtag(self, tag):
        if tag in ("script", "style") and self._suppress_text > 0:
            self._suppress_text -= 1

    def handle_data(self, data):
        if not self._suppress_text and data:
            self.analysis.tokens.extend(tokenize(data))

    def _add_link(self, href):
        if href.lower().startswith(_DROP_SCHEMES):
            return
        try:
            target = canonicalize_url(urljoin(self.base_url, href))
        except CanonicalizationError:
            return
        # classify_link with the page's host key computed once per page.
        internal = self._host_key(host_of(target)) == self.page_host
        kind = "internal" if internal else "external"
        self.analysis.outlinks.append(LinkRecord(target=target, kind=kind))
        self.analysis.tag_counts["anchor"] += 1


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
    except CanonicalizationError:
        return PageAnalysis()
    if isinstance(body, bytes):
        text = _decode(body, charset_hint)
    else:
        text = body
    collector = _Collector(page_url, ignore_www)
    try:
        collector.feed(text)
        collector.close()
    except Exception:
        # html.parser rarely throws, but archived pages have seen worse;
        # keep whatever was collected before the failure.
        pass
    return collector.analysis

import re
import time
from html.parser import HTMLParser
from urllib.parse import urljoin

import pytest
from hypothesis import given, settings, strategies as st

from subcollect.htmldoc import (
    _DROP_SCHEMES,
    LinkRecord,
    PageAnalysis,
    classify_link,
    parse_html,
    tokenize,
)
from subcollect.urls import CanonicalizationError, canonicalize_url, host_of, strip_www


def test_relative_href_resolved():
    a = parse_html(b'<a href="/x">go</a>', "http://a.de/p")
    assert a.outlink_targets() == ["http://a.de/x"]
    assert a.tokens == ["go"]


def test_tag_counts_and_script_text_excluded():
    a = parse_html(
        b"<table><div></div></table><script>var x;</script>", "http://a.de/"
    )
    assert a.tag_counts["table"] == 1
    assert a.tag_counts["div"] == 1
    assert a.tag_counts["script"] == 1
    assert a.tokens == []


def test_internal_external_partition():
    html = (
        b'<a href="/one">1</a><a href="http://a.de/two">2</a>'
        b'<a href="http://b.de/">3</a><a href="http://c.de/">4</a>'
        b'<a href="https://d.de/x">5</a>'
    )
    a = parse_html(html, "http://a.de/start")
    assert len(a.outlinks) == 5
    assert len(a.internal_outlinks()) == 2
    assert len(a.external_outlinks()) == 3


def test_base_href_used_for_resolution():
    html = b'<base href="http://other.de/dir/"><a href="x">go</a>'
    a = parse_html(html, "http://a.de/p")
    assert a.outlink_targets() == ["http://other.de/dir/x"]


def test_script_scheme_links_dropped():
    html = (
        b'<a href="javascript:void(0)">j</a><a href="mailto:x@a.de">m</a>'
        b'<a href="data:text/plain,hi">d</a><a href="/keep">k</a>'
    )
    a = parse_html(html, "http://a.de/")
    assert a.outlink_targets() == ["http://a.de/keep"]


def test_anchor_count_equals_outlinks():
    html = b'<a href="/x">x</a><a>no href</a><a href="mailto:z">z</a>'
    a = parse_html(html, "http://a.de/")
    assert a.tag_counts["anchor"] == len(a.outlinks) == 1


def test_style_element_and_linked_style():
    html = (
        b"<style>body{}</style>"
        b'<link rel="StyleSheet" href="a.css">'
        b'<link rel="icon" href="f.ico">'
    )
    a = parse_html(html, "http://a.de/")
    assert a.tag_counts["style_element"] == 1
    assert a.tag_counts["linked_style"] == 1


def test_style_text_excluded_from_tokens():
    a = parse_html(b"<style>body { color: red }</style><p>visible</p>", "http://a.de/")
    assert a.tokens == ["visible"]


def test_tokens_lowercase_letter_digit_runs():
    a = parse_html(
        "<p>Hello World-2000 für_alle</p>".encode("utf-8"),
        "http://a.de/",
        charset_hint="utf-8",
    )
    assert a.tokens == ["hello", "world", "2000", "für", "alle"]


def test_unparseable_input_yields_empty_analysis():
    a = parse_html(b"\x00\xff\xfe<<<>>>", "http://a.de/")
    assert a.outlinks == []


def test_malformed_nineties_markup_tolerated():
    html = b"<HTML><BODY BGCOLOR=white><FONT SIZE=2><A HREF=/x>go<P>text"
    a = parse_html(html, "http://a.de/")
    assert a.outlink_targets() == ["http://a.de/x"]
    assert "text" in a.tokens


def test_charset_hint_honored():
    body = "<p>ärger</p>".encode("utf-8")
    a = parse_html(body, "http://a.de/", charset_hint="utf-8")
    assert a.tokens == ["ärger"]


def test_meta_charset_fallback():
    body = ('<meta charset="utf-8"><p>über</p>').encode("utf-8")
    a = parse_html(body, "http://a.de/")
    assert a.tokens == ["meta", "charset", "utf", "8", "über"] or "über" in a.tokens


def test_latin1_default():
    body = "<p>école</p>".encode("latin-1")
    a = parse_html(body, "http://a.de/")
    assert a.tokens == ["école"]


def test_analysis_deterministic():
    body = b'<a href="/x">Go</a><div>Some Text</div>'
    a1 = parse_html(body, "http://a.de/")
    a2 = parse_html(body, "http://a.de/")
    assert a1.tokens == a2.tokens
    assert a1.outlinks == a2.outlinks
    assert a1.tag_counts == a2.tag_counts


def test_no_uppercase_no_empty_tokens():
    a = parse_html(b"<p>MiXeD CaSe 123 ... !!!</p>", "http://a.de/")
    assert all(t and t == t.lower() for t in a.tokens)


def test_classify_link_basics():
    assert classify_link("http://a.de/x", "http://a.de/y") == "internal"
    assert classify_link("http://b.de/x", "http://a.de/y") == "external"
    assert classify_link("http://www.a.de/x", "http://a.de/y") == "internal"


def test_classify_link_www_configurable_off():
    assert classify_link("http://www.a.de/x", "http://a.de/y", ignore_www=False) == "external"


@given(
    h1=st.sampled_from(["a.de", "b.de", "www.a.de", "news.a.de"]),
    h2=st.sampled_from(["a.de", "b.de", "www.a.de", "news.a.de"]),
)
def test_classify_link_symmetric_in_host_pair(h1, h2):
    # Swapping page and target never changes the verdict: the rule only
    # compares hosts.
    u1, u2 = "http://%s/x" % h1, "http://%s/y" % h2
    assert classify_link(u1, u2) == classify_link(u2, u1)


def test_tokenize_excludes_underscore():
    assert tokenize("a_b") == ["a", "b"]


# Outlinks against resolution and classification link by link -------------

PAGE_URLS = [
    "http://a.de/p",
    "http://www.a.de/dir/page",
    "https://a.de:8443/x/y?q=1",
    "http://u:pw@a.de/x/",
    "http://[::1]/x",
]
HREF_PREFIXES = [
    "", "/", "//", "./", "../", "http://", "https://", "HTTP://", "http://u@",
    "mailto:", "javascript:", "ftp://", "?", "#",
]
HREF_HOSTS = ["a.de", "A.De", "www.a.de", "b.de", "b.de:8080", "b.de:80", "u:p@b.de", ""]
HREF_SEGMENTS = ["", ".", "..", "x", "p46", "a b", "%20", "~u", "a;b", "a:b", "ü", "Q", "a.b"]
HREF_SUFFIXES = ["", "?q=1", "#f", "?", "#", "?a b"]

hrefs = st.one_of(
    st.builds(
        lambda pre, host, segs, suf: pre + host + "/".join(segs) + suf,
        st.sampled_from(HREF_PREFIXES),
        st.sampled_from(HREF_HOSTS),
        st.lists(st.sampled_from(HREF_SEGMENTS), max_size=4).map(
            lambda segs: [""] + segs if segs else segs
        ),
        st.sampled_from(HREF_SUFFIXES),
    ),
    st.text(alphabet="/.?#:@ aAzZ09%-_~;", max_size=12),
)


def _resolve(href, base_url):
    """Canonical target of one href resolved on its own, or None."""
    if any(href.lower().startswith(s) for s in _DROP_SCHEMES):
        return None
    try:
        return canonicalize_url(urljoin(base_url, href))
    except CanonicalizationError:
        return None


@settings(max_examples=200)
@given(
    page_url=st.sampled_from(PAGE_URLS),
    base=st.one_of(st.none(), st.sampled_from(["http://other.de/dir/", "sub/", "/"])),
    links=st.lists(hrefs.filter(lambda h: '"' not in h and "&" not in h), max_size=5),
    ignore_www=st.booleans(),
)
def test_parse_html_outlinks_equal_per_link_classification(page_url, base, links, ignore_www):
    html = "".join('<a href="%s">x</a>' % h for h in links)
    base_url = page_url
    if base is not None:
        html = '<base href="%s">' % base + html
        base_url = urljoin(page_url, base)
    analysis = parse_html(html, page_url, ignore_www=ignore_www)

    want = []
    for h in filter(None, links):  # an empty href attribute is no link
        target = _resolve(h.strip(), base_url)
        if target is not None:
            want.append((target, classify_link(target, page_url, ignore_www)))
    assert [(l.target, l.kind) for l in analysis.outlinks] == want


@pytest.mark.parametrize(
    "href, target",
    [
        ("/a//b", "http://a.de/a//b"),
        ("/a/./b", "http://a.de/a/b"),
        ("/a/../b", "http://a.de/b"),
        ("/a b", "http://a.de/a%20b"),
        ("http://B.de/x", "http://b.de/x"),
        ("http://b.de:80/x", "http://b.de/x"),
        ("http://b.de", "http://b.de/"),
    ],
)
def test_non_canonical_hrefs_canonicalized(href, target):
    a = parse_html(('<a href="%s">x</a>' % href).encode(), "http://a.de/p")
    assert a.outlink_targets() == [target]


def test_bad_href_keeps_rest_of_page():
    # An href that urlsplit or canonicalization rejects drops that link
    # only, not the links and text after it.
    html = (
        b'<a href="/x">x</a><a href="http://[::1]a/">b</a><a href="http://[c/">c</a>'
        b'<a href="/z">z</a><p>tail words</p>'
    )
    a = parse_html(html, "http://a.de/")
    assert a.outlink_targets() == ["http://a.de/x", "http://a.de/z"]
    assert a.tokens == ["x", "b", "c", "z", "tail", "words"]


def test_unusable_base_href_keeps_previous_base():
    a = parse_html(b'<base href="http://[x/"><a href="y">y</a>', "http://a.de/d/p")
    assert a.outlink_targets() == ["http://a.de/d/y"]


# The scanner against the html.parser collector it replaced ----------------


class _Collector(HTMLParser):
    """The html.parser-based collector that parse_html used before the
    scanner, kept as the reference for well-formed markup."""

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
            self.analysis.tokens.extend(t.lower() for t in re.findall(r"[^\W_]+", data))

    def _add_link(self, href):
        if href.lower().startswith(_DROP_SCHEMES):
            return
        try:
            target = canonicalize_url(urljoin(self.base_url, href))
        except CanonicalizationError:
            return
        internal = self._host_key(host_of(target)) == self.page_host
        kind = "internal" if internal else "external"
        self.analysis.outlinks.append(LinkRecord(target=target, kind=kind))
        self.analysis.tag_counts["anchor"] += 1


def reference_analysis(html, page_url, ignore_www=True):
    collector = _Collector(canonicalize_url(page_url), ignore_www)
    collector.feed(html)
    collector.close()
    return collector.analysis


# A grammar of well-formed fragments. It keeps to markup on which every
# html.parser release since 3.10 agrees with the HTML tokenizer: no "=="
# before a value, named references in values end with ";", no raw-text
# elements other than script and style, and no "<!--" inside them.
TEXT_ATOMS = [
    "word", "Hello", "MiXeD", "2000", "für", "ÄRGER", "école", "a_b", "x1y2",
    " ", "  ", "\n", "\t", ".", ",", "!", "-", "'", '"', "=", "/", ">",
    "&amp;", "&lt;", "&gt;", "&quot;", "&#65;", "&#x42;", "&eacute;", "&nbsp;",
    "&amp", "AT&T", "&", "a < b", "1<2", "<3", "< p",
]
text = st.lists(st.sampled_from(TEXT_ATOMS), min_size=1, max_size=6).map("".join)

VALUE_ATOMS = [
    "/x", "x", "../y", "?q=1", "#f", "http://b.de/p", "HTTP://A.DE/Q", "//www.a.de/z",
    "mailto:a@b.de", "javascript:void(0)", "stylesheet", "StyleSheet", "icon", " ",
    "a b", "a>b", "&amp;", "&lt;x&gt;", "&#47;", "ü", "%20", "=", "<p>", "/",
]
value = st.lists(st.sampled_from(VALUE_ATOMS), max_size=3).map("".join)
UNQUOTED_ATOMS = ["/x", "x", "..", "y/", "?q", "#f", "http:", "//b.de", "&amp;", "ü"]
unquoted = st.lists(st.sampled_from(UNQUOTED_ATOMS), min_size=1, max_size=3).map("".join)
EQUALS = ["=", " = ", "\n=", "= "]
attribute = st.one_of(
    st.builds("{}{}\"{}\"".format, st.sampled_from(["href", "HREF", "rel", "Rel", "class"]),
              st.sampled_from(EQUALS), value.filter(lambda v: '"' not in v)),
    st.builds("{}{}'{}'".format, st.sampled_from(["href", "Href", "rel", "title"]),
              st.sampled_from(EQUALS), value.filter(lambda v: "'" not in v)),
    st.builds("{}{}{}".format, st.sampled_from(["href", "REL", "id"]),
              st.sampled_from(["=", " = "]), unquoted),
    st.sampled_from(["href", "async", "data-x", "rel"]),
)
SEPARATORS = [" ", "  ", "\n", "\t", " \n "]
TAG_NAMES = [
    "a", "A", "base", "BASE", "link", "Link", "table", "TABLE", "div", "Div",
    "p", "P", "td", "span", "br", "img", "meta", "h1", "li",
]


@st.composite
def start_tag(draw, names=st.sampled_from(TAG_NAMES)):
    name = draw(names)
    attrs = draw(st.lists(st.tuples(st.sampled_from(SEPARATORS), attribute), max_size=4))
    close = draw(st.sampled_from([">", "/>", " />", " >", "\n>"]))
    return "<" + name + "".join(sep + a for sep, a in attrs) + close


end_tag = st.builds(
    "</{}{}>".format, st.sampled_from(TAG_NAMES + ["script", "style"]), st.sampled_from(["", " "])
)
comment = st.builds(
    "<!--{}-->".format, st.sampled_from(["", " c ", "a-b", "<p>", "<a href='/c'>c</a>", "x>y"])
)
declaration = st.sampled_from(["<!DOCTYPE html>", "<!doctype HTML>", '<?xml version="1.0"?>'])
RAW_BODIES = [
    "", "var x = 1;", "if (a<b && c>d) {}", "<a href='/in'>in</a>", "</div>", "<p>",
    "document.write('<b>')", "&amp;", "p{margin:0}", "</", "< /script>",
]


@st.composite
def raw_text_element(draw):
    name = draw(st.sampled_from(["script", "SCRIPT", "style", "Style"]))
    opening = draw(start_tag(st.just(name)))
    if opening.endswith("/>"):
        return opening
    other = "style" if name.lower() == "script" else "script"
    body = draw(st.lists(st.sampled_from(RAW_BODIES + ["</%s>" % other]), max_size=3))
    closing = draw(st.sampled_from(["</%s>", "</%s >", "</%s\n>"])) % name.lower().upper()
    return opening + "".join(body) + closing


fragment = st.one_of(text, start_tag(), end_tag, comment, declaration, raw_text_element())


@settings(max_examples=500)
@given(
    parts=st.lists(fragment, max_size=12),
    page_url=st.sampled_from(PAGE_URLS),
    ignore_www=st.booleans(),
)
def test_scanner_equals_html_parser_on_well_formed_markup(parts, page_url, ignore_www):
    html = "".join(parts)
    got = parse_html(html, page_url, ignore_www=ignore_www)
    want = reference_analysis(html, page_url, ignore_www)
    assert got.tokens == want.tokens
    assert got.outlinks == want.outlinks
    assert got.tag_counts == want.tag_counts


# Rules at the end of input -------------------------------------------------


def test_unterminated_comment_dropped():
    a = parse_html("<p>before</p><!-- open <a href='/x'>after</a>", "http://a.de/")
    assert a.tokens == ["before"]
    assert a.outlinks == []


def test_unterminated_tag_dropped():
    a = parse_html("before <a href='/x' title=after", "http://a.de/")
    assert a.tokens == ["before"]
    assert a.outlinks == []


def test_unterminated_quoted_value_dropped():
    # The quote is never closed, so the tag runs to the end of input.
    a = parse_html('before <a href="/x>after</a> <a href=/y>y</a>', "http://a.de/")
    assert a.tokens == ["before"]
    assert a.outlinks == []


def test_unterminated_script_dropped():
    a = parse_html("before<script>var a; <a href='/x'>after</a>", "http://a.de/")
    assert a.tokens == ["before"]
    assert a.outlinks == []
    assert a.tag_counts["script"] == 1


def test_quote_opens_only_after_equals():
    # A quote in an attribute name opens no value: the tag ends at ">".
    a = parse_html('<p "x>after<a href=/y>y</a>', "http://a.de/")
    assert a.tokens == ["after", "y"]
    assert a.outlink_targets() == ["http://a.de/y"]


def test_nbsp_does_not_separate_attributes():
    # U+00A0 does not end the unquoted value of title, so "href=/y"
    # is part of it: no href.
    a = parse_html("<a title=x\u00a0href=/y>in</a>", "http://a.de/")
    assert a.outlinks == []
    assert a.tokens == ["in"]


def test_quote_after_nbsp_opens_no_value():
    # After "=", U+00A0 starts an unquoted value, so the quote is part of
    # it and the tag ends at the first ">".
    a = parse_html('<p x=\u00a0"a>b">c', "http://a.de/")
    assert a.tokens == ["b", "c"]


def test_quote_after_second_equals_opens_no_value():
    # The second "=" starts an unquoted value, which the quote is part of.
    a = parse_html('<p x=="a>b">c', "http://a.de/")
    assert a.tokens == ["b", "c"]


def test_quoted_gt_does_not_end_tag():
    a = parse_html('<a title="a>b" href="/x">in</a>', "http://a.de/")
    assert a.tokens == ["in"]
    assert a.outlink_targets() == ["http://a.de/x"]


def test_script_end_needs_delimiter():
    # "</scriptx" does not end the body; "</SCRIPT " does.
    a = parse_html("<script>a</scriptx>b</SCRIPT foo>after", "http://a.de/")
    assert a.tokens == ["after"]


def test_self_closing_script_opens_no_body():
    a = parse_html("<script/>after<style />more", "http://a.de/")
    assert a.tokens == ["after", "more"]
    assert a.tag_counts["script"] == a.tag_counts["style_element"] == 1


def test_token_never_spans_markup():
    a = parse_html("ab<!-- c -->cd<p>ef</p>gh<?pi?>ij", "http://a.de/")
    assert a.tokens == ["ab", "cd", "ef", "gh", "ij"]


# Linear time on malformed input ---------------------------------------------


@pytest.mark.parametrize("unit", ['<a "', "<!--", "<a href=x ", "<", "<script>"])
def test_malformed_megabyte_parses_in_linear_time(unit):
    html = unit * ((1 << 20) // len(unit))
    start = time.perf_counter()
    parse_html(html, "http://a.de/")
    assert time.perf_counter() - start < 2.0


MARKUP_BITS = [
    "<", ">", "</", "/", "<!", "<!--", "-->", "--", "<?", "<a", "<A ", " href=", "href", "'",
    '"', "=", " ", "\n", "x", "script", "<script>", "</script", "<style", "<base href=",
    "<link rel=stylesheet>", "http://[", "]a/", "&amp;", "&#", "ü", "<table", "<div",
]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(MARKUP_BITS), max_size=30).map("".join))
def test_any_markup_yields_an_analysis(html):
    a = parse_html(html, "http://a.de/")
    assert a.tag_counts["anchor"] == len(a.outlinks)

import re
import time
import tracemalloc
from html import escape
from html.parser import HTMLParser

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from subcollect.htmldoc import _RUN, LinkRecord, PageAnalysis, analyze, parse_html, tokenize
from subcollect.store import IndexEntry, Snapshot
from subcollect.urls import canonicalize_url, host_of, strip_www

import reference_htmldoc
import reference_urls
from conftest import link_kinds
from reference_urls import link_target, version_dependent


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
    kinds = [l.kind for l in a.outlinks]
    assert len(kinds) == 5
    assert kinds.count("internal") == 2
    assert kinds.count("external") == 3


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


def test_link_with_non_ascii_port_dropped():
    html = '<a href="http://b.de:\u0668\u0660/x">n</a><a href="http://b.de:80/y">a</a>'
    a = parse_html(html.encode("utf-8"), "http://a.de/", charset_hint="utf-8")
    assert a.outlink_targets() == ["http://b.de/y"]


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


@pytest.mark.parametrize(
    "charset", ["undefined", "idna", "punycode", "unicode_escape", "raw_unicode_escape"]
)
def test_charset_python_cannot_decode_is_unknown(charset):
    # Python knows these codecs, but no browser decodes a page with them:
    # some raise UnicodeError on a body even with errors="replace", and most
    # turn an ASCII page into garbage without an error (punycode drops the
    # text, the escape codecs read backslashes). The next charset is
    # tried, then Latin-1.
    body = ('<meta charset="%s"><p>école</p>' % charset).encode("latin-1")
    assert parse_html(body, "http://a.de/").tokens[-1] == "école"
    assert parse_html(body, "http://a.de/", charset_hint=charset).tokens[-1] == "école"
    utf8 = '<meta charset="utf-8"><p>école</p>'.encode("utf-8")
    assert parse_html(utf8, "http://a.de/", charset_hint=charset).tokens[-1] == "école"
    ascii_page = ('<meta charset="%s"><a href="/x">web archive</a><p>C:\\new \\u00e9t\\u00e9</p>'
                  % charset).encode("ascii")
    for hint in (None, charset):
        a = parse_html(ascii_page, "http://a.de/", charset_hint=hint)
        assert a.outlink_targets() == ["http://a.de/x"]
        assert a.tokens == ["web", "archive", "c", "new", "u00e9t", "u00e9"]


def test_charset_in_body_text_is_not_a_declaration():
    body = b'<p>Set charset=utf-16 in your editor.</p><a href="/x">web archive</a>'
    a = parse_html(body, "http://a.de/")
    assert a.outlink_targets() == ["http://a.de/x"]
    assert a.tokens[-2:] == ["web", "archive"]


@pytest.mark.parametrize("meta", [
    b'<meta http-equiv="Content-Type" content="text/html; charset=utf-8">',
    b'<META CONTENT="text/html; Charset=\'utf-8\'" HTTP-EQUIV="content-type">',
    b"<meta\ncharset=utf-8/>",
])
def test_meta_declares_charset(meta):
    a = parse_html(meta + "<p>über</p>".encode("utf-8"), "http://a.de/")
    assert a.tokens[-1] == "über"


def test_charset_only_in_an_attribute_of_another_tag_is_not_a_declaration():
    body = '<p title="charset=utf-8">école</p>'.encode("latin-1")
    assert parse_html(body, "http://a.de/").tokens[-1] == "école"


def test_charset_hint_with_a_null_character_is_unknown():
    a = parse_html(b'<a href="/x">web</a>', "http://a.de/", charset_hint="utf-8\x00")
    assert (a.outlink_targets(), a.tokens) == (["http://a.de/x"], ["web"])


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


def classify_link(target, page_url):
    """The per-link rule, the reference for the kinds parse_html gives:
    \"internal\" when target and page share a host, one leading \"www.\"
    stripped from each, \"external\" otherwise."""
    same = strip_www(host_of(target)) == strip_www(host_of(page_url))
    return "internal" if same else "external"


def test_classify_link_basics():
    hrefs = ["http://a.de/x", "/z", "http://b.de/x", "http://www.a.de/x"]
    assert link_kinds("http://a.de/y", *hrefs) == ["internal", "internal", "external", "internal"]


@given(
    h1=st.sampled_from(["a.de", "b.de", "www.a.de", "news.a.de"]),
    h2=st.sampled_from(["a.de", "b.de", "www.a.de", "news.a.de"]),
)
def test_classify_link_symmetric_in_host_pair(h1, h2):
    # Swapping page and target never changes the verdict: the rule only
    # compares hosts.
    u1, u2 = "http://%s/x" % h1, "http://%s/y" % h2
    assert link_kinds(u2, u1) == link_kinds(u1, u2)


def test_tokenize_excludes_underscore():
    assert tokenize("a_b") == ["a", "b"]


# Outlinks against resolution and classification link by link -------------

PAGE_URLS = [
    "http://a.de/p",
    "http://www.a.de/dir/page",
    "https://a.de:8443/x/y?q=1",
    "http://u:pw@a.de/x/",
    "http://[::1]/x",
    "http://a.de/a//b/../c;p?q",
    "http://a.de/x;",
]
HREF_PREFIXES = [
    "", "/", "//", "./", "../", "../../", "/../", "http://", "https://", "HTTP://", "http://u@",
    "http:", "HTTP:", "https:", "http:/", "mailto:", "javascript:", "ftp://", "?", "#",
    "\t", " /",
]
HREF_HOSTS = [
    "a.de", "A.De", "www.a.de", "b.de", "b.de:8080", "b.de:80", "u:p@b.de", "",
    "[::1]", "[::1]:8080", "[::1", "[2001:DB8::1]:443", "B.DE:443", "b.de:0", "b.de:08",
    "b.de:", "b.de:x", "@b.de", "ü.de", "xn--mnchen-3ya.de", "\u212a.de", "a\u2100b.de",
]
HREF_SEGMENTS = [
    "", ".", "..", "x", "p46", "a b", "%20", "~u", "a;b", "a:b", "ü", "Q", "a.b",
    "%2e%2e", "%2F", "%2e", "a\tb", "a\nb", "a\rb", "x;p", "x;", ";p", "..;p", ".;p",
]
HREF_SUFFIXES = [
    "", "?q=1", "#f", "?", "#", "?a b", "?q#f", ";x=1", "?\u00a0#", "\u00a0#f", "?a=1&b=2",
    "&amp;", "?q=\"'<>",
]

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
    st.text(alphabet="/.?#:@ aAzZ09%-_~;\t&\"'", max_size=12),
)
BASE_HREFS = [
    "http://other.de/dir/", "sub/", "/", "//B.de:80/d/e", "?q", "#f", "x/../y/", "../..",
    "https://s.de", "http://[::1]:8080/z/", "ftp://f.de/d/", "mailto:m@a.de", "http://ho st/d/",
    "http://[x/",
]


@settings(max_examples=300)
@given(
    page_url=st.sampled_from(PAGE_URLS),
    base=st.one_of(st.none(), st.sampled_from(BASE_HREFS)),
    links=st.lists(hrefs, max_size=5),
)
def test_parse_html_outlinks_equal_per_link_classification(page_url, base, links):
    assume(not any(version_dependent(h) for h in links))
    # Each href is written escaped, so the scan must decode it.
    html = "".join('<a href="%s">x</a>' % escape(h) for h in links)
    base_url = page_url = canonicalize_url(page_url)
    if base is not None:
        html = '<base href="%s">' % base + html
        base_url = reference_urls.base_url(page_url, base, page_url)
    analysis = parse_html(html, page_url)

    want = []
    for h in filter(None, links):  # an empty href attribute is no link
        target = link_target(base_url, h.strip())
        if target is not None:
            want.append((target, classify_link(target, page_url)))
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


@pytest.mark.parametrize("base", ["javascript:void(0)", "JavaScript:x", "data:text/html,hi", " java\tscript:x"])
def test_script_or_data_base_href_ignored(base):
    # WHATWG's "set the frozen base URL" ignores a javascript: or data:
    # base, so relative links resolve against the page.
    html = '<base href="%s"><a href="/x">x</a><a href="y">y</a><a href="http://c.de/z">z</a>' % base
    a = parse_html(html, "http://a.de/p/q")
    assert a.outlink_targets() == ["http://a.de/x", "http://a.de/p/y", "http://c.de/z"]


def test_script_base_href_keeps_earlier_base():
    html = '<base href="http://b.de/d/"><base href="javascript:void(0)"><a href="y">y</a>'
    assert parse_html(html, "http://a.de/p/q").outlink_targets() == ["http://b.de/d/y"]


@pytest.mark.parametrize("base", ["ftp://f.de/d/", "mailto:x@a.de", "foo:bar", "http://ho st/d/"])
def test_base_href_without_http_url_keeps_only_absolute_links(base):
    html = (
        '<base href="%s"><a href="/x">x</a><a href="y">y</a><a href="//b.de/w">w</a>'
        '<a href="http://c.de/z">z</a>' % base
    )
    want = ["http://c.de/z"]
    if base.startswith("http:"):  # a network-path href takes the base's scheme
        want = ["http://b.de/w", "http://c.de/z"]
    assert parse_html(html, "http://a.de/p/q").outlink_targets() == want


def test_unusable_base_href_keeps_previous_base():
    a = parse_html(b'<base href="http://[x/"><a href="y">y</a>', "http://a.de/d/p")
    assert a.outlink_targets() == ["http://a.de/d/y"]


# Resolution rules by example, where urljoin varies across Python releases ---
# or the resolver departs from it, and the urljoin quirks it keeps.


def test_scheme_starts_with_a_letter():
    # Before Python 3.11, urlsplit read "1a" as a scheme and the link was lost.
    a = parse_html('<a href="1a:b">x</a><a href="+x:y">y</a>', "http://a.de/d/p")
    assert a.outlink_targets() == ["http://a.de/d/1a:b", "http://a.de/d/+x:y"]


def test_base_without_host_resolves_no_relative_link():
    # Python 3.11's urlunsplit turned the path "//b.de/y" of a base without
    # a host into an authority; 3.13's does not, and neither does the
    # resolver.
    html = '<base href="http:x"><a href="////b.de/y">y</a><a href="http://c.de/">c</a>'
    assert parse_html(html, "https://a.de/").outlink_targets() == ["http://c.de/"]


def test_base_href_is_canonicalized_before_links_resolve():
    # urljoin would keep the U+00A0 that canonicalization escapes in the base.
    html = '<base href="http://b.de/d/x\u00a0#f"><a href="?q">q</a><a href="#g">g</a>'
    a = parse_html(html, "http://a.de/")
    assert a.outlink_targets() == ["http://b.de/d/x%C2%A0?q", "http://b.de/d/x%C2%A0"]


@pytest.mark.parametrize(
    "href, target",
    [
        ("x", "http://a.de/a/b/x"),
        ("../../../x", "http://a.de/x"),  # ".." above the root is dropped
        ("/..//x", "http://a.de/x"),  # and may pop the root itself
        ("x//y/", "http://a.de/a/b/x/y/"),  # empty segments of a merge collapse
        ("/x//y", "http://a.de/x//y"),  # but not those of an absolute path
        ("http:x", "http://a.de/a/b/x"),  # the base's scheme: relative
        ("https:x", None),  # another scheme: absolute, and not canonical
        ("..;p", "http://a.de/a/;p"),  # ";params" leave the last segment
        ("x;", "http://a.de/a/b/x"),  # and an empty one is dropped
        (";", "http://a.de/a/b/c;p?q"),
        ("//b.de/x;", "http://b.de/x"),
        ("https://b.de/x;", "https://b.de/x;"),  # as written when not joined
        ("?", "http://a.de/a/b/c;p?q"),  # an empty query keeps the base's
        ("x\u00a0?", "http://a.de/a/b/x"),  # a resolved URL is stripped at its end
        ("x\u00a0#f", "http://a.de/a/b/x%C2%A0"),  # unless a fragment follows
        ("//b.de\u00a0?", "http://b.de/"),
        ("%2e%2e/x", "http://a.de/a/b/%2e%2e/x"),  # escapes are not dot segments
        ("//[::1]:8080/x", "http://[::1]:8080/x"),
        ("//[zz]/x", None),
        ("//b.de:08/", "http://b.de:08/"),
        ("//b.de:0/", "http://b.de:0/"),
        ("//\u212a.de/", "http://k.de/"),  # U+212A KELVIN SIGN lowercases to "k"
        ("//a\u2100b.de/", None),  # U+2100 normalizes to "a/c"
    ],
)
def test_resolution_quirks(href, target):
    a = parse_html('<a href="%s">x</a>' % href, "http://a.de/a/b/c;p?q")
    assert a.outlink_targets() == ([target] if target else [])


# The scanner against the html.parser collector it replaced ----------------


class _Collector(HTMLParser):
    """The html.parser-based collector that parse_html used before the
    scanner, kept as the reference for well-formed markup."""

    def __init__(self, page_url):
        super().__init__(convert_charrefs=True)
        self.page_url = page_url
        self.base_url = page_url
        self.page_host = strip_www(host_of(page_url))
        self.analysis = PageAnalysis()
        self._suppress_text = 0  # inside <script>/<style>

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
                self.base_url = reference_urls.base_url(self.page_url, href.strip(), self.base_url)
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
        target = link_target(self.base_url, href)
        if target is None:
            return
        internal = strip_www(host_of(target)) == self.page_host
        kind = "internal" if internal else "external"
        self.analysis.outlinks.append(LinkRecord(target=target, kind=kind))


def reference_analysis(html, page_url):
    collector = _Collector(canonicalize_url(page_url))
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
)
def test_scanner_equals_html_parser_on_well_formed_markup(parts, page_url):
    html = "".join(parts)
    # A javascript: <base> is ignored, unlike in urljoin; plain tests pin that.
    assume(not ("<base" in html.lower() and "javascript:" in html))
    got = parse_html(html, page_url)
    want = reference_analysis(html, page_url)
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


# Tags the scan step reads whole, and their near misses -----------------------

X, Y = "http://a.de/x", "http://a.de/y"
WHOLE_ANCHORS = [
    ('<a href="/x">', [X]),
    ("<A HREF = '/x' >", [X]),
    ('<a\thref="/x">', [X]),
    ('<a/href="/x">', [X]),
    ('<a href="">', []),  # an empty value is no href; the next one is
    ('<a href="" href="/y">', [Y]),
    ('<a href="/x" class=y>', [X]),
    ('<a href="/x" title="a>b">', [X]),  # a quoted rest is read by the reader
    ('<a class=y href="/x">', [X]),
    ("<a href=/x>", [X]),
    ('<a href="/x>y">', ["http://a.de/x>y"]),  # the quoted ">" ends no tag
    ('<a href="/x?a=1&amp;b=2">', ["http://a.de/x?a=1&b=2"]),
]
RAW_TEXT_SHAPES = [
    # (page, tokens, script count, style count)
    ("a<script>b</script>c", ["a", "c"], 1, 0),
    ("a<script/>b", ["a", "b"], 1, 0),
    # The "/" before ">" ends the unquoted value: the tag opens a body.
    ("a<script href=/x/>b</script>c", ["a", "c"], 1, 0),
    ('a<style type="t">b</style>c', ["a", "c"], 0, 1),
    ("a<script>b</script >c", ["a", "c"], 1, 0),
    ("a<script>b</script/>c", ["a", "c"], 1, 0),
    ("a<script>b</script\n>c", ["a", "c"], 1, 0),
    ("a<script>b</script x='>'>c", ["a", "c"], 1, 0),
    ("a<style>b</style", ["a"], 0, 1),  # the end tag is open at the end of input
]


def _assert_equals_reference(html):
    want = reference_htmldoc.parse_html(html, "http://a.de/p")
    for tokens in (True, False):
        got = parse_html(html, "http://a.de/p", tokens=tokens)
        assert got.tokens == (want.tokens if tokens else [])
        assert got.outlinks == want.outlinks
        assert got.tag_counts == want.tag_counts


@pytest.mark.parametrize("ignored", [_RUN - 1, _RUN, _RUN + 1, 2 * _RUN + 1])
@pytest.mark.parametrize("after", ['<a href="/x">t', "< x", "</p>", ""])
def test_a_run_at_its_bound(ignored, after):
    # A step's run holds at most _RUN ignored tags; its markup group then
    # reads the next one, which the scan passes over like the rest.
    _assert_equals_reference("<p>w" * ignored + after)


@pytest.mark.parametrize("tag, targets", WHOLE_ANCHORS)
def test_whole_anchor_shapes(tag, targets):
    a = parse_html(tag + "t</a>", "http://a.de/p")
    assert a.outlink_targets() == targets
    assert a.tokens == ["t"]
    _assert_equals_reference(tag + "t</a>")
    _assert_equals_reference(tag)


def test_whole_anchor_open_at_the_end_of_input_is_dropped():
    assert parse_html('t<a href="/x"', "http://a.de/p").outlinks == []
    _assert_equals_reference('t<a href="/x"')


@pytest.mark.parametrize("html, tokens, scripts, styles", RAW_TEXT_SHAPES)
def test_raw_text_tag_shapes(html, tokens, scripts, styles):
    a = parse_html(html, "http://a.de/p")
    assert a.tokens == tokens
    assert (a.tag_counts["script"], a.tag_counts["style_element"]) == (scripts, styles)
    _assert_equals_reference(html)


WHOLE_TAG_BITS = [tag for tag, _ in WHOLE_ANCHORS] + [
    '<a href="/x"', "<script>", "<script/>", "<script href=/x/>", '<style type="t">',
    "<STYLE>", "</script >", "</script/>", "</script\n>", "</script>", "</style>",
    "t", " ", "</a>", "<p>", "<div>", '"', "'", ">", "<", "&amp;", "=",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(WHOLE_TAG_BITS), max_size=20).map("".join))
def test_scanner_equals_reference_on_whole_tag_shapes(html):
    _assert_equals_reference(html)


# Linear time on malformed input ---------------------------------------------


@pytest.mark.parametrize("unit", [
    '<a "', "<!--", "<a href=x ", "<", "<script>", "</x",
    # Tags inside a comment, a quoted value and a raw-text body.
    "<!--<p <a <b x-->", '<p title="<a <b <c">', "<script><a <p <b</script>",
])
def test_malformed_megabyte_parses_in_linear_time(unit):
    html = unit * ((1 << 20) // len(unit))
    start = time.perf_counter()
    parse_html(html, "http://a.de/")
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("head, unit", [
    ('<a href="', "<p>x</p> "),  # the quote is never closed
    ('<a href="x"', " y=z"),  # the tag is never closed
    ("", '<a href="x"y'),  # each fails the whole-anchor shape at the next quote
])
def test_megabyte_of_failed_whole_anchors_parses_in_linear_time(head, unit):
    html = head + unit * ((1 << 20) // len(unit))
    start = time.perf_counter()
    a = parse_html(html, "http://a.de/")
    assert time.perf_counter() - start < 2.0
    assert a.outlinks == []


@pytest.mark.parametrize("head, unit, tail", [
    ("<!--", "<p ", "-->"),
    ("<!--", "<a", "-->"),
    ('<p title="', "<p ", '">'),
    ("<a title='", "<a", "'>"),
    ("<script>", "<p ", "</script>"),
    ("<style>", "<a", "</style>"),
])
def test_megabyte_of_tags_inside_one_span_parses_in_linear_time(head, unit, tail):
    # None of these tags ends before the span does, so each could be
    # read up to the span's end.
    html = head + unit * ((1 << 20) // len(unit)) + tail + "after"
    start = time.perf_counter()
    a = parse_html(html, "http://a.de/")
    assert time.perf_counter() - start < 2.0
    assert a.tokens[-1] == "after"


@pytest.mark.parametrize("tail, links, last", [
    ("", [], "d"),
    ("<p x", [], "d"),  # an ignored tag open at the end of input
    ("<a href=x>e", ["http://a.de/x"], "e"),
])
def test_megabyte_of_ignored_tags_parses_in_linear_time(tail, links, last):
    # Text, lone "<"s and tags the scan passes over, then the tail.
    unit = "<p>ab</p> <i>c</i>< d<br/>"
    html = unit * ((1 << 20) // len(unit)) + tail
    start = time.perf_counter()
    a = parse_html(html, "http://a.de/")
    assert time.perf_counter() - start < 2.0
    assert a.outlink_targets() == links
    assert a.tokens[-1] == last


def test_scan_step_memory_is_bounded():
    # The regex engine keeps a record per ignored tag of a run until the
    # match ends; runs are bounded, so a megabyte of them needs little.
    html = "<p>" * ((1 << 20) // 3)
    tracemalloc.start()
    try:
        parse_html(html, "http://a.de/", tokens=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


MARKUP_BITS = [
    "<", ">", "</", "/", "<!", "<!--", "-->", "--", "<?", "<a", "<A ", " href=", "href", "'",
    '"', "=", " ", "\n", "x", "script", "<script>", "</script", "<style", "<base href=",
    "<link rel=stylesheet>", "http://[", "]a/", "&amp;", "&#", "ü", "<table", "<div",
    # Tags the scan step passes over, and near misses of those it reads.
    "<abbr>", "<bases ", "<divx>", "<TaBlE>", "<LINK ", "<p>", "</p>", "</a x='>'>",
    "<b <a href=x>", '<a"b>', "</x",
    "<lin\u212a ",  # KELVIN SIGN, which lower() and the regex's case rule map to k
]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(MARKUP_BITS), max_size=30).map("".join))
def test_any_markup_yields_an_analysis(html):
    a = parse_html(html, "http://a.de/")
    # Each outlink comes from its own <a start tag.
    assert len(a.outlinks) <= html.lower().count("<a")


def test_markup_inside_a_read_span_is_not_read():
    a = parse_html(
        "<!-- <a href=/c> --><p title='<a href=/q>'><script><a href=/s></script>"
        "<table title=\"<table>\"><a href=/x>x</a>",
        "http://a.de/",
    )
    assert a.outlink_targets() == ["http://a.de/x"]
    assert a.tag_counts["table"] == 1
    assert a.tokens == ["x"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(MARKUP_BITS), max_size=30).map("".join))
def test_scanner_equals_reference_on_markup_soup(html):
    # html.parser cannot judge malformed markup; the previous scan can.
    want = reference_htmldoc.parse_html(html, "http://a.de/")
    for tokens in (True, False):
        got = parse_html(html, "http://a.de/", tokens=tokens)
        assert got.tokens == (want.tokens if tokens else [])
        assert got.outlinks == want.outlinks
        assert got.tag_counts == want.tag_counts


@settings(max_examples=500)
@given(st.lists(st.sampled_from(MARKUP_BITS), max_size=30).map("".join))
@example("<base href=http://b.de/d/><a href=x>t</a>")
@example("<script>var s = '<a href=/s>';</script><a href=/x>x</a>")
@example("<style>a { color: red }</style><link rel=stylesheet><div>d</div>")
@example("<!-- <a href=/c> --><table><a href=/y>y</a>")
@example("<a href=/z>z</a><div title='open")
def test_parse_without_tokens_equals_parse_in_links_and_tags(html):
    got = parse_html(html, "http://a.de/", tokens=False)
    want = parse_html(html, "http://a.de/")
    assert got.tokens == []
    assert got.outlinks == want.outlinks
    assert got.tag_counts == want.tag_counts


@settings(max_examples=500)
@given(st.text(st.characters(exclude_categories=())))
@example("\u0130")  # "İ" lowers to two code points
@example("\u039f\u0394\u039f\u03a3")  # a word-final capital sigma
@example("_")
@example("x\u00b2")  # a superscript digit is not a decimal digit
@example("\U0001d7d9")  # mathematical double-struck digit one
@example("\u01c5")  # a titlecase letter
@example("a\u00a0b")  # no-break space
@example("A_b-C9 \ud800z")  # a lone surrogate
def test_tokenize_equals_reference(text):
    assert tokenize(text) == reference_htmldoc.tokenize(text)


# The charset of a Content-Type --------------------------------------------


def _snapshot(content_type, body):
    entry = IndexEntry("http://a.de/", "20000101000000", "text/html", 200, "d", "f.warc", 0, 1)
    return Snapshot(entry, content_type, body)


@pytest.mark.parametrize("content_type, charset", [
    ("text/html; charset=utf-8", "utf-8"),
    ("text/html;CHARSET=UTF-8", "utf-8"),
    ('text/html; charset="utf-8"', "utf-8"),
    # Only the first parameter named exactly "charset" counts.
    ("text/html; charset=utf-8; x-orig-charset=iso-8859-1", "utf-8"),
    ('text/html; foo="charset=latin1"; charset=utf-8', "utf-8"),
    ("text/html; charset=utf-8; charset=latin1", "utf-8"),
    ('text/html; charset="utf-8" ;x=1', "utf-8"),
    # No charset parameter: the page falls back to Latin-1.
    ('text/html; foo="charset=utf-8"', "latin-1"),
    ("text/html; xcharset=utf-8", "latin-1"),
    ("text/html", "latin-1"),
    # A subtype that is not a token: no media type, so no parameter.
    ("text/html charset=utf-8", "latin-1"),
    ("text/html,charset=utf-8", "latin-1"),
    # An unquoted value runs to the next ";", a leading space included,
    # and a quoted one to its closing quote or the end.
    ("text/html; charset= utf-8", "utf-8"),
    ('text/html; charset="utf-8', "utf-8"),
    ("text/html; charset=utf-8,text/plain", "latin-1"),  # an unknown label
])
def test_charset_is_the_first_charset_parameter(content_type, charset):
    body = "Müller straße".encode("utf-8")
    got = analyze(_snapshot(content_type, body))
    assert got.tokens == tokenize(body.decode(charset))

from urllib.parse import urljoin

import pytest
from hypothesis import given, settings, strategies as st

from subcollect.htmldoc import _DROP_SCHEMES, classify_link, parse_html, tokenize
from subcollect.urls import CanonicalizationError, canonicalize_url


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

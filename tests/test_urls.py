import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from subcollect import urls
from subcollect.htmldoc import parse_html
from subcollect.urls import CanonicalizationError, canonicalize_url, host_of, strip_www

from conftest import link_kinds, urlsplit_host
import reference_urls


def test_case_folding():
    assert canonicalize_url("http://Example.DE/") == "http://example.de/"


def test_default_port_and_fragment_removed():
    assert canonicalize_url("https://a.de:443/p#frag") == "https://a.de/p"
    assert canonicalize_url("http://a.de:80/p") == "http://a.de/p"


def test_non_default_port_kept():
    assert canonicalize_url("http://a.de:8080/p") == "http://a.de:8080/p"


@pytest.mark.parametrize("url", ["http://a.de:\u00b2/", "http://a.de:\u0668\u0660/"])
def test_port_of_non_ascii_digits_rejected(url):
    # str.isdigit() holds for both; an Arabic-Indic 80 kept its port.
    with pytest.raises(CanonicalizationError, match="invalid port"):
        canonicalize_url(url)


def test_empty_path_becomes_slash():
    assert canonicalize_url("http://a.de") == "http://a.de/"


def test_query_preserved_verbatim():
    assert canonicalize_url("http://a.de/p?b=2&a=1") == "http://a.de/p?b=2&a=1"


@pytest.mark.parametrize(
    "bad",
    ["", "not a url", "ftp://a.de/", "http:relative", "http://", "http://ho st/"],
)
def test_malformed_rejected(bad):
    with pytest.raises(CanonicalizationError):
        canonicalize_url(bad)


def test_error_carries_position():
    try:
        canonicalize_url("http://ho st.de/")
    except CanonicalizationError as exc:
        assert exc.position == len("http://ho")
    else:
        pytest.fail("expected rejection")


@pytest.mark.parametrize(
    "url",
    [
        "http://Example.DE/",
        "https://a.de:443/p#frag",
        "http://a.de",
        "http://user@a.de:8080/p?x=1",
        "http://www.a.de/deep/path?q=a%20b",
    ],
)
def test_idempotent(url):
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once


@given(
    host=st.from_regex(r"[a-z][a-z0-9]{0,8}(\.[a-z]{2,3}){1,2}", fullmatch=True),
    path=st.from_regex(r"(/[a-zA-Z0-9._-]{0,6}){0,3}", fullmatch=True),
)
def test_idempotence_property(host, path):
    url = "http://%s%s" % (host, path)
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once


def test_host_of():
    assert host_of("http://user@a.de:8080/p") == "a.de"
    assert host_of("http://News.A.DE/") == "news.a.de"


def test_strip_www():
    assert strip_www("www.a.de") == "a.de"
    assert strip_www("a.de") == "a.de"
    assert strip_www("wwwx.a.de") == "wwwx.a.de"


def test_same_host_www_rule():
    # One leading "www." is stripped from each host before they compare.
    kinds = link_kinds("http://a.de/y", "http://www.a.de/x", "http://b.de/x")
    assert kinds == ["internal", "external"]
    assert link_kinds("http://www.a.de/y", "http://a.de/x", "http://www.a.de/z") == ["internal"] * 2
    kinds = link_kinds("http://a.de/y", "http://www.www.a.de/", "http://wwwx.a.de/")
    assert kinds == ["external"] * 2


def test_space_percent_escaped():
    assert canonicalize_url("http://a.de/a b") == "http://a.de/a%20b"
    assert canonicalize_url("http://a.de/p?q=a b") == "http://a.de/p?q=a%20b"
    assert canonicalize_url("http://a.de/a\tb\n") == "http://a.de/ab"
    # Only the space can split an index line; other whitespace is kept, so
    # keys written before the escape was added stay canonical.
    assert canonicalize_url("http://a.de/\u00a0x") == "http://a.de/\u00a0x"
    # ... unless it ends the URL, where a second pass would strip it.
    assert canonicalize_url("http://a.de/\u00a0?") == "http://a.de/%C2%A0"
    assert canonicalize_url("http://a.de/x\u3000#f") == "http://a.de/x%E3%80%80"


@given(
    host=st.from_regex(r"[a-z][a-z0-9]{0,8}(\.[a-z]{2,3}){1,2}", fullmatch=True),
    path=st.text(alphabet="/ab. \t\x0b\x1c\u00a0\u3000%?=#", max_size=12),
)
def test_idempotence_property_with_whitespace(host, path):
    once = canonicalize_url("http://%s/%s" % (host, path))
    assert " " not in once
    assert canonicalize_url(once) == once


@given(
    scheme=st.sampled_from(["http", "https", "HTTP"]),
    userinfo=st.sampled_from(["", "u@", "u:p@", "a@b@"]),
    host=st.sampled_from(["a.de", "A.De", "www.a.de", "[::1]", "[2001:db8::1]", "x-y.a.de"]),
    port=st.sampled_from(["", ":80", ":443", ":8080"]),
    rest=st.text(alphabet="/?#ab:@.", max_size=10),
)
def test_host_of_equals_urlsplit(scheme, userinfo, host, port, rest):
    url = "%s://%s%s%s%s" % (scheme, userinfo, host, port, rest)
    assert host_of(url) == urlsplit_host(url)
    try:
        canonical = canonicalize_url(url)
    except ValueError:  # CanonicalizationError, or urlsplit's own rejection
        return
    assert host_of(canonical) == urlsplit_host(canonical)


@pytest.mark.parametrize(
    "url",
    [
        "http://[::1]a/", "http://[::1]80/", "http://[::1]a:80/", "http://u@[::1]x",
        "http://[::1/", "http://[zz]/",
    ],
)
def test_bad_bracketed_host_rejected(url):
    with pytest.raises(CanonicalizationError):
        canonicalize_url(url)


def test_text_after_bracketed_host_position():
    with pytest.raises(CanonicalizationError) as info:
        canonicalize_url("http://u@[::1]a/")
    assert info.value.position == len("http://u@[::1]")


@given(st.text(alphabet="[]:/@.a1 \t%#?", max_size=16))
def test_only_canonicalization_errors_escape(rest):
    # Callers catch CanonicalizationError; no other ValueError may escape.
    try:
        canonicalize_url("http://" + rest)
    except CanonicalizationError:
        pass


def _outcome(canonicalize, url):
    try:
        return canonicalize(url)
    except CanonicalizationError as exc:
        return str(exc), exc.position


# Bracketed hosts stay valid or unbalanced, and only a port or a "/", "?"
# or "#" follows one: urlsplit's checks of both have changed between
# Python releases (before 3.11 it did not check what stands between the
# brackets). Plain tests pin those rules.
URL_PARTS = dict(
    lead=st.sampled_from(["", " ", "\u00a0", "\x01"]),
    scheme=st.sampled_from(["http://", "https://", "HTTP://", "ftp://", "http:/", "http:", "x"]),
    userinfo=st.sampled_from(["", "u@", "u:p@", "@", "a@b@", "\u2100@"]),
    host=st.sampled_from([
        "a.de", "A.De", "www.a.de", "", "[::1]", "[2001:DB8::1]", "[::1", "::1]", "[v1.x]",
        "ho st", "\u212a.de", "\u00fc.de", "a\tb.de", "a_b.de",
    ]),
    port=st.sampled_from(["", ":", ":80", ":443", ":0", ":08", ":x", ":\u00b2"]),
    rest=st.text(alphabet="/?#ab:@.;% \t\n\u00a0\u3000", max_size=10),
)


@settings(max_examples=500)
@given(**URL_PARTS)
def test_canonicalize_url_equals_reference(lead, scheme, userinfo, host, port, rest):
    assume(not host.startswith("[") or rest[:1] in ("", "/", "?", "#"))
    url = lead + scheme + userinfo + host + port + rest
    assert _outcome(canonicalize_url, url) == _outcome(reference_urls.canonicalize_url, url)


@pytest.mark.parametrize(
    "url, want",
    [
        ("http://[v1.x]/", "http://[v1.x]/"),
        ("http://[::FFFF:1.2.3.4]:8080/", "http://[::ffff:1.2.3.4]:8080/"),
        ("http://[1.2.3.4]/", "An IPv4 address cannot be in brackets"),
        ("http://[v1]/", "IPvFuture address is invalid"),
        ("http://[zz]/", "'zz' does not appear to be an IPv4 or IPv6 address"),
    ],
)
def test_bracketed_host_rule_fixed_across_python_releases(url, want):
    # Before Python 3.11, urlsplit accepted any text between brackets.
    try:
        got = canonicalize_url(url)
    except CanonicalizationError as exc:
        got = str(exc)
    assert want in got


def test_error_names_its_own_url_and_position():
    # The same malformed netloc, met again, names each URL and position.
    errors = []
    for url in ["http://ho st.de/a", "http://ho st.de/bb"]:
        with pytest.raises(CanonicalizationError) as info:
            canonicalize_url(url)
        errors.append((info.value.url, info.value.position))
    for at in (7, 20):
        with pytest.raises(CanonicalizationError) as info:
            urls._authority("http", "ho st.de", "u%d" % at, at)
        errors.append((info.value.url, info.value.position))
    assert errors == [("http://ho st.de/a", 9), ("http://ho st.de/bb", 9), ("u7", 9), ("u20", 22)]


# Already canonical URLs pass through ---------------------------------------

_PLAIN_CHARS = "abz09AZ-._~%!$&'()*+,=:@/"
_BENCHMARK_URLS = [
    "http://host3.de/p17", "http://www.example-news.de/gone/4-7", "https://a1.b-c.org/x/y.html?q=1&r=2",
]
_MUTATIONS = [
    lambda u: u.replace("http", "HTTP", 1),
    lambda u: u.replace("://", "://Www.", 1),
    lambda u: u.replace(".de/", ".De/").replace(".org/", ".ORG/"),
    *(lambda u, port=port: _at_host_end(u, port) for port in (":80", ":443", ":080", ":8080", ":")),
    lambda u: u.replace("://", "://u@", 1),
    lambda u: u.replace("://", "://u:p@", 1),
    lambda u: _at_host_end(u, "."),
    lambda u: u.replace(".", "..", 1),
    lambda u: u.replace("://", "://.", 1),
    lambda u: u.replace("://", "://münchen.", 1),
    lambda u: u.replace("://", "://xn--mnchen-3ya.", 1),
    lambda u: u + "ä",
    lambda u: u + ";",
    lambda u: u + ";p=1",
    lambda u: u + "?",
    lambda u: u + "#frag",
    lambda u: u + "#",
    lambda u: u + " x",
    lambda u: u + " ",
    lambda u: " " + u,
    lambda u: u + "\tx",
    lambda u: u + "/./a/../b",
    lambda u: u + "/..",
    lambda u: u + "%41%zz%",
    lambda u: u[: _host_end(u)],
    lambda u: u[: _host_end(u)] + "?q",
    lambda u: u.replace("/", "\\", 3),
]


def _host_end(url):
    return re.match(r"[^/]*/*[^/?#]*", url).end()


def _at_host_end(url, text):
    end = _host_end(url)
    return url[:end] + text + url[end:]


_BASES = ["http://a.de/x/y", "https://b.org/", "http://[::1]:8080/d/e?q"]


def _assert_plain_rule(url, base):
    m = urls._PLAIN_MATCH(url)
    if m is None:
        return
    assert reference_urls.canonicalize_url(url) == url
    assert m[1] == host_of(url)
    assert reference_urls.link_target(base, url) == url
    with mock.patch.object(urls, "_PLAIN_MATCH", lambda url: None):  # the full path
        assert canonicalize_url(url) == url
        assert urls.resolve(urls.page_base(base), url) == (url, m[1])


plain_urls = st.builds(
    lambda scheme, host, path, query: scheme + host + "/" + path + ("?" + query if query else ""),
    st.sampled_from(["http://", "https://"]),
    # Labels and dots in any order: empty labels and leading or trailing
    # dots too, which canonicalization keeps as written.
    st.from_regex(r"([a-z0-9-]{1,6}|\.){1,6}", fullmatch=True),
    st.text(alphabet=_PLAIN_CHARS, max_size=12),
    st.text(alphabet=_PLAIN_CHARS + ";?", max_size=8),
)


@settings(max_examples=500)
@given(url=plain_urls, base=st.sampled_from(_BASES))
def test_plain_urls_pass_through_unchanged(url, base):
    assert urls._PLAIN_MATCH(url) is not None
    _assert_plain_rule(url, base)


@settings(max_examples=500)
@given(
    url=st.sampled_from(_BENCHMARK_URLS),
    mutations=st.lists(st.sampled_from(_MUTATIONS), max_size=3),
    base=st.sampled_from(_BASES),
)
def test_only_unchanged_mutations_pass_through(url, mutations, base):
    # Every mutation that the reference changes, or rejects, must miss
    # the regex; those it keeps may match.
    for mutate in mutations:
        url = mutate(url)
    _assert_plain_rule(url, base)


def test_each_mutation_keeps_the_plain_rule():
    for url in _BENCHMARK_URLS:
        assert urls._PLAIN_MATCH(url) is not None
        for mutate in _MUTATIONS:
            for base in _BASES:
                _assert_plain_rule(mutate(url), base)


def test_plain_urls_skip_the_authority_check(monkeypatch):
    # A page base, an absolute href or a URL already in canonical form
    # never reaches the netloc check, and gives the same answer as when it did.
    url = "http://www.example-news.de/p5/a-1.html?x=1&y=2"
    html = "".join('<a href="%s">x</a>' % h for h in [
        "http://host3.de/p17", "https://www.example-news.de/", "/p5", "b.html", "../c?d",
    ])

    def answers():
        page = parse_html(html, url)
        return canonicalize_url(url), urls.page_base(url), page.outlinks, page.tokens

    want = answers()

    def refuse(*args):
        raise AssertionError("netloc checked: %r" % (args,))

    monkeypatch.setattr(urls, "_authority", refuse)
    assert answers() == want
    assert [link.target for link in want[2]] == [
        "http://host3.de/p17", "https://www.example-news.de/", "http://www.example-news.de/p5",
        "http://www.example-news.de/p5/b.html", "http://www.example-news.de/c?d",
    ]
    with pytest.raises(AssertionError, match="netloc checked"):
        canonicalize_url("http://Host3.de/p17")


# Rooted hrefs and page bases of plain URLs ----------------------------------

ROOTED_PAGE_URLS = [
    # Plain: they pass the regex.
    "http://a.de/", "http://a.de/p31", "http://www.a.de/d/e/f.html?q=1", "https://a.de/x/?a=b;c",
    "http://a.de/.x/y.", "http://a.de/d/%41?",
    # Not plain: a port, userinfo, an upper-case host, params, dot segments
    # or an empty segment in the path.
    "http://a.de:8080/x/y", "http://u:p@a.de/x/", "http://A.DE/X/y", "http://a.de/x;p/y;q",
    "http://a.de/a/./b/../c", "http://a.de/a//b/c", "http://a.de//", "http://a.de/x/..",
]
ROOTED_BASE_HREFS = [None, "http://b.de/d/e", "sub/", "/r/", "../..", "//c.de:80/z/", "?q", "ftp://f/"]
ROOTED_ATOMS = [
    "x", "p31", ".", "..", "/", "./", "../", "/h", ";p", "?", "?q", "%41", "%2e", "%zz", " ",
    "\t", "a b", "&", ":", "@", "#f",
]


@settings(max_examples=1000)
@given(
    page_url=st.sampled_from(ROOTED_PAGE_URLS),
    base_href=st.sampled_from(ROOTED_BASE_HREFS),
    href=st.lists(st.sampled_from(ROOTED_ATOMS), max_size=4).map(lambda atoms: "/" + "".join(atoms)),
)
@example(page_url="http://a.de/d/", base_href=None, href="/x ")
@example(page_url="http://a.de/d/", base_href=None, href="/x?")
@example(page_url="http://a.de/d/", base_href=None, href="//h/x")
@example(page_url="http://a.de/d/", base_href="sub/", href="/../x")
def test_rooted_hrefs_resolve_as_the_reference(page_url, base_href, href):
    page = urls.page_base(page_url)
    base, base_url = page, page_url
    if base_href is not None:
        base = urls.rebase(page, page, base_href)
        base_url = reference_urls.base_url(page_url, base_href, page_url)
    resolved = urls.resolve(base, href)
    want = reference_urls.link_target(base_url, href)
    assert resolved == (want and (want, host_of(want)))


def _page_base_outcome(make, url):
    try:
        return make(url)
    except CanonicalizationError as exc:
        return str(exc), exc.position


@settings(max_examples=500)
@given(url=st.one_of(plain_urls, st.builds(lambda **parts: "".join(parts.values()), **URL_PARTS)))
@example("http://a.de/a//b")
@example("http://a.de/a/./b?q")
@example("http://a.de/a/../")
def test_page_base_equals_the_base_of_the_canonical_url(url):
    def full(url):
        return urls._base(*urls._canonicalize(url))

    assert _page_base_outcome(urls.page_base, url) == _page_base_outcome(full, url)

import pytest
from hypothesis import given, strategies as st

from subcollect.urls import (
    CanonicalizationError,
    canonicalize_url,
    host_of,
    same_host,
    strip_www,
)

from conftest import urlsplit_host


def test_case_folding():
    assert canonicalize_url("http://Example.DE/") == "http://example.de/"


def test_default_port_and_fragment_removed():
    assert canonicalize_url("https://a.de:443/p#frag") == "https://a.de/p"
    assert canonicalize_url("http://a.de:80/p") == "http://a.de/p"


def test_non_default_port_kept():
    assert canonicalize_url("http://a.de:8080/p") == "http://a.de:8080/p"


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
    assert same_host("http://www.a.de/x", "http://a.de/y")
    assert not same_host("http://www.a.de/x", "http://a.de/y", ignore_www=False)
    assert not same_host("http://b.de/x", "http://a.de/y")


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

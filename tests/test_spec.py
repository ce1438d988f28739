import json
import pathlib

import pytest
from hypothesis import given, strategies as st

from subcollect.spec import (
    EntityRef,
    SpecError,
    SubCollectionSpec,
    in_scope_metadata,
    parse_spec,
    serialize_spec,
)
from subcollect.store import IndexEntry


def spec_doc(**scopes):
    return json.dumps({"name": "t", "scopes": scopes})


def entry(url="http://a.de/", ts="20000601000000"):
    return IndexEntry(canonical_url=url, timestamp14=ts, original_url=url)


def test_url_plus_time_spec_parses():
    s = parse_spec(
        spec_doc(
            urls=["http://a.de/"],
            time={"from": "20000101000000", "to": "20011231235959"},
        )
    )
    assert s.url_scope == ("http://a.de/",)
    assert s.time_scope == ("20000101000000", "20011231235959")


def test_zero_scopes_rejected():
    with pytest.raises(SpecError, match="at least one scope"):
        parse_spec(json.dumps({"name": "t", "scopes": {}}))


def test_defaults_applied():
    s = parse_spec(spec_doc(urls=["http://a.de/"]))
    assert s.link_mode == "disconnected"
    assert s.version_mode == "timeline"
    assert s.entity_combine == "any"
    assert s.closure_policy == "all_links"
    assert s.closure_max_depth is None
    assert s.seed == 0


def test_unknown_field_named_in_error():
    doc = json.dumps({"name": "t", "scopes": {"urls": ["http://a.de/"]}, "bogus": 1})
    with pytest.raises(SpecError, match="bogus"):
        parse_spec(doc)


def test_unknown_scope_key_rejected():
    with pytest.raises(SpecError, match="language"):
        parse_spec(spec_doc(urls=["http://a.de/"], language="de"))


def test_malformed_timestamp_names_field_path():
    with pytest.raises(SpecError, match="scopes.time.from"):
        parse_spec(spec_doc(time={"from": "2000", "to": "20011231235959"}))


def test_time_interval_order_enforced():
    with pytest.raises(SpecError, match="must not exceed"):
        parse_spec(spec_doc(time={"from": "20020101000000", "to": "20010101000000"}))


def test_threshold_required_with_keywords():
    with pytest.raises(SpecError, match="threshold"):
        parse_spec(spec_doc(keywords=["web"]))


def test_threshold_without_keywords_rejected():
    doc = json.dumps(
        {
            "name": "t",
            "scopes": {"urls": ["http://a.de/"]},
            "relevance": {"threshold": 0.5},
        }
    )
    with pytest.raises(SpecError, match="threshold"):
        parse_spec(doc)


def test_entities_parse_and_dedupe_names():
    doc = json.dumps(
        {
            "name": "t",
            "scopes": {
                "entities": [
                    {"id": "e1", "label": "Angela Merkel", "aliases": ["Merkel", "merkel", "A. Merkel"]}
                ]
            },
        }
    )
    s = parse_spec(doc)
    ent = s.entity_scope[0]
    assert ent.all_names() == ["Angela Merkel", "Merkel", "A. Merkel"]


def test_serialize_roundtrip():
    doc = json.dumps(
        {
            "name": "round",
            "scopes": {
                "urls": ["http://a.de/"],
                "domains": ["a.de"],
                "time": {"from": "20000101000000", "to": "20011231235959"},
                "keywords": ["web", "archive"],
                "entities": [{"id": "e", "label": "L", "aliases": ["l2"]}],
                "size": 5,
            },
            "link_mode": "connected",
            "version_mode": "snapshot",
            "relevance": {"threshold": 0.25, "entity_combine": "all"},
            "closure": {"policy": "relevant_links", "max_depth": 2},
            "seed": 42,
        }
    )
    s = parse_spec(doc)
    again = parse_spec(json.dumps(serialize_spec(s)))
    assert again == s


def test_spec_digest_stable():
    s1 = parse_spec(spec_doc(urls=["http://a.de/"]))
    s2 = parse_spec(spec_doc(urls=["http://a.de/"]))
    assert s1.digest() == s2.digest()
    s3 = parse_spec(spec_doc(urls=["http://b.de/"]))
    assert s1.digest() != s3.digest()


# in_scope_metadata ---------------------------------------------------------


def test_domain_dot_suffix_rule():
    s = SubCollectionSpec(domain_scope=("a.de",))
    assert in_scope_metadata(s, entry(url="http://news.a.de/"))
    assert in_scope_metadata(s, entry(url="http://a.de/"))
    assert not in_scope_metadata(s, entry(url="http://nota.de/"))


def test_time_scope_excludes_outside():
    s = SubCollectionSpec(time_scope=("20000101000000", "20011231235959"))
    assert not in_scope_metadata(s, entry(ts="19990101000000"))
    assert in_scope_metadata(s, entry(ts="20000101000000"))
    assert in_scope_metadata(s, entry(ts="20011231235959"))


def test_conjunction_truth_table():
    url = "http://a.de/"
    in_time, out_time = "20000601000000", "20020601000000"
    combos = [
        (SubCollectionSpec(url_scope=(url,)), url, in_time, True),
        (SubCollectionSpec(url_scope=(url,)), "http://b.de/", in_time, False),
        (
            SubCollectionSpec(url_scope=(url,), time_scope=("20000101000000", "20011231235959")),
            url,
            in_time,
            True,
        ),
        (
            SubCollectionSpec(url_scope=(url,), time_scope=("20000101000000", "20011231235959")),
            url,
            out_time,
            False,
        ),
        (
            SubCollectionSpec(
                url_scope=("http://b.de/",),
                time_scope=("20000101000000", "20011231235959"),
            ),
            url,
            in_time,
            False,
        ),
    ]
    for spec, u, ts, expect in combos:
        assert in_scope_metadata(spec, entry(url=u, ts=ts)) is expect


def test_content_scopes_not_consulted():
    s = SubCollectionSpec(keyword_scope=("web",), relevance_threshold=0.9)
    assert in_scope_metadata(s, entry())


_hosts = st.sampled_from(["a.de", "b.de", "news.a.de", "c.org"])
_years = st.sampled_from(["1999", "2000", "2001", "2005"])


@st.composite
def _entries(draw):
    host = draw(_hosts)
    year = draw(_years)
    url = "http://%s/p%d" % (host, draw(st.integers(0, 3)))
    return entry(url=url, ts="%s0601000000" % year)


@st.composite
def _specs(draw):
    kwargs = {}
    if draw(st.booleans()):
        kwargs["url_scope"] = tuple(
            "http://%s/p%d" % (h, i)
            for h, i in draw(
                st.lists(st.tuples(_hosts, st.integers(0, 3)), min_size=1, max_size=3)
            )
        )
    if draw(st.booleans()):
        kwargs["domain_scope"] = tuple(draw(st.lists(_hosts, min_size=1, max_size=2)))
    if draw(st.booleans()):
        y1, y2 = sorted([draw(_years), draw(_years)])
        kwargs["time_scope"] = ("%s0101000000" % y1, "%s1231235959" % y2)
    if not kwargs:
        kwargs["domain_scope"] = ("de",)
    return SubCollectionSpec(**kwargs)


@given(base=_specs(), e=_entries(), extra_domain=_hosts, extra_year=_years)
def test_adding_scope_never_widens(base, e, extra_domain, extra_year):
    from dataclasses import replace

    # Adding a scope the base spec lacks can only shrink the match set:
    # whatever passes the narrowed spec must already pass the base one.
    narrowed = base
    if base.domain_scope is None:
        narrowed = replace(narrowed, domain_scope=(extra_domain,))
    if base.time_scope is None:
        narrowed = replace(
            narrowed,
            time_scope=("%s0101000000" % extra_year, "%s1231235959" % extra_year),
        )
    if in_scope_metadata(narrowed, e):
        assert in_scope_metadata(base, e)


def test_readme_quick_tour_spec_parses():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("cat > spec.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    spec = parse_spec(block)
    assert spec.keyword_scope == ("bundestagswahl", "wahlkampf")
    assert spec.relevance_threshold == 0.3
    assert spec.size_scope == 5000

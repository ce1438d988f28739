import json
import pathlib
import re

import pytest
from hypothesis import given, strategies as st

from subcollect.extraction import index_prefilter
from subcollect.spec import (
    EntityRef,
    SpecError,
    SubCollectionSpec,
    in_scope_metadata,
    parse_spec,
    serialize_spec,
)

from conftest import build_archive, index_entry, page


def spec_doc(**scopes):
    return json.dumps({"name": "t", "scopes": scopes})


def entry(url="http://a.de/", ts="20000601000000"):
    return index_entry(canonical_url=url, timestamp14=ts)


def passes(spec, e):
    """Whether the capture ``e``, its URL's only one, is in the metadata scopes."""
    got = in_scope_metadata(spec, [e])
    assert got in ([], [e])
    return got == [e]


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


@pytest.mark.parametrize(
    "lo, hi",
    [
        ("٢٠٠٥0101000000", "٢٠٠٥1231235959"),
        ("20050229000000", "20051231235959"),
        ("00000101000000", "20051231235959"),
    ],
)
def test_time_bounds_need_ascii_digits_and_a_real_date(lo, hi):
    # Non-ASCII digits used to pass and then compare as text: every ASCII
    # capture time sorts before them, so the scope silently kept nothing.
    with pytest.raises(SpecError, match="scopes.time.from"):
        parse_spec(spec_doc(time={"from": lo, "to": hi}))


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


@pytest.mark.parametrize("keyword", ["!!!", "\u2014", "___", " - "])
def test_keyword_without_letter_or_digit_rejected(keyword):
    doc = json.dumps(
        {
            "name": "t",
            "scopes": {"keywords": ["web", keyword]},
            "relevance": {"threshold": 0.1},
        }
    )
    with pytest.raises(SpecError, match=r"scopes\.keywords\[1\]"):
        parse_spec(doc)


def entities_doc(*entities):
    return json.dumps({"name": "t", "scopes": {"entities": list(entities)}})


@pytest.mark.parametrize(
    "entity, path",
    [
        ({"id": "e", "label": "L", "aliases": [5]}, "aliases[0]"),
        ({"id": "e", "label": "L", "aliases": ["x", ["y"]]}, "aliases[1]"),
        ({"id": "e", "label": "L", "aliases": ["x", ""]}, "aliases[1]"),
        ({"id": "e", "label": "L", "aliases": ["x", "\u2014"]}, "aliases[1]"),
        ({"id": "e", "label": "\u2014", "aliases": ["x"]}, "label"),
        ({"id": "e", "label": "?!"}, "label"),
    ],
)
def test_entity_name_without_token_rejected(entity, path):
    ok = {"id": "ok", "label": "Merkel"}
    with pytest.raises(SpecError, match=re.escape("scopes.entities[1]." + path)):
        parse_spec(entities_doc(ok, entity))


@pytest.mark.parametrize("ids", [("e", "e"), ("1", "1"), (None, None), ("E", "E")])
def test_repeated_entity_id_rejected(ids):
    ents = [{"label": label} for label in ("Merkel", "Schroeder")]
    for ent, ident in zip(ents, ids):
        if ident is not None:
            ent["id"] = ident
    with pytest.raises(SpecError, match=re.escape("scopes.entities[1].id: repeats id")):
        parse_spec(entities_doc(*ents))


@pytest.mark.parametrize("ident", [None, [1], 1, "", True, {"a": "b"}])
@pytest.mark.parametrize("at", [0, 1])
def test_entity_id_not_a_non_empty_string_rejected(ident, at):
    # str() of such a value used to be the id: null became "None", and 1
    # collided with "1".
    ents = [{"id": "e%d" % i, "label": label} for i, label in enumerate(("Merkel", "Kohl"))]
    ents[at]["id"] = ident
    with pytest.raises(SpecError) as excinfo:
        parse_spec(entities_doc(*ents))
    assert str(excinfo.value) == "scopes.entities[%d].id: must be a non-empty string" % at


def test_one_entity_without_id_accepted():
    s = parse_spec(entities_doc({"label": "Merkel"}))
    assert s.entity_scope[0].id == ""


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
    assert passes(s, entry(url="http://news.a.de/"))
    assert passes(s, entry(url="http://a.de/"))
    assert not passes(s, entry(url="http://nota.de/"))


@pytest.mark.parametrize("domain", ["de", "A.DE", ".de", "a.de.", " de", ".A.de. \t"])
def test_domain_entries_normalized(domain):
    s = parse_spec(spec_doc(domains=[domain]))
    assert passes(s, entry(url="http://www.a.de/x"))


def test_domain_normalization_keeps_serialized_form():
    s = parse_spec(spec_doc(domains=[" .News.A.de."]))
    assert serialize_spec(s)["scopes"]["domains"] == ["news.a.de"]
    assert parse_spec(spec_doc(domains=["news.a.de"])).digest() == s.digest()


@pytest.mark.parametrize("domain", [".", " . ", "a..de", "..de", "de..", "a.de.."])
def test_domain_with_empty_label_rejected(domain):
    with pytest.raises(SpecError, match=r"scopes\.domains\[1\]"):
        parse_spec(spec_doc(domains=["de", domain]))


def test_time_scope_excludes_outside():
    s = SubCollectionSpec(time_scope=("20000101000000", "20011231235959"))
    assert not passes(s, entry(ts="19990101000000"))
    assert passes(s, entry(ts="20000101000000"))
    assert passes(s, entry(ts="20011231235959"))


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
        assert passes(spec, entry(url=u, ts=ts)) is expect


def test_content_scopes_not_consulted():
    s = SubCollectionSpec(keyword_scope=("web",), relevance_threshold=0.9)
    assert passes(s, entry())


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
    # Adding a scope the base spec lacks can only shrink the match set:
    # whatever passes the narrowed spec must already pass the base one.
    narrowed = base
    if base.domain_scope is None:
        narrowed = narrowed._replace(domain_scope=(extra_domain,))
    if base.time_scope is None:
        narrowed = narrowed._replace(
            time_scope=("%s0101000000" % extra_year, "%s1231235959" % extra_year),
        )
    if passes(narrowed, e):
        assert passes(base, e)


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    # The blocks, run in turn, read archive.cdx, spec.json (the quick
    # tour's) and archive/.
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```\n", 1)[0] for b in section.split("```python\n")[1:]]
    (tmp_path / "spec.json").write_text(
        text.split("cat > spec.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    )
    (tmp_path / "archive").mkdir()
    topic = "bundestagswahl wahlkampf"
    fx = build_archive(tmp_path / "archive", [
        ("http://a.de/", "20090915120000", page(text=topic, links=["http://b.de/"])),
        ("http://b.de/", "20090920120000", page(text="cooking")),
        ("http://c.de/", "20091015120000", page(text=topic)),  # outside the narrowed window
    ])
    fx.index.save(str(tmp_path / "archive.cdx"))
    monkeypatch.chdir(tmp_path)
    names = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), names)
    assert len(blocks) == 2
    in_scope = index_prefilter(names["index"], names["narrowed"])
    assert names["in_scope"] == in_scope == fx.index.entries[:2]
    counters = {"candidates_scanned": 2, "fetches": 2, "closure_added": 1, "errors": 0,
                "members": 2}
    assert capsys.readouterr().out == "%r 2 text/html\n" % counters
    manifest = (tmp_path / "narrowed.manifest").read_text().splitlines()
    assert [line.split()[::3] for line in manifest[2:]] == [
        ["http://a.de/", "scan"], ["http://b.de/", "closure"],
    ]


def test_readme_quick_tour_spec_parses():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("cat > spec.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    spec = parse_spec(block)
    assert spec.keyword_scope == ("bundestagswahl", "wahlkampf")
    assert spec.relevance_threshold == 0.3
    assert spec.size_scope == 5000

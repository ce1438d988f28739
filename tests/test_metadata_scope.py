"""spec.in_scope_metadata, the per-URL rule, and its callers against the
per-capture predicate it replaced (``reference_scope``)."""

from hypothesis import example, given, settings, strategies as st

from subcollect.evaluation import default_link_oracle
from subcollect.extraction import index_prefilter
from subcollect.spec import SubCollectionSpec, in_scope_metadata
from subcollect.store import ArchiveIndex

import reference_scope
from conftest import index_entry

_URLS = ["http://%s/p%d" % (host, i) for host in ("a.de", "news.a.de", "nota.de", "c.org")
         for i in range(2)]
_DOMAINS = ["de", "a.de", "news.a.de", "org", "b.de"]
# The time scope's bounds are drawn from the same timestamps as the
# captures, so captures fall on them.
_TS14 = ["19990101000000", "20000101000000", "20000601120000", "20011231235959",
         "20050101000000"]


@st.composite
def indexes(draw):
    """An index of 0-4 URLs with 1-5 captures each; a URL may have several
    captures in the same second, which keep apart by digest."""
    entries = []
    for url in draw(st.lists(st.sampled_from(_URLS), max_size=4, unique=True)):
        for ts in draw(st.lists(st.sampled_from(_TS14), min_size=1, max_size=5)):
            entries.append(index_entry(url, ts, digest="d%d" % len(entries)))
    return ArchiveIndex(entries)


@st.composite
def specs(draw):
    """A spec with each metadata scope absent or set; a URL scope may name
    URLs the index lacks, and the bounds may be drawn in either order."""
    scopes = {}
    if draw(st.booleans()):
        scopes["url_scope"] = tuple(draw(st.lists(st.sampled_from(_URLS), min_size=1, max_size=3)))
    if draw(st.booleans()):
        scopes["domain_scope"] = tuple(draw(st.lists(st.sampled_from(_DOMAINS), min_size=1,
                                                     max_size=2)))
    if draw(st.booleans()):
        scopes["time_scope"] = (draw(st.sampled_from(_TS14)), draw(st.sampled_from(_TS14)))
    return SubCollectionSpec(**scopes)


@settings(max_examples=400, deadline=None)
@given(index=indexes(), spec=specs())
@example(index=ArchiveIndex([]), spec=SubCollectionSpec(domain_scope=("de",)))
@example(  # captures on both bounds and in the same second
    index=ArchiveIndex([index_entry("http://a.de/p0", ts, digest=d) for ts, d in [
        ("19990101000000", "d0"), ("20000101000000", "d1"), ("20000101000000", "d2"),
        ("20011231235959", "d3"), ("20050101000000", "d4"),
    ]]),
    spec=SubCollectionSpec(time_scope=("20000101000000", "20011231235959")),
)
def test_per_url_rule_equals_the_per_capture_predicate(index, spec):
    def reference(captures):
        return [e for e in captures if reference_scope.in_scope_metadata(spec, e)]

    for captures in index.by_url.values():
        assert in_scope_metadata(spec, captures) == reference(captures)
    assert index_prefilter(index, spec) == reference(index)  # order included

    scoped, unscoped = default_link_oracle(index, spec), default_link_oracle(index, None)
    for url in _URLS:
        assert scoped(url) is bool(reference(index.entries_for(url)))
        assert unscoped(url) is bool(index.entries_for(url))


def test_no_captures_pass_nothing():
    assert in_scope_metadata(SubCollectionSpec(domain_scope=("de",)), []) == []


def test_the_result_is_a_new_list():
    captures = [index_entry("http://a.de/", "20000101000000")]
    for spec in (SubCollectionSpec(domain_scope=("de",)),
                 SubCollectionSpec(time_scope=("19990101000000", "20010101000000"))):
        got = in_scope_metadata(spec, captures)
        assert got == captures and got is not captures

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from subcollect.htmldoc import PageAnalysis, parse_html, tokenize
from subcollect.relevance import RelevanceVerdict, could_be_relevant, is_relevant
from subcollect.spec import EntityRef, SubCollectionSpec


def brute_cosine(tokens, terms):
    """Independent oracle: explicit vectors over the joint vocabulary."""
    vocab = sorted(set(tokens) | set(terms))
    tf = [tokens.count(v) for v in vocab]
    kw = [1 if v in terms else 0 for v in vocab]
    dot = sum(a * b for a, b in zip(tf, kw))
    na = math.sqrt(sum(a * a for a in tf))
    nb = math.sqrt(sum(b * b for b in kw))
    return dot / (na * nb) if na and nb else 0.0


def keyword_score(tokens, keywords):
    """The score is_relevant gives a page under a keyword-only spec."""
    spec = SubCollectionSpec(keyword_scope=tuple(keywords), relevance_threshold=0.0)
    return is_relevant(PageAnalysis(tokens=list(tokens)), spec).keyword_score


def entity_match(tokens, entity):
    """Whether is_relevant finds ``entity`` on a page under an entity-only spec."""
    spec = SubCollectionSpec(entity_scope=(entity,))
    return entity.id in is_relevant(PageAnalysis(tokens=list(tokens)), spec).matched_entities


def test_keyword_score_hand_example():
    tokens = ["web", "web", "archive"]
    score = keyword_score(tokens, ["web", "archive"])
    assert score == pytest.approx(3 / (math.sqrt(5) * math.sqrt(2)), abs=1e-12)
    assert score == pytest.approx(brute_cosine(tokens, ["web", "archive"]), abs=1e-12)


def test_keyword_score_no_overlap_is_zero():
    assert keyword_score(["other", "words"], ["web"]) == 0.0


def test_keyword_score_exact_match_is_one():
    assert keyword_score(["web", "archive"], ["web", "archive"]) == pytest.approx(1.0)


def test_keyword_score_empty_tokens():
    assert keyword_score([], ["web"]) == 0.0


def test_keyword_score_empty_keywords_rejected():
    with pytest.raises(ValueError):
        keyword_score(["a"], [])


def test_multiword_keywords_split():
    assert keyword_score(["web", "archive"], ["web archive"]) == pytest.approx(1.0)


def test_scale_invariance_under_duplication():
    tokens = ["web", "archive", "history", "web"]
    once = keyword_score(tokens, ["web", "history"])
    twice = keyword_score(tokens * 2, ["web", "history"])
    assert once == pytest.approx(twice, abs=1e-12)


_token = st.sampled_from(["web", "archive", "history", "crawl", "page", "de"])


@given(
    tokens=st.lists(_token, max_size=30),
    keywords=st.lists(_token, min_size=1, max_size=4, unique=True),
)
def test_keyword_score_matches_brute_force(tokens, keywords):
    assert keyword_score(tokens, keywords) == pytest.approx(
        brute_cosine(tokens, keywords), abs=1e-12
    )


# entity matching -----------------------------------------------------------

MERKEL = EntityRef(id="e1", label="Angela Merkel", aliases=("Merkel",))


def test_entity_contiguous_subsequence():
    assert entity_match(["news", "angela", "merkel", "today"], MERKEL)


def test_entity_contiguity_required():
    strict = EntityRef(id="e1", label="Angela Merkel")
    assert not entity_match(["merkel", "x", "angela"], strict)


def test_entity_token_boundary_not_substring():
    un = EntityRef(id="un", label="UN")
    assert not entity_match(["unprecedented"], un)
    assert entity_match(["the", "un", "said"], un)


def test_entity_alias_case_insensitive():
    upper = EntityRef(id="e", label="ANGELA MERKEL")
    lower = EntityRef(id="e", label="angela merkel")
    tokens = ["angela", "merkel"]
    assert entity_match(tokens, upper) == entity_match(tokens, lower) is True


# is_relevant ---------------------------------------------------------------


def analysis_with(tokens):
    return PageAnalysis(tokens=list(tokens))


def test_no_content_scopes_always_relevant():
    spec = SubCollectionSpec(url_scope=("http://a.de/",))
    assert is_relevant(analysis_with([]), spec).relevant
    assert is_relevant(analysis_with(["anything"]), spec).relevant
    # Without a content scope the page's tokens are not even read.
    unread = PageAnalysis()
    del unread.tokens
    assert is_relevant(unread, spec) == RelevanceVerdict()


def test_threshold_inclusive():
    # Single keyword, doc of one matching token among k tokens: score is
    # 1/sqrt(k) for distinct fillers; pick a case landing exactly on 0.5.
    spec = SubCollectionSpec(keyword_scope=("web",), relevance_threshold=0.5)
    tokens = ["web", "a", "b", "c"]  # tf norm = 2, score = 0.5
    verdict = is_relevant(analysis_with(tokens), spec)
    assert verdict.keyword_score == pytest.approx(0.5)
    assert verdict.relevant


def test_entity_combine_all_requires_every_entity():
    other = EntityRef(id="e2", label="Gerhard")
    spec = SubCollectionSpec(entity_scope=(MERKEL, other), entity_combine="all")
    verdict = is_relevant(analysis_with(["angela", "merkel"]), spec)
    assert verdict.matched_entities == {"e1"}
    assert not verdict.relevant


def test_entity_combine_any_default():
    other = EntityRef(id="e2", label="Gerhard")
    spec = SubCollectionSpec(entity_scope=(MERKEL, other), entity_combine="any")
    assert is_relevant(analysis_with(["angela", "merkel"]), spec).relevant


@given(
    tokens=st.lists(_token, max_size=20),
    low=st.floats(0, 1),
    high=st.floats(0, 1),
)
def test_threshold_monotonicity(tokens, low, high):
    low, high = min(low, high), max(low, high)
    loose = SubCollectionSpec(keyword_scope=("web",), relevance_threshold=low)
    tight = SubCollectionSpec(keyword_scope=("web",), relevance_threshold=high)
    a = analysis_with(tokens)
    if is_relevant(a, tight).relevant:
        assert is_relevant(a, loose).relevant


# equivalence with the per-call tokenizing implementation -------------------
#
# The reference below tokenizes every keyword and entity name on every call
# and walks the page's tokens in Python. The cached, set-based code must give
# the same verdicts, and the same score floats bit for bit.


def reference_keyword_score(tokens, keywords):
    terms = list(dict.fromkeys(t for kw in keywords for t in tokenize(kw)))
    if not terms:
        raise ValueError("keywords contain no scoreable terms")
    if not tokens:
        return 0.0
    tf = {}
    for t in tokens:
        tf[t] = tf.get(t, 0) + 1
    dot = sum(tf.get(t, 0) for t in terms)
    if dot == 0:
        return 0.0
    doc_norm = math.sqrt(sum(c * c for c in tf.values()))
    return dot / (doc_norm * math.sqrt(len(terms)))


def reference_entity_match(tokens, entity):
    for name in entity.all_names():
        needle = tokenize(name)
        if not needle:
            continue
        n = len(needle)
        for i, tok in enumerate(tokens):
            if tok == needle[0] and tokens[i : i + n] == needle:
                return True
    return False


def reference_is_relevant(analysis, spec):
    score = None
    keyword_ok = True
    if spec.keyword_scope is not None:
        score = reference_keyword_score(analysis.tokens, spec.keyword_scope)
        keyword_ok = score >= spec.relevance_threshold
    matched = frozenset()
    entity_ok = True
    if spec.entity_scope is not None:
        matched = frozenset(
            e.id for e in spec.entity_scope if reference_entity_match(analysis.tokens, e)
        )
        if spec.entity_combine == "all":
            entity_ok = len(matched) == len(spec.entity_scope)
        else:
            entity_ok = len(matched) > 0
    return RelevanceVerdict(
        keyword_score=score, matched_entities=matched, relevant=keyword_ok and entity_ok
    )


# Page tokens come from a four-word alphabet, so first tokens repeat and a
# name's prefix often ends the page; names mix case and separators.
_page = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=25)
_name = st.builds(
    lambda words, sep: sep.join(words),
    st.lists(st.sampled_from(["a", "b", "c", "A", "B", "e"]), min_size=1, max_size=3),
    st.sampled_from([" ", "-", ". "]),
)
_entities = st.lists(
    st.tuples(_name, st.lists(_name, max_size=3)), min_size=1, max_size=3
).map(
    lambda ents: tuple(
        EntityRef(id="e%d" % i, label=label, aliases=tuple(aliases))
        for i, (label, aliases) in enumerate(ents)
    )
)


@given(tokens=_page, keywords=st.lists(_name, min_size=1, max_size=3))
@example(tokens=["a", "b", "a", "b", "a"], keywords=["a b", "B"])
def test_keyword_score_equals_reference_exactly(tokens, keywords):
    assert keyword_score(tokens, keywords) == reference_keyword_score(tokens, keywords)


@given(tokens=_page, entities=_entities)
@example(tokens=["a", "c", "a", "b"], entities=(EntityRef(id="e", label="A B"),))
@example(tokens=["c", "a"], entities=(EntityRef(id="e", label="a b", aliases=("A-B",)),))
def test_entity_match_equals_reference(tokens, entities):
    for entity in entities:
        assert entity_match(tokens, entity) == reference_entity_match(tokens, entity)


@given(
    tokens=_page,
    keywords=st.none() | st.lists(_name, min_size=1, max_size=3).map(tuple),
    entities=st.none() | _entities,
    combine=st.sampled_from(["any", "all"]),
    threshold=st.floats(0, 1),
)
def test_is_relevant_equals_reference(tokens, keywords, entities, combine, threshold):
    spec = SubCollectionSpec(
        keyword_scope=keywords,
        entity_scope=entities,
        entity_combine=combine,
        relevance_threshold=threshold if keywords is not None else None,
    )
    got = is_relevant(analysis_with(tokens), spec)
    want = reference_is_relevant(analysis_with(tokens), spec)
    assert got.keyword_score == want.keyword_score
    assert got.matched_entities == want.matched_entities
    assert got.relevant == want.relevant


# could_be_relevant ---------------------------------------------------------
#
# The text test may pass a page that is_relevant rejects, but it must never
# rule out a page that is_relevant would keep.

_PIECES = [
    # markup, comments and raw-text bodies
    "<b>", "</p>", "<p title=", "<a href='", "'>", ">", "<", "<!--", "-->", "<script>",
    "</script>", "<style>", "</style>", "<br/>",
    # character references: named with and without ";", numeric, unterminated,
    # and ones that run into a ">"
    "&amp;", "&amp", "&ampx>", "&lt", "&#101;", "&#101", "&#x45;", "&#69", "&", "&#", "&e",
    "&sigma;", "&Sigma", "&#931;", "&#962;",
    # letters whose lower case is not one code point for one, or depends on
    # the neighbours, and separators
    "\u03a3", "\u03c3", "\u03c2", "\u0130", "\u212a", "\u00df", "\ufb01", "\u216b",
    "'", "_", " ", "\n", "-",
    # plain letters the keywords and names are made of
    "e", "l", "b", "a", "i", "k", "s", "elbe", "E", "LBE", "A",
]
_WORDS = ["elbe", "e", "a", "b", "\u03c3", "\u03a3", "\u03c2", "i\u0307", "\u0130", "k",
          "\u212a", "\u00df", "ss", "\ufb01", "\u216b", "elbe a", "e'a", "a_b"]
_text = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)
_content_spec = st.builds(
    lambda keywords, threshold, entities, combine: SubCollectionSpec(
        keyword_scope=keywords,
        relevance_threshold=None if keywords is None else threshold,
        entity_scope=entities,
        entity_combine=combine,
    ),
    keywords=st.none() | st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(tuple),
    threshold=st.just(0.0) | st.floats(0, 1),
    entities=st.none() | st.lists(
        st.lists(st.sampled_from(_WORDS + ["_", "'"]), min_size=1, max_size=3), max_size=3
    ).map(lambda ents: tuple(
        EntityRef(id="e%d" % i, label=names[0], aliases=tuple(names[1:]))
        for i, names in enumerate(ents)
    )),
    combine=st.sampled_from(["any", "all"]),
)


def keyword_spec(*keywords, threshold=0.5):
    return SubCollectionSpec(keyword_scope=keywords, relevance_threshold=threshold)


@settings(max_examples=2000)
@given(text=_text, spec=_content_spec)
# Lower-cased as a whole, the sigma after "A'" is final; the token "\u03c3"
# is lower-cased alone.
@example(text="<b>e'A'\u03a3", spec=keyword_spec("\u03c3"))
# Only the decoded reference spells the keyword.
@example(text="&#101;lbe<b>\u03a3", spec=keyword_spec("elbe"))
# A threshold of 0 keeps a page that holds no keyword term.
@example(text="<p>cooking</p>", spec=keyword_spec("elbe", threshold=0.0))
def test_text_test_never_rules_out_a_relevant_page(text, spec):
    if not could_be_relevant(text, spec):
        assert not is_relevant(parse_html(text, "http://a.de/"), spec).relevant


def test_text_test_rules_out_a_page_without_any_term():
    keywords = keyword_spec("web", "archive")
    assert not could_be_relevant("<p>cooking only</p>", keywords)
    # A term inside a longer word, or only in markup, passes the text test.
    assert could_be_relevant("<p>cobwebs</p>", keywords)
    assert could_be_relevant('<a href="/archive">x</a>', keywords)


def test_text_test_reads_decoded_lower_cased_text():
    spec = keyword_spec("elbe")
    assert could_be_relevant("<p>&#69;LBE</p>", spec)
    assert could_be_relevant("<p>E&shy;LBE</p>", spec) is False


def test_text_test_passes_every_page_it_cannot_rule_out():
    no_content = SubCollectionSpec(url_scope=("http://a.de/",))
    zero = keyword_spec("web", threshold=0.0)
    assert could_be_relevant("", no_content)
    assert could_be_relevant("<p>cooking</p>", zero)


@pytest.mark.parametrize("combine, want", [("any", True), ("all", False)])
def test_text_test_combines_entities_like_the_spec(combine, want):
    spec = SubCollectionSpec(entity_scope=(MERKEL, EntityRef(id="e2", label="Gerhard Schroeder")),
                             entity_combine=combine)
    assert could_be_relevant("<p>ANGELA and gerhard</p>", spec)
    # Only the first token of a name is looked for.
    assert could_be_relevant("<p>merkel and schroeder</p>", spec) is want
    assert not could_be_relevant("<p>nobody</p>", spec)

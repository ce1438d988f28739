"""Content relevance scoring against keyword and entity scopes.

Keyword scoring is cosine similarity between the page's raw
term-frequency vector and a uniform indicator vector over the keyword
terms. TF (not TF-IDF) keeps scoring a pure per-page computation; an
IDF variant would need a corpus pass.

Keyword terms and entity names are tokenized once per spec and cached.
Per page, a spec with a content scope builds one set of the page's
tokens; a spec without one builds nothing. A term or name whose first
token is not in that set costs one lookup, and the page's full term
counts, which only the score's norm needs, are built only when some
keyword term occurs on the page. Pages are first ruled out, exactly,
from their decoded text alone by :func:`could_be_relevant`, untokenized.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache
from html import unescape

from .htmldoc import tokenize

__all__ = ["RelevanceVerdict", "could_be_relevant", "is_relevant"]


# keyword_score is None when the spec has no keyword scope.
RelevanceVerdict = namedtuple(
    "RelevanceVerdict", "keyword_score matched_entities relevant",
    defaults=(None, frozenset(), True),
)


@lru_cache(maxsize=64)
def _keyword_terms(keywords):
    """Distinct lowercase terms of a keyword tuple; multi-word keywords
    split into terms."""
    return tuple(dict.fromkeys(t for kw in keywords for t in tokenize(kw)))


def _terms(keywords):
    if not keywords:
        raise ValueError("keyword list must be non-empty")
    terms = _keyword_terms(tuple(keywords))
    if not terms:
        raise ValueError("keywords contain no scoreable terms")
    return terms


@lru_cache(maxsize=256)
def _entity_names(entity):
    """The entity's names as token lists, names without a token dropped.
    The lists are shared by every call: callers must not mutate them."""
    return tuple(needle for needle in map(tokenize, entity.all_names()) if needle)


def _score(tokens, present, terms):
    dot = sum([tokens.count(t) for t in terms if t in present])
    if dot == 0:
        return 0.0
    doc_norm = math.sqrt(sum(c * c for c in Counter(tokens).values()))
    return dot / (doc_norm * math.sqrt(len(terms)))


def _matches(tokens, present, names):
    """True iff some name's tokens occur contiguously in the page's."""
    for needle in names:
        first = needle[0]
        if first not in present:
            continue
        n = len(needle)
        if n == 1:
            return True
        i = -1
        try:
            while True:
                i = tokens.index(first, i + 1)
                if tokens[i : i + n] == needle:
                    return True
        except ValueError:
            pass
    return False


def is_relevant(analysis, spec):
    """Apply the spec's content scopes to one page analysis.

    The keyword clause is inclusive (score >= threshold counts);
    entities combine per spec.entity_combine. Metadata scopes are the
    caller's responsibility.
    """
    keywords, entities = spec.keyword_scope, spec.entity_scope
    if keywords is None and entities is None:
        return RelevanceVerdict()
    tokens = analysis.tokens
    present = set(tokens)

    score = None
    keyword_ok = True
    if keywords is not None:
        score = _score(tokens, present, _terms(keywords))
        keyword_ok = score >= spec.relevance_threshold

    matched = frozenset()
    entity_ok = True
    if entities is not None:
        matched = frozenset(
            e.id for e in entities if _matches(tokens, present, _entity_names(e))
        )
        if spec.entity_combine == "all":
            entity_ok = len(matched) == len(entities)
        else:
            entity_ok = len(matched) > 0

    return RelevanceVerdict(
        keyword_score=score,
        matched_entities=matched,
        relevant=keyword_ok and entity_ok,
    )


def _fold_sigma(text):
    return text.replace("\u03c2", "\u03c3")  # final sigma to sigma


def could_be_relevant(text, spec):
    """False only when no page whose decoded text is ``text`` can pass
    the spec's content scopes: the threshold is above 0 and no keyword
    term is in ``F = unescape(text).lower()`` (the score is then 0.0), or
    no entity ("any"), or some entity ("all"), has a name whose first
    token is; final sigma is folded to sigma. This is exact, as each token
    is in ``F``: a character reference never spans ``<`` or a space,
    ``unescape`` keeps what it reads past a ``>`` (``<p title=&ampx>y``),
    and ``str.lower`` maps each character alone but capital sigma."""
    keywords, entities = spec.keyword_scope, spec.entity_scope
    by_keywords = keywords is not None and spec.relevance_threshold > 0
    if not by_keywords and entities is None:
        return True
    folded = _fold_sigma(unescape(text).lower())
    if by_keywords and not any(_fold_sigma(t) in folded for t in _terms(keywords)):
        return False
    if entities is None:
        return True
    found = (any(_fold_sigma(name[0]) in folded for name in _entity_names(e)) for e in entities)
    return all(found) if spec.entity_combine == "all" else any(found)

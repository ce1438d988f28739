"""Declarative sub-collection specification.

A spec combines scopes (URL, domain, time, keywords, entities, size)
conjunctively: every additional scope narrows the result. Metadata
scopes (URL/domain/time) are decidable from the index alone, and
:func:`in_scope_metadata` decides them per URL: it takes one URL's
captures, decides the URL and domain scopes once for all of them and
finds the ones inside the time scope by binary search. Keyword/entity
scopes need page content and live in the relevance module.

The spec's JSON form is written once, in the field table ``_FIELDS``: a
row per field gives its JSON path, default, reader and writer, and
``SubCollectionSpec``, :func:`parse_spec` and :func:`serialize_spec` follow it.
"""

from __future__ import annotations

import hashlib
import json
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .htmldoc import tokenize
from .store import is_valid_timestamp14
from .urls import CanonicalizationError, SpecError, canonicalize_url, host_of

__all__ = [
    "SpecError",
    "EntityRef",
    "SubCollectionSpec",
    "parse_spec",
    "parse_spec_file",
    "serialize_spec",
    "in_scope_metadata",
]


class EntityRef(namedtuple("EntityRef", "id label aliases", defaults=((),))):
    __slots__ = ()

    def all_names(self):
        """Label plus aliases, case-insensitively deduplicated."""
        seen, out = set(), []
        for name in (self.label, *self.aliases):
            key = name.lower()
            if name and key not in seen:
                seen.add(key)
                out.append(name)
        return out


def _expect(cond, path, message):
    if not cond:
        raise SpecError("%s: %s" % (path, message))


def _check_keys(obj, allowed, path):
    for key in obj:
        _expect(key in allowed, path, "unknown field %r" % key)


def _strings(read):
    """A reader of a non-empty list of non-empty strings, each read by ``read``."""

    def read_list(value, path):
        _expect(isinstance(value, list) and value, path, "must be a non-empty list")
        items = ["%s[%d]" % (path, i) for i in range(len(value))]
        for v, item in zip(value, items):
            _expect(isinstance(v, str) and v, item, "must be a non-empty string")
        return tuple(read(v, item) for v, item in zip(value, items))

    return read_list


def _url(value, path):
    try:
        return canonicalize_url(value)
    except CanonicalizationError as exc:
        raise SpecError("%s: %s" % (path, exc)) from exc


def _domain(value, path):
    """A domain as host names end in: lowercase, without surrounding
    whitespace and without one leading and one trailing dot."""
    domain = value.strip().removeprefix(".").removesuffix(".").lower()
    _expect(domain and "" not in domain.split("."), path, "empty domain label in %r" % value)
    return domain


_TIME_KEYS = ("from", "to")


def _time(value, path):
    _expect(isinstance(value, dict), path, "must be an object")
    _check_keys(value, _TIME_KEYS, path)
    _expect(all(k in value for k in _TIME_KEYS), path, "needs both 'from' and 'to'")
    bounds = tuple(str(value[k]) for k in _TIME_KEYS)  # a JSON integer reads as its digits
    for k, ts in zip(_TIME_KEYS, bounds):
        _expect(is_valid_timestamp14(ts), "%s.%s" % (path, k), "not a valid 14-digit timestamp")
    _expect(bounds[0] <= bounds[1], path, "'from' must not exceed 'to'")
    return bounds


def _name(value, path):
    """A keyword or entity name. Relevance compares letter/digit runs, so
    a name without one could never match a page."""
    _expect(isinstance(value, str) and value, path, "must be a non-empty string")
    _expect(tokenize(value), path, "must contain a letter or digit")
    return value


def _keyword(value, path):
    return _name(value, path).lower()


def _entities(value, path):
    _expect(isinstance(value, list) and value, path, "must be a non-empty list")
    parsed = []
    for i, e in enumerate(value):
        at = "%s[%d]" % (path, i)
        _expect(isinstance(e, dict), at, "must be an object")
        _check_keys(e, EntityRef._fields, at)
        label = _name(e.get("label", ""), at + ".label")
        aliases = e.get("aliases", [])
        _expect(isinstance(aliases, list), at + ".aliases", "must be a list")
        aliases = tuple(_name(a, "%s.aliases[%d]" % (at, j)) for j, a in enumerate(aliases))
        # entity_combine "all" counts distinct matched ids.
        ident = e.get("id", "")
        _expect("id" not in e or isinstance(ident, str) and ident, at + ".id",
                "must be a non-empty string")
        _expect(all(ident != p.id for p in parsed), at + ".id", "repeats id %r" % ident)
        parsed.append(EntityRef(id=ident, label=label, aliases=aliases))
    return tuple(parsed)


def _entities_json(entities):
    """Each entity as a JSON object; an empty id reads as an absent one and is left out."""
    return [{k: v for k, v in e._replace(aliases=list(e.aliases))._asdict().items()
             if v or k != "id"} for e in entities]


def _checked(test, message):
    """A reader that takes a value ``test`` is true of, as it is."""

    def read(value, path):
        _expect(test(value), path, message)
        return value

    return read


def _choice(*choices):
    return _checked(lambda v: v in choices, "must be " + "|".join(choices))


_string = _checked(lambda v: isinstance(v, str), "must be a string")
# A JSON boolean is no number: the numeric readers check the exact type.
_positive_int = _checked(lambda v: type(v) is int and v > 0, "must be a positive integer")
_seed = _checked(lambda v: type(v) is int and 0 <= v < 2**64, "must be a 64-bit unsigned integer")


def _fraction(value, path):
    _expect(type(value) in (int, float) and 0 <= value <= 1, path, "must be a number in [0, 1]")
    return float(value)


# A spec field: name, JSON path, default, the reader ``read(value, path)`` that
# checks and converts a JSON value, and a writer where the JSON form differs.
_Field = namedtuple("_Field", "name path default read write", defaults=(None,))

# The spec's fields in order, and its JSON form.
_FIELDS = (
    _Field("name", "name", "", _string),
    _Field("url_scope", "scopes.urls", None, _strings(_url), list),
    _Field("domain_scope", "scopes.domains", None, _strings(_domain), list),
    _Field("time_scope", "scopes.time", None, _time,  # (from_ts14, to_ts14)
           lambda bounds: dict(zip(_TIME_KEYS, bounds))),
    _Field("keyword_scope", "scopes.keywords", None, _strings(_keyword), list),
    _Field("entity_scope", "scopes.entities", None, _entities, _entities_json),
    _Field("size_scope", "scopes.size", None, _positive_int),
    _Field("link_mode", "link_mode", "disconnected", _choice("connected", "disconnected")),
    _Field("version_mode", "version_mode", "timeline", _choice("snapshot", "timeline")),
    _Field("relevance_threshold", "relevance.threshold", None, _fraction),
    _Field("entity_combine", "relevance.entity_combine", "any", _choice("any", "all")),
    _Field("closure_policy", "closure.policy", "all_links",
           _choice("all_links", "relevant_links")),
    _Field("closure_max_depth", "closure.max_depth", None, _positive_int),  # None = unbounded
    _Field("seed", "seed", 0, _seed),
)

# Each field's (JSON object, key there), "" naming the document, and the
# keys each JSON object may hold.
_PLACES = [f.path.rpartition(".")[::2] for f in _FIELDS]
_KEYS = {"": set()}
for _parent, _key in _PLACES:
    _KEYS[""].add(_parent or _key)
    _KEYS.setdefault(_parent, set()).add(_key)


class SubCollectionSpec(namedtuple("SubCollectionSpec", [f.name for f in _FIELDS],
                                   defaults=[f.default for f in _FIELDS])):
    __slots__ = ()

    def digest(self):
        """Stable hex digest of the spec, for manifest provenance."""
        blob = json.dumps(serialize_spec(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def parse_spec(text):
    """Parse and validate the JSON spec document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("invalid JSON: %s" % exc) from exc
    _expect(isinstance(doc, dict), "$", "spec must be a JSON object")
    objects = {parent: doc.get(parent, {}) if parent else doc for parent in _KEYS}
    for parent, obj in objects.items():
        _expect(isinstance(obj, dict), parent, "must be an object")
        _check_keys(obj, _KEYS[parent], parent or "$")
    spec = SubCollectionSpec._make(
        f.read(objects[parent][key], f.path) if key in objects[parent] else f.default
        for f, (parent, key) in zip(_FIELDS, _PLACES)
    )
    if all(v is None for v, (parent, _) in zip(spec, _PLACES) if parent == "scopes"):
        raise SpecError("scopes: at least one scope is required")
    if spec.keyword_scope is not None and spec.relevance_threshold is None:
        raise SpecError("relevance.threshold: required when keyword scope is present")
    if spec.keyword_scope is None and spec.relevance_threshold is not None:
        raise SpecError("relevance.threshold: only meaningful with a keyword scope")
    return spec


def parse_spec_file(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_spec(f.read())


def serialize_spec(spec):
    """Spec -> plain JSON-ready dict of the fields that are not None;
    parse_spec(json.dumps(...)) round-trips."""
    doc = {}
    for f, (parent, key), value in zip(_FIELDS, _PLACES, spec):
        obj = doc.setdefault(parent, {}) if parent else doc
        if value is not None:
            obj[key] = f.write(value) if f.write else value
    return doc


_TIMESTAMP14 = operator.attrgetter("timestamp14")


def _domain_matches(host, domain):
    return host == domain or host.endswith("." + domain)


def in_scope_metadata(spec, captures):
    """The captures of one URL that pass the metadata-only scopes (URL,
    domain, time), as a new list.

    ``captures`` are one URL's captures in ascending time order, as
    ``ArchiveIndex.by_url`` holds them, so the URL and domain scopes are
    decided once for all of them and the time scope, a closed interval,
    by two binary searches. Content scopes are deliberately not consulted
    here: the rule must be decidable from the index alone, with zero
    fetches.
    """
    if not captures:
        return []
    url = captures[0].canonical_url
    if spec.url_scope is not None and url not in spec.url_scope:
        return []
    if spec.domain_scope is not None:
        host = host_of(url)
        if not any(_domain_matches(host, d) for d in spec.domain_scope):
            return []
    if spec.time_scope is None:
        return list(captures)
    lo, hi = spec.time_scope
    return captures[bisect_left(captures, lo, key=_TIMESTAMP14):
                    bisect_right(captures, hi, key=_TIMESTAMP14)]

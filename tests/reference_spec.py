"""The spec's JSON reader and writer that the field table of ``spec``
replaced.

``parse_spec`` and ``serialize_spec`` are the previous implementation,
copied unchanged with their helpers: each JSON key, default and choice is
written out in the reader and again in the writer. The table-driven
reader and writer are compared against them.
"""

import json

from subcollect.htmldoc import tokenize
from subcollect.spec import EntityRef, SubCollectionSpec
from subcollect.store import is_valid_timestamp14
from subcollect.urls import CanonicalizationError, SpecError, canonicalize_url


def _expect(cond, path, message):
    if not cond:
        raise SpecError("%s: %s" % (path, message))


def _string_list(value, path):
    _expect(isinstance(value, list) and value, path, "must be a non-empty list")
    for i, v in enumerate(value):
        _expect(isinstance(v, str) and v, "%s[%d]" % (path, i), "must be a non-empty string")
    return tuple(value)


def _name(value, path):
    """A keyword or entity name. Relevance compares letter/digit runs, so
    a name without one could never match a page."""
    _expect(isinstance(value, str) and value, path, "must be a non-empty string")
    _expect(tokenize(value), path, "must contain a letter or digit")
    return value


def _domain(value, path):
    """A domain as host names end in: lowercase, without surrounding
    whitespace and without one leading and one trailing dot."""
    domain = value.strip()
    if domain.startswith("."):
        domain = domain[1:]
    if domain.endswith("."):
        domain = domain[:-1]
    domain = domain.lower()
    _expect(domain and "" not in domain.split("."), path, "empty domain label in %r" % value)
    return domain


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise SpecError("%s: unknown field %r" % (path, key))


def parse_spec(text):
    """Parse and validate the JSON spec document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("invalid JSON: %s" % exc) from exc
    _expect(isinstance(doc, dict), "$", "spec must be a JSON object")
    _check_keys(
        doc, {"name", "scopes", "link_mode", "version_mode", "relevance", "closure", "seed"}, "$"
    )

    name = doc.get("name", "")
    _expect(isinstance(name, str), "name", "must be a string")

    scopes = doc.get("scopes", {})
    _expect(isinstance(scopes, dict), "scopes", "must be an object")
    _check_keys(scopes, {"urls", "domains", "time", "keywords", "entities", "size"}, "scopes")

    url_scope = domain_scope = time_scope = keyword_scope = entity_scope = None
    size_scope = None

    if "urls" in scopes:
        urls = _string_list(scopes["urls"], "scopes.urls")
        canon = []
        for i, u in enumerate(urls):
            try:
                canon.append(canonicalize_url(u))
            except CanonicalizationError as exc:
                raise SpecError("scopes.urls[%d]: %s" % (i, exc)) from exc
        url_scope = tuple(canon)

    if "domains" in scopes:
        domains = _string_list(scopes["domains"], "scopes.domains")
        domain_scope = tuple(_domain(d, "scopes.domains[%d]" % i) for i, d in enumerate(domains))

    if "time" in scopes:
        t = scopes["time"]
        _expect(isinstance(t, dict), "scopes.time", "must be an object")
        _check_keys(t, {"from", "to"}, "scopes.time")
        _expect("from" in t and "to" in t, "scopes.time", "needs both 'from' and 'to'")
        lo, hi = str(t["from"]), str(t["to"])
        _expect(is_valid_timestamp14(lo), "scopes.time.from", "not a valid 14-digit timestamp")
        _expect(is_valid_timestamp14(hi), "scopes.time.to", "not a valid 14-digit timestamp")
        _expect(lo <= hi, "scopes.time", "'from' must not exceed 'to'")
        time_scope = (lo, hi)

    if "keywords" in scopes:
        keywords = _string_list(scopes["keywords"], "scopes.keywords")
        keyword_scope = tuple(
            _name(k, "scopes.keywords[%d]" % i).lower() for i, k in enumerate(keywords)
        )

    if "entities" in scopes:
        ents = scopes["entities"]
        _expect(isinstance(ents, list) and ents, "scopes.entities", "must be a non-empty list")
        parsed = []
        for i, e in enumerate(ents):
            path = "scopes.entities[%d]" % i
            _expect(isinstance(e, dict), path, "must be an object")
            _check_keys(e, {"id", "label", "aliases"}, path)
            label = _name(e.get("label", ""), path + ".label")
            aliases = e.get("aliases", [])
            _expect(isinstance(aliases, list), path + ".aliases", "must be a list")
            for j, alias in enumerate(aliases):
                _name(alias, "%s.aliases[%d]" % (path, j))
            # entity_combine "all" counts distinct matched ids.
            ident = e.get("id", "")
            if "id" in e:
                _expect(isinstance(ident, str) and ident, path + ".id", "must be a non-empty string")
            _expect(
                all(ident != p.id for p in parsed), path + ".id", "repeats id %r" % ident
            )
            parsed.append(EntityRef(id=ident, label=label, aliases=tuple(aliases)))
        entity_scope = tuple(parsed)

    if "size" in scopes:
        size_scope = scopes["size"]
        _expect(
            isinstance(size_scope, int) and size_scope > 0,
            "scopes.size",
            "must be a positive integer",
        )

    if all(
        s is None
        for s in (url_scope, domain_scope, time_scope, keyword_scope, entity_scope, size_scope)
    ):
        raise SpecError("scopes: at least one scope is required")

    link_mode = doc.get("link_mode", "disconnected")
    _expect(link_mode in ("connected", "disconnected"), "link_mode", "must be connected|disconnected")
    version_mode = doc.get("version_mode", "timeline")
    _expect(version_mode in ("snapshot", "timeline"), "version_mode", "must be snapshot|timeline")

    relevance = doc.get("relevance", {})
    _expect(isinstance(relevance, dict), "relevance", "must be an object")
    _check_keys(relevance, {"threshold", "entity_combine"}, "relevance")
    threshold = relevance.get("threshold")
    if threshold is not None:
        _expect(
            isinstance(threshold, (int, float)) and 0.0 <= threshold <= 1.0,
            "relevance.threshold",
            "must be a number in [0, 1]",
        )
        threshold = float(threshold)
    if keyword_scope is not None and threshold is None:
        raise SpecError("relevance.threshold: required when keyword scope is present")
    if keyword_scope is None and threshold is not None:
        raise SpecError("relevance.threshold: only meaningful with a keyword scope")
    entity_combine = relevance.get("entity_combine", "any")
    _expect(entity_combine in ("any", "all"), "relevance.entity_combine", "must be any|all")

    closure = doc.get("closure", {})
    _expect(isinstance(closure, dict), "closure", "must be an object")
    _check_keys(closure, {"policy", "max_depth"}, "closure")
    policy = closure.get("policy", "all_links")
    _expect(policy in ("all_links", "relevant_links"), "closure.policy", "must be all_links|relevant_links")
    max_depth = closure.get("max_depth")
    if max_depth is not None:
        _expect(
            isinstance(max_depth, int) and max_depth > 0,
            "closure.max_depth",
            "must be a positive integer",
        )

    seed = doc.get("seed", 0)
    _expect(
        isinstance(seed, int) and 0 <= seed < 2**64, "seed", "must be a 64-bit unsigned integer"
    )

    return SubCollectionSpec(
        name=name,
        url_scope=url_scope,
        domain_scope=domain_scope,
        time_scope=time_scope,
        keyword_scope=keyword_scope,
        entity_scope=entity_scope,
        size_scope=size_scope,
        link_mode=link_mode,
        version_mode=version_mode,
        relevance_threshold=threshold,
        entity_combine=entity_combine,
        closure_policy=policy,
        closure_max_depth=max_depth,
        seed=seed,
    )


def serialize_spec(spec):
    """Spec -> plain JSON-ready dict; parse_spec(json.dumps(...)) round-trips."""
    scopes = {}
    if spec.url_scope is not None:
        scopes["urls"] = list(spec.url_scope)
    if spec.domain_scope is not None:
        scopes["domains"] = list(spec.domain_scope)
    if spec.time_scope is not None:
        scopes["time"] = {"from": spec.time_scope[0], "to": spec.time_scope[1]}
    if spec.keyword_scope is not None:
        scopes["keywords"] = list(spec.keyword_scope)
    if spec.entity_scope is not None:
        scopes["entities"] = [
            {"id": e.id, "label": e.label, "aliases": list(e.aliases)} for e in spec.entity_scope
        ]
    if spec.size_scope is not None:
        scopes["size"] = spec.size_scope
    doc = {
        "name": spec.name,
        "scopes": scopes,
        "link_mode": spec.link_mode,
        "version_mode": spec.version_mode,
        "relevance": {"entity_combine": spec.entity_combine},
        "closure": {"policy": spec.closure_policy},
        "seed": spec.seed,
    }
    if spec.relevance_threshold is not None:
        doc["relevance"]["threshold"] = spec.relevance_threshold
    if spec.closure_max_depth is not None:
        doc["closure"]["max_depth"] = spec.closure_max_depth
    return doc

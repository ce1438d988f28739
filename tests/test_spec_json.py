"""The spec's JSON form: parse_spec and serialize_spec against the reader
and writer that the field table replaced (``reference_spec``), the
digests that manifests record, and the rejected booleans and nulls."""

import copy
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from subcollect.spec import SpecError, parse_spec, serialize_spec

import reference_spec

# Non-canonical URLs and untidy domains are valid; they read as their
# canonical and normalized forms.
_URLS = ["http://a.de/", "HTTP://A.DE:80/x", "https://news.a.de/p?q=1#f", "http://c.org"]
_DOMAINS = ["de", "A.DE", " .news.a.de.", "org"]
# No leading zero, so that each also reads back from a JSON integer.
_TS14 = ["19990101000000", "20000229120000", "20051231235959", "20091015120000"]
_NAMES = ["web", "Archive", "Bundestagswahl 2009", "élection", "x1"]
_CHOICES = {"link_mode": ["connected", "disconnected"], "version_mode": ["snapshot", "timeline"],
            "entity_combine": ["any", "all"], "policy": ["all_links", "relevant_links"]}


def _maybe(draw, doc, key, strategy):
    if draw(st.booleans()):
        doc[key] = draw(strategy)


@st.composite
def valid_docs(draw):
    """A valid spec document with each field absent or present, entities
    with and without ids, and time bounds as strings or integers."""
    scopes = {}
    _maybe(draw, scopes, "urls", st.lists(st.sampled_from(_URLS), min_size=1, max_size=3))
    _maybe(draw, scopes, "domains", st.lists(st.sampled_from(_DOMAINS), min_size=1, max_size=3))
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.sampled_from(_TS14), min_size=2, max_size=2)))
        scopes["time"] = {"from": draw(st.sampled_from([lo, int(lo)])),
                          "to": draw(st.sampled_from([hi, int(hi)]))}
    _maybe(draw, scopes, "keywords", st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3))
    if draw(st.booleans()):
        entities = []
        for i in range(draw(st.integers(1, 3))):
            entity = {"label": draw(st.sampled_from(_NAMES))}
            if i or draw(st.booleans()):  # at most one without an id, which counts as ""
                entity["id"] = "e%d" % i
            _maybe(draw, entity, "aliases", st.lists(st.sampled_from(_NAMES), max_size=2))
            entities.append(entity)
        scopes["entities"] = entities
    _maybe(draw, scopes, "size", st.integers(1, 10**6))
    if not scopes:
        scopes["domains"] = ["de"]
    doc = {}
    _maybe(draw, doc, "name", st.text(max_size=5))
    doc["scopes"] = scopes
    for key in ("link_mode", "version_mode"):
        _maybe(draw, doc, key, st.sampled_from(_CHOICES[key]))
    relevance = {}
    if "keywords" in scopes:
        relevance["threshold"] = draw(st.sampled_from([0, 1, 0.25, 1.0, 0.0]))
    _maybe(draw, relevance, "entity_combine", st.sampled_from(_CHOICES["entity_combine"]))
    if relevance or draw(st.booleans()):
        doc["relevance"] = relevance
    closure = {}
    _maybe(draw, closure, "policy", st.sampled_from(_CHOICES["policy"]))
    _maybe(draw, closure, "max_depth", st.sampled_from([1, 3]))
    if closure or draw(st.booleans()):
        doc["closure"] = closure
    _maybe(draw, doc, "seed", st.sampled_from([0, 7, 2**64 - 1]))
    return doc


# Values that a field's reader rejects; each replaces the field's value.
_BAD = {
    ("name",): [1, None, [], False],
    ("scopes", "urls"): [[], "http://a.de/", [""], [1], ["http://[bad/"], None],
    ("scopes", "domains"): [[], ["a..de"], ["."], [""], [1], "de"],
    ("scopes", "time"): ["x", [], {"from": "20000101000000"}, {"to": "20000101000000"},
                         {"from": "2000", "to": "20000101000000"},
                         {"from": "20000101000000", "to": "20050229000000"},
                         {"from": "20010101000000", "to": "20000101000000"},
                         {"from": "٢٠٠٢0101000000", "to": "20000101000000"},
                         {"from": True, "to": "20000101000000"},
                         {"from": 2.0e13, "to": "20000101000000"},
                         {"from": "20000101000000", "to": "20010101000000", "at": 1}],
    ("scopes", "keywords"): [[], ["!!!"], [""], [3], "web", ["web", "—"]],
    ("scopes", "entities"): [[], "x", [1], [{"label": ""}], [{"id": "a"}],
                             [{"label": "L", "aliases": "x"}], [{"label": "L", "aliases": ["!!"]}],
                             [{"id": "", "label": "L"}], [{"id": 1, "label": "L"}],
                             [{"id": None, "label": "L"}], [{"label": "L", "kind": "person"}],
                             [{"id": "a", "label": "L"}, {"id": "a", "label": "M"}],
                             [{"label": "L"}, {"label": "M"}]],
    ("scopes", "size"): [0, -1, 1.5, "5", None, False],
    ("link_mode",): ["x", None, 1, "Connected"],
    ("version_mode",): ["x", None, ["snapshot"]],
    ("relevance", "entity_combine"): ["x", None, "ANY"],
    ("relevance", "threshold"): [-0.1, 1.5, "0.5", [], float("nan"), None],
    ("closure", "policy"): ["x", None, 0],
    ("closure", "max_depth"): [0, -1, 1.5, "2", False, None],
    ("seed",): [-1, 2**64, 1.0, "1", None],
}
# The values that the reader that the table replaced accepted: booleans.
_BOOLEANS = {
    ("scopes", "size"): ([True], "scopes.size: must be a positive integer"),
    ("seed",): ([True, False], "seed: must be a 64-bit unsigned integer"),
    ("closure", "max_depth"): ([True], "closure.max_depth: must be a positive integer"),
    ("relevance", "threshold"): ([True, False], "relevance.threshold: must be a number in [0, 1]"),
}
# The fields whose null the reader that the table replaced read as the
# field's absence, and the error that null now gives.
_NULLS = {
    ("relevance", "threshold"): "relevance.threshold: must be a number in [0, 1]",
    ("closure", "max_depth"): "closure.max_depth: must be a positive integer",
}


def _set(doc, path, value):
    obj = doc
    for key in path[:-1]:
        obj = obj.setdefault(key, {})
    obj[path[-1]] = value


def _faults(doc):
    """The single faults that ``doc``, a document, allows, as (name, apply)
    pairs; each ``apply(doc)`` changes ``doc`` in place so that it no
    longer reads."""
    if not all(isinstance(doc.get(key, {}), dict) for key in ("scopes", "relevance", "closure")):
        return []
    out = [("%s=%r" % (".".join(path), v), lambda d, p=path, v=v: _set(d, p, v))
           for path, values in _BAD.items() for v in values]
    for obj in ("$", "scopes", "relevance", "closure"):
        out.append(("unknown key in " + obj,
                    lambda d, o=obj: (d if o == "$" else d.setdefault(o, {})).update(bogus=1)))
    for obj in ("scopes", "relevance", "closure"):
        out += [("%s=%r" % (obj, v), lambda d, o=obj, v=v: d.update({o: v}))
                for v in ([], "x", None, 1)]
    out.append(("no scope", lambda d: d.update(scopes={})))
    if "keywords" not in doc.get("scopes", {}):
        out.append(("threshold without keywords",
                    lambda d: _set(d, ("relevance", "threshold"), 0.5)))
    elif "threshold" in doc.get("relevance", {}):
        out.append(("keywords without threshold", lambda d: d["relevance"].pop("threshold")))
    return out


def _read(read, text):
    try:
        return read(text), None
    except SpecError as exc:
        return None, str(exc)


def _drop_empty_ids(doc):
    """``doc``, a JSON form, with each empty entity id left out."""
    doc = copy.deepcopy(doc)
    for entity in doc["scopes"].get("entities", []):
        if entity["id"] == "":
            del entity["id"]
    return doc


def _sha256(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _check_json_form(spec, want):
    """The JSON form of ``spec``, a spec both readers returned, against
    ``want``, the writer's it replaced; only an empty entity id differs."""
    got = serialize_spec(spec)
    assert got == _drop_empty_ids(want)
    assert spec.digest() == _sha256(got)
    if not any(e.id == "" for e in spec.entity_scope or ()):
        assert got == want and spec.digest() == _sha256(want)
    assert parse_spec(json.dumps(got)) == spec


@settings(max_examples=400, deadline=None)
@given(doc=valid_docs(), data=st.data())
def test_table_reader_and_writer_match_the_reference(doc, data):
    kind = data.draw(st.sampled_from(["valid", "one", "one", "one", "two", "boolean", "json"]))
    applied = []
    if kind == "boolean":
        keywords = "keywords" in doc["scopes"]  # else the threshold is the fault
        path, value = data.draw(st.sampled_from([
            (path, v) for path, (values, _) in _BOOLEANS.items() for v in values
            if keywords or path != ("relevance", "threshold")
        ]))
        _set(doc, path, value)
    for _ in range({"one": 1, "two": 2}.get(kind, 0)):
        faults = _faults(doc)
        if faults:
            name, apply = data.draw(st.sampled_from(faults), label="fault")
            apply(doc)
            applied.append(name)
    text = json.dumps(doc)[:-1] if kind == "json" else json.dumps(doc)  # truncated JSON
    got, got_error = _read(parse_spec, text)
    want, want_error = _read(reference_spec.parse_spec, text)
    nulls = [path for path in _NULLS if "%s=None" % ".".join(path) in applied]
    if kind == "boolean":
        # Declared change: a JSON boolean is no number. The reader that the
        # table replaced read true as 1 and false as 0.
        assert want_error is None and got_error == _BOOLEANS[path][1]
    elif len(applied) == 2:
        assert got_error and (want_error or nulls)
    elif nulls:
        # Declared change: null is no value. The reader that the table
        # replaced read it as the field's absence.
        [(parent, key)] = nulls
        assert got_error == _NULLS[parent, key]
        del doc[parent][key]
        assert want_error == _read(reference_spec.parse_spec, json.dumps(doc))[1]
    else:
        assert got_error == want_error
        assert (got_error is None) == (kind == "valid"), applied
    if got_error is None:
        assert repr(got) == repr(want)
        _check_json_form(got, reference_spec.serialize_spec(want))


def test_an_entity_without_id_round_trips():
    # The writer wrote "id": "", which the reader rejects.
    spec = parse_spec(json.dumps({"scopes": {"entities": [{"label": "Merkel"}]}}))
    assert serialize_spec(spec)["scopes"]["entities"] == [{"label": "Merkel", "aliases": []}]
    assert parse_spec(json.dumps(serialize_spec(spec))) == spec


@pytest.mark.parametrize("path, value", [
    pytest.param(path, value, id="%s-%s" % (path[-1], value))
    for path, (values, _) in _BOOLEANS.items() for value in values
])
def test_a_boolean_is_no_number(path, value):
    doc = {"scopes": {"keywords": ["web"], "size": 5}, "relevance": {"threshold": 0.5},
           "closure": {"max_depth": 2}, "seed": 3}
    parse_spec(json.dumps(doc))
    _set(doc, path, value)
    with pytest.raises(SpecError) as info:
        parse_spec(json.dumps(doc))
    assert str(info.value) == _BOOLEANS[path][1]


@pytest.mark.parametrize("path", _NULLS, ids=lambda path: path[-1])
def test_null_is_no_value(path):
    doc = {"scopes": {"domains": ["de"]}}
    _set(doc, path, None)
    assert reference_spec.parse_spec(json.dumps(doc)).domain_scope == ("de",)
    with pytest.raises(SpecError) as info:
        parse_spec(json.dumps(doc))
    assert str(info.value) == _NULLS[path]


# Manifests record these digests; the JSON form must not change under them.
DIGESTS = [
    # perfbench/gen.py's closure-snapshot spec at seed 1
    ("4a9a5d4f0520b9c1e50f27a9c824e4ddcf55b06980bf7d2861c7c5b7e2c7e512", {
        "link_mode": "connected", "name": "closure-snapshot",
        "scopes": {"domains": ["h00.example.de", "h01.example.de"], "size": 600,
                   "time": {"from": "20050101000000", "to": "20051231235959"}},
        "seed": 7, "version_mode": "snapshot",
    }),
    # perfbench/gen.py's scan-content spec at seed 1
    ("ad1b9f519064707d9a0f84b994674307390e312edc8e4d51843c0d0bbda74eeb", {
        "closure": {"policy": "relevant_links"}, "link_mode": "connected",
        "name": "scan-content", "relevance": {"threshold": 0.25},
        "scopes": {
            "domains": ["de"],
            "entities": [
                {"aliases": ["Elbflorenz"], "id": "dresden", "label": "Dresden"},
                {"aliases": ["THW"], "id": "thw", "label": "Technisches Hilfswerk"},
                {"aliases": [], "id": "magdeburg", "label": "Magdeburg"},
                {"aliases": ["Sandsackbrigade"], "id": "bundeswehr", "label": "Bundeswehr"},
            ],
            "keywords": ["hochwasser", "elbe", "deich", "pegel"],
            "time": {"from": "20010101000000", "to": "20091231235959"},
        },
        "version_mode": "timeline",
    }),
    # README's quick-tour spec.json
    ("477a876f5ad2f546646d6e3d19501bb44bd51fd44baddbaca27ad84c75013e58", {
        "name": "election-2009",
        "scopes": {"domains": ["de"], "time": {"from": "20090101000000", "to": "20091231235959"},
                   "keywords": ["bundestagswahl", "wahlkampf"], "size": 5000},
        "relevance": {"threshold": 0.3}, "link_mode": "connected", "version_mode": "snapshot",
        "seed": 7,
    }),
]


@pytest.mark.parametrize("digest, doc", DIGESTS,
                         ids=["closure-snapshot", "scan-content", "readme"])
def test_spec_digest_is_pinned(digest, doc):
    assert parse_spec(json.dumps(doc)).digest() == digest

"""Seeded synthetic archives for the benchmark.

``generate(workload, seed, dest)`` writes WARC files, a spec, a truth set
and a query list under ``dest``, plus ``truth.json``: the generator's own
record of what it planted (every capture with its digest and on-disk
span, the planted topic set, the corrupt records, the planted
link-in-archive rate, and the nearest-capture answer to every query).
The program under test only ever sees the WARCs, the spec, the truth
set and the queries.

Counts are fixed per workload, independent of the seed: the seed moves
words, links, hosts and times, but not how many records of each kind
exist, so the work per run stays the same across seeds.

The WARC writer here is the benchmark's own, so the ground truth does
not depend on the program's writer.
"""

from __future__ import annotations

import calendar
import hashlib
import json
import os
import random
import time
import zlib

# Workload sizes. Counts, not shares, so every seed does the same work.
SCAN = {
    "captures": 2000,
    "de_hosts": 100,
    "org_hosts": 10,
    "html": 1500,  # the rest are larger non-HTML bodies
    "out_of_time": 150,  # .de captures from 2000, outside the time scope
    "out_of_domain": 150,  # .org captures, outside the domain scope
    "topic_in": 180,  # topic pages inside the metadata scopes: the truth set
    "topic_out": 20,  # topic pages the metadata scopes must exclude
    "corrupt": 10,  # in-scope non-topic records damaged after indexing
    "files": 4,
    "words": 200,
    "links": 9,
    "stats_sample": 500,
    "queries": 8000,
    "gets": 4,
}
CLOSURE = {
    "hosts": 20,
    "urls_per_host": 50,
    "captures_per_url": 12,
    "spec_year": 2005,
    "size": 600,
    "words": 30,
    "internal_links": 5,
    "external_links": 4,
    "planted_rate": 0.70,
    "files": 4,
    "stats_sample": 1000,
    "queries": 5000,
    "gets": 4,
}
WORKLOADS = ("scan-content", "closure-snapshot")

# Years 2000..2009; closure-snapshot captures every URL once per year plus
# extra captures in other years than the spec year.
YEARS = tuple(range(2000, 2010))
ABSENT_SHARE = 0.10  # share of queries naming a URL that was never captured
TIE_SHARE = 0.05  # share aimed exactly between two captures of the URL

KEYWORDS = ["hochwasser", "elbe", "deich", "pegel"]
ENTITIES = [
    {"id": "dresden", "label": "Dresden", "aliases": ["Elbflorenz"]},
    {"id": "thw", "label": "Technisches Hilfswerk", "aliases": ["THW"]},
    {"id": "magdeburg", "label": "Magdeburg", "aliases": []},
    {"id": "bundeswehr", "label": "Bundeswehr", "aliases": ["Sandsackbrigade"]},
]


def _vocabulary():
    """Fixed filler vocabulary of consonant-vowel words.

    Such words start with a consonant and end with a vowel, so none of
    them can be a keyword term or an entity token (all of which start
    with a vowel or end with a consonant).
    """
    rng = random.Random("perfbench-vocabulary")
    cons, vows = "bdfgklmnprstvz", "aeiou"
    words = set()
    while len(words) < 3000:
        n = rng.choice((2, 3, 3, 4))
        words.add("".join(rng.choice(cons) + rng.choice(vows) for _ in range(n)))
    return sorted(words)


VOCAB = _vocabulary()


def ts14(epoch):
    return time.strftime("%Y%m%d%H%M%S", time.gmtime(epoch))


def iso(epoch):
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def epoch_of(ts):
    return calendar.timegm(time.strptime(ts, "%Y%m%d%H%M%S"))


def _year_bounds(year):
    return calendar.timegm((year, 1, 1, 0, 0, 0)), calendar.timegm((year + 1, 1, 1, 0, 0, 0))


def _time_in(rng, year):
    lo, hi = _year_bounds(year)
    return rng.randrange(lo, hi)


# -- WARC writing -------------------------------------------------------------


def _record(headers, payload):
    head = b"WARC/1.0\r\n" + b"".join(
        b"%s: %s\r\n" % (k.encode(), str(v).encode()) for k, v in headers
    )
    return head + b"\r\n" + payload + b"\r\n\r\n"


def response_record(url, epoch, body, mime):
    http = (
        b"HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n"
        % (mime.encode(), len(body))
        + body
    )
    return _record(
        [
            ("WARC-Type", "response"),
            ("WARC-Target-URI", url),
            ("WARC-Date", iso(epoch)),
            ("Content-Type", "application/http; msgtype=response"),
            ("Content-Length", len(http)),
        ],
        http,
    )


def preamble_records(name):
    """Records that open every file and that the index must not hold: a
    warcinfo and a request (passed over), and a response whose payload is
    a DNS answer rather than HTTP (counted as skipped)."""
    info = b"software: perfbench generator\r\nformat: WARC/1.0\r\n"
    dns = b"20050101000000\nexample.de. 600 IN A 192.0.2.1\n"
    request = b"GET / HTTP/1.1\r\nHost: example.de\r\n\r\n"
    return [
        _record([("WARC-Type", "warcinfo"), ("WARC-Filename", name),
                 ("Content-Length", len(info))], info),
        _record([("WARC-Type", "request"), ("WARC-Target-URI", "http://example.de/"),
                 ("WARC-Date", "2005-01-01T00:00:00Z"), ("Content-Length", len(request))],
                request),
        _record([("WARC-Type", "response"), ("WARC-Target-URI", "dns:example.de"),
                 ("WARC-Date", "2005-01-01T00:00:00Z"), ("Content-Type", "text/dns"),
                 ("Content-Length", len(dns))], dns),
    ]


PREAMBLE_RECORDS = 3  # per file, of which one is skipped by the index


def write_warcs(directory, captures, n_files, gzip_records):
    """Write captures round-robin into n_files WARCs, each opened by the
    preamble records; fills in every capture's file, offset and length."""
    os.makedirs(directory, exist_ok=True)
    names = ["part-%02d.warc%s" % (i, ".gz" if gzip_records else "") for i in range(n_files)]
    handles = [open(os.path.join(directory, n), "wb") for n in names]
    try:

        def put(f, blob):
            if gzip_records:
                comp = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
                blob = comp.compress(blob) + comp.flush()
            offset = f.tell()
            f.write(blob)
            return offset, len(blob)

        for f, name in zip(handles, names):
            for blob in preamble_records(name):
                put(f, blob)
        for i, cap in enumerate(captures):
            f = handles[i % n_files]
            cap["file"] = names[i % n_files]
            cap["offset"], cap["length"] = put(f, cap.pop("record"))
    finally:
        for f in handles:
            f.close()
    return names


def _capture(url, epoch, body, mime="text/html"):
    return {
        "url": url,
        "ts": ts14(epoch),
        "sha256": hashlib.sha256(body).hexdigest(),
        "html": mime == "text/html",
        "record": response_record(url, epoch, body, mime),
    }


# -- page bodies ----------------------------------------------------------------


def html_page(rng, title, n_words, hrefs, extra_words=()):
    words = rng.choices(VOCAB, k=n_words)
    for w in extra_words:
        words.insert(rng.randrange(len(words) + 1), w)
    paras = "".join(
        "<p>%s</p>" % " ".join(words[i : i + 40]) for i in range(0, len(words), 40)
    )
    anchors = "".join('<a href="%s">%s</a> ' % (h, rng.choice(VOCAB)) for h in hrefs)
    return (
        '<html><head><meta charset="utf-8"><title>%s</title>'
        "<style>p{margin:0}</style></head><body><div>%s</div>%s"
        "<table><tr><td>%s</td></tr></table><script>var n=%d;</script></body></html>"
        % (title, anchors, paras, rng.choice(VOCAB), rng.randrange(1000))
    ).encode("utf-8")


def _topic_words(rng):
    """Keyword terms repeated so the cosine score sits far above the
    threshold, plus one or two entity names."""
    words = [k for k in KEYWORDS for _ in range(8)]
    for ent in rng.sample(ENTITIES, rng.choice((1, 2))):
        name = rng.choice([ent["label"]] + ent["aliases"])
        words.append(name)
    return words


# -- queries and their oracle ---------------------------------------------------


def nearest(captures_by_url, url, at):
    """Nearest capture of url to at; equidistant ties go to the earlier."""
    caps = captures_by_url.get(url)
    if not caps:
        return None
    target = epoch_of(at)
    return min(caps, key=lambda c: (abs(epoch_of(c["ts"]) - target), c["ts"]))


def make_queries(rng, captures, n, absent_url):
    by_url = {}
    for c in captures:
        by_url.setdefault(c["url"], []).append(c)
    urls = sorted(by_url)
    lo, _ = _year_bounds(YEARS[0])
    _, hi = _year_bounds(YEARS[-1])
    queries = []
    for i in range(n):
        draw = rng.random()
        if draw < ABSENT_SHARE:
            url = absent_url(i)
        else:
            url = rng.choice(urls)
        at = ts14(rng.randrange(lo, hi))
        caps = by_url.get(url, ())
        if draw > 1 - TIE_SHARE and len(caps) > 1:
            # Exactly halfway between two neighbouring captures: a tie.
            j = rng.randrange(len(caps) - 1)
            a, b = sorted(epoch_of(c["ts"]) for c in caps)[j : j + 2]
            if (b - a) % 2 == 0:
                at = ts14((a + b) // 2)
        hit = nearest(by_url, url, at)
        queries.append(
            {"url": url, "at": at, "answer": None if hit is None else [hit["url"], hit["ts"], hit["sha256"]]}
        )
    return queries


# -- workloads --------------------------------------------------------------------


def _scan_content(rng, dest):
    p = SCAN
    n = p["captures"]
    de = ["news%03d.example.de" % i for i in range(p["de_hosts"])]
    org = ["site%03d.example.org" % i for i in range(p["org_hosts"])]

    # Assign each capture slot its kind with exact counts, then shuffle.
    slots = list(range(n))
    rng.shuffle(slots)
    out_time = set(slots[: p["out_of_time"]])
    out_domain = set(slots[p["out_of_time"] : p["out_of_time"] + p["out_of_domain"]])
    in_scope = [i for i in range(n) if i not in out_time and i not in out_domain]
    out_scope = sorted(out_time | out_domain)
    html_in = p["html"] * len(in_scope) // n
    in_html = rng.sample(in_scope, html_in)
    out_html = rng.sample(out_scope, p["html"] - html_in)
    html_slots = set(in_html) | set(out_html)
    topic = set(rng.sample(in_html, p["topic_in"])) | set(rng.sample(out_html, p["topic_out"]))
    plain_in = [i for i in in_scope if i not in topic]
    corrupt = set(rng.sample(plain_in, p["corrupt"]))
    safe_targets = [i for i in plain_in if i not in corrupt]

    hosts, epochs, urls = [], [], []
    for i in range(n):
        if i in out_domain:
            host, year = rng.choice(org), rng.choice(YEARS)
        elif i in out_time:
            host, year = rng.choice(de), 2000
        else:
            host, year = rng.choice(de), rng.choice(YEARS[1:])
        hosts.append(host)
        epochs.append(_time_in(rng, year))
        urls.append("http://%s/p%d" % (host, i))
    by_host = {}
    for i, h in enumerate(hosts):
        by_host.setdefault(h, []).append(i)

    def href(i, j, target):
        if target is None:
            return "http://%s/gone/%d-%d" % (rng.choice(de), i, j)
        if hosts[target] == hosts[i]:
            return "/p%d" % target
        return urls[target]

    captures = []
    for i in range(n):
        if i not in html_slots:
            body = rng.randbytes(rng.randrange(6000, 12000))
            captures.append(_capture(urls[i], epochs[i], body, "application/pdf"))
            continue
        links = []
        for j in range(p["links"]):
            if i in topic:
                # Topic pages link only to readable, non-topic, in-scope pages
                # or to absent URLs, so the relevant-links closure adds nothing.
                target = rng.choice(safe_targets) if rng.random() < 0.7 else None
            elif rng.random() < 0.7:
                pool = by_host[hosts[i]] if j < 5 else range(n)
                target = rng.choice(pool)
            else:
                target = None
            links.append(href(i, j, target))
        extra = _topic_words(rng) if i in topic else ()
        body = html_page(rng, "page %d" % i, p["words"], links, extra)
        captures.append(_capture(urls[i], epochs[i], body))

    warc_dir = os.path.join(dest, "warc")
    files = write_warcs(warc_dir, captures, p["files"], gzip_records=True)

    # The served copy has the corrupt records damaged in place after indexing:
    # one byte inside the deflate stream flips, so offsets and lengths hold.
    served = os.path.join(dest, "served")
    os.makedirs(served, exist_ok=True)
    damage = {}
    for i in corrupt:
        c = captures[i]
        damage.setdefault(c["file"], []).append(c["offset"] + c["length"] // 2)
    for name in files:
        with open(os.path.join(warc_dir, name), "rb") as f:
            data = bytearray(f.read())
        for pos in damage.get(name, ()):
            data[pos] ^= 0xFF
        with open(os.path.join(served, name), "wb") as f:
            f.write(data)

    spec = {
        "name": "scan-content",
        "scopes": {
            "domains": ["de"],
            "time": {"from": "20010101000000", "to": "20091231235959"},
            "keywords": KEYWORDS,
            "entities": ENTITIES,
        },
        "link_mode": "connected",
        "version_mode": "timeline",
        "relevance": {"threshold": 0.25},
        "closure": {"policy": "relevant_links"},
    }
    truth_refs = sorted((captures[i]["url"], captures[i]["ts"]) for i in topic if i in in_scope)
    expect = {
        "candidates": len(in_scope),
        "errors": len(corrupt),
        "members": len(truth_refs),
        "closure_added": 0,
        "members_exact": [list(r) for r in truth_refs],
    }
    extra = {
        "corrupt": sorted([captures[i]["url"], captures[i]["ts"]] for i in corrupt),
        "topic": [list(r) for r in truth_refs],
        "topic_out_of_scope": sorted(
            [captures[i]["url"], captures[i]["ts"]] for i in topic if i not in in_scope
        ),
    }
    return captures, served, spec, expect, extra, lambda i: "http://%s/gone/q%d" % (de[i % len(de)], i)


def _per_year_captures(rng, p, host_names):
    """URLs captured once per year plus extras outside the spec year."""
    extra_years = [y for y in YEARS if y != p["spec_year"]]
    out = []
    for host in host_names:
        for k in range(p["urls_per_host"]):
            url = "http://%s/p%d" % (host, k)
            years = list(YEARS) + rng.sample(extra_years, p["captures_per_url"] - len(YEARS))
            seen = set()
            for year in sorted(years):
                e = _time_in(rng, year)
                while e in seen:
                    e = _time_in(rng, year)
                seen.add(e)
                out.append((host, k, url, e))
    out.sort(key=lambda t: (t[2], t[3]))
    return out


def _closure_snapshot(rng, dest):
    p = CLOSURE
    hosts = ["h%02d.example.de" % i for i in range(p["hosts"])]
    slots = _per_year_captures(rng, p, hosts)
    rng.shuffle(slots)  # records land in the WARCs in crawl-like disorder
    n_urls = p["urls_per_host"]
    captures, fractions = [], []
    host_index = {h: i for i, h in enumerate(hosts)}
    for ci, (host, k, url, e) in enumerate(slots):
        hi = host_index[host]
        links, hits = [], 0
        n_links = p["internal_links"] + p["external_links"]
        for j in range(n_links):
            internal = j < p["internal_links"]
            in_archive = rng.random() < p["planted_rate"]
            hits += in_archive
            h = host if internal else hosts[(hi + rng.randrange(1, len(hosts))) % len(hosts)]
            if in_archive:
                path = "/p%d" % rng.randrange(n_urls)
            else:
                path = "/missing/%d-%d" % (ci, j)
            links.append(path if internal else "http://%s%s" % (h, path))
        fractions.append(hits / n_links)
        body = html_page(rng, "%s p%d" % (host, k), p["words"], links)
        captures.append(_capture(url, e, body))
    served = os.path.join(dest, "warc")
    write_warcs(served, captures, p["files"], gzip_records=False)
    year = str(p["spec_year"])
    spec = {
        "name": "closure-snapshot",
        "scopes": {
            "domains": hosts[:2],
            "time": {"from": year + "0101000000", "to": year + "1231235959"},
            "size": p["size"],
        },
        "link_mode": "connected",
        "version_mode": "snapshot",
        "seed": 7,
    }
    expect = {
        "candidates": 2 * n_urls,
        "errors": 0,
        "members": p["size"],
        "scope_hosts": hosts[:2],
        "scope_year": year,
    }
    extra = {"planted_rate": sum(fractions) / len(fractions), "corrupt": []}
    return captures, served, spec, expect, extra, lambda i: "http://%s/never/%d" % (hosts[i % len(hosts)], i)


_BUILDERS = {
    "scan-content": (_scan_content, SCAN),
    "closure-snapshot": (_closure_snapshot, CLOSURE),
}


def generate(workload, seed, dest):
    """Write one workload's inputs and ground truth under ``dest``.

    Returns the ground-truth dict, also written to dest/truth.json.
    """
    build, params = _BUILDERS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    os.makedirs(dest, exist_ok=True)
    captures, served, spec, expect, extra, absent_url = build(rng, dest)

    queries = make_queries(rng, captures, params["queries"], absent_url)
    corrupt = {tuple(c) for c in extra["corrupt"]}
    readable = [
        q for q in queries if q["answer"] and (q["answer"][0], q["answer"][1]) not in corrupt
    ]
    absent = [q for q in queries if q["answer"] is None]
    gets = readable[: params["gets"]] + absent[:1]

    with open(os.path.join(dest, "spec.json"), "w", encoding="utf-8") as f:
        json.dump(spec, f, indent=1, sort_keys=True)
    with open(os.path.join(dest, "truth.txt"), "w", encoding="utf-8") as f:
        f.write("SUBCOLLECT-TRUTH 1\n")
        for url, ts in extra.get("topic", []):
            f.write("%s %s\n" % (url, ts))
    with open(os.path.join(dest, "queries.txt"), "w", encoding="utf-8") as f:
        for q in queries:
            f.write("%s %s\n" % (q["url"], q["at"]))

    years = {}
    for c in captures:
        years[c["ts"][:4]] = years.get(c["ts"][:4], 0) + 1
    truth = {
        "workload": workload,
        "seed": seed,
        "warc_dir": "warc",
        "served_dir": os.path.relpath(served, dest),
        "warc_files": sorted(os.listdir(os.path.join(dest, "warc"))),
        "records": len(captures) + PREAMBLE_RECORDS * params["files"],
        "skipped": params["files"],
        "captures": [
            [c["url"], c["ts"], c["sha256"], c["file"], c["offset"], c["length"]]
            for c in captures
        ],
        "html_count": sum(1 for c in captures if c["html"]),
        "years": dict(sorted(years.items())),
        "expect": expect,
        "stats_sample": params["stats_sample"],
        "queries": queries,
        "gets": gets,
        **extra,
    }
    with open(os.path.join(dest, "truth.json"), "w", encoding="utf-8") as f:
        json.dump(truth, f)
    return truth

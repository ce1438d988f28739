"""Every command's outputs, byte for byte, on one fixed archive.

The archive is two plain WARCs written by ``warcwriter`` from the fixed
list below: 54 captures of 17 URLs over 4 hosts and 4 years, linked to
each other, one image, and one record damaged after indexing. Plain
records, because gzip bytes depend on the zlib build. Each command's
exit code and the SHA-256 of its stdout and of each file it writes are
pinned in ``GOLDEN``; a change that alters an output on purpose updates
the digest and declares the old and new values.

This module imports neither pytest nor Hypothesis, so that any Python
the package supports can check the digests on its own::

    PYTHONPATH=src python tests/golden.py

It prints each output whose digest differs and exits 1, or exits 0.
``tests/test_golden_outputs.py`` runs the same check under pytest.
"""

import hashlib
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from subcollect.cli import main
from subcollect.store import ArchiveIndex

from warcwriter import damage_warc, iso_of, make_response_record, page, write_warc

_HOSTS = ["http://a.de", "http://www.b.de", "http://news.c.de", "http://d.org"]
_PATHS = ["/", "/a", "/b"]
_YEARS = ["2005", "2006", "2007", "2008"]
_WORDS = ["hochwasser elbe", "deich pegel", "wetter", "Dresden", "Elbflorenz deich",
          "fussball", "Magdeburg elbe", "kochen"]


def _captures():
    """(WARC name, url, ts14, body, content type) of every capture, in
    record order. The last record of two.warc is damaged after indexing."""
    out = []
    for h, host in enumerate(_HOSTS):
        for p, path in enumerate(_PATHS):
            for y, year in enumerate(_YEARS):
                links = [_PATHS[(p + 1) % 3], _HOSTS[(h + 1) % 4] + "/", "http://gone.de/"]
                text = "%s %s" % (_WORDS[(h + p + y) % 8], _WORDS[(2 * h + y) % 8])
                body = page("%d %d %d" % (h, p, y), links=links[: 1 + (p + y) % 3], text=text)
                ts = "%s%02d%02d120000" % (year, 1 + 3 * p + h, 1 + 7 * y)
                warc = "one.warc" if y % 2 else "two.warc"
                out.append((warc, host + path, ts, body, "text/html"))
        out.append(("one.warc", host + "/c", "2006%02d15000000" % (h + 1),
                    page("c", links=["/"], text="elbe hochwasser Dresden"), "text/html"))
    out.append(("one.warc", "http://d.org/logo.png", "20060301000000", b"\x89PNG\r\n", "image/png"))
    out.append(("two.warc", "http://a.de/b", "20070630120000",
                page("damaged", links=["/"], text="hochwasser elbe"), "text/html"))
    return out


_TIMELINE = {
    "name": "flood", "version_mode": "timeline", "link_mode": "connected",
    "scopes": {"domains": ["de"], "time": {"from": "20050101000000", "to": "20071231235959"},
               "keywords": ["hochwasser", "elbe"],
               "entities": [{"id": "dresden", "label": "Dresden", "aliases": ["Elbflorenz"]},
                            {"id": "magdeburg", "label": "Magdeburg"}]},
    "relevance": {"threshold": 0.2, "entity_combine": "any"},
    "closure": {"policy": "all_links", "max_depth": 1},
}
_SNAPSHOT = {
    "name": "snapshot", "version_mode": "snapshot", "link_mode": "connected", "seed": 3,
    "scopes": {"domains": ["a.de", "b.de", "c.de"], "size": 8,
               "time": {"from": "20060101000000", "to": "20061231235959"}},
}
_TRUTH = ["http://a.de/ 20050101120000", "http://a.de/b 20070630120000",
          "http://a.de/c 20060115000000", "http://news.c.de/a 20070615120000",
          "http://news.c.de/c 20060315000000", "http://www.b.de/ 20070215120000",
          "http://www.b.de/c 20060215000000"]

# label: (exit code, SHA-256 of stdout, {output file: SHA-256}), computed
# at the commit that added this test.
GOLDEN = {
    "index": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "index.cdx": "d0eb6608287cd159019670822670ecb722d7406942ec8024b95023e9a5ed6d7c",
    }),
    "extract-timeline": (0, "d91827f3dc405d85a53911e336eee55644f060041ccc8eacf0907c71f208cbf7", {
        "timeline.manifest": "7d87d4410a4225527d90086b7da6307d8e103bd9f928feb51347e2475f0c5aac",
        "timeline.warc": "91548dc4c94a2906f089472e8e1f27bf192e79fcdb3e29834a076c9b8bcf16d4",
    }),
    "extract-snapshot": (0, "344a82958d71467e6e14d78c6097fd2d88f775ff82ac76927c9f9947a86f1930", {
        "snapshot.manifest": "a0e80992eaa456b8311b1f99e3cd7fd42f64c7c1d73211e5f1f0537810a147ab",
        "snapshot.warc": "2433fa5aa2d02c5b1a964710c1f205d561c439443421c704640a250fdae3a78e",
    }),
    "evaluate": (0, "707ee81e5e399fc806403edc44668a80b395675006a60110e402938934e372ff", {
        "evaluate.csv": "a6c5e166389448d257ce5a2bb6c7878f248f4e1c50b03a4d45e436ce7f3a09a6",
    }),
    "stats": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {
        "stats.csv": "3dd87a92349c42e25e9f7c7ef6dc95ffeebd5aafa4642bd4f2a51cc09b6ada38",
        "stats_long.csv": "fe10b15f30e7559fa40d196c601e5893e4d1ea9b5105f76c1e90daa21e5e8ac7",
    }),
    "get-found": (0, "9c2c1154d7f094b7422d999b26fc871cc951974038d61e070d5fd53e3c518aa2", {}),
    "get-absent": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _call(argv):
    """(exit code, stdout bytes) of one command; stderr is dropped."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="", write_through=True)
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.buffer.getvalue()


def run(tmp_path):
    """Build the archive under the directory ``tmp_path``, run every command
    there, and return what they gave, in the form of ``GOLDEN``."""
    archive = tmp_path / "archive"
    archive.mkdir()
    captures = _captures()
    for name in ("one.warc", "two.warc"):
        write_warc(str(archive / name), [
            make_response_record(url, iso_of(ts), body, content_type=ctype)
            for warc, url, ts, body, ctype in captures if warc == name
        ])
    (tmp_path / "timeline.json").write_text(json.dumps(_TIMELINE))
    (tmp_path / "snapshot.json").write_text(json.dumps(_SNAPSHOT))
    (tmp_path / "truth.txt").write_text("SUBCOLLECT-TRUTH 1\n" + "\n".join(_TRUTH) + "\n")
    index = str(tmp_path / "index.cdx")
    at = ["--index", index, "--archive-dir", str(archive)]

    def extract(spec):
        return ["extract", "--spec", str(tmp_path / spec) + ".json", *at,
                "--output", str(tmp_path / spec) + ".manifest",
                "--export-warc", str(tmp_path / spec) + ".warc"]

    commands = [
        ("extract-timeline", extract("timeline"), ["timeline.manifest", "timeline.warc"]),
        ("extract-snapshot", extract("snapshot"), ["snapshot.manifest", "snapshot.warc"]),
        ("evaluate", ["evaluate", str(tmp_path / "timeline.manifest"), *at,
                      "--truth", str(tmp_path / "truth.txt"),
                      "--spec", str(tmp_path / "timeline.json"),
                      "--output", str(tmp_path / "evaluate.csv")], ["evaluate.csv"]),
        ("stats", ["stats", *at, "--sample-n", "20", "--seed", "5",
                   "--output", str(tmp_path / "stats.csv")], ["stats.csv", "stats_long.csv"]),
        ("get-found", ["get", *at, "--url", "http://A.de/a", "--at", "20060601000000"], []),
        ("get-absent", ["get", *at, "--url", "http://a.de/x", "--at", "20060601000000"], []),
    ]
    code, out = _call(["index", str(archive / "one.warc"), str(archive / "two.warc"),
                       "--output", index])
    got = {"index": (code, _sha256(out),
                     {"index.cdx": _sha256((tmp_path / "index.cdx").read_bytes())})}
    # The last record of two.warc, a page in the timeline spec's scopes, no longer
    # matches its index digest.
    size = (archive / "two.warc").stat().st_size
    [damaged] = [e for e in ArchiveIndex.load(index)
                 if e.file_id == "two.warc" and e.offset + e.length == size]
    damage_warc(archive / "two.warc", damaged, "digest")
    for label, argv, outputs in commands:
        code, out = _call(argv)
        got[label] = (code, _sha256(out),
                      {name: _sha256((tmp_path / name).read_bytes()) for name in outputs})
    return got


def check():
    """Run every command in a temporary directory; 0 when each output
    matches ``GOLDEN``, else 1, after printing each one that does not."""
    with tempfile.TemporaryDirectory() as tmp:
        got = run(pathlib.Path(tmp))
    bad = [label for label in GOLDEN if got.get(label) != GOLDEN[label]]
    for label in bad:
        print("%s: got %r, pinned %r" % (label, got.get(label), GOLDEN[label]))
    print("Python %s: %d of %d commands match" % (
        sys.version.split()[0], len(GOLDEN) - len(bad), len(GOLDEN)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(check())

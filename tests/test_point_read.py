"""store.read_url_rows, the point read that ``get`` answers from, against
ArchiveIndex.load, which reads and checks the whole index."""

import pytest
from hypothesis import example, given, settings, strategies as st

from subcollect.store import (
    ArchiveIndex,
    SnapshotNotFound,
    nearest,
    read_url_rows,
)
from subcollect.urls import canonicalize_url

from conftest import index_entry

HEADER = "SUBCOLLECT-CDX 1\n"


def _entry(url, ts14, i):
    return index_entry(url, ts14, mime="text/html", digest="d%d" % i,
                       file_id="f.warc", offset=100 * i, length=10 + i)


def _write(path, entries):
    ArchiveIndex(entries).save(str(path))
    return str(path)


def _load_answer(path, url):
    """(entries, error) as load and entries_for give them."""
    try:
        return ArchiveIndex.load(path).entries_for(url), None
    except ValueError as exc:
        return None, str(exc)


def _point_answer(path, url):
    try:
        return read_url_rows(path, url), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_files_of_zero_one_and_two_lines(tmp_path, n):
    entries = [_entry("http://a.de/%d" % i, "20000101000000", i) for i in range(n)]
    path = _write(tmp_path / "idx", entries)
    for url in ("http://a.de/", "http://a.de/0", "http://a.de/1", "http://a.de/2"):
        assert read_url_rows(path, url) == ArchiveIndex.load(path).entries_for(url)
    assert read_url_rows(path, "http://a.de/0") == entries[:1]


def test_header_without_a_line_end(tmp_path):
    path = tmp_path / "idx"
    path.write_text("SUBCOLLECT-CDX 1")
    assert read_url_rows(str(path), "http://a.de/") == []


@pytest.mark.parametrize("text", ["", "SUBCOLLECT-CDX 2\n", "\nSUBCOLLECT-CDX 1\n"])
def test_a_wrong_header_names_line_one(tmp_path, text):
    path = tmp_path / "idx"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        read_url_rows(str(path), "http://a.de/")
    assert str(excinfo.value) == "%s:1: not a SUBCOLLECT-CDX 1 file" % path


def test_field_is_compared_not_the_line(tmp_path):
    # "\x01" sorts below the space that ends a field, so the line of
    # http://a.de/x\x01 sorts before the line of http://a.de/x, yet its
    # field sorts after.
    urls = ["http://a.de/x", "http://a.de/x\x01", "http://a.de/x\x01y", "http://a.de/x2"]
    entries = [_entry(u, "2000010%d000000" % k, 4 * i + k) for i, u in enumerate(urls)
               for k in range(1, 3)]
    path = _write(tmp_path / "idx", entries)
    for url in urls:
        assert [e.canonical_url for e in read_url_rows(path, url)] == [url, url]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda line: "http://b.de/ 2000 only-three", "expected 8 fields, got 3"),
        (lambda line: line.replace(" 200 ", " 2x0 "), "invalid literal for int() with base 10: '2x0'"),
        (lambda line: line.replace("f.warc", "../f.warc"),
         "file id must be a bare file name, got '../f.warc'"),
        (lambda line: line.replace(" 900 ", " -900 "), "offset and length must not be negative"),
    ],
)
def test_an_error_in_the_urls_lines_names_path_and_line(tmp_path, damage, message):
    entries = [_entry(u, "20000101000000", i)
               for i, u in enumerate(["http://a.de/", "http://b.de/", "http://c.de/"])]
    entries.append(_entry("http://b.de/", "20010101000000", 9))
    path = tmp_path / "idx"
    lines = [" ".join(e.fields()) for e in ArchiveIndex(entries)]
    lines[2] = damage(lines[2])  # the second line of http://b.de/, on line 4
    path.write_text(HEADER + "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        read_url_rows(str(path), "http://b.de/")
    assert str(excinfo.value) == "%s:4: %s" % (path, message)
    assert read_url_rows(str(path), "http://a.de/") == entries[:1]
    assert read_url_rows(str(path), "http://c.de/") == entries[2:3]


def test_a_run_out_of_order_is_rejected(tmp_path):
    entries = [_entry("http://a.de/", "2000010%d000000" % k, k) for k in range(1, 4)]
    lines = [" ".join(e.fields()) for e in entries]
    path = tmp_path / "idx"
    path.write_text(HEADER + "\n".join([lines[0], lines[2], "", lines[1]]) + "\n")
    with pytest.raises(ValueError) as excinfo:
        read_url_rows(str(path), "http://a.de/")
    assert str(excinfo.value) == "%s:5: entry out of order" % path


def test_bad_utf8_in_the_urls_line_names_it(tmp_path):
    entries = [_entry("http://a.de/", "20000101000000", 1), _entry("http://b.de/", "20000101000000", 2)]
    path = tmp_path / "idx"
    _write(path, entries)
    path.write_bytes(path.read_bytes().replace(b"text/html 200 d2", b"text/ht\xffml 200 d2"))
    with pytest.raises(ValueError) as excinfo:
        read_url_rows(str(path), "http://b.de/")
    position = len("http://b.de/ 20000101000000 text/ht")
    assert str(excinfo.value) == (
        "%s:3: 'utf-8' codec can't decode byte 0xff in position %d: invalid start byte"
        % (path, position)
    )
    assert str(excinfo.value) == _load_answer(str(path), "http://b.de/")[1]
    assert read_url_rows(str(path), "http://a.de/") == entries[:1]


def test_an_undecodable_query_is_not_found(tmp_path):
    # A command-line argument that is not UTF-8 holds lone surrogates.
    path = _write(tmp_path / "idx", [_entry("http://a.de/", "20000101000000", 1)])
    assert read_url_rows(path, "http://a.de/\udcff") == []


def test_nearest_is_lookup_nearest_after_entries_for(tmp_path):
    times = ["20000101000000", "20000103000000", "20040101000000"]
    entries = [_entry("http://a.de/", t, i) for i, t in enumerate(times)]
    index = ArchiveIndex(entries)
    for at in ("19990101000000", "20000102000000", "20030101000000", "20050101000000"):
        assert nearest(entries, at) == index.lookup_nearest("http://a.de/", at)
    assert nearest(entries, "20000102000000").timestamp14 == times[0]  # a tie: the earlier


# Differential: the point read against load + entries_for ---------------------

# Path characters: "x", "2", "/" and "y" give URLs that share prefixes
# (x, x2, x/y); "é", "€" and "𝄞" are two, three and four bytes of UTF-8,
# so a probe can land inside a character; "\x01" sorts below the space.
_PATHS = st.text(alphabet=["x", "2", "/", "y", "é", "€", "𝄞", "\x01"], max_size=4)
_URLS = _PATHS.map(lambda p: canonicalize_url("http://a.de/" + p))
_TS14 = st.sampled_from(["20000101000000", "20030601120000", "20050101000000",
                         "20071231235959", "20100101000000"])


@st.composite
def indexes(draw):
    """The entries of an index, in the order that save writes them."""
    urls = draw(st.lists(_URLS, max_size=6, unique=True))
    entries = []
    for url in urls:
        times = draw(st.lists(_TS14, min_size=1, max_size=5, unique=True))
        entries += [_entry(url, t, len(entries)) for t in times]
    return ArchiveIndex(entries).entries


@settings(max_examples=400, deadline=None)
@given(
    entries=indexes(),
    query=st.one_of(_URLS, st.sampled_from(["http://a.de/", "http://0.de/", "http://z.de/"])),
    pick=st.integers(min_value=0),
    at=_TS14,
    newline=st.sampled_from(["\n", "\r\n"]),
    blank=st.one_of(st.none(), st.integers(min_value=0)),
    damage=st.sampled_from([None, "fields", "utf8", "order"]),
)
@example(entries=[], query="http://a.de/", pick=0, at="20000101000000", newline="\n",
         blank=None, damage=None)
def test_point_read_equals_load(tmp_path_factory, entries, query, pick, at, newline, blank,
                                damage):
    # Query a URL of the file, first and last included, or the drawn one.
    urls = sorted({e.canonical_url for e in entries})
    if urls and pick % 3:
        query = urls[pick % len(urls)] if pick % 3 == 1 else urls[-1]
    lines = [" ".join(e.fields()) for e in entries]
    run = [i for i, e in enumerate(entries) if e.canonical_url == query]
    if damage and run:
        # Damage one line of the queried URL's run: load and the point read
        # must fail alike, naming the same line.
        i = run[pick % len(run)]
        if damage == "fields":
            lines[i] += " extra"
        elif damage == "utf8":
            lines[i] = lines[i].replace(" text/html ", " text/\udcffhtml ")
        elif len(run) > 1:
            j = run[(pick + 1) % len(run)]
            lines[i], lines[j] = lines[j], lines[i]
    if blank is not None:
        lines.insert(blank % (len(lines) + 1), "")
    path = tmp_path_factory.getbasetemp() / "point.cdx"
    text = HEADER + "".join(line + "\n" for line in lines)
    path.write_bytes(text.replace("\n", newline).encode("utf-8", "surrogateescape"))
    path = str(path)

    got = _point_answer(path, query)
    assert got == _load_answer(path, query)
    if got[1] is None:
        if got[0]:
            assert nearest(got[0], at) == ArchiveIndex.load(path).lookup_nearest(query, at)
        else:
            with pytest.raises(SnapshotNotFound):
                ArchiveIndex.load(path).lookup_nearest(query, at)

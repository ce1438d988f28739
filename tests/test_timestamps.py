"""Timestamp parsing and index order, checked against the strptime-based
functions and the dataclass entry they replaced."""

import calendar
import itertools
import random
import re
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from subcollect import store
from subcollect.store import (
    ArchiveIndex,
    _index_row,
    IndexEntry,
    is_valid_timestamp14,
    timestamp14_from_iso,
    timestamp14_to_epoch,
)

from conftest import build_archive, index_entry, page

# --- oracles: the strptime versions, as they were -------------------------

_FRACTION_RE = re.compile(r"\.[0-9]+(?=[Zz]\Z)")


def strptime_from_iso(iso_date):
    iso_date = _FRACTION_RE.sub("", iso_date.strip(), count=1)
    st = time.strptime(iso_date, "%Y-%m-%dT%H:%M:%SZ")
    return time.strftime("%Y%m%d%H%M%S", st)


def strptime_to_epoch(ts14):
    if len(ts14) != 14 or not ts14.isdigit():
        raise ValueError("bad timestamp14: %r" % ts14)
    return calendar.timegm(time.strptime(ts14, "%Y%m%d%H%M%S"))


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ValueError:
        return ValueError


# --- timestamp14_to_epoch --------------------------------------------------


def test_to_epoch_equals_strptime_on_boundary_grid(tmp_path):
    grid = itertools.product(
        ["0000", "0001", "1900", "2000", "2004", "2100", "9999"],
        ["%02d" % m for m in range(100)],
        ["00", "01", "28", "29", "30", "31", "32"],
        ["00", "23", "24"],
        ["00", "59", "60"],
        ["00", "59", "60", "61", "62"],
    )
    # Each timestamp also goes through an index line: the grid ascends, so
    # one reading of the file checks them all, in order.
    row = _index_row()
    lines = []
    for fields in grid:
        ts14 = "".join(fields)
        want = _outcome(strptime_to_epoch, ts14)
        assert _outcome(timestamp14_to_epoch, ts14) == want, ts14
        assert is_valid_timestamp14(ts14) == (want is not ValueError)
        line = "http://a.de/ %s - 200 d f.warc 0 1" % ts14
        if want is ValueError:
            with pytest.raises(ValueError, match="bad timestamp14"):
                row(*line.split(" "))
        else:
            assert row(*line.split(" ")).timestamp14 == ts14
            lines.append(line)
    assert len(lines) > 5000  # the grid exercises both outcomes
    path = tmp_path / "idx"
    path.write_text("SUBCOLLECT-CDX 1\n" + "\n".join(lines) + "\n")
    assert [e.timestamp14 for e in ArchiveIndex.load(str(path))] == [l.split(" ")[1] for l in lines]


@pytest.mark.parametrize(
    "ts14",
    [
        "٢٠٠٥0101000000",  # Arabic-Indic year 2005
        "2005060100000٠",
        "２００５0601000000",  # fullwidth digits
        "2005²060100000",  # superscript two
        " 2005060100000",
        "+2005060100000",
        "2005_601000000",
        "200506010000",
        "200506010000000",
    ],
)
def test_to_epoch_rejects_all_but_14_ascii_digits(ts14):
    with pytest.raises(ValueError, match="bad timestamp14"):
        timestamp14_to_epoch(ts14)
    assert not is_valid_timestamp14(ts14)


def test_to_epoch_values():
    assert timestamp14_to_epoch("19700101000000") == 0
    assert timestamp14_to_epoch("20051130143000") == 1133361000
    assert timestamp14_to_epoch("19691231235959") == -1
    assert timestamp14_to_epoch("20161231235960") == timestamp14_to_epoch("20170101000000")
    assert timestamp14_to_epoch("00010101000000") == -62135596800


def test_month_starts_equal_strptime_past_the_cache():
    # More months than the cache of month starts holds, twice over.
    store._month_start.cache_clear()
    months = ["%04d%02d" % (y, m) for y in range(1, 10000, 2) for m in (1, 2, 3, 12)]
    assert len(months) > store._month_start.cache_info().maxsize
    for month in months + months[:100]:
        ts14 = month + "28235961"
        assert timestamp14_to_epoch(ts14) == strptime_to_epoch(ts14), ts14


# --- timestamp14_from_iso ----------------------------------------------------

_UNICODE_DIGITS = "٠۰०０"  # zero of Arabic-Indic, Persian, Devanagari, fullwidth


def _rare(draw, common, *others):
    """``common`` three times in four, else one of ``others``."""
    return draw(st.sampled_from([common] * 3 * len(others) + list(others)))


@st.composite
def _iso_dates(draw):
    """Mostly valid dates; each part is now and then malformed."""

    def field(lo, hi, width, top):
        if _rare(draw, False, True):
            lo, hi = 0, top
        value = draw(st.integers(lo, hi))
        text = _rare(draw, "%0*d" % (width, value), str(value))
        # The digits from a drawn position on may come from another script.
        zero = _rare(draw, "0", *_UNICODE_DIGITS)
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + "".join(chr(ord(zero) + int(c)) for c in text[cut:])

    text = "%s%s%s-%s%s%s:%s:%s" % (
        field(1, 9999, 4, 99999),
        _rare(draw, "-", "/"),
        field(1, 12, 2, 13),
        _rare(draw, field(1, 31, 2, 32), " %d" % draw(st.integers(1, 9))),
        _rare(draw, "T", "t", "t", "x", " "),
        field(0, 23, 2, 24),
        field(0, 59, 2, 60),
        _rare(draw, field(0, 59, 2, 62), "60", "61"),
    )
    if _rare(draw, False, True):
        text += "." + draw(st.text("0123456789٣", max_size=6))
    text += _rare(draw, "Z", "z", "z", "", "+00:00")
    return _rare(draw, "", " ", "\t", "\n", "\u00a0", "x") + text + _rare(draw, "", " ", "\n", "x")


@settings(max_examples=600, deadline=None)
@given(_iso_dates())
def test_from_iso_equals_strptime(iso_date):
    want = _outcome(strptime_from_iso, iso_date)
    got = _outcome(timestamp14_from_iso, iso_date)
    if want is ValueError:
        assert got is ValueError
    else:
        # strftime does not zero-pad years below 1000; the year is padded now.
        assert got == "%04d%s" % (int(want[:-10]), want[-10:])
        assert len(got) == 14 and is_valid_timestamp14(got)


def test_from_iso_forms():
    assert timestamp14_from_iso(" 2005-1-2t3:4:5z\n") == "20050102030405"
    assert timestamp14_from_iso("2005-01- 2T03:04:05Z") == "20050102030405"
    assert timestamp14_from_iso("2016-12-31T23:59:60.5Z") == "20161231235960"
    assert timestamp14_from_iso("٢٠٠٥-01-02T03:04:05Z") == "20050102030405"
    for bad in ["2005-02-29T00:00:00Z", "0000-01-01T00:00:00Z", "2005-01-01T00:00:00",
                "2005-01-01T00:00:00.Z", "2005-01-01T24:00:00Z", "2005-01-01 00:00:00Z"]:
        with pytest.raises(ValueError):
            timestamp14_from_iso(bad)


def test_from_iso_pads_years_below_1000():
    assert timestamp14_from_iso("0999-01-01T00:00:00Z") == "09990101000000"
    assert timestamp14_from_iso("0001-02-03T04:05:06Z") == "00010203040506"


def test_capture_from_year_999_can_be_looked_up(tmp_path):
    fx = build_archive(tmp_path, [("http://a.de/", "09990101000000", page("old"))])
    assert [e.timestamp14 for e in fx.index.entries_for("http://a.de/")] == ["09990101000000"]
    ref = fx.index.lookup_nearest("http://a.de/", "20000101000000")
    assert fx.archive.fetch(ref).body == page("old")


# --- index order: as the frozen, ordered dataclass sorted it ----------------


@dataclass(frozen=True, order=True)
class DataclassEntry:
    canonical_url: str
    timestamp14: str
    mime: str = "application/octet-stream"
    http_status: int = 200
    digest: str = ""
    file_id: str = ""
    offset: int = 0
    length: int = 0


def _dataclass_index_lines(rows):
    uniq = {}
    for row in rows:
        e = DataclassEntry(*row)
        uniq[(e.canonical_url, e.timestamp14, e.digest)] = e
    return [" ".join(IndexEntry(*vars(e).values()).fields()) for e in sorted(uniq.values())]


def test_entry_is_a_tuple_with_defaults(tmp_path):
    e = index_entry("http://a.de/", "20000101000000")
    assert e == ("http://a.de/", "20000101000000", "application/octet-stream", 200, "", "", 0, 0)
    e = e._replace(file_id="f.warc")  # load rejects the default, an empty file id
    no_mime = e._replace(mime="", digest="d")
    ArchiveIndex([e, no_mime]).save(str(tmp_path / "idx"))
    assert ArchiveIndex.load(str(tmp_path / "idx")).entries == [no_mime, e]
    assert e._replace(offset=5).offset == 5
    assert e.epoch == 946684800 and not e.is_html


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["http://a.de/", "http://a.de/x", "http://b.de/"]),
            st.sampled_from(["20000101000000", "20000101000001", "19991231235959"]),
            st.sampled_from(["text/html", "", "text/plain"]),
            st.sampled_from([200, 404, 30]),
            st.sampled_from(["d1", "d2", ""]),
            st.sampled_from(["f.warc", "e.warc"]),
            st.integers(0, 300),
            st.integers(0, 300),
        ),
        max_size=40,
    ),
    seed=st.integers(0, 1000),
)
def test_save_writes_the_dataclass_order(tmp_path_factory, rows, seed):
    random.Random(seed).shuffle(rows)
    path = tmp_path_factory.mktemp("idx") / "index.cdx"
    ArchiveIndex([IndexEntry(*row) for row in rows]).save(str(path))
    want = "".join(line + "\n" for line in ["SUBCOLLECT-CDX 1"] + _dataclass_index_lines(rows))
    assert path.read_bytes() == want.encode("utf-8")

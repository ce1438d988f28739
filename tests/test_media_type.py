"""One Content-Type rule: ``warc.media_type`` gives both the index's mime
and the charset that ``htmldoc.analyze`` decodes a page in. It is
compared with ``reference_mime``, a plain transcription of the WHATWG
MIME Sniffing Standard's "parse a MIME type"."""

import pytest
from hypothesis import example, given, settings, strategies as st

from subcollect import warc
from subcollect.cli import main
from subcollect.htmldoc import analyze, tokenize
from subcollect.store import IndexEntry, Snapshot

from conftest import iso_of
import reference_mime
import warcwriter

# (Content-Type, index mime, charset). The first six rows read otherwise
# before the one rule; the comment on each gives the old reading.
TABLE = [
    # charset latin1: a ";" inside the unclosed quoted foo value was read
    # as the start of a parameter.
    ('text/html; foo="x; charset=latin1', "text/html", None),
    # no charset: a quoted value was read only up to its closing quote.
    ('text/html;charset="utf-8', "text/html", "utf-8"),
    # no charset: an unquoted value could not start with a space.
    ("text/html; charset= utf-8", "text/html", " utf-8"),
    # charset utf-8: parameters were read after any ";", past a subtype
    # that is no token.
    ("text/html charset=x; charset=utf-8", "", None),
    ("text/html, text/html; charset=utf-8", "", None),
    # mime text/html: Unicode whitespace was stripped around the subtype.
    ("text/html\xa0; x=1", "", None),
    # Rows that read as before.
    ("text/html charset=utf-8", "", None),
    ("text/html,charset=utf-8", "", None),
    ("text/html; charset=utf-8,text/plain", "text/html", "utf-8,text/plain"),
    ('text/html; charset=""; charset=utf-8', "text/html", ""),
    ("text/html", "text/html", None),
    (" Text/HTML ;CharSet=UTF-8 ", "text/html", "UTF-8"),
    ('text/html; charset="utf\\-8" ;x=1', "text/html", "utf-8"),
    ("text/html; charset=\x01; charset=utf-8", "text/html", "utf-8"),
    ("", "", None),
]

# A page that declares KOI8-R in a <meta>, which decodes its UTF-8 text
# unlike either UTF-8 or Latin-1: the charset a page is decoded in shows
# in its tokens.
TEXT = "Müller straße".encode("utf-8")
BODY = b"<meta charset=koi8-r><p>" + TEXT


@pytest.mark.parametrize("content_type, mime, charset", TABLE)
def test_media_type_table(content_type, mime, charset):
    assert warc.media_type(content_type) == (mime, charset)
    assert reference_mime.media_type(content_type) == (mime, charset)


@pytest.mark.parametrize("content_type, mime, charset", TABLE)
def test_analyze_decodes_in_the_charset_of_the_table(content_type, mime, charset):
    entry = IndexEntry("http://a.de/", "20000101000000", "text/html", 200, "d", "f.warc", 0, 1)
    try:
        text = TEXT.decode(charset or "koi8-r")  # no charset: the <meta> decides
    except LookupError:
        text = TEXT.decode("koi8-r")
    assert analyze(Snapshot(entry, content_type, BODY)).tokens == tokenize(text)


@pytest.mark.parametrize("content_type, mime, charset", TABLE)
def test_index_writes_the_mime_of_the_table(tmp_path, content_type, mime, charset):
    rec = warcwriter.make_response_record("http://a.de/", iso_of("20000101120000"), BODY,
                                          content_type=content_type)
    warcwriter.write_warc(str(tmp_path / "f.warc"), [rec])
    index = tmp_path / "index.cdx"
    assert main(["index", str(tmp_path / "f.warc"), "--output", str(index)]) == 0
    line = index.read_text(encoding="utf-8").splitlines()[1]
    assert line.split(" ")[2] == (mime or "-")


# Single code points, each class the rule tells apart, and whole charset
# parameters, so that values after two of them are often compared.
_PIECES = st.sampled_from([
    ";", "=", '"', "\\", ",", "/", " ", "\t", "\n", "\r", "a", "B", "x",
    "charset", "CharSet", "utf-8", "\x01", "\x7f", "\x0b", "\xa0", "\xe9", "Ā",
    "; charset=", ";CHARSET=", '; charset="',
])


@settings(max_examples=2000)
@given(
    head=st.sampled_from(["", "text/html", "TEXT/Html", " text/html", "text/html "]),
    rest=st.lists(_PIECES, max_size=20).map("".join),
)
@example(head="text/html", rest='; foo="x; charset=latin1')
@example(head="text/html", rest="; charset=utf-8; charset=latin1")
@example(head="text/html", rest="; charset=utf-8 ; x=1")
@example(head="\xa0text/html", rest="")
def test_media_type_equals_reference(head, rest):
    value = head + rest
    assert warc.media_type(value) == reference_mime.media_type(value)

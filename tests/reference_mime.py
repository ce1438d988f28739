"""The WHATWG MIME Sniffing Standard's "parse a MIME type", step by step.

A plain transcription, one code point at a time, that ``warc.media_type``
is compared against. It keeps every parameter the standard keeps and
returns the essence and the ``charset`` parameter; a failure to parse is
``("", None)``. The step numbers are the standard's.
"""

HTTP_WHITESPACE = "\t\n\r "
HTTP_TOKEN = frozenset("!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
HTTP_QUOTED_STRING_TOKEN = frozenset(
    ["\t"] + [chr(c) for c in range(0x20, 0x7F)] + [chr(c) for c in range(0x80, 0x100)]
)


def _ascii_lower(s):
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in s)


def _collect(text, position, stop):
    """(the code points from ``position`` up to one in ``stop``, new position)"""
    start = position
    while position < len(text) and text[position] not in stop:
        position += 1
    return text[start:position], position


def _collect_quoted_string(text, position):
    """"collect an HTTP quoted string" with the extract-value flag set."""
    value = ""
    assert text[position] == '"'
    position += 1
    while True:
        piece, position = _collect(text, position, '"\\')
        value += piece
        if position >= len(text):
            break
        quote_or_backslash = text[position]
        position += 1
        if quote_or_backslash == "\\":
            if position >= len(text):
                value += "\\"
                break
            value += text[position]
            position += 1
        else:
            break
    return value, position


def parse_mime_type(text):
    """The MIME type record of ``text``: (type, subtype, parameters), or
    None on failure."""
    # 1. Remove leading and trailing HTTP whitespace.
    start, end = 0, len(text)
    while start < end and text[start] in HTTP_WHITESPACE:
        start += 1
    while end > start and text[end - 1] in HTTP_WHITESPACE:
        end -= 1
    text = text[start:end]
    # 2-6. The type, up to "/".
    position = 0
    type_, position = _collect(text, position, "/")
    if not type_ or not set(type_) <= HTTP_TOKEN:
        return None
    if position >= len(text):
        return None
    position += 1
    # 7-9. The subtype, up to ";", its trailing HTTP whitespace removed.
    subtype, position = _collect(text, position, ";")
    while subtype and subtype[-1] in HTTP_WHITESPACE:
        subtype = subtype[:-1]
    if not subtype or not set(subtype) <= HTTP_TOKEN:
        return None
    # 10.
    parameters = {}
    # 11.
    while position < len(text):
        position += 1  # past ";"
        while position < len(text) and text[position] in HTTP_WHITESPACE:
            position += 1
        name, position = _collect(text, position, ";=")
        name = _ascii_lower(name)
        if position < len(text):
            if text[position] == ";":
                continue
            position += 1  # past "="
        if position >= len(text):
            break
        if text[position] == '"':
            value, position = _collect_quoted_string(text, position)
            _, position = _collect(text, position, ";")
        else:
            value, position = _collect(text, position, ";")
            while value and value[-1] in HTTP_WHITESPACE:
                value = value[:-1]
            if not value:
                continue
        if (
            name
            and set(name) <= HTTP_TOKEN
            and set(value) <= HTTP_QUOTED_STRING_TOKEN
            and name not in parameters
        ):
            parameters[name] = value
    return _ascii_lower(type_), _ascii_lower(subtype), parameters


def media_type(text):
    """(essence, charset) of a Content-Type value by :func:`parse_mime_type`:
    ``("", None)`` when it does not parse, and a charset of None when it
    has no ``charset`` parameter."""
    record = parse_mime_type(text)
    if record is None:
        return "", None
    type_, subtype, parameters = record
    return type_ + "/" + subtype, parameters.get("charset")

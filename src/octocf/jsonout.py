"""Indented JSON text, byte for byte as ``json.dumps(obj, indent=2)`` writes it.

Every JSON output of the ``octocf`` command goes through :func:`json_text`.
It needs no ``json`` import, whose indented encoder is pure Python and costs
a command more than computing what it prints, and it lives outside ``cli`` so
that ``import octocf.cli`` and ``render`` do not compile it.
"""

from __future__ import annotations

__all__ = ["json_text"]

#: The characters JSON escapes with a backslash and a letter.
_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"
}

#: The floats JSON has no literal for, as ``json.dumps`` writes them.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(obj, pad: str = "\n") -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, with ``pad`` (a newline
    and the indent ``obj`` sits at) before each of its lines but the first.

    ``obj`` is made of dicts with ``str`` keys, lists, tuples, ``str``,
    ``int``, ``bool``, ``None`` and ``float``; any other key or value is a
    TypeError.  Each container's text is joined from its items' texts as
    soon as they are made, so few small strings are alive at once.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            items.append(f"{_json_str(key)}: {json_text(value, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return f"[{inner}{(',' + inner).join([json_text(v, inner) for v in obj])}{pad}]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_str(text: str) -> str:
    """``text`` as a JSON string of printable ASCII, as ``json.dumps`` writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_json_char, text)) + '"'


def _json_char(ch: str) -> str:
    escape = _ESCAPES.get(ch)
    if escape is not None:
        return escape
    if " " <= ch <= "~":
        return ch
    n = ord(ch)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # a UTF-16 surrogate pair
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"

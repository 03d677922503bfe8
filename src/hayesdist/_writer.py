"""Streaming JSON writer for the CLI artifacts.

`dump(obj, fh)` writes exactly the text of
``json.dumps(obj, sort_keys=True, indent=2)``, without json's pure-Python
indenting encoder and without building the whole text: dicts and lists are
written item by item down to the items of each list, which are encoded
whole, so the largest string held is one record.  Dicts with string keys
(the records of the `checks`, `table` and `coeffs` lists) are written from
one ``%`` template per key set and depth, whose keys were sorted once.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter

_INDENT = "  "
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    """A dict key as json writes it."""
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        return _string(_float(key))
    if key is True or key is False or key is None:
        return _string(_SCALARS[type(key)](key))
    if isinstance(key, int):
        return _string(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


# exact types whose text does not depend on the indentation
_SCALARS = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def dump(obj, fh) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` to the text file `fh`."""
    write = fh.write
    scalar_of = _SCALARS.get
    # (keys in insertion order, indent) -> (template, getter), None if a key is not a str
    templates: dict = {}

    def template(names: tuple, nl: str):
        if not all(type(k) is str for k in names):
            return None
        names = sorted(names)
        inner = nl + _INDENT
        fields = [_string(k).replace("%", "%%") + ": %s" for k in names]
        getter = itemgetter(*names) if len(names) > 1 else lambda d, k=names[0]: (d[k],)
        return "{" + inner + ("," + inner).join(fields) + nl + "}", getter

    def encode(o, nl: str) -> str:
        """The text of `o` for a value that starts on the line indented by `nl`."""
        scalar = scalar_of(type(o))
        if scalar is not None:
            return scalar(o)
        inner = nl + _INDENT
        if type(o) is dict and o:
            key = (tuple(o), nl)
            entry = templates[key] if key in templates else templates.setdefault(key, template(key[0], nl))
            if entry is not None:
                fmt, getter = entry
                return fmt % tuple([
                    s(x) if (s := scalar_of(type(x))) is not None else encode(x, inner) for x in getter(o)
                ])
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [s(x) if (s := scalar_of(type(x))) is not None else encode(x, inner) for x in o]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [_key(k) + ": " + encode(v, inner) for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        # subclasses of the scalar types (bool and None have none)
        if isinstance(o, str):
            return _string(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float(o)
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def stream(o, nl: str) -> None:
        """Write `o`, item by item down to the items of its lists."""
        inner = nl + _INDENT
        if isinstance(o, (list, tuple)) and o:
            sep = "[" + inner
            for v in o:
                write(sep + encode(v, inner))
                sep = "," + inner
            write(nl + "]")
        elif isinstance(o, dict) and o:
            sep = "{" + inner
            for k, v in sorted(o.items()):
                write(sep + _key(k) + ": ")
                stream(v, inner)
                sep = "," + inner
            write(nl + "}")
        else:
            write(encode(o, nl))

    stream(obj, "\n")

"""JSON (de)serialization for the wire formats.

One writer, `save`, and one reader, `load`.  All numbers are plain decimal
doubles; the reader goes through the validating constructors, so malformed
files surface the same named errors as direct construction.
"""

from __future__ import annotations

import json

from .errors import StepGraphonError


def save(obj, path):
    """Write obj's `to_dict()`, or a plain dict, as JSON: sorted keys, indent 2, a newline.

    An unwritable path raises StepGraphonError.
    """
    payload = obj.to_dict() if hasattr(obj, "to_dict") else obj
    text = json.dumps(payload, sort_keys=True, indent=2)
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise StepGraphonError(f"cannot write {path}: {exc}") from exc


def load(path, cls):
    """Read a file written by `save` as `cls.from_dict` of its JSON object.

    An unreadable file, a top-level value that is not an object, and fields
    the constructor cannot convert (KeyError, TypeError, ValueError,
    OverflowError) raise StepGraphonError; the constructors' own named errors
    pass through.
    """
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StepGraphonError(f"cannot read {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise StepGraphonError(f"{path} holds a JSON {type(d).__name__}, not an object")
    try:
        return cls.from_dict(d)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StepGraphonError(f"{path} is not a {cls.__name__} file: {exc!r}") from exc

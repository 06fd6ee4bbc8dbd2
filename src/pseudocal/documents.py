"""The one document layer: every JSON and CSV file the package reads or writes.

Records' ``*_from_dict`` functions pass the entries ``check_document``
returns to the record's constructor, which validates the values; this
module owns only the encoding.
"""

import binascii
import csv
import json
import math
from collections.abc import Mapping

import numpy as np

from .errors import InvalidInputError
from .numerics import checked_choice, checked_number, row_blocks

SCHEMA_VERSION = 1

# The dtypes an encoded array may hold, each stored little-endian.
_ARRAY_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}


def check_keys(mapping, what, required, optional=()):
    """The entries of ``mapping``, a ``what``, as a new dict.

    Anything but a mapping, a key outside ``required`` and ``optional`` (a
    misspelt one too) and a missing ``required`` key each raise
    InvalidInputError, which names the key.
    """
    if not isinstance(mapping, Mapping):
        raise InvalidInputError(f"a {what} must be a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in required and key not in optional:
            raise InvalidInputError(f"a {what} has no key {key!r}")
    for key in required:
        if key not in mapping:
            raise InvalidInputError(f"a {what} needs the key {key!r}")
    return dict(mapping)


def check_document(doc, what, required, optional=()):
    """The entries of ``doc``, a ``what`` document, other than its ``schema_version``.

    A document that is not a JSON object whose schema_version is the integer
    SCHEMA_VERSION (not ``true``, not ``1.0``) raises InvalidInputError, and
    so do its keys where ``check_keys`` rejects them.
    """
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    checked_number(version, f"{what} document schema_version", True, f" equal to {SCHEMA_VERSION}",
                   lambda v: v == SCHEMA_VERSION)
    entries = {key: value for key, value in doc.items() if key != "schema_version"}
    return check_keys(entries, f"{what} document", required, optional)


def encoded_array(a):
    """``a``, a float64 or int64 array, as the JSON object that ``decoded_array`` reads back.

    The object holds the array's little-endian bytes as base64 text, its
    dtype's name and its shape: ``{"base64": …, "dtype": "float64",
    "shape": [rows, cols]}``.
    """
    data = np.ascontiguousarray(a, _ARRAY_DTYPES[a.dtype.name])
    text = binascii.b2a_base64(data, newline=False).decode("ascii")
    return {"base64": text, "dtype": a.dtype.name, "shape": list(a.shape)}


def decoded_array(value, what):
    """The array that ``encoded_array`` made ``value``, the document's ``what``.

    Anything but a mapping, such as a JSON list or null, passes unchanged
    for the record to judge, so documents that hold their arrays as lists
    still load. The array is read-only and shares the decoded bytes. A
    missing or extra key, base64 text that is not strict (a character
    outside the alphabet, bad padding), a dtype other than float64 and
    int64, a shape that is not a list of nonnegative integers, and a byte
    count other than the shape's each raise InvalidInputError naming ``what``.
    """
    if not isinstance(value, Mapping):
        return value
    entries = check_keys(value, f"{what} array", ("base64", "dtype", "shape"))
    name = checked_choice(entries["dtype"], f"{what} dtype", _ARRAY_DTYPES)
    shape = entries["shape"]
    if not isinstance(shape, list):
        raise InvalidInputError(f"{what} shape must be a list of sizes, got {shape!r}")
    shape = [checked_number(n, f"{what} shape entry", True, " >= 0", lambda v: v >= 0) for n in shape]
    text = entries["base64"]
    if not isinstance(text, str):
        raise InvalidInputError(f"{what} base64 must be text, got {type(text).__name__}")
    try:  # straight from the str: base64.b64decode would first copy it to bytes
        data = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:
        raise InvalidInputError(f"{what} base64 is malformed: {exc}") from None
    dtype = _ARRAY_DTYPES[name]
    size = math.prod(shape) * dtype.itemsize
    if len(data) != size:
        raise InvalidInputError(f"{what} holds {len(data)} bytes, but a {name} {shape} array takes {size}")
    try:
        return np.frombuffer(data, dtype).reshape(shape)
    except ValueError as exc:  # a size 0 array whose other sizes numpy cannot shape
        raise InvalidInputError(f"{what} shape {shape} is too large for numpy: {exc}") from None


def json_text(doc, indent=None):
    """``doc`` as JSON text with sorted keys and a final newline."""
    try:
        return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise InvalidInputError(f"cannot write a JSON document: {exc}") from None


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def write_json(doc, path, indent=None):
    write_text(path, json_text(doc, indent))


def read_json(path, from_dict):
    """Decode the JSON file at ``path`` and build a record from it with ``from_dict``.

    A file that is not JSON, JSON nested too deeply to decode, or a
    ``KeyError``, ``TypeError`` or ``ValueError`` from ``from_dict``
    raises InvalidInputError naming the file. An error that ``from_dict``
    raises as InvalidInputError itself, such as ``a task document needs
    the key 'target_inputs'``, passes unchanged and names no file.
    """
    with open(path) as fh:
        try:
            return from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise InvalidInputError(f"malformed document {path}: {exc!r}") from exc


def write_csv(path_or_file, columns):
    """Write named 1-D columns as CSV to a path or to an open text file.

    The keys of ``columns`` are the header. Float columns are written as
    ``.10g``, integer and string columns as they are. Columns that are not
    1-D or not all of one length raise InvalidInputError before anything
    is written. The rows are formatted and written BLOCK_ROWS at a time, so
    one block's cells are alive at once, not the whole table's.
    """
    columns = {name: np.asarray(values) for name, values in columns.items()}
    shapes = {values.shape for values in columns.values()}
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        detail = ", ".join(f"{name} {values.shape}" for name, values in columns.items())
        raise InvalidInputError(f"CSV columns must be 1-D and of one length, got {detail}")
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", newline="") as fh:
            write_csv(fh, columns)
        return
    writer = csv.writer(path_or_file)
    writer.writerow(columns)
    (n,) = shapes.pop() if shapes else (0,)
    for rows in row_blocks(n):
        writer.writerows(zip(*(_cells(values[rows]) for values in columns.values())))


def _cells(values):
    if values.dtype.kind == "f":
        return [f"{v:.10g}" for v in values.tolist()]
    return values.tolist()

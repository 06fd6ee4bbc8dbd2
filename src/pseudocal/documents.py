"""The one document layer: every JSON and CSV file the package reads or writes.

Records' ``*_from_dict`` functions map keys to constructor arguments, and
the constructors validate them; this module owns only the encoding.
"""

import csv
import json

from .errors import InvalidInputError

SCHEMA_VERSION = 1


def check_version(doc, what):
    """Reject a ``what`` document that is not a JSON object of this schema version."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported {what} document schema_version {version!r}")


def json_text(doc, indent=None):
    """``doc`` as JSON text with sorted keys and a final newline."""
    return json.dumps(doc, sort_keys=True, indent=indent) + "\n"


def write_json(doc, path, indent=None):
    with open(path, "w") as fh:
        fh.write(json_text(doc, indent))


def read_json(path, from_dict):
    """Decode the JSON file at ``path`` and build a record from it with ``from_dict``.

    A file that is not JSON, or a document with a missing key or a value
    of the wrong type or shape, raises InvalidInputError naming the file.
    """
    with open(path) as fh:
        try:
            return from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed document {path}: {exc!r}") from exc


def write_csv(path_or_file, header, rows):
    """Write a header line and rows as CSV to a path or to an open text file."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(path_or_file)
    writer.writerow(header)
    writer.writerows(rows)

"""Location and parsing of the bundled field-data and reference-table files."""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path

DATA_DIR_ENV = "UNITSCAN_DATA_DIR"


class DataFileError(Exception):
    """A bundled or user-supplied data file failed validation."""


def data_path(name: str, data_dir: str | None = None) -> Path | resources.abc.Traversable:
    """Resolve a data file: explicit directory, then $UNITSCAN_DATA_DIR, then the
    bundled resource, read in place (so also from a zip or a wheel)."""
    for d in (data_dir, os.environ.get(DATA_DIR_ENV)):
        if d:
            p = Path(d) / name
            if not p.exists():
                raise DataFileError(f"data file {p} not found")
            return p
    return resources.files("unitscan") / "data" / name


def read_table_rows(path: Path) -> list[list[str]]:
    """Whitespace-separated rows, '#' comments and blank lines stripped."""
    rows = []
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFileError(f"cannot read {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def read_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFileError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc

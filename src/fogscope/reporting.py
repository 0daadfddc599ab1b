"""Run manifests and result tables.

Every output artifact starts with a single ``#``-prefixed manifest line
(command, input digest, seed, version, timestamp as compact JSON);
stripping comment lines leaves a plain CSV.  Numbers are written with
repr so they round-trip at full precision with a ``.`` decimal separator
regardless of locale.

Timestamps honor SOURCE_DATE_EPOCH so that seeded re-runs can produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from array import array
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from .model import ValidationError

TOOL_VERSION = "0.1.0"
MANIFEST_PREFIX = "# fogscope: "


def manifest_timestamp() -> str:
    """Now, or SOURCE_DATE_EPOCH when set; a value that is not ASCII digits
    after at most a "-", or no representable date, raises ValidationError."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.now(tz=timezone.utc).isoformat(timespec="seconds")
    try:
        if re.fullmatch("-?[0-9]+", epoch) is None:    # int() takes " +1_2 "
            raise ValueError(epoch)
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValidationError(f"SOURCE_DATE_EPOCH: must be an integer number "
                              f"of seconds giving a representable date, got "
                              f"{epoch!r}", field="SOURCE_DATE_EPOCH") from None
    return moment.isoformat(timespec="seconds")


@dataclass(frozen=True)
class RunManifest:
    command: str
    scenario_digest: str
    seed: Optional[int]
    version: str
    timestamp: str

    @classmethod
    def create(cls, command: str, scenario_digest: str,
               seed: Optional[int] = None) -> "RunManifest":
        return cls(command=command, scenario_digest=scenario_digest, seed=seed,
                   version=TOOL_VERSION, timestamp=manifest_timestamp())

    def to_comment_line(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True,
                             separators=(", ", ": "))
        return MANIFEST_PREFIX + payload

    @classmethod
    def from_comment_line(cls, line: str) -> "RunManifest":
        if not line.startswith(MANIFEST_PREFIX):
            raise ValueError("not a manifest line")
        data = json.loads(line[len(MANIFEST_PREFIX):])
        return cls(**data)


def format_cell(value) -> str:
    np = sys.modules.get("numpy")   # no numpy scalar exists without it
    if np is not None and isinstance(value, np.generic):
        # numpy 2 reprs np.float64(0.1) as "np.float64(0.1)"; np.True_ is
        # no bool
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


# the repr cells of each float column seen, comma-joined (no float repr holds
# a comma) and keyed by its IEEE-754 bytes so that -0.0, 0.0 and NaN payloads
# stay apart (a float64 array shares the key of its floats).  A pure function
# of the key, so sharing it between renders in one process changes no
# output; cleared before it would hold more than FLOAT_REPR_CACHE_CAP cells.
_FLOAT_COLUMNS: dict[bytes, str] = {}
_float_cells_kept = 0
FLOAT_REPR_CACHE_CAP = 1 << 17


def _float_cells(column) -> str:
    """The repr cells of Python floats or of a float64 numpy array,
    comma-joined."""
    global _float_cells_kept
    doubles = column if hasattr(column, "tobytes") else array("d", column)
    key = doubles.tobytes()
    joined = _FLOAT_COLUMNS.get(key)
    if joined is None:
        joined = ",".join(map(repr, doubles.tolist()))
        if 0 < len(doubles) <= FLOAT_REPR_CACHE_CAP:  # a longer one: used once
            if _float_cells_kept + len(doubles) > FLOAT_REPR_CACHE_CAP:
                _FLOAT_COLUMNS.clear()
                _float_cells_kept = 0
            _FLOAT_COLUMNS[key] = joined
            _float_cells_kept += len(doubles)
    return joined


def _csv_fields(values) -> dict:
    """Each distinct value's format_cell text as the csv module writes it as
    one field of a row of several (minimal quoting)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = {}
    for value in set(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow((format_cell(value), ""))
        fields[value] = buf.getvalue()[:-2]   # drop the "," and the "\n"
    return fields


def _column_cells(column: Sequence) -> str | list[str]:
    """The cells of one column, formatted as format_cell would, quoted: a
    float column's comma-joined, any other's as a list."""
    np = sys.modules.get("numpy")   # no numpy array exists without it
    if np is not None and isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return _float_cells(column)
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds == {float}:
        return _float_cells(column)
    if len(kinds) != 1 or not kinds <= {bool, int, str}:
        # 1 == 1.0 == True and -0.0 == 0.0: key these cells by their text
        column = list(map(format_cell, column))
    fields = _csv_fields(column)
    if len(fields) == 1:        # one value throughout, as a sweep's group
        return [*fields.values()] * len(column)
    return list(map(fields.__getitem__, column))


# rows rendered into one string at a time: a table's text is built from
# these blocks, and no column's cells are split out of their memo string
# more than a block at a time
ROWS_PER_BLOCK = 512


def _cell_blocks(cells: str | list[str]):
    """The cells of a list or of a comma-joined string, ROWS_PER_BLOCK at a
    time, as lists."""
    if not isinstance(cells, str):
        for start in range(0, len(cells), ROWS_PER_BLOCK):
            yield cells[start:start + ROWS_PER_BLOCK]
        return
    while True:
        block = cells.split(",", ROWS_PER_BLOCK)
        if len(block) <= ROWS_PER_BLOCK:
            yield block
            return
        cells = block.pop()     # the cells after this block, joined
        yield block


class ResultTable:
    """A header and its cells, one sequence per column: ``cells`` as given,
    Python values or numpy arrays, or ``rows`` transposed once.  A row or
    column count that is not the header's, or columns of unequal length,
    raise ValueError."""

    def __init__(self, columns: Sequence[str], rows: Sequence[tuple] = (),
                 *, cells: Optional[Sequence[Sequence]] = None):
        self.columns = tuple(columns)
        self.cells = list(zip(*rows, strict=True)) if cells is None else cells
        if self.cells and len(self.cells) != len(self.columns):
            raise ValueError("the cells' column count is not the header's")
        self.n_rows = len(self.cells[0]) if self.cells else len(rows)
        if any(len(column) != self.n_rows for column in self.cells):
            raise ValueError("the columns' lengths differ")

    def csv_blocks(self) -> list[str]:
        """The header line, then the rows ROWS_PER_BLOCK to a string, each
        ending in a newline; the cells are format_cell's, quoted as the csv
        module quotes them.  Rendered a column at a time."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(self.columns)
        if not self.n_rows or not self.cells:
            return [buf.getvalue(), "\n" * self.n_rows]
        blocks = zip(*(_cell_blocks(_column_cells(column))
                       for column in self.cells))
        if len(self.cells) == 1:
            # csv quotes a row of one empty field, as a blank line is no row
            blocks = ([['""' if c == "" else c for c in cells]]
                      for (cells,) in blocks)
        return [buf.getvalue(), *("\n".join([*map(",".join, zip(*block)), ""])
                                  for block in blocks)]

    def to_csv_text(self) -> str:
        """The header and rows as CSV."""
        return "".join(self.csv_blocks())


def render_artifact(manifest: RunManifest, table: ResultTable) -> str:
    return "".join([manifest.to_comment_line(), "\n", *table.csv_blocks()])


def artifact_path(filename: str) -> Path:
    """Where an artifact goes in the output directory, which is made."""
    path = Path(os.environ.get("FOGSCOPE_OUT", ".")) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# characters written to a stream at a time: a text stream encodes what it is
# given at once, so a whole artifact would be copied once more as bytes
WRITE_CHUNK = 1 << 16


def write_text(stream, text: str, start: int = 0) -> None:
    """Write ``text[start:]`` to a text stream, WRITE_CHUNK characters at a
    time."""
    for offset in range(start, len(text), WRITE_CHUNK):
        stream.write(text[offset:offset + WRITE_CHUNK])


def write_artifact(filename: str, text: str) -> Path:
    """Write a rendered artifact into the output directory."""
    path = artifact_path(filename)
    with path.open("w", encoding="utf-8") as stream:
        write_text(stream, text)
    return path

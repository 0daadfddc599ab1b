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
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

TOOL_VERSION = "0.1.0"
MANIFEST_PREFIX = "# fogscope: "


def manifest_timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
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
        payload = json.dumps({
            "command": self.command,
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "version": self.version,
            "timestamp": self.timestamp,
        }, sort_keys=True, separators=(", ", ": "))
        return MANIFEST_PREFIX + payload

    @classmethod
    def from_comment_line(cls, line: str) -> "RunManifest":
        if not line.startswith(MANIFEST_PREFIX):
            raise ValueError("not a manifest line")
        data = json.loads(line[len(MANIFEST_PREFIX):])
        return cls(**data)


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_cell(v) for v in row])
        return buf.getvalue()


def render_artifact(manifest: RunManifest, table: ResultTable) -> str:
    return manifest.to_comment_line() + "\n" + table.to_csv_text()


def output_dir() -> Path:
    return Path(os.environ.get("FOGSCOPE_OUT", "."))


def write_artifact(filename: str, text: str) -> Path:
    """Write a rendered artifact into the output directory."""
    path = output_dir() / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def strip_manifest(text: str) -> str:
    """Drop comment lines, leaving plain CSV."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return "\n".join(lines) + "\n"

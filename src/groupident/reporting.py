"""JSON campaign reports with a versioned schema and deterministic bodies."""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCHEMA_VERSION = "1"

SCHEMA_PATH = Path(__file__).resolve().parent / "report.schema.json"


def load_schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


def make_report(command: str, config: dict, body: dict,
                timings: dict) -> dict:
    """Assemble a report; everything under ``body`` must be seed-deterministic."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "body": body,
        "timings": timings,
    }


def body_bytes(report: dict) -> bytes:
    """Canonical bytes of the deterministic part of a report."""
    return json.dumps(report["body"], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")

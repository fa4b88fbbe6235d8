"""Correctness checks applied to every campaign the benchmark runs.

An operation fails when it raises, exits with a code other than 0, prints a
report that does not validate against the shipped schema, reports a
``body.status`` other than ``pass``, or prints ``body`` bytes that differ from
an earlier run of the same argv in the same process.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

EXPECTED_EXIT = 0


def canonical_body(report: dict) -> bytes:
    return json.dumps(report["body"], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class OutputChecker:
    def __init__(self, schema_path: Path) -> None:
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft202012Validator(schema)
        # argv -> sha256 of the canonical body bytes of its first run
        self.bodies: dict[tuple[str, ...], str] = {}

    def check(self, argv: tuple[str, ...], exit_code, raised: str | None,
              stdout: str) -> str | None:
        """The reason the operation failed, or None when it passed."""
        if raised is not None:
            return f"raised {raised}"
        if exit_code != EXPECTED_EXIT:
            return f"exit code {exit_code}, expected {EXPECTED_EXIT}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        error = jsonschema.exceptions.best_match(
            self._validator.iter_errors(report))
        if error is not None:
            return f"schema: {error.message}"
        digest = hashlib.sha256(canonical_body(report)).hexdigest()
        first = self.bodies.setdefault(argv, digest)
        if first != digest:
            return "body bytes differ from an earlier run of the same argv"
        status = report["body"]["status"]
        if status != "pass":
            return f"body.status is {status!r}"
        return None

    def digest(self) -> str:
        """One digest over the bodies of every argv seen, in argv order."""
        h = hashlib.sha256()
        for argv in sorted(self.bodies):
            h.update(("\t".join(argv) + "\t" + self.bodies[argv] + "\n")
                     .encode("utf-8"))
        return h.hexdigest()

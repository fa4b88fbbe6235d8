"""JSON campaign reports with a versioned schema and deterministic bodies.

Each computed float of a body is ``Measured``: it carries the noise floor of
its computation, and ``make_report`` reports it through ``evidence_float``.
Verdicts and API report objects keep the full-precision values."""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SCHEMA_VERSION = "1"

SCHEMA_PATH = Path(__file__).resolve().parent / "report.schema.json"

U = 2.0 ** -53  # unit roundoff of IEEE double precision


def evidence_float(x: float, floor: float, *, signed: bool = False) -> float:
    """``x`` rounded to the nearest value with 3 significant digits, ties to
    even; a magnitude at or below ``floor`` reads as the floor, or as 0.0 for
    a ``signed`` estimate.  NaN and infinities pass.  Values a few ulps
    apart (relative 1e-15) round apart only across a rounding boundary, and
    3-digit values lie a relative 1e-3 or more apart: a chance of about
    1e-12 per value."""
    x = float(x)
    if not math.isfinite(x):
        return x
    if abs(x) <= floor:
        if signed:
            return 0.0
        x = floor
    return float(f"{x:.2e}")  # formatting rounds the exact binary value


class Measured(float):
    """A computed float with the noise ``floor`` of its computation; a
    ``signed`` one is an estimate.  Arithmetic on it gives plain floats."""

    def __new__(cls, x: float, floor: float = 0.0, signed: bool = False):
        self = super().__new__(cls, x)
        self.floor, self.signed = floor, signed
        return self


def _evidence(value):
    """``value`` with each Measured float in it through ``evidence_float``."""
    if isinstance(value, Measured):
        return evidence_float(value, value.floor, signed=value.signed)
    if isinstance(value, dict):
        return {k: _evidence(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_evidence(v) for v in value]
    return value


# The noise floor of each body float: an a-priori bound on the rounding error
# of its computation (Higham, *Accuracy and Stability of Numerical
# Algorithms*, 2nd ed., 2002, ch. 3-4 and §24.1; the README derives each).
# g is a group, whose characteristic-function entries, FFTs, are within
# (32 log2(4n) sqrt(n) + 2) u (n = g.size, log2(4n) taken as the bit length
# of 4n); psi is the largest |log|f|| of a ratio table, spread =
# max y^2 sum y^2 / sum y^4 and y2 = max y^2 over its points.
FLOORS = {
    "joint_residual": lambda g: 8 * U * (
        32 * (4 * g.size).bit_length() * math.sqrt(g.size) + 6),
    "closed_form_deviation": lambda g, rate: FLOORS["joint_residual"](g)
    + 200 * rate * U,
    "reconstruction_tv": lambda g: g.size * U,
    "equation_defect": lambda psi: (160 + 16 * psi) * U,
    "sum_equation_defect": lambda psi: (128 + 32 * psi) * U,
    "phase_defect": 128 * U,
    "sigma": lambda psi, spread, y2: spread * (32 + 8 * psi) * U / y2,
    "modulus_residual":
        lambda scale, psi, spread: scale * (1 + spread) * (32 + 6 * psi) * U,
    # |sum_j sigma_j b_j^k|, from each fit's sigma and its floor
    "sigma_sum": lambda k, fits, bs: sum(
        abs(float(b)) ** k * (f.sigma.floor + 4 * U * abs(f.sigma))
        for f, b in zip(fits, bs)),
}


class Phases(dict):
    """Seconds spent in each named phase of a campaign, flat keys for a
    report's ``timings``; a phase entered again adds to its total."""

    @contextmanager
    def timed(self, key: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self[key] = self.get(key, 0.0) + time.perf_counter() - start


def load_schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


def make_report(command: str, config: dict, body: dict,
                timings: dict) -> dict:
    """Assemble a report; everything under ``body`` must be seed-deterministic.
    Its Measured floats are reported through ``evidence_float``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "body": _evidence(body),
        "timings": timings,
    }


def body_bytes(report: dict) -> bytes:
    """Canonical bytes of the deterministic part of a report."""
    return json.dumps(report["body"], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def write_report(report: dict, out: str | None) -> None:
    """Write ``report`` to ``out`` (stdout for None or ``-``) as one line of
    JSON encoded as ``body_bytes`` encodes a body, and a newline."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")

"""Campaign benchmark for groupident: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shift-small --seed 1 --seconds 25 --trace 0

Each workload runs in fresh worker processes (``worker.py``) that call
``groupident.cli.main`` in-process, one campaign per operation, and check
every report.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass over the workload's
seed pool and prints the per-layer metrics.  Operation times are reported at
reference speed (see ``host_adjusted``); ``perfbench/predictions.json``
defines every metric and which layer metric should move which end-to-end
metric.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where the counts
cover the workload's operations.  The lines before it are a readable summary
and a details record, which is also written under ``.bench_out/``; they also
report the untimed probes, campaigns kept in to show a known defect, and
``failed_frac``, which counts the probes too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import SPAN_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "groupident"
OUT_DIR = ROOT / ".bench_out"

# Every run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0
# Set-up is measured in this many fresh processes; setup_s is their median.
SETUP_SAMPLES = 7
# Time of the worker's calibration loop at reference speed, about the
# uncontended speed of the 2-CPU host the benchmark was defined on.
REFERENCE_CALIBRATION_S = 1.75e-3

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Line counts: metric name -> file in src/groupident/.
SOURCE_FILES = {
    "package_init": "__init__.py",
    "package_main": "__main__.py",
    "cli": "cli.py",
    "distributions": "distributions.py",
    "endomorphisms": "endomorphisms.py",
    "errors": "errors.py",
    "fixtures": "fixtures.py",
    "funceq": "funceq.py",
    "groups": "groups.py",
    "identify": "identify.py",
    "report_schema": "report.schema.json",
    "reporting": "reporting.py",
    "solenoid": "solenoid.py",
}

PER_LAYER = (
    SPAN_METRICS
    + [("reporting.report_bytes", "bytes", "lower")]
    + [(f"{name}.lines", "lines", "lower") for name in SOURCE_FILES]
    + [("src.lines", "lines", "lower"),
       ("trace.untraced_ops_per_s", "ops/s", "higher"),
       ("trace.traced_ops_per_s", "ops/s", "higher")]
)


class BenchError(Exception):
    pass


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def source_lines() -> dict[str, int]:
    """Static line counts; a file that no longer exists counts 0 lines."""
    out = {f"{name}.lines": (_count_lines(SRC / f) if (SRC / f).is_file()
                             else 0)
           for name, f in SOURCE_FILES.items()}
    out["src.lines"] = sum(_count_lines(p)
                           for p in sorted((ROOT / "src").rglob("*.py")))
    return out


def worker_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str,
          deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up seconds, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "READY\n" or code != 0:
        raise BenchError(f"worker {mode} exited with code {code} "
                         f"(time budget {RUN_BUDGET_S:.0f} s)")
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.splitlines()[-1])


def _ops_per_s(ops: list[dict], seconds: list[float]) -> float:
    """Correct operations per second of summed operation time."""
    return sum(op["failure"] is None for op in ops) / sum(seconds)


def latencies(ops: list[dict], seconds: list[float], tail: int) -> dict:
    ok_ms = [s * 1e3 for s, op in zip(seconds, ops) if op["failure"] is None]
    if len(ok_ms) < 2:
        raise BenchError("fewer than two operations completed correctly")
    return {
        "ops_per_s": _ops_per_s(ops, seconds),
        "op_p50_ms": statistics.median(ok_ms),
        "op_tail_ms": statistics.quantiles(ok_ms, n=100,
                                           method="inclusive")[tail - 1],
    }


def host_adjusted(ops: list[dict]) -> list[float]:
    """Operation times rescaled to reference speed.

    On a shared host the speed of this process changes by up to 1.7x, for
    seconds or minutes at a time, which moved raw latency medians between
    runs far more than the program does.  Each time is multiplied by
    ``REFERENCE_CALIBRATION_S / c``, where ``c`` is the mean of the
    calibration loops timed right before and right after the operation.
    """
    return [op["seconds"] * 2 * REFERENCE_CALIBRATION_S
            / sum(op["calibration"]) for op in ops]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the details record (see module docstring)."""
    if not (SRC / "cli.py").is_file():
        raise BenchError(f"no groupident sources under {SRC}")
    deadline = time.perf_counter() + RUN_BUDGET_S
    workload = WORKLOADS[name]
    if trace:
        _, untraced = spawn(name, seed, seconds, "pass", deadline)
        _, result = spawn(name, seed, seconds, "traced", deadline)
        metrics = dict(result["layers"])
        metrics.update(source_lines())
        for key, run in (("untraced", untraced), ("traced", result)):
            metrics[f"trace.{key}_ops_per_s"] = _ops_per_s(
                run["ops"], [op["seconds"] for op in run["ops"]])
        units = {m: u for m, u, _ in PER_LAYER}
        ops = untraced["ops"] + result["ops"]
        host = None
    else:
        setups = [spawn(name, seed, seconds, "setup", deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, result = spawn(name, seed, seconds, "timed", deadline)
        setups.append(setup)
        ops = result["ops"]
        metrics = {
            "setup_s": statistics.median(setups),
            **latencies(ops, host_adjusted(ops), workload.tail_percentile),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = dict(END_TO_END)
        host = {
            "calibration_median_ms": 1e3 * statistics.median(
                c for op in ops for c in op["calibration"]),
            "unadjusted": latencies(ops, [op["seconds"] for op in ops],
                                    workload.tail_percentile),
        }
    # The result line counts the workload's own operations.  Probes are
    # campaigns with a known defect: they are reported apart (probes and
    # failed_frac of the details record), so the defect stays visible while
    # every operation of the workload itself has to pass.
    failures = [op for op in ops if op["failure"] is not None]
    probe_failures = [p for p in result["probes"] if p["failure"] is not None]
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": result["rounds"],
        "timed_ops": len(result["ops"]),
        "failed_frac": (len(failures) + len(probe_failures))
        / (len(ops) + len(result["probes"])),
        "probes_failed": len(probe_failures),
        "tail_percentile": workload.tail_percentile,
        "setup_samples": None if trace else setups,
        "host": host,
        "body_digest": result["body_digest"],
        "failures": sorted({op["failure"] for op in failures}),
        "probes": result["probes"],
        "env": result["env"],
        "spans_file": result.get("spans_file"),
        "final": {
            "correct": not failures,
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()},
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(details, ops=ops)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return details


def summary_lines(details: dict) -> list[str]:
    final = details["final"]
    lines = [f"{details['workload']} seed={details['seed']} "
             f"trace={int(details['trace'])}: {final['attempted']} attempted, "
             f"{final['failed']} failed, {details['rounds']} rounds, "
             f"{len(details['probes'])} probes ({details['probes_failed']} "
             f"failed)"]
    for probe in details["probes"]:
        verdict = probe["failure"] or "passed"
        lines.append(f"  probe {' '.join(probe['argv'])}: {verdict}")
    for reason in details["failures"]:
        lines.append(f"  failure: {reason}")
    for m, v in final["metrics"].items():
        lines.append(f"  {m:<44} {v['value']:>14.6g} {v['unit']}")
    lines.append(f"  {'failed_frac':<44} {details['failed_frac']:>14.6g} "
                 f"ratio")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        details = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(details)))
    final = details.pop("final")
    print("details: " + json.dumps(details))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

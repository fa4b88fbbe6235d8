"""One workload process: set up, run campaigns through ``groupident.cli.main``.

Started by ``run.py``; not meant to be run by hand.  The process imports the
package from the checkout's ``src/``, builds the argv plan from the workload
seed, runs the warm-up campaigns and prints ``READY``; the time from its start
to that line is one set-up sample.  Then, depending on ``--mode``:

* ``setup``: exit.
* ``timed``: whole rounds in a closed loop with one client until at least
  ``--seconds`` have passed and the seed pool has been used once, then the
  untimed probes.  A short calibration loop runs right before and right
  after each operation, outside its timing.
* ``pass``: exactly one pass over the seed pool, untraced.
* ``traced``: the same pass with wrappers installed, then the probes.

The last line of stdout is a JSON object with every operation's latency and
verdict.  Campaign output is captured, never printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import OutputChecker  # noqa: E402
from workloads import WORKLOADS, ArgvPlan  # noqa: E402

OUT_DIR = ROOT / ".bench_out"


def run_campaign(cli, argv):
    """Run one campaign in-process; returns (seconds, exit code, raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising campaign is a failed operation
            code = None
            raised = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, raised, out.getvalue()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (about 2 ms): how fast the
    host runs this process right now.

    The loop allocates, hashes, formats and sorts small objects.  When the
    host slows down, the campaigns slow down by about as much as this loop
    does; a loop of integer additions alone slowed down by less and left up
    to a quarter of a slowdown in the exact-Fraction campaigns.
    """
    start = time.perf_counter()
    for _ in range(30):
        table = {i: (i, str(i)) for i in range(300)}
        sorted(table.values(), key=lambda pair: -pair[0])
    return time.perf_counter() - start


def environment(workload, plan) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": plan.seed,
        "warmup": [list(a) for a in workload.warmup],
        "argv_mix": [list(a) for a in plan.distinct()],
        "probes": [list(a) for a in plan.probes],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "pass", "traced"))
    args = parser.parse_args()

    import groupident
    from groupident import cli

    src = ROOT / "src" / "groupident"
    if Path(groupident.__file__).resolve().parent != src:
        print(f"imported groupident from {groupident.__file__}, not {src}",
              file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    plan = ArgvPlan(workload, args.seed)
    checker = OutputChecker(src / "report.schema.json")
    for argv in workload.warmup:
        _, code, raised, stdout = run_campaign(cli, argv)
        reason = checker.check(argv, code, raised, stdout)
        if reason is not None:
            print(f"warm-up {' '.join(argv)} failed: {reason}",
                  file=sys.stderr)
            return 3
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    index = {a: i for i, a in enumerate(plan.distinct())}
    ops = []
    report_bytes = 0
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < workload.pool_rounds or (
            args.mode == "timed" and time.perf_counter() < deadline):
        for argv in plan.round(rounds):
            if tracer is not None:
                tracer.op = len(ops)
            before = calibrate() if args.mode == "timed" else None
            seconds, code, raised, stdout = run_campaign(cli, argv)
            after = calibrate() if args.mode == "timed" else None
            reason = checker.check(argv, code, raised, stdout)
            report_bytes += len(stdout.encode("utf-8"))
            ops.append({"argv": index[argv], "round": rounds,
                        "seconds": seconds, "calibration": (before, after),
                        "failure": reason})
        rounds += 1
    result = {"rounds": rounds, "ops": ops,
              "peak_rss_kb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_file)
        result["layers"] = tracer.metrics()
        result["layers"]["reporting.report_bytes"] = report_bytes
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    probes = []
    if args.mode != "pass":
        for argv in plan.probes:
            seconds, code, raised, stdout = run_campaign(cli, argv)
            probes.append({"argv": list(argv), "seconds": seconds,
                           "failure": checker.check(argv, code, raised,
                                                    stdout)})
    result["probes"] = probes
    result["body_digest"] = checker.digest()
    result["env"] = environment(workload, plan)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare the report bodies and configs of a fixed list of campaigns
between two source trees, or between environments.

Usage, from the root of a checkout::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python3 tools/compare_bodies.py /tmp/parent [TREE]
    python3 tools/compare_bodies.py --env [TREE]

``TREE`` defaults to this checkout.  Each campaign runs in-process through
``groupident.cli.main``, first with the package imported from the first
tree's ``src/``, then from the second's.  For every argv the script prints
whether the exit codes, the ``reporting.body_bytes`` and the ``config`` of
the two reports match, and it exits 1 when any of them differ.  Under each
DIFFERENT line it prints every JSON path whose value differs, with both
values, for example
``body.trials[1].joint_residual 0.09152442122103922 -> 0.09152442122103924``
or ``config.tol 1e-12 -> 1.385e-12``, so that a deliberate change of
reports can be reviewed field by field.  A refactor that claims unchanged
behaviour should print ``same`` on every line.

With ``--env`` the campaigns run against one tree (this checkout by
default) in child processes, once natively and once under each setting of
``env_settings``: numpy's AVX-512 dispatch targets disabled, every dispatch
target disabled (x86-64-v2 on an x86-64 build), OpenBLAS's Sandybridge
kernels, one OpenBLAS thread, and one CPU.  Under "one CPU" the child pins
itself to the first CPU it may run on (``os.sched_setaffinity`` on its own
pid) before it imports the package, so every joint-law sweep runs unsplit,
where natively it is cut into one row stripe per CPU.  For each setting the
script prints how many reports are identical to the native run, with the
same DIFFERENT lines, and it exits 1 when any report differs.  Report bodies
are meant to be a function of configuration and seed alone, so every count
should be full.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _shift(group: str, form: str, trials: str) -> list[str]:
    return ["verify-shift", "--group", group, "--form", form,
            "--trials", trials, "--seed", "3"]


def _gauss(form: str, radius: int, *extra: str) -> list[str]:
    return ["verify-gaussian", "--form", form, "--radius", str(radius),
            "--trials", "2", "--seed", "5", *extra]


ARGVS = [
    *(_shift(g, form, t) for g, t in (("7", "20"), ("4x3", "20"),
                                      ("5x5", "20"), ("30x50", "1"))
      for form in ("I", "II")),
    ["verify-shift", "--group", "6", "--coeffs", "1,3,2", "--trials", "5",
     "--expect-negative"],
    *(_gauss(form, r) for r in (20, 60, 160) for form in ("I", "II")),
    *(_gauss(form, 18, "--base", "2,3", "--depth", "1",
             "--coeffs", "1/2,1,3/2,2") for form in ("I", "II")),
    # Large ratio moduli; form II evaluates 1/f4(b4 v) on every other point.
    *(_gauss(form, 24, "--base", "2,3", "--depth", "1", "--coeffs", coeffs)
      for coeffs in ("1,2,3,1/2", "1,2,4,3/2") for form in ("I", "II")),
    *(["counterexample", "--kind", kind]
      for kind in ("poisson-pair", "kernel-mass", "plane-gaussian",
                   "bernstein")),
    # The campaigns of the shift-large benchmark, and odd-exponent form I
    # coefficients chosen by find_shift_coeffs on a composite group.
    ["verify-shift", "--group", "1021", "--trials", "1"],
    *(["counterexample", "--kind", kind, "--group", "30x50"]
      for kind in ("poisson-pair", "kernel-mass")),
    ["verify-shift", "--group", "15", "--trials", "5"],
    # Groups of 63 and 64 elements, and a group above the dense-table limit.
    *(_shift(g, "II", t) for g, t in (("7x9", "5"), ("8x8", "5"),
                                      ("41x41", "1"))),
    ["invariants"],
    ["invariants", "--inject-fault", "adjoint"],
    # The rest of the invariants-sweep benchmark, and the gaussian-window
    # radius-200 probe, which exits 1 with an error string in its body.
    ["invariants", "--groups", "30,4x8,5x7,6x6"],
    ["counterexample", "--kind", "bernstein", "--group", "4x6"],
    _gauss("I", 200),
    # The invariant suite above the dense-table limit.
    ["invariants", "--groups", "41x41"],
    # Joint-law factors read as columns and rows on a cyclic group, and the
    # Poisson pair without a third factor and with b3 = 0.
    ["verify-shift", "--group", "1021", "--form", "II", "--trials", "1"],
    ["counterexample", "--kind", "poisson-pair", "--group", "30x50",
     "--coeffs", "1,3"],
    ["counterexample", "--kind", "poisson-pair", "--group", "4",
     "--coeffs", "1,3,4"],
    # The adjoint, subgroup and annihilator checks and every character of a
    # group of 10,000 elements.
    ["invariants", "--groups", "100x100"],
    # Every character of 30x30 certified at the campaign's tolerance, and
    # two groups whose exponent exceeds every cyclic order, one of them
    # above 36 elements.
    ["counterexample", "--kind", "bernstein", "--group", "30x30"],
    # The square table's 2.56 million pairs, swept in row blocks.
    ["counterexample", "--kind", "bernstein", "--group", "40x40"],
    # The square table's 100 million pairs, each row cut along the leading
    # coordinate of v.
    ["counterexample", "--kind", "bernstein", "--group", "100x100"],
    ["invariants", "--groups", "2x3x5,12x18"],
    # The other shift-small groups, and a spectral campaign of many trials:
    # the verifier stacks every trial of a campaign.
    _shift("11", "I", "20"),
    _shift("13", "I", "20"),
    _shift("8x8", "II", "20"),
    # The counterexample residuals on a group whose floor, unlike Z6's, is
    # above the default tolerance of 1e-12.
    *(["counterexample", "--kind", kind, "--group", "6x6"]
      for kind in ("poisson-pair", "kernel-mass")),
    # Seeds of two and three 32-bit words: every law and shift generator
    # hashes four or five words of entropy.
    ["verify-shift", "--group", "7", "--trials", "5", "--seed", "4294967296"],
    ["verify-shift", "--group", "4x3", "--form", "II", "--trials", "5",
     "--seed", "18446744073709551621"],
    # Equation sweeps of 521k (form II) and 641k (form I) pairs, in three
    # and six row blocks.
    *(_gauss(form, 800) for form in ("I", "II")),
    # Stacks swept in runs of entries (``TILE_BUDGET``): runs of 8 and 4
    # entries on a group of rank 8, and of 87 and 13 on Z30xZ50.
    _shift("2x2x2x2x2x2x2x2", "II", "6"),
    _shift("30x50", "II", "50"),
    # Coefficients that are not bijective: each roundtrip records the error
    # of its shift recipe, "(x) has k preimages ...".
    ["verify-shift", "--group", "6", "--coeffs", "0,3,3", "--form", "I",
     "--trials", "4", "--seed", "3"],
    # A Gaussian campaign is verified as one stack: stacks of 24 entries,
    # stacks whose every entry records its error, and a mixed stack whose
    # roundtrips pass and whose adversarial entries fail.
    *(["verify-gaussian", "--form", form, "--radius", "60", "--trials", "12",
       "--seed", "5"] for form in ("I", "II")),
    *(_gauss(form, 1600) for form in ("I", "II")),
    _gauss("II", 200),
    # The invariant suite on groups of rank 3 and 4, and the injected fault,
    # the one path whose violations are not empty, on the same groups.
    ["invariants", "--groups", "2x2x2x2,8x4x2,3x9x27"],
    ["invariants", "--groups", "2x2x2x2,8x4x2", "--inject-fault", "adjoint"],
]


def _package_modules() -> list[str]:
    return [m for m in sys.modules
            if m == "groupident" or m.startswith("groupident.")]


def run_tree(tree: Path, argvs) -> list[tuple[int, bytes | None,
                                              bytes | None]]:
    """(exit code, body bytes, config bytes) of every argv, run against
    ``tree``; both None where no report was written.  The package is
    imported afresh from ``tree``, and the caller's ``groupident`` modules
    are back in ``sys.modules`` when the call returns, so that the caller
    keeps one class per exception."""
    src = str(tree.resolve() / "src")
    saved = {m: sys.modules.pop(m) for m in _package_modules()}
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("groupident.cli")
        reporting = importlib.import_module("groupident.reporting")
        results = []
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            for argv in argvs:
                out.unlink(missing_ok=True)
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([*argv, "--out", str(out)])
                if not out.exists():
                    results.append((code, None, None))
                    continue
                report = json.loads(out.read_text())
                results.append((code, reporting.body_bytes(report),
                                _config_bytes(report)))
        return results
    finally:
        sys.path.remove(src)
        for m in _package_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def env_settings() -> list[tuple[str, dict[str, str], bool]]:
    """(label, environment overrides, whether the child pins itself to one
    CPU) of each ``--env`` setting, native first."""
    from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatch

    avx512 = [f for f in dispatch if f.startswith("AVX512") or f == "X86_V4"]
    return [("native", {}, False),
            ("AVX-512 disabled",
             {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}, False),
            ("x86-64-v2 dispatch",
             {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}, False),
            ("OPENBLAS_CORETYPE=Sandybridge",
             {"OPENBLAS_CORETYPE": "Sandybridge"}, False),
            ("OPENBLAS_NUM_THREADS=1", {"OPENBLAS_NUM_THREADS": "1"}, False),
            ("one CPU", {}, True)]


_CHILD = """\
import json, os, sys
if sys.argv[4] == "1":
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
sys.path.insert(0, sys.argv[1])
import compare_bodies as tool
results = tool.run_tree(tool.Path(sys.argv[2]), json.loads(sys.argv[3]))
print(json.dumps([[code, *(b and b.decode() for b in parts)]
                  for code, *parts in results]))
"""


def run_child(tree: Path, argvs, env: dict[str, str], one_cpu: bool):
    """``run_tree(tree, argvs)`` in a child process whose environment is this
    one's with ``env`` added, pinned to one CPU if ``one_cpu``."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(HERE), str(tree.resolve()),
         json.dumps(argvs), "1" if one_cpu else "0"],
        env={**os.environ, **env}, capture_output=True, text=True, check=True)
    return [(code, *(b and b.encode() for b in parts))
            for code, *parts in json.loads(proc.stdout)]


def _config_bytes(report: dict) -> bytes:
    """Canonical bytes of a report's ``config``, encoded as its body is."""
    return json.dumps(report["config"], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


_ABSENT = object()


def changed_fields(old, new, path: str = ""):
    """``(path, old, new)`` for every leaf of two JSON values that differs;
    a key or list item present on one side only reads as absent."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_fields(old.get(key, _ABSENT),
                                      new.get(key, _ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from changed_fields(old[i] if i < len(old) else _ABSENT,
                                      new[i] if i < len(new) else _ABSENT,
                                      f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def report(before, after, label: str = "") -> int:
    """Print one line per argv, and the fields of each body and config
    that differ; return the number of argvs whose exit code, body or config
    differs."""
    differ = 0
    for argv, a, b in zip(ARGVS, before, after):
        same = a == b
        differ += not same
        detail = "" if same else f"  (exit {a[0]} -> {b[0]})"
        print(f"{'same' if same else 'DIFFERENT':9} {' '.join(argv)}{detail}")
        for k, part in enumerate(("body", "config"), 1):
            if a[k] == b[k]:
                continue
            old, new = (None if r[k] is None else json.loads(r[k])
                        for r in (a, b))
            for path, x, y in changed_fields(old, new, part):
                print(f"    {path} {_show(x)} -> {_show(y)}")
    print(f"{label}{len(ARGVS) - differ} of {len(ARGVS)} reports identical")
    return differ


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    env = args[:1] == ["--env"]
    if env:
        args = args[1:]
    if len(args) not in ((0, 1) if env else (1, 2)):
        print(__doc__, file=sys.stderr)
        return 2
    if env:
        tree = Path(args[0]) if args else ROOT
        (_, native), *others = [
            (label, run_child(tree, ARGVS, overrides, one_cpu))
            for label, overrides, one_cpu in env_settings()]
        differ = [report(native, results, f"{label}: ")
                  for label, results in others]
        print("summary, reports identical to the native run:")
        for (label, _), d in zip(others, differ):
            print(f"  {label}: {len(ARGVS) - d} of {len(ARGVS)}")
        return 1 if any(differ) else 0
    first = Path(args[0])
    second = Path(args[1]) if len(args) == 2 else ROOT
    return 1 if report(run_tree(first, ARGVS), run_tree(second, ARGVS)) else 0


if __name__ == "__main__":
    raise SystemExit(main())

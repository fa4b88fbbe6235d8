"""Compare report bodies of a fixed list of campaigns between two source trees.

Usage, from the root of a checkout::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python3 tools/compare_bodies.py /tmp/parent [TREE]

``TREE`` defaults to this checkout.  Each campaign runs in-process through
``groupident.cli.main``, first with the package imported from the first
tree's ``src/``, then from the second's.  For every argv the script prints
whether the exit codes and ``reporting.body_bytes`` of the two reports match,
and it exits 1 when any of them differ.  A refactor that claims unchanged
behaviour should print ``same`` on every line.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    ["invariants"],
    ["invariants", "--inject-fault", "adjoint"],
]


def run_tree(tree: Path, argvs) -> list[tuple[int, bytes | None]]:
    """(exit code, body bytes or None) of every argv, run against ``tree``."""
    src = str(tree.resolve() / "src")
    for name in [m for m in sys.modules
                 if m == "groupident" or m.startswith("groupident.")]:
        del sys.modules[name]
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
                body = (reporting.body_bytes(json.loads(out.read_text()))
                        if out.exists() else None)
                results.append((code, body))
        return results
    finally:
        sys.path.remove(src)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    first = Path(args[0])
    second = Path(args[1]) if len(args) == 2 else ROOT
    before, after = run_tree(first, ARGVS), run_tree(second, ARGVS)
    differ = 0
    for argv, a, b in zip(ARGVS, before, after):
        same = a == b
        differ += not same
        detail = "" if same else f"  (exit {a[0]} -> {b[0]})"
        print(f"{'same' if same else 'DIFFERENT':9} {' '.join(argv)}{detail}")
    print(f"{len(ARGVS) - differ} of {len(ARGVS)} bodies identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

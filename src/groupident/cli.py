"""Command-line campaigns: verification round-trips, counterexamples, invariants.

Every command emits a JSON report (stdout or ``--out``) whose ``body`` is a
pure function of the configuration and seed.  Exit codes: 0 when the campaign
met its expectation, 1 when some trial or invariant failed, 2 for
configuration or construction errors, including a window too small for the
verifier.  An error inside one trial is recorded on that trial, which fails,
and the campaign goes on.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import identify, solenoid
from .distributions import (Distribution, char_arrays, checked_masses,
                            generators, random_masses, shifted_masses)
from .endomorphisms import Endo, annihilator_idx, is_adjoint_pair
from .errors import GroupIdentError, WindowMarginError
from .funceq import (bernstein_check, bernstein_square_table,
                     character_table_checks, is_character, kernel_conditions,
                     summed_variables)
from .groups import Group
from .reporting import FLOORS, Measured, Phases, make_report, write_report
from . import fixtures as fixture_io

DEFAULT_FAMILY = "2..12,2x4,6x6"

# Default tolerance of the counterexample residuals; a residual is compared
# with the larger of this and its noise floor, which exceeds it from 25
# elements up.
COUNTEREXAMPLE_TOL = 1e-12


# -- argument parsing helpers ---------------------------------------------------


def parse_group(text: str) -> Group:
    return Group([int(p) for p in text.split("x")])


def parse_group_family(text: str) -> list[Group]:
    groups = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        if ".." in token:
            lo, hi = token.split("..")
            groups.extend(Group([n]) for n in range(int(lo), int(hi) + 1))
        else:
            groups.append(parse_group(token))
    return groups


def parse_int_coeffs(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise GroupIdentError(f"--trials must be at least 1, got {trials}")


def _scalar_endos(group: Group, cs) -> list[Endo]:
    return [Endo.scalar(group, c) for c in cs]


def find_shift_coeffs(group: Group, form: str) -> list[int] | None:
    """The first scalar coefficient triple, in lexicographic order, that
    satisfies the kernel conditions on a nontrivial group.

    A scalar ``c`` has trivial kernel exactly when ``gcd(c, L) = 1``, ``L``
    the group exponent.  Form II needs ``ker(b1-b2)`` and ``ker(b3)``
    trivial, which ``[0, 1, 1]`` meets on every group.  Form I needs three
    scalars with pairwise differences prime to ``L``: ``[0, 1, 2]`` when
    ``L`` is odd, and none at all when ``L`` is even, since two of any three
    integers share a parity.
    """
    if not summed_variables(form, 3)[2]:
        return [0, 1, 1]
    return [0, 1, 2] if group.exponent % 2 else None


def _finish(command: str, config: dict, body: dict, start: float,
            out: str | None, phases: Phases | None = None) -> int:
    """Write the report with the wall time since ``start`` and the seconds
    of each of ``phases``; exit 0 on a passing body, else 1."""
    timings = {"seconds": time.perf_counter() - start, **(phases or {})}
    write_report(make_report(command, config, body, timings), out)
    return 0 if body["status"] == "pass" else 1


KINDS = ("roundtrip", "adversarial")


def _trials_body(entries: list, fields: dict) -> dict:
    """Body of a campaign's entries, a roundtrip and an adversarial entry
    per trial.  A GroupIdentError in place of an entry is recorded as
    ``error``, with ``ok`` false, and the campaign goes on."""
    trials = [{"trial": i // 2, "kind": KINDS[i % 2],
               **({"error": str(e), "ok": False}
                  if isinstance(e, GroupIdentError) else e)}
              for i, e in enumerate(entries)]
    failed = sum(not t["ok"] for t in trials)
    return {"status": "fail" if failed else "pass", **fields,
            "trials": trials, "counts": {"total": len(trials),
                                         "failed": failed}}


# -- shift campaign ----------------------------------------------------------------


def run_shift_trial(group: Group, bs, form: str, seed,
                    expect_negative: bool, rngs) -> tuple:
    """The roundtrips of trials ``t < len(rngs)`` as index rows,
    ``(seeds, shifts, errors, expected)`` (``verify_shift_entries``):
    ``mu_j`` is drawn from ``[seed, t, j]`` and shifted by row ``t`` of
    ``identify.consistent_shift_rows`` of one draw from ``rngs[t]`` (the
    generator of ``[seed, t, 7]`` in a campaign), or not at all when the
    campaign expects the hypotheses to fail."""
    k = len(rngs)
    seeds = [[[seed, t, j] for j in range(3)] for t in range(k)]
    if expect_negative:
        return (seeds, np.zeros((k, 3), np.int64), [None] * k,
                identify.VERDICT_PRECONDITIONS)
    x1 = [rng.integers(0, group.size) for rng in rngs]
    return (seeds, *identify.consistent_shift_rows(bs, form, x1),
            identify.VERDICT_SHIFT)


def run_shift_adversarial(group: Group, bs, form: str, seed,
                          expect_negative: bool, rngs) -> tuple:
    """The adversarial entries of trials ``t < len(rngs)`` as index rows,
    as ``run_shift_trial`` gives them: only ``nu_1`` is shifted, by a
    nonzero element drawn from ``rngs[t]`` (the generator of ``[seed, t,
    17]`` in a campaign), which changes the joint law."""
    k = len(rngs)
    shifts = np.zeros((k, 3), np.int64)
    shifts[:, 0] = [1 + rng.integers(0, group.size - 1) for rng in rngs]
    return ([[[seed, t, 10 + j] for j in range(3)] for t in range(k)],
            shifts, [None] * k, identify.VERDICT_PRECONDITIONS
            if expect_negative else identify.VERDICT_MISMATCH)


def verify_shift_entries(group: Group, bs, form: str, kinds, tol: float,
                         phases: Phases) -> list:
    """The body entries of a campaign, trial by trial and one of each of
    ``kinds`` in a trial, through one stacked draw of every law and one
    ``identify.verify_shifts``.  Each kind gives every trial's row
    (``run_shift_trial``): the seeds of the laws ``mu_j``, the shifts to
    ``nu_j``, which an entry expecting shifts must recover, the recipe's
    error or None, and the expected verdict.  An entry whose recipe or
    draw failed becomes its GroupIdentError."""
    seeds, shifts, errors, expected = zip(*kinds)
    # entry len(kinds) t + i is row t of kinds[i]
    seeds, errors = ([x for row in zip(*f) for x in row]
                     for f in (seeds, errors))
    expected = list(expected) * len(shifts[0])
    shifts = np.stack(shifts, axis=1).reshape(-1, 3)
    with phases.timed("draw_s"):
        masses, chars, draw = random_masses(
            group, [s for entry in seeds for s in entry], 0.2)
        out = [next(filter(None, draw[3 * i:3 * i + 3]), None)
               if e is None else e for i, e in enumerate(errors)]
        ok = [i for i, e in enumerate(out) if e is None]
        M, C = (a.reshape(-1, 3, group.size)[ok] for a in (masses, chars))
        del masses, chars
        N = checked_masses(group, shifted_masses(group, M, shifts[ok]))
        D = char_arrays(group, N)
    for i, r in zip(ok, identify.verify_shifts(form, bs, (M, C), (N, D),
                                               tol=tol, phases=phases)):
        recovered = r.shifts is None or r.shifts == group.points_at(shifts[i])
        out[i] = {**r.to_json_dict(), "expected": expected[i],
                  "ok": r.verdict == expected[i] and recovered}
    return out


def cmd_verify_shift(args) -> int:
    try:
        group = parse_group(args.group)
        if group.size < 2:
            raise GroupIdentError(f"verify-shift needs a nontrivial group, "
                                  f"got {group!r}")
        _check_trials(args.trials)
        if args.coeffs is None:
            cs = find_shift_coeffs(group, args.form)
            if cs is None:
                raise GroupIdentError(
                    f"no scalar coefficients satisfy the form {args.form} "
                    f"kernel conditions on {group!r}")
        else:
            cs = parse_int_coeffs(args.coeffs)
            if len(cs) != 3:
                raise GroupIdentError("verify-shift needs three coefficients")
        bs = _scalar_endos(group, cs)
    except (GroupIdentError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    phases = Phases()
    setup = (group, bs, args.form, args.seed, args.expect_negative)
    rngs = generators([[args.seed, t, j] for t in range(args.trials)
                       for j in (7, 17)])
    kinds = (run_shift_trial(*setup, rngs[0::2]),
             run_shift_adversarial(*setup, rngs[1::2]))
    body = _trials_body(
        verify_shift_entries(group, bs, args.form, kinds, args.tol, phases),
        {"form": args.form, "group": list(group.orders), "coeffs": cs,
         "preconditions_hold": all(kernel_conditions(
             summed_variables(args.form, 3), bs).values()),
         "expect_negative": args.expect_negative})
    body["max_joint_residual"] = max(
        (t["joint_residual"] for t in body["trials"] if "error" not in t),
        default=None)
    config = {"group": args.group, "form": args.form, "coeffs": cs,
              "trials": args.trials, "seed": args.seed, "tol": args.tol,
              "expect_negative": args.expect_negative}
    return _finish("verify-shift", config, body, start, args.out, phases)


# -- gaussian campaign -----------------------------------------------------------------


def run_gaussian_trial(report, sigmas, tol: float) -> dict:
    """The body entry of a roundtrip, whose fits must recover ``sigmas``."""
    # The difference of two nearby floats is exact.
    sigma_err = Measured(max(abs(fit.sigma - s)
                             for fit, s in zip(report.fits, sigmas)),
                         max(fit.sigma.floor for fit in report.fits))
    ok = report.verdict == solenoid.VERDICT_GAUSSIAN and sigma_err < tol
    return {**report.to_json_dict(), "sigma_error": sigma_err,
            "expected": solenoid.VERDICT_GAUSSIAN, "ok": ok}


def run_gaussian_adversarial(report) -> dict:
    """The body entry of an adversarial trial: ``nu_1`` carries an extra
    ``exp(-0.4 y^4)``, so the verdict must not be Gaussian."""
    return {**report.to_json_dict(), "expected": "negative-verdict",
            "ok": report.verdict != solenoid.VERDICT_GAUSSIAN}


def verify_gaussian_entries(lattice, bs, form: str, seed, trials: range,
                            tol: float, phases: Phases) -> list:
    """The body entries of ``trials``, a roundtrip (generator ``[seed, t]``)
    then an adversarial entry (``[seed, t, 1]``) per trial, from one
    ``solenoid.synth_gaussian_stack`` and one ``verify_gaussian_form_*`` of
    them all.  An entry that raised becomes its GroupIdentError."""
    with phases.timed("synth_s"):
        try:
            muhats, nuhats, sigmas, _ = solenoid.synth_gaussian_stack(
                lattice, bs, generators([[seed, t, *kind] for t in trials
                                         for kind in ((), (1,))]), form)
        except GroupIdentError as exc:  # from the coefficients and form
            return [exc] * (2 * len(trials))
        quartic = np.exp(-0.4 * (lattice.every / lattice.denominator) ** 4)
        nu = nuhats[0].values.copy()
        nu[1::2] *= quartic
        nuhats[0] = nuhats[0].map_values(lambda _: nu)
    return [r if isinstance(r, GroupIdentError)
            else run_gaussian_adversarial(r) if i % 2
            else run_gaussian_trial(r, sigmas, tol)
            for i, r in enumerate(getattr(
                solenoid, "verify_gaussian_form_" + form)(
                    bs, muhats, nuhats, tol=tol, phases=phases))]


def cmd_verify_gaussian(args) -> int:
    try:
        base = [int(a) for a in args.base.split(",")]
        lattice = solenoid.make_lattice(base, args.depth, args.radius)
        cs = [Fraction(p) for p in args.coeffs.split(",")]
        if len(cs) != 4:
            raise GroupIdentError("verify-gaussian needs four coefficients")
        _check_trials(args.trials)
    except (GroupIdentError, ValueError, ZeroDivisionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    phases = Phases()
    # Trials per run, two entries each: see solenoid.RUN_VALUES.
    step = max(1, solenoid.RUN_VALUES // (8 * len(lattice.every)))
    try:
        entries = [e for t in range(0, args.trials, step)
                   for e in verify_gaussian_entries(
                       lattice, cs, args.form, args.seed,
                       range(t, min(t + step, args.trials)), args.tol, phases)]
    except WindowMarginError as exc:
        print(f"margin error: {exc}", file=sys.stderr)
        return 2
    body = _trials_body(entries, {
        "form": args.form, "base": base, "depth": args.depth,
        "radius": args.radius, "coeffs": [str(c) for c in cs]})
    config = {"base": args.base, "depth": args.depth, "radius": args.radius,
              "coeffs": args.coeffs, "form": args.form, "trials": args.trials,
              "seed": args.seed, "tol": args.tol}
    return _finish("verify-gaussian", config, body, start, args.out, phases)


# -- counterexamples -------------------------------------------------------------------


def _write_fixture_dists(directory, mus, nus) -> list[str]:
    Path(directory).mkdir(parents=True, exist_ok=True)
    files = {Path(directory) / f"{side}{j}.dist": dist
             for side, dists in (("mu", mus), ("nu", nus))
             for j, dist in enumerate(dists, start=1)}
    for path, dist in files.items():
        fixture_io.write_distribution(path, dist)
    return [str(path) for path in files]


def cmd_counterexample(args) -> int:
    start = time.perf_counter()
    try:
        group = parse_group(args.group) if args.group else None
        cs = parse_int_coeffs(args.coeffs) if args.coeffs else None
    except (GroupIdentError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    phases = Phases()
    construct = {"poisson-pair": _counterexample_poisson,
                 "kernel-mass": _counterexample_kernel,
                 "plane-gaussian": _counterexample_plane,
                 "bernstein": _counterexample_bernstein}[args.kind]
    try:
        config, body = construct(args, group, cs, phases)
    except GroupIdentError as exc:
        print(f"cannot construct: {exc}", file=sys.stderr)
        return 2
    return _finish("counterexample", config, body, start, args.out, phases)


def _counterexample_tol(args, floor: float) -> float:
    """``--tol`` as given, else the larger of COUNTEREXAMPLE_TOL and the
    noise ``floor`` of the residuals it is compared with."""
    return max(COUNTEREXAMPLE_TOL, floor) if args.tol is None else args.tol


def _counterexample_poisson(args, group, cs, phases) -> tuple[dict, dict]:
    group, cs = group or Group([6]), cs or [1, 3, 2]
    bs = _scalar_endos(group, cs)
    mu3 = Distribution.random(group, [args.seed, 99], 0.2)
    mus, nus = identify.poisson_counterexample(bs, args.rate, mu3)
    with phases.timed("joint_residual_s"):
        residual, closed_dev = identify.poisson_pair_deviations(
            bs, args.rate, mu3, mus[:2], nus[:2])
    non_shift = [identify.recover_shift(mus[j], nus[j]) is None
                 for j in (0, 1)]
    tol = _counterexample_tol(
        args, FLOORS["closed_form_deviation"](group, args.rate))
    ok = residual < tol and closed_dev < tol and all(non_shift)
    body = {
        "status": "pass" if ok else "fail",
        "kind": "poisson-pair",
        "group": list(group.orders),
        "coeffs": cs,
        "rate": args.rate,
        "joint_residual": Measured(residual, FLOORS["joint_residual"](group)),
        "closed_form_deviation": Measured(
            closed_dev, FLOORS["closed_form_deviation"](group, args.rate)),
        "non_shift_indices": [1, 2],
        "non_shift_certified": non_shift,
    }
    if args.fixtures:
        body["fixtures"] = _write_fixture_dists(args.fixtures, mus, nus)
    config = {"kind": args.kind, "group": args.group, "coeffs": cs,
              "rate": args.rate, "seed": args.seed, "tol": tol}
    return config, body


def _counterexample_kernel(args, group, cs, phases) -> tuple[dict, dict]:
    group, cs = group or Group([6]), cs or [1, 2, 2]
    bs = _scalar_endos(group, cs)
    mus, nus = identify.kernel_counterexample(bs)
    non_shift = identify.recover_shift(mus[2], nus[2]) is None
    with phases.timed("verifier_s"):
        report = identify.verify_form_II(bs, mus, nus)
    residual = report.joint_residual
    tol = _counterexample_tol(args, FLOORS["joint_residual"](group))
    ok = (residual < tol and non_shift
          and report.verdict == identify.VERDICT_PRECONDITIONS)
    body = {
        "status": "pass" if ok else "fail",
        "kind": "kernel-mass",
        "group": list(group.orders),
        "coeffs": cs,
        "joint_residual": residual,
        "non_shift_indices": [3],
        "non_shift_certified": [non_shift],
        "verifier_verdict": report.verdict,
    }
    if args.fixtures:
        body["fixtures"] = _write_fixture_dists(args.fixtures, mus, nus)
    config = {"kind": args.kind, "group": args.group, "coeffs": cs,
              "seed": args.seed, "tol": tol}
    return config, body


def _counterexample_plane(args, group, cs, phases) -> tuple[dict, dict]:
    cert = identify.plane_gaussian_counterexample()
    return {"kind": args.kind}, {"status": "pass" if cert.ok else "fail",
                                 "kind": "plane-gaussian",
                                 **cert.to_json_dict()}


def _counterexample_bernstein(args, group, cs, phases) -> tuple[dict, dict]:
    group = group or Group([6, 6])
    table = bernstein_square_table(group)
    tol = COUNTEREXAMPLE_TOL if args.tol is None else args.tol
    with phases.timed("bernstein_check_s"):
        passes = bernstein_check(table, tol=tol)
    with phases.timed("characters_s"):
        char = is_character(table, tol=tol)
        chars_ok = all(character_table_checks(group, tol))
    involutions = group.order_two_count()
    ok = passes and not char and involutions >= 2 and chars_ok
    body = {
        "status": "pass" if ok else "fail",
        "kind": "bernstein",
        "group": list(group.orders),
        "bernstein_check": passes,
        "is_character": char,
        "order_two_count": involutions,
        "all_characters_pass_both": chars_ok,
    }
    if args.fixtures:
        path = Path(args.fixtures) / "bernstein.table"
        path.parent.mkdir(parents=True, exist_ok=True)
        fixture_io.write_table(path, table)
        body["fixtures"] = [str(path)]
    config = {"kind": args.kind, "group": args.group, "tol": tol}
    return config, body


# -- invariant suite ---------------------------------------------------------------------


def _suite_endos(group: Group, seed) -> list[Endo]:
    endos = [Endo.identity(group), Endo.zero(group), Endo.scalar(group, 2)]
    if group.exponent > 2:
        endos.append(Endo.scalar(group, group.exponent - 1))
    rng = np.random.default_rng([seed, group.size])
    k = group.rank
    for _ in range(3):
        matrix = []
        for i, n_i in enumerate(group.orders):
            row = []
            for j, n_j in enumerate(group.orders):
                step = n_i // np.gcd(n_i, n_j)
                row.append(int(rng.integers(0, max(n_i // step, 1))) * step)
            matrix.append(row)
        endos.append(Endo(group, matrix))
    return endos


def run_invariant_suite(group: Group, seed, inject_fault: str | None = None,
                        phases: Phases | None = None) -> dict:
    phases = Phases() if phases is None else phases
    violations = []
    with phases.timed("endomorphisms_s"):
        for e in _suite_endos(group, seed):
            adj = e.adjoint()
            if inject_fault == "adjoint":
                broken = [list(row) for row in adj.matrix]
                broken[0][0] = (broken[0][0] + 1) % group.orders[0]
                adj = Endo(group, broken)
            if not is_adjoint_pair(e, adj):
                violations.append(f"adjoint identity on {group!r}")
            if adj.adjoint() != e:
                violations.append(f"double adjoint on {group!r}")
            kernel = e.kernel_idx()
            # Both index arrays are in order.
            if not np.array_equal(adj.image_idx(),
                                  annihilator_idx(group, kernel)):
                violations.append(f"image/annihilator identity on {group!r}")
            if adj.is_surjective() != (len(kernel) == 1):
                violations.append(f"dense-image equivalence on {group!r}")
            if len(kernel) * len(e.image_idx()) != group.size:
                violations.append(f"kernel-image size product on {group!r}")
    with phases.timed("characters_s"):
        characters, bernstein = character_table_checks(group)
    if not characters:
        violations.append(f"character multiplicativity on {group!r}")
    if not bernstein:
        violations.append(f"character bernstein property on {group!r}")
    return {"group": list(group.orders), "characters_checked": group.size,
            "violations": sorted(set(violations))}


def cmd_invariants(args) -> int:
    try:
        groups = parse_group_family(args.groups)
        if not groups:
            raise GroupIdentError("empty group family")
    except (GroupIdentError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    phases = Phases()
    results = [run_invariant_suite(g, args.seed, args.inject_fault, phases)
               for g in groups]
    violations = [v for r in results for v in r["violations"]]
    body = {
        "status": "pass" if not violations else "fail",
        "groups": [r["group"] for r in results],
        "results": results,
        "violations": sorted(set(violations)),
    }
    config = {"groups": args.groups, "seed": args.seed,
              "inject_fault": args.inject_fault}
    return _finish("invariants", config, body, start, args.out, phases)


# -- entry point -------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="groupident",
        description="Verification campaigns for linear-form identifiability "
                    "on finite abelian groups and solenoid character windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    shift = sub.add_parser("verify-shift",
                           help="three-variable up-to-shift round-trips")
    shift.add_argument("--group", default="7", help="orders, e.g. 7 or 4x3")
    shift.add_argument("--form", choices=("I", "II"), default="I")
    shift.add_argument("--coeffs", default=None,
                       help="three scalar coefficients, e.g. 0,1,2")
    shift.add_argument("--trials", type=int, default=200)
    shift.add_argument("--seed", type=int, default=0)
    shift.add_argument("--tol", type=float, default=1e-8)
    shift.add_argument("--out", default=None)
    shift.add_argument("--expect-negative", action="store_true",
                       help="expect preconditions-violated verdicts")
    shift.set_defaults(func=cmd_verify_shift)

    gauss = sub.add_parser("verify-gaussian",
                           help="four-variable up-to-gaussian round-trips")
    gauss.add_argument("--base", default="2,3,5")
    gauss.add_argument("--depth", type=int, default=2)
    gauss.add_argument("--radius", type=int, default=60)
    gauss.add_argument("--coeffs", default="1,2,3,4",
                       help="four rational coefficients, e.g. 1,2,3,4")
    gauss.add_argument("--form", choices=("I", "II"), default="I")
    gauss.add_argument("--trials", type=int, default=50)
    gauss.add_argument("--seed", type=int, default=0)
    gauss.add_argument("--tol", type=float, default=1e-8)
    gauss.add_argument("--out", default=None)
    gauss.set_defaults(func=cmd_verify_gaussian)

    ce = sub.add_parser("counterexample",
                        help="reproduce the failure constructions")
    ce.add_argument("--kind", required=True,
                    choices=("poisson-pair", "kernel-mass", "plane-gaussian",
                             "bernstein"))
    ce.add_argument("--group", default=None,
                    help="orders (defaults: 6, or 6x6 for bernstein)")
    ce.add_argument("--coeffs", default=None)
    ce.add_argument("--rate", type=float, default=0.7,
                    help="poisson rate parameter")
    ce.add_argument("--seed", type=int, default=0)
    ce.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default: the larger of 1e-12 "
                         "and the residual's noise floor)")
    ce.add_argument("--out", default=None)
    ce.add_argument("--fixtures", default=None,
                    help="directory for distribution/table fixtures")
    ce.set_defaults(func=cmd_counterexample)

    inv = sub.add_parser("invariants",
                         help="duality and difference-machinery identities")
    inv.add_argument("--groups", default=DEFAULT_FAMILY)
    inv.add_argument("--seed", type=int, default=0)
    inv.add_argument("--out", default=None)
    inv.add_argument("--inject-fault", choices=("adjoint",), default=None,
                     help="self-test: corrupt the adjoint and expect exit 1")
    inv.set_defaults(func=cmd_invariants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        print(f"config error: --seed must be nonnegative, got {args.seed}",
              file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

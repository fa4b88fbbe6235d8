import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from groupident import Endo, cli, funceq, identify
from groupident.cli import (build_parser, find_shift_coeffs, main,
                            parse_group_family, run_invariant_suite)
from groupident.groups import TABLE_SIZE_LIMIT, Group
from groupident.fixtures import read_distribution, read_table
from groupident.reporting import FLOORS, body_bytes, load_schema
from oracles import suite_matrices_percall

SRC = Path(__file__).resolve().parent.parent / "src"
TOOL = SRC.parent / "tools" / "compare_bodies.py"


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    return code, report


def test_parser_is_built_once_and_carries_no_option_values(tmp_path):
    build_parser.cache_clear()
    argvs = [["invariants", "--groups", "2..3", "--seed", "4",
              "--inject-fault", "adjoint"],
             ["verify-shift", "--group", "5", "--trials", "1", "--seed", "9"],
             ["invariants", "--groups", "5"]]
    configs = []
    for argv in argvs:
        main([*argv, "--out", str(tmp_path / "report.json")])
        configs.append(json.loads(
            (tmp_path / "report.json").read_text(encoding="utf-8"))["config"])
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert configs[0] == {"groups": "2..3", "seed": 4,
                          "inject_fault": "adjoint"}
    assert configs[1] == {"group": "5", "form": "I", "coeffs": [0, 1, 2],
                          "trials": 1, "seed": 9, "tol": 1e-8,
                          "expect_negative": False}
    assert configs[2] == {"groups": "5", "seed": 0, "inject_fault": None}
    # Each parse makes a fresh namespace with its own subcommand's options.
    parser = build_parser()
    parser.parse_args(["verify-gaussian", "--radius", "7"])
    assert sorted(vars(parser.parse_args(["invariants"]))) == [
        "command", "func", "groups", "inject_fault", "out", "seed"]


def test_parse_group_family():
    fam = parse_group_family("2..4,2x4,6x6")
    assert [g.orders for g in fam] == [(2,), (3,), (4,), (2, 4), (6, 6)]


def test_verify_shift_campaign(tmp_path):
    code, report = run_cli(tmp_path, "verify-shift", "--group", "7",
                           "--trials", "4", "--seed", "3")
    assert code == 0
    assert report["body"]["status"] == "pass"
    assert report["body"]["counts"] == {"total": 8, "failed": 0}
    jsonschema.validate(report, load_schema())


def test_verify_shift_form_II_default_kotlarski(tmp_path):
    code, report = run_cli(tmp_path, "verify-shift", "--group", "4x3",
                           "--form", "II", "--trials", "3", "--seed", "1")
    assert code == 0
    assert report["body"]["coeffs"] == [0, 1, 1]


def test_form_II_default_coeffs_on_every_group():
    for group in parse_group_family("2..12,4x3,5x5"):
        assert find_shift_coeffs(group, "II") == [0, 1, 1], group


def test_verify_shift_expect_negative(tmp_path):
    code, report = run_cli(tmp_path, "verify-shift", "--group", "6",
                           "--coeffs", "1,3,2", "--trials", "3",
                           "--expect-negative")
    assert code == 0
    assert not report["body"]["preconditions_hold"]
    assert all(t["verdict"] == "preconditions-violated"
               for t in report["body"]["trials"])


def test_verify_shift_unmet_kernel_condition_is_recorded(tmp_path):
    # On Z6, b2 - b3 = 0: the roundtrip's x2 solves 0 x2 = 3 x1, which has
    # no solution for odd x1 and six for even x1.  Each roundtrip records
    # that, the adversarial entries run, and the report is written.
    code, report = run_cli(tmp_path, "verify-shift", "--group", "6",
                           "--coeffs", "0,3,3", "--form", "I",
                           "--trials", "4")
    assert code == 1
    body = report["body"]
    assert not body["preconditions_hold"]
    assert body["counts"] == {"total": 8, "failed": 8}
    roundtrips = [t for t in body["trials"] if t["kind"] == "roundtrip"]
    assert {t["error"] for t in roundtrips} == {
        f"({x}) has {k} preimages under a coefficient that must be bijective"
        for x, k in ((3, 0), (0, 6))}
    assert all(t["verdict"] == "preconditions-violated"
               for t in body["trials"] if t["kind"] == "adversarial")
    jsonschema.validate(report, load_schema())


def test_verify_shift_roundtrip_must_recover_its_shifts(tmp_path,
                                                       monkeypatch):
    # A roundtrip passes only if the verifier recovers the very shifts its
    # recipe applied: with every recovered shift read as zero, exactly the
    # roundtrips whose shifts are not all zero fail.
    argv = ("verify-shift", "--group", "7", "--trials", "6")
    _, clean = run_cli(tmp_path, *argv)
    real, zero = identify.verify_shifts, Group([7]).zero

    def zeroed(*args, **kwargs):
        return [r if r.shifts is None else
                dataclasses.replace(r, shifts=(zero,) * 3)
                for r in real(*args, **kwargs)]

    monkeypatch.setattr(identify, "verify_shifts", zeroed)
    code, report = run_cli(tmp_path, *argv)
    assert code == 1
    moved = [t["kind"] == "roundtrip" and t["shifts"] != [[0]] * 3
             for t in clean["body"]["trials"]]
    assert any(moved)
    assert [not t["ok"] for t in report["body"]["trials"]] == moved


def test_verify_shift_bad_group_exits_2(capsys):
    # a trivial group and a trial count below 1 are configuration errors too
    for argv in (["--group", "bogus"], ["--group", "1"], ["--trials", "0"],
                 ["--trials", "-3"]):
        assert main(["verify-shift", *argv]) == 2, argv
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["counterexample", "--kind", "poisson-pair", "--group", "abc"],
    ["counterexample", "--kind", "kernel-mass", "--coeffs", "1,x"],
    ["verify-gaussian", "--coeffs", "1,2,3,1/0"]],
    ids=["group", "coeffs", "zero-denominator"])
def test_unreadable_options_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_verify_shift_impossible_coeffs_exits_2(capsys):
    # no scalar triple satisfies the three-variable kernel conditions on Z12
    assert main(["verify-shift", "--group", "4x3", "--form", "I",
                 "--trials", "1"]) == 2
    assert "kernel conditions" in capsys.readouterr().err


def test_verify_shift_even_exponent_form_I_exits_2(capsys):
    # find_shift_coeffs decides form I from the exponent's parity, with no
    # search over coefficient triples
    assert main(["verify-shift", "--group", "100x100", "--trials", "1"]) == 2
    assert "kernel conditions" in capsys.readouterr().err


def test_verify_shift_beyond_dense_table_limit(tmp_path):
    # No n x n table is built, so a group beyond the dense-table limit gets
    # verdicts on every trial.
    assert Group([41, 41]).size > TABLE_SIZE_LIMIT
    code, report = run_cli(tmp_path, "verify-shift", "--group", "41x41",
                           "--form", "II", "--trials", "1", "--seed", "1")
    assert code == 0
    assert [(t["kind"], t["verdict"]) for t in report["body"]["trials"]] \
        == [("roundtrip", "determined-up-to-shift"),
            ("adversarial", "mismatch")]


def test_verify_gaussian_campaign(tmp_path):
    code, report = run_cli(tmp_path, "verify-gaussian", "--trials", "2",
                           "--seed", "5", "--radius", "40")
    assert code == 0
    assert report["body"]["status"] == "pass"
    jsonschema.validate(report, load_schema())


def test_verify_gaussian_margin_exits_2(capsys):
    assert main(["verify-gaussian", "--radius", "2", "--trials", "1"]) == 2
    assert "margin" in capsys.readouterr().err
    # zero trials would be a vacuous pass
    for trials in ("0", "-1"):
        assert main(["verify-gaussian", "--trials", trials]) == 2
        assert "config error" in capsys.readouterr().err


def test_verify_gaussian_trial_error_is_recorded(tmp_path):
    # At radius 200 the adversarial quartic underflows to 0, so that trial
    # raises; the roundtrip still passes and the campaign exits 1, not 2.
    code, report = run_cli(tmp_path, "verify-gaussian", "--radius", "200",
                           "--trials", "1")
    assert code == 1
    roundtrip, adversarial = report["body"]["trials"]
    assert roundtrip["kind"] == "roundtrip" and roundtrip["ok"]
    assert adversarial["kind"] == "adversarial" and not adversarial["ok"]
    assert "nonvanishing" in adversarial["error"]
    assert report["body"]["counts"] == {"total": 2, "failed": 1}
    jsonschema.validate(report, load_schema())


def test_verify_gaussian_tol_reaches_the_verifier(tmp_path):
    # The roundtrip's product-equation defect, 1.99e-14, is rounding; below
    # it, --tol fails the roundtrip's verdict, not only its sigma error.
    code, report = run_cli(tmp_path, "verify-gaussian", "--trials", "1",
                           "--tol", "1e-15", "--seed", "1")
    assert code == 1
    roundtrip, adversarial = report["body"]["trials"]
    assert roundtrip["verdict"] == "mismatch" and not roundtrip["ok"]
    assert roundtrip["failures"] == ["product equation defect 1.99e-14"]
    assert adversarial["verdict"] == "mismatch" and adversarial["ok"]


@pytest.mark.parametrize("form", ["I", "II"])
def test_verify_gaussian_beyond_the_float_range_writes_a_report(tmp_path,
                                                                form):
    # At radius 1600 a table leaves the float range: form I's overflows
    # exp(-sigma y^2), form II's underflows to 0.  Each entry records its
    # error, and the campaign writes its report and exits 1.
    code, report = run_cli(tmp_path, "verify-gaussian", "--form", form,
                           "--radius", "1600", "--trials", "1")
    assert code == 1
    trials = report["body"]["trials"]
    assert [t["kind"] for t in trials] == ["roundtrip", "adversarial"]
    want = "float range" if form == "I" else "nonvanishing"
    assert all(not t["ok"] and want in t["error"] for t in trials)
    jsonschema.validate(report, load_schema())


def test_verify_shift_trial_error_is_recorded(tmp_path, monkeypatch):
    # The generator of one law of trial 1's roundtrip yields NaN, so that
    # law never passes the nonvanishing test and its draw runs out of
    # tries; every other entry is the one the campaign gives without it.
    import numpy as np
    from groupident import distributions

    argv = ("verify-shift", "--trials", "3")
    _, clean = run_cli(tmp_path, *argv)
    real = distributions.generators

    class NaNGenerator:
        def random(self, size=None, out=None):
            out[...] = np.nan
            return out

    def generators(seeds):
        return [NaNGenerator() if s == [0, 1, 1] else g
                for s, g in zip(seeds, real(seeds))]

    monkeypatch.setattr(distributions, "generators", generators)
    code, report = run_cli(tmp_path, *argv)
    assert code == 1
    trials = report["body"]["trials"]
    assert [(t["trial"], t["kind"]) for t in trials] == [
        (t, kind) for t in range(3) for kind in ("roundtrip", "adversarial")]
    assert trials[2] == {"trial": 1, "kind": "roundtrip",
                         "error": "no nonvanishing distribution within "
                                  "1000 tries", "ok": False}
    assert all(t["ok"] for i, t in enumerate(trials) if i != 2)
    assert [json.dumps(t, sort_keys=True)
            for i, t in enumerate(trials) if i != 2] == [
        json.dumps(t, sort_keys=True)
        for i, t in enumerate(clean["body"]["trials"]) if i != 2]
    assert report["body"]["counts"] == {"total": 6, "failed": 1}
    assert report["body"]["max_joint_residual"] == max(
        t["joint_residual"] for i, t in enumerate(trials) if i != 2)
    jsonschema.validate(report, load_schema())


@pytest.mark.parametrize("argv", [("--group", "7"),
                                  ("--group", "8x8", "--form", "II")])
def test_verify_shift_reports_phase_timings(tmp_path, argv):
    code, report = run_cli(tmp_path, "verify-shift", *argv, "--trials", "2")
    assert code == 0
    timings = report["timings"]
    assert set(timings) == {"seconds", "draw_s", "joint_residual_s",
                            "shift_recovery_s"}
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    jsonschema.validate(report, load_schema())


@pytest.mark.parametrize("form", ["I", "II"])
def test_verify_gaussian_reports_phase_timings(tmp_path, form):
    code, report = run_cli(tmp_path, "verify-gaussian", "--form", form,
                           "--radius", "40", "--trials", "2")
    assert code == 0
    timings = report["timings"]
    phases = {"synth_s", "ratio_tables_s", "product_equation_s",
              "sum_equation_s", "gaussian_fit_s"}
    assert set(timings) == {"seconds"} | phases
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    assert sum(timings[k] for k in phases) <= timings["seconds"]
    jsonschema.validate(report, load_schema())


def test_invariants_report_phase_timings(tmp_path):
    code, report = run_cli(tmp_path, "invariants", "--groups", "2..4,6x6")
    assert code == 0
    timings = report["timings"]
    assert set(timings) == {"seconds", "endomorphisms_s", "characters_s"}
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    assert (timings["endomorphisms_s"] + timings["characters_s"]
            <= timings["seconds"])
    jsonschema.validate(report, load_schema())


@pytest.mark.parametrize("argv", [
    ("verify-shift", "--trials", "1"),
    ("verify-gaussian", "--trials", "1", "--radius", "20"),
    ("counterexample", "--kind", "poisson-pair"),
    ("invariants", "--groups", "3")])
def test_negative_seed_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --seed must be nonnegative" in err
    assert not out.exists()


def test_poisson_pair_reports_its_sweep_seconds(tmp_path):
    code, report = run_cli(tmp_path, "counterexample", "--kind",
                           "poisson-pair", "--group", "6x6")
    assert code == 0
    timings = report["timings"]
    assert set(timings) == {"seconds", "joint_residual_s"}
    assert 0 <= timings["joint_residual_s"] <= timings["seconds"]
    jsonschema.validate(report, load_schema())


def test_bernstein_reports_its_check_and_character_seconds(tmp_path):
    code, report = run_cli(tmp_path, "counterexample", "--kind",
                           "bernstein", "--group", "6x6")
    assert code == 0
    timings = report["timings"]
    assert set(timings) == {"seconds", "bernstein_check_s", "characters_s"}
    assert 0 <= timings["bernstein_check_s"] + timings["characters_s"] \
        <= timings["seconds"]
    jsonschema.validate(report, load_schema())


@pytest.mark.parametrize("form", ["I", "II"])
@pytest.mark.parametrize("coeffs", ["1,2,3,1/2", "1,2,4,3/2"])
def test_verify_gaussian_large_modulus_ratios(tmp_path, coeffs, form):
    # The ratio moduli reach about 5e8 on this window, where one ulp of an
    # exact ratio exceeds an absolute 1e-8; adversarial trials must still fail.
    code, report = run_cli(tmp_path, "verify-gaussian", "--base", "2,3",
                           "--depth", "1", "--radius", "24", "--coeffs",
                           coeffs, "--form", form, "--trials", "2")
    assert code == 0
    trials = report["body"]["trials"]
    assert [t["verdict"] for t in trials if t["kind"] == "adversarial"] \
        == ["mismatch", "mismatch"]


def test_counterexample_poisson(tmp_path):
    fdir = tmp_path / "fx"
    code, report = run_cli(tmp_path, "counterexample", "--kind",
                           "poisson-pair", "--fixtures", str(fdir))
    assert code == 0
    body = report["body"]
    assert body["joint_residual"] < 1e-12
    assert body["closed_form_deviation"] < 1e-12
    assert body["non_shift_certified"] == [True, True]
    assert len(body["fixtures"]) == 6
    dist = read_distribution(body["fixtures"][0])
    assert dist.group.orders == (6,)
    jsonschema.validate(report, load_schema())


def test_counterexample_kernel(tmp_path):
    code, report = run_cli(tmp_path, "counterexample", "--kind", "kernel-mass")
    assert code == 0
    assert report["body"]["joint_residual"] < 1e-12
    assert report["body"]["verifier_verdict"] == "preconditions-violated"


def test_counterexample_default_tol_is_the_residual_floor(tmp_path):
    """On Z30xZ50 the noise floors exceed 1e-12, so the default tolerance
    is the floor of the residuals compared; an explicit --tol is used as
    given, and the bernstein kind keeps 1e-12."""
    g = Group([30, 50])
    floors = {"poisson-pair": FLOORS["closed_form_deviation"](g, 0.7),
              "kernel-mass": FLOORS["joint_residual"](g)}
    for kind, floor in floors.items():
        assert floor > 1e-12
        code, report = run_cli(tmp_path, "counterexample", "--kind", kind,
                               "--group", "30x50")
        assert code == 0
        assert report["config"]["tol"] == floor
        # No residual is below 0, not even an exact 0.
        code, given = run_cli(tmp_path, "counterexample", "--kind", kind,
                              "--group", "30x50", "--tol", "0")
        assert (code, given["config"]["tol"]) == (1, 0.0)
    code, report = run_cli(tmp_path, "counterexample", "--kind", "bernstein",
                           "--group", "4x6")
    assert code == 0 and report["config"]["tol"] == 1e-12


def test_counterexample_plane(tmp_path):
    code, report = run_cli(tmp_path, "counterexample", "--kind",
                           "plane-gaussian")
    assert code == 0
    assert report["body"]["identity_holds"] is True
    assert report["body"]["all_indefinite"] is True


def test_counterexample_bernstein(tmp_path):
    fdir = tmp_path / "fx"
    code, report = run_cli(tmp_path, "counterexample", "--kind", "bernstein",
                           "--fixtures", str(fdir))
    assert code == 0
    body = report["body"]
    assert body["bernstein_check"] is True
    assert body["is_character"] is False
    assert body["order_two_count"] == 3
    assert body["all_characters_pass_both"] is True
    table = read_table(body["fixtures"][0])
    assert table.domain.orders == (6, 6)


def test_counterexample_bernstein_odd_group_exits_2(capsys):
    assert main(["counterexample", "--kind", "bernstein",
                 "--group", "5x5"]) == 2
    assert "even" in capsys.readouterr().err


def test_counterexample_cannot_construct_exits_2(capsys):
    # trivial kernel: no poisson counterexample available
    assert main(["counterexample", "--kind", "poisson-pair", "--group", "7",
                 "--coeffs", "1,2,3"]) == 2
    assert "cannot construct" in capsys.readouterr().err


def test_kernel_mass_reports_its_verifier_seconds(tmp_path):
    code, report = run_cli(tmp_path, "counterexample", "--kind", "kernel-mass")
    assert code == 0
    timings = report["timings"]
    assert set(timings) == {"seconds", "verifier_s"}
    assert 0 <= timings["verifier_s"] <= timings["seconds"]
    jsonschema.validate(report, load_schema())


def test_invariants_suite(tmp_path):
    code, report = run_cli(tmp_path, "invariants", "--groups", "2..6,2x4")
    assert code == 0
    assert report["body"]["status"] == "pass"
    jsonschema.validate(report, load_schema())


def test_invariants_above_dense_table_gate(tmp_path, monkeypatch):
    # Any dense n x n table on this group raises CapacityError, so the suite
    # must run its adjoint, annihilator and subgroup checks on index
    # arithmetic; its characters pass the root-table certificate over Z_41,
    # so no row of the character table is built and no per-row check runs.
    assert Group([41, 41]).size > TABLE_SIZE_LIMIT

    def refuse(*args):
        raise AssertionError("a dense table or a character row was built")

    monkeypatch.setattr(Group, "pairing_matrix", property(refuse))
    monkeypatch.setattr(Group, "phase_matrix", property(refuse))
    monkeypatch.setattr(Group, "character_rows", refuse)
    for name in ("is_character", "locate_character", "character_defect",
                 "bernstein_check"):
        monkeypatch.setattr(funceq, name, refuse)
    code, report = run_cli(tmp_path, "invariants", "--groups", "41x41")
    assert code == 0
    assert report["body"]["results"] == [
        {"group": [41, 41], "characters_checked": 1681, "violations": []}]


@pytest.mark.parametrize("argv", [("--group", "7"), ("--group", "5x5"),
                                  ("--group", "4x3", "--form", "II"),
                                  ("--group", "7x9", "--form", "II")])
def test_verify_shift_runs_on_index_rows(tmp_path, monkeypatch, argv):
    # The shift recipes, the draw and the verdicts of a campaign run on
    # index arrays: no element arithmetic and no Endo.apply.
    def refuse(*args):
        raise AssertionError("an element operation ran")

    for name in ("add", "neg", "_check"):
        monkeypatch.setattr(Group, name, refuse)
    monkeypatch.setattr(Endo, "apply", refuse)
    code, report = run_cli(tmp_path, "verify-shift", *argv, "--trials", "5")
    assert code == 0
    assert report["body"]["counts"] == {"total": 10, "failed": 0}


def test_invariants_empty_family_exits_2(capsys):
    assert main(["invariants", "--groups", ""]) == 2
    assert "empty" in capsys.readouterr().err


def test_invariants_injected_fault_exits_1(tmp_path):
    code, report = run_cli(tmp_path, "invariants", "--groups", "5,6",
                           "--inject-fault", "adjoint")
    assert code == 1
    assert any("adjoint identity" in v for v in report["body"]["violations"])


@pytest.mark.parametrize("orders", [(5,), (6,), (2, 2, 2, 2), (8, 4, 2)],
                         ids=lambda o: "x".join(map(str, o)))
def test_injected_fault_breaks_each_identity_that_reads_the_adjoint(orders):
    # Every adjoint of the stack has its [0][0] entry moved, so each of the
    # four identities that read it fails; the size product reads no adjoint.
    g = Group(orders)
    assert run_invariant_suite(g, 0, "adjoint")["violations"] == [
        f"{name} on {g!r}" for name in (
            "adjoint identity", "dense-image equivalence", "double adjoint",
            "image/annihilator identity")]


@pytest.mark.parametrize("orders", [(12,), (1, 5), (6, 6), (2, 3, 5),
                                    (8, 4, 2), (2, 2, 2, 2), (100, 100)],
                         ids=lambda o: "x".join(map(str, o)))
def test_suite_draws_its_matrices_entry_by_entry(orders):
    g = Group(orders)
    for seed in (0, 1, 24, 2 ** 64 + 5):
        got = [e.matrix for e in cli._suite_endos(g, seed)]
        assert got[-3:] == suite_matrices_percall(orders, seed)


def test_invariant_suite_checks_the_index_maps_it_reads(monkeypatch):
    # The identity's map sends 1 to 2: no homomorphism, a kernel of one
    # element and an image of four on Z5.
    index_maps = cli.index_maps

    def moved(group, A):
        maps = index_maps(group, A)
        maps[0, 1] = maps[0, 2]
        return maps

    monkeypatch.setattr(cli, "index_maps", moved)
    assert run_invariant_suite(Group([5]), 0)["violations"] == [
        "adjoint identity on Z5", "kernel-image size product on Z5"]


DETERMINISM_ARGVS = {
    "verify-shift-I": ["verify-shift", "--group", "7", "--trials", "3"],
    "verify-shift-II": ["verify-shift", "--group", "5x5", "--form", "II",
                        "--trials", "3"],
    "verify-gaussian-I": ["verify-gaussian", "--radius", "20",
                          "--trials", "1"],
    "verify-gaussian-II": ["verify-gaussian", "--radius", "20", "--form",
                           "II", "--trials", "1"],
    **{kind: ["counterexample", "--kind", kind]
       for kind in ("poisson-pair", "kernel-mass", "plane-gaussian",
                    "bernstein")},
    "invariants": ["invariants", "--groups", "2..6,2x4"],
}


@pytest.mark.parametrize("name", list(DETERMINISM_ARGVS))
def test_report_body_determinism(tmp_path, name):
    argv = [*DETERMINISM_ARGVS[name], "--seed", "11"]
    _, first = run_cli(tmp_path, *argv)
    _, second = run_cli(tmp_path, *argv)
    assert body_bytes(first) == body_bytes(second)
    # every command records its wall time outside the body
    assert first["timings"]["seconds"] > 0


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "r.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "groupident", "verify-shift", "--group", "5",
         "--trials", "2", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["body"]["status"] == "pass"


def test_stdout_report(capsys):
    code = main(["counterexample", "--kind", "plane-gaussian"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "counterexample"


def load_compare_bodies():
    spec = importlib.util.spec_from_file_location("compare_bodies", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bodies_are_the_same_under_x86_64_v2_dispatch():
    # numpy's x86-64-v2 loops round complex products, abs, exp and log
    # apart from its AVX2 and AVX-512 loops; the bodies must not show it.
    tool = load_compare_bodies()
    argvs = [["verify-shift", "--group", "5x5", "--form", "II",
              "--trials", "20", "--seed", "3"],
             ["verify-gaussian", "--radius", "20", "--trials", "2",
              "--seed", "5"],
             ["counterexample", "--kind", "poisson-pair"]]
    v2 = {label: env for label, env, _ in tool.env_settings()}
    native = tool.run_child(SRC.parent, argvs, {}, False)
    assert [code for code, *_ in native] == [0, 0, 0]
    assert tool.run_child(SRC.parent, argvs, v2["x86-64-v2 dispatch"],
                          False) == native


def test_compare_tool_shows_a_changed_config(capsys, monkeypatch):
    # A report whose body is unchanged but whose config moved is DIFFERENT,
    # and the path of the moved config field is printed.
    tool = load_compare_bodies()
    monkeypatch.setattr(tool, "ARGVS", [["counterexample"]])
    body = b'{"status":"pass"}'
    before, after = ((0, body, b'{"kind":"bernstein","tol":%s}' % tol)
                     for tol in (b"1e-12", b"2e-12"))
    assert tool.report([before], [after]) == 1
    out = capsys.readouterr().out
    assert "DIFFERENT" in out and "config.tol 1e-12 -> 2e-12" in out
    assert "body" not in out


def test_compare_tool_restores_the_callers_modules():
    # run_tree imports the package afresh; afterwards the caller's modules,
    # and so its exception classes, are the ones in sys.modules again.
    import groupident.errors

    tool = load_compare_bodies()
    before = sys.modules["groupident.errors"]
    [(code, body, _)] = tool.run_tree(SRC.parent,
                                      [["counterexample", "--kind",
                                        "poisson-pair"]])
    assert code == 0 and body is not None
    assert sys.modules["groupident.errors"] is before
    from groupident.errors import CapacityError
    assert CapacityError is groupident.errors.CapacityError


def test_bodies_are_the_same_on_one_cpu():
    # Natively the joint-law sweeps of these campaigns are cut into one row
    # stripe per CPU; a child pinned to one CPU sweeps them unsplit.
    tool = load_compare_bodies()
    argvs = [["verify-shift", "--group", "1021", "--trials", "1"],
             ["counterexample", "--kind", "poisson-pair", "--group", "30x50"]]
    native = tool.run_child(SRC.parent, argvs, {}, False)
    assert [code for code, *_ in native] == [0, 0]
    assert tool.run_child(SRC.parent, argvs, {}, True) == native

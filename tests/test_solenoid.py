import math
from fractions import Fraction

import numpy as np
import pytest

from groupident.errors import (DomainError, InvalidEndomorphismError,
                               PreconditionError, WindowMarginError)
from groupident.funceq import FunctionTable, bernstein_check, summed_variables
from groupident.solenoid import (SolenoidCharModel, SolenoidEndo,
                                 character_gaussian_values, fit_gaussian_ratio,
                                 form_sigmas, gaussian_table, make_lattice,
                                 phase_solution,
                                 synth_gaussian_instance,
                                 vandermonde_nullspace,
                                 verify_gaussian_form_I,
                                 verify_gaussian_form_II, VERDICT_GAUSSIAN,
                                 VERDICT_MISMATCH, VERDICT_NOT_GAUSSIAN)


def test_make_lattice_examples():
    lat = make_lattice([2, 3, 2], 2, 12)
    assert lat.denominator == 12
    assert lat.points[0] == Fraction(-1) and lat.points[-1] == Fraction(1)
    assert len(lat.points) == 25
    assert make_lattice([5], 0, 3).denominator == 5
    with pytest.raises(WindowMarginError):
        make_lattice([2, 3], 1, 0)
    with pytest.raises(DomainError):
        make_lattice([2, 1], 1, 5)
    with pytest.raises(DomainError):
        make_lattice([2, 3], 5, 5)


def test_lattice_membership():
    lat = make_lattice([2, 3], 1, 10)
    assert lat.contains(Fraction(5, 6))
    assert lat.contains(Fraction(-10, 6))
    assert not lat.contains(Fraction(11, 6))
    assert not lat.contains(Fraction(1, 4))
    assert not lat.contains(0.5)


def test_char_model_compatibility():
    model = SolenoidCharModel.from_finest([2, 3, 5], 2, Fraction(7, 30), 0.2)
    assert model.phases[-1] == Fraction(7, 30)
    # r_k = a_{k+1} r_{k+1} mod 1 along the chain
    assert model.phases[1] == Fraction(5 * 7, 30) % 1
    assert model.phases[0] == Fraction(3 * 5 * 7, 30) % 1
    with pytest.raises(DomainError):
        SolenoidCharModel([2, 3, 5], 2,
                          (Fraction(0), Fraction(0), Fraction(1, 30)))
    with pytest.raises(DomainError):
        SolenoidCharModel.from_finest([2, 3], 1, Fraction(1, 6), -0.1)


def test_character_values_consistent_across_levels():
    base, depth = [4, 3, 5], 2
    model = SolenoidCharModel.from_finest(base, depth, Fraction(11, 60), 0.0)
    lat = make_lattice(base, depth, 70)
    table = gaussian_table(lat, model)
    # value at 1 computed from the finest phase equals the coarse-level value
    D = lat.denominator
    via_finest = table[Fraction(1)]
    via_coarse = np.exp(2j * np.pi * float(model.phases[0] * base[0]))
    assert abs(via_finest - via_coarse) < 1e-12
    # multiplicativity on the window
    for k in (Fraction(1, 60), Fraction(5, 60), Fraction(-9, 60)):
        for l in (Fraction(2, 60), Fraction(30, 60)):
            if lat.contains(k + l):
                assert abs(table[k + l] - table[k] * table[l]) < 1e-12


def test_gaussian_table_examples():
    lat = make_lattice([2], 0, 6)
    flat = gaussian_table(lat, SolenoidCharModel.from_finest([2], 0, Fraction(0)))
    assert np.max(np.abs(flat.values - 1.0)) < 1e-15
    model = SolenoidCharModel.from_finest([2], 0, Fraction(0), 1.0)
    t = gaussian_table(lat, model)
    assert abs(abs(t[Fraction(1, 2)]) - math.exp(-0.25)) < 1e-14
    assert t[Fraction(0)] == 1.0
    assert t.hermitian_defect() < 1e-14


def test_modulus_exponent_parallelogram_identity():
    # (u+v)^2 + (u-v)^2 = 2(u^2 + v^2), exactly in the rationals
    lat = make_lattice([2, 3], 1, 12)
    for u in lat.points:
        for v in lat.points:
            assert (u + v) ** 2 + (u - v) ** 2 == 2 * (u ** 2 + v ** 2)
    # and the fitted exponent of a gaussian table respects it in floats
    model = SolenoidCharModel.from_finest([2, 3], 1, Fraction(1, 6), 0.4)
    t = gaussian_table(lat, model)
    phi = lambda y: -math.log(abs(t[y]))
    for u in lat.points:
        for v in lat.points:
            if lat.contains(u + v) and lat.contains(u - v):
                assert abs(phi(u + v) + phi(u - v)
                           - 2 * (phi(u) + phi(v))) < 1e-12


def test_solenoid_endo_admissibility():
    lat = make_lattice([2, 3, 5], 2, 10)
    e = SolenoidEndo(lat, Fraction(3))
    assert e.apply(Fraction(1, 30)) == Fraction(1, 10)
    with pytest.raises(InvalidEndomorphismError):
        SolenoidEndo(lat, Fraction(0))
    # 1/7 leaves the dual: 7 divides no product of the base
    with pytest.raises(InvalidEndomorphismError):
        SolenoidEndo(lat, Fraction(1, 7))
    # denominators must divide a deeper prefix product of the base
    with pytest.raises(InvalidEndomorphismError):
        SolenoidEndo(lat, Fraction(1, 2))
    deeper = make_lattice([2, 3, 5, 2], 2, 10)
    half = SolenoidEndo(deeper, Fraction(1, 2))
    assert half.apply(Fraction(1, 30)) == Fraction(1, 60)
    assert SolenoidEndo(deeper, Fraction(3, 2)).apply(Fraction(2, 30)) \
        == Fraction(1, 10)


def test_vandermonde_nullspace_values():
    assert vandermonde_nullspace([1, 2, 3, 4]) == (
        Fraction(-1), Fraction(3), Fraction(-3), Fraction(1))
    assert vandermonde_nullspace([1, 2, 3]) == (
        Fraction(-1), Fraction(2), Fraction(-1))
    with pytest.raises(DomainError):
        vandermonde_nullspace([1, 1, 2])
    # membership in the nullspace of the power rows, exact
    for bs in ([0, 1, 2, 3], [Fraction(1, 2), 1, 2, 5], [2, 3, 7]):
        c = vandermonde_nullspace(bs)
        n = len(bs)
        for k in range(n - 1):
            assert sum(ci * Fraction(b) ** k for ci, b in zip(c, bs)) == 0


def test_fit_gaussian_ratio_roundtrip():
    lat = make_lattice([2, 3, 5], 2, 60)
    f = character_gaussian_values(lat, Fraction(4, 30), 0.35)
    fit = fit_gaussian_ratio(f)
    assert abs(fit.sigma - 0.35) < 1e-9
    assert fit.modulus_residual < 1e-12
    assert fit.phase_is_character
    assert fit.ok


def test_fit_gaussian_ratio_trivial_and_negative_rate():
    lat = make_lattice([2, 3], 1, 24)
    ones = FunctionTable.constant(lat)
    fit = fit_gaussian_ratio(ones)
    assert fit.sigma == 0.0 and fit.ok
    growing = character_gaussian_values(lat, Fraction(0), -0.2)
    fit = fit_gaussian_ratio(growing)
    assert abs(fit.sigma + 0.2) < 1e-9 and fit.ok


def test_fit_gaussian_ratio_rejects_quartic():
    lat = make_lattice([2, 3, 5], 2, 60)
    f = FunctionTable.from_function(
        lat, lambda y: math.exp(-float(y) ** 4))
    fit = fit_gaussian_ratio(f)
    assert not fit.ok
    assert fit.modulus_residual > 1e-3


def test_fit_gaussian_ratio_deterministic():
    lat = make_lattice([2, 3, 5], 2, 40)
    f = character_gaussian_values(lat, Fraction(7, 30), 0.123)
    a = fit_gaussian_ratio(f)
    b = fit_gaussian_ratio(f)
    assert a.sigma == b.sigma


def test_fit_gaussian_ratio_margin():
    lat = make_lattice([2], 0, 2)
    f = FunctionTable.constant(lat)
    with pytest.raises(WindowMarginError):
        fit_gaussian_ratio(f)


def test_phase_solutions_exact():
    bs = [Fraction(b) for b in (1, 2, 3, 4)]
    rs = phase_solution(summed_variables("I", 4), bs, Fraction(1, 7),
                        Fraction(2, 7))
    assert sum(rs) == 0
    assert sum(r * b for r, b in zip(rs, bs)) == 0
    rs2 = phase_solution(summed_variables("II", 4), bs, Fraction(1, 5),
                         Fraction(1, 3))
    assert sum(rs2[:3]) == 0
    assert sum(r * b for r, b in zip(rs2, bs)) == 0


def test_form_sigmas_power_sums():
    for form in ("I", "II"):
        sig = form_sigmas([1, 2, 3, 4], 0.2, form)
        if form == "I":
            for k in range(3):
                assert abs(sum(s * b ** k for s, b in zip(sig, (1, 2, 3, 4)))) < 1e-12
        else:
            assert abs(sum(sig[:3])) < 1e-12
            assert abs(sum(s * b for s, b in zip(sig[:3], (1, 2, 3)))) < 1e-12
            assert abs(sum(s * b ** 2 for s, b in zip(sig, (1, 2, 3, 4)))) < 1e-12


def test_verify_form_I_roundtrip():
    lat = make_lattice([2, 3, 5], 2, 60)
    mus, nus, sigmas, _ = synth_gaussian_instance(lat, [1, 2, 3, 4], 123, "I")
    report = verify_gaussian_form_I([1, 2, 3, 4], mus, nus)
    assert report.verdict == VERDICT_GAUSSIAN
    assert report.equation_defect < 1e-10
    for fit, sig in zip(report.fits, sigmas):
        assert abs(fit.sigma - sig) < 1e-9
        assert fit.phase_is_character
    assert report.degree_report.degrees == (2, 2, 2, 2)
    assert max(report.sigma_sums) < 1e-8


def test_verify_form_I_all_ones_tables():
    lat = make_lattice([2, 3, 5], 2, 40)
    ones = [FunctionTable.constant(lat) for _ in range(4)]
    report = verify_gaussian_form_I([1, 2, 3, 4], ones, list(ones))
    assert report.verdict == VERDICT_GAUSSIAN
    assert all(fit.sigma == 0.0 for fit in report.fits)


def test_verify_form_I_rejects_non_quadratic_modulus():
    lat = make_lattice([2, 3, 5], 2, 60)
    mus, nus, _, _ = synth_gaussian_instance(lat, [1, 2, 3, 4], 5, "I")
    quartic = np.array([math.exp(-0.5 * float(p) ** 4) for p in lat.points])
    nus[0] = FunctionTable(lat, lat.points, nus[0].values * quartic)
    report = verify_gaussian_form_I([1, 2, 3, 4], mus, nus)
    assert report.verdict != VERDICT_GAUSSIAN
    assert any("factor 1" in f for f in report.failures) or report.failures


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_equation_defect_is_a_mismatch():
    # An infinite value passes the nonvanishing and ratio tests, and its
    # product-equation defect is NaN, which is not within the tolerance.
    lat = make_lattice([2, 3, 5], 2, 60)
    mus, nus, _, _ = synth_gaussian_instance(lat, [1, 2, 3, 4], 5, "I")
    vals = nus[0].values.copy()
    vals[5] = np.inf
    nus[0] = FunctionTable(lat, lat.points, vals)
    report = verify_gaussian_form_I([1, 2, 3, 4], mus, nus)
    assert math.isnan(report.equation_defect)
    assert report.verdict == VERDICT_MISMATCH
    assert "product equation defect nan" in report.failures


def test_verify_form_I_preconditions():
    lat = make_lattice([2, 3, 5], 2, 30)
    ones = [FunctionTable.constant(lat) for _ in range(4)]
    with pytest.raises(PreconditionError):
        verify_gaussian_form_I([1, 1, 3, 4], ones, list(ones))
    vanishing = FunctionTable(lat, lat.points,
                              np.zeros(len(lat.points), dtype=complex))
    with pytest.raises(PreconditionError):
        verify_gaussian_form_I([1, 2, 3, 4], [vanishing] + ones[1:], ones)


def test_verify_form_II_roundtrip_and_preconditions():
    lat = make_lattice([2, 3, 5], 2, 60)
    mus, nus, sigmas, _ = synth_gaussian_instance(lat, [2, 3, 5, 1], 9, "II")
    report = verify_gaussian_form_II([2, 3, 5, 1], mus, nus)
    assert report.verdict == VERDICT_GAUSSIAN
    for fit, sig in zip(report.fits, sigmas):
        assert abs(fit.sigma - sig) < 1e-9
    assert report.degree_report.degrees == (2, 2, 2)
    assert report.extra_degree == 2
    ones = [FunctionTable.constant(lat) for _ in range(4)]
    with pytest.raises(PreconditionError):
        verify_gaussian_form_II([1, 2, 3, 0], ones, list(ones))


def test_verify_form_II_kotlarski_like_preset():
    lat = make_lattice([2, 3, 5], 2, 60)
    mus, nus, sigmas, _ = synth_gaussian_instance(lat, [0, 2, 3, 1], 31, "II")
    report = verify_gaussian_form_II([0, 2, 3, 1], mus, nus)
    assert report.verdict == VERDICT_GAUSSIAN


def test_degenerate_window_margin_error():
    lat = make_lattice([2, 3, 5], 2, 3)
    mus, nus, _, _ = synth_gaussian_instance(lat, [1, 2, 3, 4], 1, "I")
    with pytest.raises(WindowMarginError):
        verify_gaussian_form_I([1, 2, 3, 4], mus, nus)


def test_phase_parts_pass_bernstein():
    lat = make_lattice([2, 3, 5], 2, 30)
    mus, nus, _, _ = synth_gaussian_instance(lat, [1, 2, 3, 4], 55, "I")
    for mu, nu in zip(mus, nus):
        phase = nu.ratio(mu).phase_part()
        assert bernstein_check(phase, tol=1e-8)


def test_rational_coefficient_path():
    # a non-integer coefficient restricts the usable v grid but still verifies
    lat = make_lattice([2, 3, 5, 2], 2, 60)
    bs = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
    mus, nus, sigmas, _ = synth_gaussian_instance(lat, bs, 77, "I")
    report = verify_gaussian_form_I(bs, mus, nus)
    assert report.verdict == VERDICT_GAUSSIAN
    for fit, sig in zip(report.fits, sigmas):
        assert abs(fit.sigma - sig) < 1e-8

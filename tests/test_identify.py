from fractions import Fraction

import numpy as np
import pytest

from groupident import (Distribution, Endo, Group, LinearFormSpec,
                        joint_char_array, kernel_counterexample,
                        kotlarski_coeffs, plane_gaussian_counterexample,
                        poisson_closed_form_array, poisson_counterexample,
                        recover_shift, verify_form_I, verify_form_II,
                        verify_pair_uniqueness)
from groupident import consistent_shifts
from groupident.errors import ConstructionError, PreconditionError
from groupident.funceq import (FunctionTable, ProductEquation, _coeff_diff,
                               extract_character, summed_variables)
from groupident.identify import (VERDICT_MISMATCH, VERDICT_PRECONDITIONS,
                                 VERDICT_SHIFT, VERDICT_UNIQUE,
                                 consistent_shift_rows)
from oracles import consistent_shifts_percall


def scalar_endos(g, cs):
    return [Endo.scalar(g, c) for c in cs]


def test_recover_shift_examples():
    g = Group([7])
    mu = Distribution.random(g, 1, 0.2)
    assert recover_shift(mu, mu) == g.zero
    x = g.element([4])
    assert recover_shift(mu, mu.shift(x)) == x


def test_recover_shift_poisson_pair_is_none():
    g = Group([6])
    x0 = g.element([3])
    mu = Distribution.poisson(g, 0.7, x0)
    nu = Distribution.poisson(g, 3 * 0.7, x0)
    assert recover_shift(mu, nu) is None


def test_form_I_roundtrip_on_z7():
    g = Group([7])
    bs = scalar_endos(g, (1, 2, 3))
    for seed in range(10):
        mus = [Distribution.random(g, [seed, j], 0.2) for j in range(3)]
        rng = np.random.default_rng([seed, 50])
        x1 = g.element_at(int(rng.integers(0, g.size)))
        shifts = consistent_shifts(bs, "I", x1)
        nus = [m.shift(x) for m, x in zip(mus, shifts)]
        report = verify_form_I(bs, mus, nus)
        assert report.verdict == VERDICT_SHIFT
        assert report.shifts == shifts
        assert max(report.reconstruction_tv) < 1e-8


# Each form solves through b2 - b3 (I) or b3 (II); of these coefficient
# triples, each is bijective on some of the groups and not on others.
RECIPE_COEFFS = [(0, 1, 2), (1, 3, 2), (0, 1, 1)]


@pytest.mark.parametrize("form", ["I", "II"])
@pytest.mark.parametrize("orders", [(7,), (4, 3), (5, 5)])
def test_shift_rows_equal_the_element_recipe_on_every_element(orders, form):
    """The rows of every element at once, the element wrapper and the
    per-element recipe by scans agree, shifts and error strings alike."""
    g = Group(orders)
    for cs in RECIPE_COEFFS:
        bs = scalar_endos(g, cs)
        rows, errors = consistent_shift_rows(bs, form, g.every)
        assert rows.shape == (g.size, 3) and len(errors) == g.size
        for x, row, error in zip(g.points, rows, errors):
            if error is None:
                shifts = g.points_at(row)
                assert consistent_shifts(bs, form, x) == shifts
                assert consistent_shifts_percall(bs, form, x.coords) == tuple(
                    y.coords for y in shifts)
                continue
            assert isinstance(error, PreconditionError)
            assert row.tolist() == [g.index(x), -1, -1]
            for recipe, point in ((consistent_shifts, x),
                                  (consistent_shifts_percall, x.coords)):
                with pytest.raises(PreconditionError) as raised:
                    recipe(bs, form, point)
                assert str(raised.value) == str(error)


@pytest.mark.parametrize("form", ["I", "II"])
@pytest.mark.parametrize("orders", [(7,), (4, 3), (5, 5)])
def test_shift_rows_leave_both_forms_at_zero(orders, form):
    g = Group(orders)
    solved = 0
    for cs in RECIPE_COEFFS:
        bs = scalar_endos(g, cs)
        rows, errors = consistent_shift_rows(bs, form, g.every)
        rows = rows[[e is None for e in errors]]
        solved += len(rows)
        spec = LinearFormSpec.of(summed_variables(form, 3), bs)
        for coeffs in (spec.coeffs1, spec.coeffs2):
            total = np.zeros(len(rows), dtype=np.int64)
            for c, x in zip(coeffs, rows.T):
                total = g.add_idx(total, c.index_map[x])
            assert not total.any(), cs
    assert solved >= g.size


def test_form_I_identical_inputs_gives_zero_shifts():
    g = Group([5])
    bs = scalar_endos(g, (0, 1, 2))
    mus = [Distribution.random(g, [3, j], 0.2) for j in range(3)]
    report = verify_form_I(bs, mus, list(mus))
    assert report.verdict == VERDICT_SHIFT
    assert all(x == g.zero for x in report.shifts)


def test_form_I_poisson_counterexample_flags_preconditions():
    g = Group([6])
    bs = scalar_endos(g, (1, 3, 2))
    mu3 = Distribution.random(g, 9, 0.2)
    mus, nus = poisson_counterexample(bs, 0.7, mu3)
    report = verify_form_I(bs, mus, nus)
    assert report.verdict == VERDICT_PRECONDITIONS
    assert report.shifts is None
    assert report.joint_residual < 1e-12
    closed = poisson_closed_form_array(bs, 0.7, mu3)
    lhs = joint_char_array(LinearFormSpec.form_I(bs), mus)
    assert np.max(np.abs(lhs - closed)) < 1e-12


def test_form_II_kotlarski_roundtrip():
    g = Group([4, 3])
    bs = list(kotlarski_coeffs(g))
    for seed in range(10):
        mus = [Distribution.random(g, [seed, 20 + j], 0.2) for j in range(3)]
        rng = np.random.default_rng([seed, 51])
        x1 = g.element_at(int(rng.integers(0, g.size)))
        shifts = consistent_shifts(bs, "II", x1)
        nus = [m.shift(x) for m, x in zip(mus, shifts)]
        report = verify_form_II(bs, mus, nus)
        assert report.verdict == VERDICT_SHIFT
        assert report.shifts == shifts


def test_form_II_kernel_counterexample():
    g = Group([6])
    bs = scalar_endos(g, (1, 2, 2))  # ker(b3) = {0, 3}
    mus, nus = kernel_counterexample(bs)
    report = verify_form_II(bs, mus, nus)
    assert report.verdict == VERDICT_PRECONDITIONS
    assert report.joint_residual < 1e-12
    assert recover_shift(mus[2], nus[2]) is None
    # the third characteristic functions equal 1 along the adjoint image
    b3adj = bs[2].adjoint()
    for y in g.elements():
        z = b3adj.apply(y)
        assert abs(mus[2].char_array[g.index(z)] - 1.0) < 1e-12
        assert abs(nus[2].char_array[g.index(z)] - 1.0) < 1e-12


def test_kernel_counterexample_other_group():
    g = Group([4])
    bs = scalar_endos(g, (1, 2, 2))
    mus, nus = kernel_counterexample(bs)
    report = verify_form_II(bs, mus, nus)
    assert report.verdict == VERDICT_PRECONDITIONS
    assert report.joint_residual < 1e-12


def test_pair_uniqueness_roundtrip_and_mismatch():
    g = Group([7])
    b1, b2 = Endo.scalar(g, 1), Endo.scalar(g, 2)
    mus = [Distribution.random(g, [5, j], 0.2) for j in range(2)]
    report = verify_pair_uniqueness(b1, b2, mus, list(mus))
    assert report.verdict == VERDICT_UNIQUE
    assert max(report.reconstruction_tv) < 1e-8
    shifted = [mus[0].shift(g.element([3])), mus[1]]
    report = verify_pair_uniqueness(b1, b2, mus, shifted)
    assert report.verdict == VERDICT_MISMATCH


def test_pair_uniqueness_kernel_violation_with_equal_joints():
    g = Group([6])
    b1, b2 = Endo.scalar(g, 1), Endo.scalar(g, 3)  # ker(b1-b2) = {0, 3}
    mus, nus = poisson_counterexample([b1, b2], 0.5)
    report = verify_pair_uniqueness(b1, b2, mus, nus)
    assert report.verdict == VERDICT_PRECONDITIONS
    assert report.joint_residual < 1e-12
    assert recover_shift(mus[0], nus[0]) is None


def test_poisson_counterexample_validation():
    g = Group([6])
    bs = scalar_endos(g, (1, 3, 2))
    with pytest.raises(ConstructionError):
        poisson_counterexample(bs, 0.0, Distribution.uniform(g))
    with pytest.raises(ConstructionError):
        poisson_counterexample(scalar_endos(g, (1, 2, 3)), 0.5,
                               Distribution.uniform(g))
    with pytest.raises(ConstructionError):
        poisson_counterexample(bs, 0.5)  # arity 3 needs mu_rest
    mu3 = Distribution.random(g, 2, 0.2)
    mus, nus = poisson_counterexample(bs, 0.5, mu3)
    assert mus[2] is mu3 and nus[2] is mu3


def test_proof_consistency_shifts_match_extracted_characters():
    g = Group([9])
    bs = scalar_endos(g, (0, 1, 2))
    mus = [Distribution.random(g, [8, j], 0.2) for j in range(3)]
    shifts = consistent_shifts(bs, "I", g.element([4]))
    nus = [m.shift(x) for m, x in zip(mus, shifts)]
    report = verify_form_I(bs, mus, nus)
    assert report.verdict == VERDICT_SHIFT
    fs = [FunctionTable(g, g.elements(), nu.char_array / mu.char_array)
          for mu, nu in zip(mus, nus)]
    eq = ProductEquation(tuple((f, b.adjoint()) for f, b in zip(fs, bs)))
    verdicts = extract_character(eq)
    assert tuple(v.located for v in verdicts) == report.shifts


def test_vanishing_inputs_flagged():
    g = Group([2])
    bs = scalar_endos(g, (0, 1, 1))
    uniform = Distribution.uniform(g)  # char vanishes at y=1
    mus = [uniform] * 3
    report = verify_form_II(bs, mus, mus)
    assert report.verdict == VERDICT_PRECONDITIONS
    assert not report.preconditions["nonvanishing"]


def test_plane_gaussian_certificate():
    cert = plane_gaussian_counterexample()
    assert cert.identity_holds
    assert cert.all_indefinite
    assert cert.ok
    # stated coefficient values, exact
    assert cert.lhs_total[0][0] == 16  # u1^2
    assert cert.lhs_total[1][1] == 16  # u2^2
    assert cert.lhs_total[2][2] == 120  # v1^2
    assert cert.lhs_total[3][3] == 120  # v2^2
    assert cert.lhs_total[0][2] * 2 == 80  # u1 v1 coefficient
    assert cert.rhs_total[0][2] * 2 == 80
    assert cert.lhs_total[1][3] * 2 == -80  # u2 v2 coefficient
    # first difference form is diag(-1, 1)
    assert cert.difference_forms[0] == ((-1, 0), (0, 1))


def test_plane_gaussian_random_point_oracle():
    # evaluate both exponent sums at exact rational points, no matrices
    F = Fraction
    mu_c = [(F(4), F(4))] * 4
    nu_c = [(F(3), F(5)), (F(7), F(1)), (F(1), F(7)), (F(5), F(3))]
    rng = np.random.default_rng(77)
    for _ in range(25):
        u1, u2, v1, v2 = (F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                          for _ in range(4))
        lhs = sum(c1 * (u1 + j * v1) ** 2 + c2 * (u2 - j * v2) ** 2
                  for (c1, c2), j in zip(mu_c, (1, 2, 3, 4)))
        rhs = sum(c1 * (u1 + j * v1) ** 2 + c2 * (u2 - j * v2) ** 2
                  for (c1, c2), j in zip(nu_c, (1, 2, 3, 4)))
        assert lhs == rhs


def test_report_serialization():
    g = Group([5])
    bs = scalar_endos(g, (1, 2, 3))
    mus = [Distribution.random(g, [4, j], 0.2) for j in range(3)]
    report = verify_form_I(bs, mus, list(mus))
    d = report.to_json_dict()
    assert d["verdict"] == VERDICT_SHIFT
    assert d["shifts"] == [[0]] * 3
    assert set(d["preconditions"]) == {
        "ker(b1-b2)=0", "ker(b1-b3)=0", "ker(b2-b3)=0", "nonvanishing"}


def test_kernel_conditions_are_computed_once_per_coefficient_tuple():
    """Each coefficient difference is built once, keyed by value, and no
    report shares its preconditions with a later one."""
    g = Group([7])
    mus = [Distribution.random(g, [3, j], 0.2) for j in range(3)]
    _coeff_diff.cache_clear()
    first = verify_form_I(scalar_endos(g, (0, 1, 2)), mus, mus)
    first.preconditions["ker(b1-b2)=0"] = False
    second = verify_form_I(scalar_endos(g, (0, 1, 2)), mus, mus)
    info = _coeff_diff.cache_info()
    assert (info.hits, info.misses) == (3, 3)
    assert second.preconditions == {"ker(b1-b2)=0": True,
                                    "ker(b1-b3)=0": True,
                                    "ker(b2-b3)=0": True,
                                    "nonvanishing": True}
    assert second.verdict == VERDICT_SHIFT

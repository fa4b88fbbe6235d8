import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupident import (Distribution, Endo, Group, ProductEquation,
                        bernstein_check, character_defect, diff, eliminate,
                        extract_character, is_character, is_polynomial,
                        least_degree, locate_character, ratio_diff,
                        shifted_sum_degrees)
from groupident import bernstein_square_table, consistent_shifts
from groupident import (verify_form_I, verify_form_II,
                        verify_gaussian_form_I, verify_gaussian_form_II,
                        verify_pair_uniqueness)
from groupident.errors import (DomainError, PreconditionError,
                               VanishingFactorError, WindowMarginError)
from groupident.funceq import (FunctionTable, kernel_conditions,
                               summed_variables)
from groupident.identify import VERDICT_PRECONDITIONS
from groupident.solenoid import make_lattice


def character_table(g, x):
    return FunctionTable(g, g.elements(), g.pairing_matrix[g.index(x)])


def lattice_table(lat, fn):
    return FunctionTable.from_function(lat, fn)


def test_diff_constant_is_zero():
    g = Group([5])
    f = FunctionTable.constant(g, 2.5)
    d = diff(f, g.element([2]))
    assert np.max(np.abs(d.values)) == 0.0


def test_diff_character_identity():
    g = Group([7])
    f = character_table(g, g.element([3]))
    for h in g.elements():
        d = diff(f, h)
        expected = np.array([f[y] * (f[h] - 1.0) for y in d.points])
        assert np.max(np.abs(d.values - expected)) < 1e-12


def test_diff_square_on_lattice():
    lat = make_lattice([2, 3], 1, 20)
    f = lattice_table(lat, lambda y: float(y) ** 2)
    h = Fraction(1, 6)
    dd = diff(diff(f, h), h)
    assert np.max(np.abs(dd.values - 2 * float(h) ** 2)) < 1e-14


def test_diff_window_margin_error():
    lat = make_lattice([2], 0, 2)
    f = lattice_table(lat, lambda y: 1.0)
    with pytest.raises(DomainError):  # a step outside the window
        diff(f, Fraction(5, 2))
    with pytest.raises(DomainError):  # the ends alone are no progression
        FunctionTable(lat, (Fraction(-1), Fraction(1)), [1.0, 1.0])
    ends = FunctionTable(lat, (Fraction(-1), Fraction(0), Fraction(1)),
                         [1.0, 1.0, 1.0])
    with pytest.raises(WindowMarginError):
        diff(ends, Fraction(1, 2))


def test_diff_rejects_foreign_step_on_group():
    g = Group([5])
    f = FunctionTable.constant(g)
    with pytest.raises(DomainError):
        diff(f, Group([7]).element([6]))  # coordinate out of range for Z5


def test_ratio_diff_matches_diff_of_log():
    lat = make_lattice([3], 0, 9)
    f = lattice_table(lat, lambda y: np.exp(-0.3 * float(y) ** 2))
    h = Fraction(1, 3)
    r = ratio_diff(f, h)
    expected = np.array([f[p + h] / f[p] for p in r.points])
    assert np.max(np.abs(r.values - expected)) < 1e-14


def test_is_polynomial_finite_group_forces_constants():
    # nilpotency of every difference operator holds only for constants
    for p in (2, 3, 5, 7):
        g = Group([p])
        const = FunctionTable.constant(g, 3.0)
        assert is_polynomial(const, 0)
        for x in g.elements():
            if x == g.zero:
                continue
            char = character_table(g, x)
            delta = FunctionTable.from_function(
                g, lambda y, x=x: 1.0 if y == x else 0.0)
            for n in range(p + 1):
                assert not is_polynomial(char, n)
                assert not is_polynomial(delta, n)


def test_is_polynomial_square_on_window():
    lat = make_lattice([2, 3], 1, 30)
    f = lattice_table(lat, lambda y: 0.7 * float(y) ** 2)
    assert is_polynomial(f, 2)
    assert not is_polynomial(f, 1)
    assert least_degree(f, 3) == 2


def test_is_polynomial_margin_error():
    lat = make_lattice([2], 0, 2)
    f = lattice_table(lat, lambda y: float(y))
    with pytest.raises(WindowMarginError):
        is_polynomial(f, 5)


def test_is_character_examples():
    g = Group([6])
    x = g.element([2])
    assert is_character(character_table(g, x))
    assert locate_character(character_table(g, x)) == x
    ones = FunctionTable.constant(g)
    assert is_character(ones)
    assert locate_character(ones) == g.zero


def test_bernstein_square_table_is_not_character():
    g = Group([6, 6])
    t = bernstein_square_table(g)
    # g((1,0) + (0,1)) = -1 while g(1,0) g(0,1) = 1
    assert t[g.element([1, 1])] == -1.0
    assert t[g.element([1, 0])] * t[g.element([0, 1])] == 1.0
    assert not is_character(t)
    assert character_defect(t) >= 2.0 - 1e-12


def test_bernstein_check_on_characters_and_square_table():
    g = Group([6, 6])
    for x in (g.zero, g.element([1, 0]), g.element([2, 3]), g.element([5, 5])):
        assert bernstein_check(character_table(g, x))
    t = bernstein_square_table(g)
    assert bernstein_check(t, tol=1e-12)
    # exhaustive residual oracle over all 36^2 pairs
    worst = 0.0
    for u in g.elements():
        for v in g.elements():
            lhs = t[g.add(u, v)] * t[g.add(u, g.neg(v))]
            worst = max(worst, abs(lhs - t[u] ** 2))
    assert worst < 1e-12


def test_bernstein_check_rejects_modulus_defect():
    g = Group([5])
    vals = np.ones(5, dtype=complex)
    vals[2] = 0.5
    assert not bernstein_check(FunctionTable(g, g.elements(), vals))


def shift_ratio_equation(g, cs, x1):
    bs = [Endo.scalar(g, c) for c in cs]
    shifts = consistent_shifts(bs, "I", x1)
    fs = [character_table(g, x) for x in shifts]
    betas = [b.adjoint() for b in bs]
    return ProductEquation(tuple(zip(fs, betas))), shifts


def test_eliminate_cascade_residual():
    g = Group([7])
    eq, _ = shift_ratio_equation(g, (1, 2, 3), g.element([4]))
    assert eq.residual_defect() < 1e-10
    k1, k2 = g.element([1]), g.element([5])
    once = eliminate(eq, 0, k1)
    assert once.residual_defect() < 1e-10
    twice = eliminate(once, 0, k2)
    assert twice.residual_defect() < 1e-10


def test_eliminate_identity_step():
    g = Group([7])
    eq, _ = shift_ratio_equation(g, (1, 2, 3), g.element([4]))
    assert eliminate(eq, 0, g.zero) is eq


def test_eliminate_preserves_defect():
    g = Group([7])
    eq, shifts = shift_ratio_equation(g, (1, 2, 3), g.element([2]))
    # perturb the first factor so the residual is a known non-unit function
    bump = np.ones(g.size, dtype=complex)
    bump[3] = 1.2
    tables = [f for f, _ in eq.factors]
    betas = [b for _, b in eq.factors]
    perturbed = ProductEquation((
        (FunctionTable(g, g.elements(), tables[0].values * bump), betas[0]),
        (tables[1], betas[1]), (tables[2], betas[2])))

    def residual(equation, u, v):
        prod = 1.0 + 0j
        for f, b in equation.factors:
            prod *= f[g.add(u, b.apply(v))]
        return prod

    k = g.element([3])
    reduced = eliminate(perturbed, 0, k)
    h = g.neg(betas[0].apply(k))
    for u in g.elements():
        for v in g.elements():
            expected = (residual(perturbed, g.add(u, h), g.add(v, k))
                        / residual(perturbed, u, v))
            assert abs(residual(reduced, u, v) - expected) < 1e-10


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_elimination_soundness_randomized(seed):
    rng = np.random.default_rng(seed)
    g = Group([int(rng.integers(3, 9))])
    cs = (1, 2, 3)
    x1 = g.element_at(int(rng.integers(0, g.size)))
    try:
        eq, _ = shift_ratio_equation(g, cs, x1)
    except Exception:
        return  # difference not invertible on this group; nothing to test
    k = g.element_at(int(rng.integers(0, g.size)))
    reduced = eliminate(eq, int(rng.integers(0, 3)), k)
    assert reduced.residual_defect() < 1e-9


def test_extract_character_roundtrip_verdicts():
    g = Group([7])
    eq, shifts = shift_ratio_equation(g, (1, 2, 3), g.element([5]))
    verdicts = extract_character(eq)
    assert all(v.is_char for v in verdicts)
    assert tuple(v.located for v in verdicts) == shifts
    assert all(v.cascade_defect < 1e-9 for v in verdicts)


def test_extract_character_with_distribution_ratios():
    g = Group([7])
    bs = [Endo.scalar(g, c) for c in (1, 2, 3)]
    mus = [Distribution.random(g, [61, j], 0.2) for j in range(3)]
    shifts = consistent_shifts(bs, "I", g.element([2]))
    nus = [m.shift(x) for m, x in zip(mus, shifts)]
    fs = [FunctionTable(g, g.elements(), nu.char_array / mu.char_array)
          for mu, nu in zip(mus, nus)]
    eq = ProductEquation(tuple((f, b.adjoint()) for f, b in zip(fs, bs)))
    verdicts = extract_character(eq)
    assert all(v.is_char for v in verdicts)
    assert tuple(v.located for v in verdicts) == shifts


def test_extract_character_precondition_error():
    g = Group([6])
    bs = [Endo.scalar(g, c) for c in (1, 3, 2)]  # ker(b1-b2) = {0, 3}
    fs = [FunctionTable.constant(g) for _ in range(3)]
    eq = ProductEquation(tuple((f, b.adjoint()) for f, b in zip(fs, bs)))
    with pytest.raises(PreconditionError):
        extract_character(eq)


PAIRS_OF_4 = ["ker(b1-b2)=0", "ker(b1-b3)=0", "ker(b1-b4)=0",
              "ker(b2-b3)=0", "ker(b2-b4)=0", "ker(b3-b4)=0"]


@pytest.mark.parametrize("verify, form, good, bad, labels, broken", [
    (verify_form_I, "I", (1, 2, 3), (1, 2, 2),
     ["ker(b1-b2)=0", "ker(b1-b3)=0", "ker(b2-b3)=0"], "ker(b2-b3)=0"),
    (verify_form_II, "II", (0, 1, 1), (0, 1, 0),
     ["ker(b1-b2)=0", "ker(b3)=0"], "ker(b3)=0"),
    (lambda bs, mus, nus: verify_pair_uniqueness(*bs, mus, nus), "I",
     (1, 2), (2, 2), ["ker(b1-b2)=0"], "ker(b1-b2)=0"),
    (verify_gaussian_form_I, "I", (1, 2, 3, 4), (1, 2, 3, 3), PAIRS_OF_4,
     "ker(b3-b4)=0"),
    (verify_gaussian_form_II, "II", (1, 2, 3, 4), (1, 2, 3, 0),
     PAIRS_OF_4[:2] + ["ker(b2-b3)=0", "ker(b4)=0"], "ker(b4)=0"),
], ids=["form-I", "form-II", "pair", "gaussian-I", "gaussian-II"])
def test_kernel_conditions(verify, form, good, bad, labels, broken):
    summed = summed_variables(form, len(good))
    if len(good) == 4:
        # rational multipliers on a window: a kernel is trivial iff nonzero
        assert list(kernel_conditions(summed, good)) == labels
        assert all(kernel_conditions(summed, good).values())
        assert not kernel_conditions(summed, bad)[broken]
        ones = [FunctionTable.constant(make_lattice([2, 3, 5], 2, 30))] * 4
        verify(good, ones, ones)
        with pytest.raises(PreconditionError, match=re.escape(broken)):
            verify(bad, ones, ones)
        return
    g = Group([7])
    mus = [Distribution.random(g, [1, j], 0.2) for j in range(len(good))]
    ok = verify([Endo.scalar(g, c) for c in good], mus, mus)
    assert list(ok.preconditions) == labels + ["nonvanishing"]
    assert all(ok.preconditions.values())
    report = verify([Endo.scalar(g, c) for c in bad], mus, mus)
    assert report.verdict == VERDICT_PRECONDITIONS
    assert [k for k, v in report.preconditions.items() if not v] == [broken]


def test_extract_character_on_window_phases():
    lat = make_lattice([2, 3, 5], 2, 60)
    from groupident.solenoid import phase_solution, character_gaussian_values
    bs = [Fraction(c) for c in (1, 2, 3, 4)]
    phases = phase_solution((True,) * 4, bs, Fraction(1, 5), Fraction(2, 15))
    fs = [character_gaussian_values(lat, r, 0.0) for r in phases]
    eq = ProductEquation(tuple(zip(fs, bs)))
    assert eq.residual_defect() < 1e-10
    verdicts = extract_character(eq, tol=1e-8)
    assert all(v.is_char for v in verdicts)
    assert all(v.located is None for v in verdicts)


def test_eliminate_vanishing_factor():
    g = Group([4])
    vals = np.ones(4, dtype=complex)
    vals[2] = 0.0
    f = FunctionTable(g, g.elements(), vals)
    eq = ProductEquation(((f, Endo.identity(g)),
                          (FunctionTable.constant(g), Endo.scalar(g, 3))))
    with pytest.raises(VanishingFactorError):
        eliminate(eq, 1, g.element([1]))


from oracles import rational_rref_nullspace


def test_shifted_sum_degrees_vandermonde_instance():
    bs = [Fraction(b) for b in (1, 2, 3, 4)]
    rows = [[b ** k for b in bs] for k in range(3)]
    basis = rational_rref_nullspace(rows)
    assert len(basis) == 1
    sigma = basis[0]
    # scale so the last entry is 1; the span must match (-1, 3, -3, 1)
    sigma = [s / sigma[-1] for s in sigma]
    assert sigma == [Fraction(-1), Fraction(3), Fraction(-3), Fraction(1)]

    lat = make_lattice([2, 3, 5], 2, 60)
    psis = [FunctionTable.from_function(
        lat, lambda y, s=s: float(s) * float(y) ** 2) for s in sigma]
    report = shifted_sum_degrees(psis, bs, None, tol=1e-10)
    assert report.equation_defect < 1e-10
    assert report.rhs_is_zero
    assert report.bound == 2
    assert report.degrees == (2, 2, 2, 2)
    assert report.within_bound


def test_shifted_sum_degrees_zero_functions():
    lat = make_lattice([2, 3], 1, 24)
    psis = [FunctionTable.constant(lat, 0.0) for _ in range(4)]
    report = shifted_sum_degrees(psis, [Fraction(b) for b in (1, 2, 3, 4)])
    assert report.degrees == (0, 0, 0, 0)
    assert report.within_bound


def test_shifted_sum_degrees_finite_group():
    g = Group([5])
    betas = [Endo.scalar(g, c).adjoint() for c in (1, 2, 3)]
    consts = [FunctionTable.constant(g, c) for c in (1.0, 2.0, -3.0)]
    report = shifted_sum_degrees(consts, betas, None, tol=1e-9)
    assert report.equation_defect < 1e-12
    assert report.degrees == (0, 0, 0)
    # non-constant summands cannot satisfy the equation on a finite group
    bad = [FunctionTable.from_function(g, lambda y: float(y.coords[0])),
           FunctionTable.constant(g, 0.0), FunctionTable.constant(g, 0.0)]
    report = shifted_sum_degrees(bad, betas, None, tol=1e-9)
    assert report.equation_defect > 0.5
    assert not report.within_bound


def test_shifted_sum_degrees_precondition():
    g = Group([6])
    betas = [Endo.scalar(g, c).adjoint() for c in (1, 3, 2)]
    psis = [FunctionTable.constant(g, 0.0) for _ in range(3)]
    with pytest.raises(PreconditionError):
        shifted_sum_degrees(psis, betas)


def test_ratio_of_characters_is_character():
    # constructive direction of the one-involution converse
    for n in (5, 7, 9, 11):
        g = Group([n])
        assert g.order_two_count() <= 1
        for a in range(n):
            for b in range(0, n, 2):
                f = character_table(g, g.element([a])).ratio(
                    character_table(g, g.element([b])))
                assert bernstein_check(f)
                assert is_character(f)


def test_hermitian_defect_and_table_lookup():
    g = Group([6])
    f = character_table(g, g.element([1]))
    assert f.hermitian_defect() < 1e-12
    with pytest.raises(DomainError):
        f[Group([7]).element([6])]


def test_tables_compare_and_hash_by_identity():
    g = Group([3])
    f, h = FunctionTable.constant(g), FunctionTable.constant(g)
    assert f == f and f != h
    assert len({f, h, f}) == 2
    eq = ProductEquation(((f, Endo.identity(g)),))
    assert eq == eq and hash(eq) == hash(eq)

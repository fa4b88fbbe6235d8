"""The index-arithmetic pair sweeps against the per-pair oracles.

Every table is checked on its full support and on a random partial support.
Booleans must agree exactly, and so must the Hermitian defect, whose
arithmetic is unchanged.  ``character_defect`` multiplies with numpy's complex
multiply, which its window tables have always used; where numpy dispatches
SIMD loops this rounds differently from CPython's complex product, so its
group defects are held to the oracle within ``ulp_tol``, a bound set from the
float64 epsilon, and its verdicts must agree wherever the oracle's defect is
farther than that from the tolerance.

The difference operators and the product- and sum-equation residuals are
checked the same way on group tables (coordinate tuples, endomorphism
coefficients given by their matrices) and on window tables (Fraction points,
rational coefficients), on full, partial and irregular supports.
Differences and sums must agree exactly up to the final ``abs``; products
and quotients within a few ulps of their magnitude, since numpy may round
complex products differently from CPython.

Pullbacks, point lookups, character-Gaussian tables and the Gaussian fit
run on grid indices; they must equal the per-point Fraction evaluation
exactly.
"""

import operator
from fractions import Fraction

import numpy as np
import pytest

from groupident import Endo, Group, annihilator, is_subgroup
from groupident.cli import _suite_endos
from groupident.endomorphisms import is_adjoint_pair
from groupident.errors import (DomainError, VanishingFactorError,
                               WindowMarginError)
from groupident.funceq import (FunctionTable, ProductEquation, _sum_defect,
                               _sweep_max, bernstein_check,
                               bernstein_square_table, character_defect, diff,
                               is_character, is_polynomial, locate_character,
                               ratio_diff)
from groupident.groups import Element
from groupident.solenoid import (FIT_TOL, SolenoidEndo,
                                 character_gaussian_values,
                                 fit_gaussian_ratio, make_lattice)

from oracles import (adjoint_pair_oracle, annihilator_oracle,
                     bernstein_oracle, character_defect_oracle,
                     character_gaussian_oracle, diff_oracle, endo_coeff,
                     gaussian_fit_oracle, group_add, hermitian_defect_oracle,
                     is_polynomial_oracle, is_subgroup_oracle,
                     locate_character_oracle, residual_defect_oracle,
                     sum_defect_oracle, window_steps_oracle)

GROUPS = [(n,) for n in range(2, 13)] + [(2, 4), (3, 3, 2), (4, 6), (6, 6)]
TOL = 1e-9


def ulp_tol(values) -> float:
    scale = max(1.0, float(np.max(np.abs(values))))
    return 4 * np.finfo(float).eps * scale ** 2


def tables(g: Group, rng):
    """(label, values on all of g) for the tables the sweeps must agree on."""
    P = g.pairing_matrix
    picks = [0, *rng.choice(g.size, size=min(3, g.size), replace=False)]
    out = [(f"character {i}", P[i]) for i in picks]
    if g.rank == 2 and not any(n % 2 for n in g.orders):
        out.append(("square table", bernstein_square_table(g).values))
    out.append(("random unit modulus",
                np.exp(2j * np.pi * rng.random(g.size))))
    char = P[picks[-1]]
    for point in (0, int(rng.integers(1, g.size))):
        for eps in (TOL / 2, 2 * TOL):
            vals = char.copy()
            vals[point] += eps * vals[point]
            out.append((f"character {picks[-1]} + {eps:g} at {point}", vals))
    return out


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_pair_sweeps_match_oracles(orders):
    g = Group(orders)
    rng = np.random.default_rng(list(orders))
    elements = g.elements()
    for label, vals in tables(g, rng):
        keep = rng.random(g.size) < 0.6
        keep[rng.integers(g.size)] = True
        for support in (np.ones(g.size, dtype=bool), keep):
            pts = tuple(x for x, k in zip(elements, support) if k)
            f = FunctionTable(g, pts, vals[support])
            table = {x.coords: complex(v) for x, v in zip(pts, f.values)}
            case = f"{label}, {len(pts)} of {g.size} points"

            assert (f.hermitian_defect()
                    == hermitian_defect_oracle(orders, table)), case
            assert (bernstein_check(f, TOL)
                    == bernstein_oracle(orders, table, TOL)), case

            want = character_defect_oracle(orders, table)
            if want is None:
                with pytest.raises(WindowMarginError):
                    character_defect(f)
                continue
            got = character_defect(f)
            assert abs(got - want) <= ulp_tol(f.values), case

            located = locate_character_oracle(orders, table, TOL)
            assert locate_character(f, TOL) == (
                None if located is None else g.element(located)), case
            if abs(want - TOL) > ulp_tol(f.values):
                full = len(pts) == g.size
                expected = want <= TOL and (not full or located is not None)
                assert is_character(f, TOL) == expected, case


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_adjoint_and_annihilator_identities_match_oracles(orders):
    g = Group(orders)
    for e in _suite_endos(g, list(orders)):
        adj = e.adjoint()
        broken = [list(row) for row in adj.matrix]
        broken[0][0] += 1
        for b in (adj, Endo(g, broken)):
            assert is_adjoint_pair(e, b) == adjoint_pair_oracle(
                orders, e.matrix, b.matrix)
        kernel = e.kernel()
        assert is_subgroup(g, kernel)
        assert ([y.coords for y in annihilator(g, kernel)]
                == annihilator_oracle(orders, [x.coords for x in kernel]))
    rng = np.random.default_rng([len(orders), *orders])
    for _ in range(10):
        subset = [x for x in g.elements() if rng.random() < 0.5] + [g.zero]
        assert is_subgroup(g, subset) == is_subgroup_oracle(
            orders, [x.coords for x in subset])


# -- difference operators and equation sweeps ---------------------------------

EPS = np.finfo(float).eps


def as_dict(f: FunctionTable, key=lambda p: p) -> dict:
    return {key(p): complex(v) for p, v in zip(f.points, f.values)}


def random_values(rng, size):
    """Complex values with moduli in [0.5, 2] and random phases."""
    return (rng.uniform(0.5, 2.0, size)
            * np.exp(2j * np.pi * rng.random(size)))


def check_differences(f, table, add, steps, key):
    # times rounds as CPython's complex multiply; ratio divides as numpy does
    assert list(f.times(f).values) == [v * v for v in table.values()]
    assert np.allclose(f.ratio(f).values, 1.0, rtol=0, atol=2 * EPS)
    for h in steps:
        want = diff_oracle(add, table, key(h))
        if not want:
            for op in (diff, ratio_diff):
                with pytest.raises(WindowMarginError):
                    op(f, h)
            continue
        d = diff(f, h)
        assert [key(p) for p in d.points] == list(want), h
        assert list(d.values) == list(want.values()), h
        r = ratio_diff(f, h)
        quot = diff_oracle(add, table, key(h), operator.truediv)
        assert [key(p) for p in r.points] == list(quot), h
        assert np.allclose(r.values, list(quot.values()), rtol=4 * EPS,
                           atol=0), h


def check_polynomial(f, table, add, steps, n):
    want = is_polynomial_oracle(add, table, n, TOL, steps)
    if want is None or not steps:
        with pytest.raises(WindowMarginError):
            is_polynomial(f, n, TOL)
    else:
        assert is_polynomial(f, n, TOL) == want, n


def check_equations(fs, coeffs, rhs, add, oracle_coeffs, vs, key):
    tables = [as_dict(f, key) for f in fs]
    rtable = None if rhs is None else as_dict(rhs, key)
    scale = np.prod([max(1.0, np.abs(f.values).max()) for f in fs])
    if rhs is not None and np.any(rhs.values != 0):
        scale /= min(1.0, np.abs(rhs.values[rhs.values != 0]).min())
    eq = ProductEquation(tuple(zip(fs, coeffs)), rhs)
    try:
        want = residual_defect_oracle(add, tables, oracle_coeffs, rtable, vs)
    except ZeroDivisionError:
        with pytest.raises(VanishingFactorError):
            eq.residual_defect()
    else:
        if want is None:
            with pytest.raises(WindowMarginError):
                eq.residual_defect()
        else:
            got = eq.residual_defect()
            assert abs(got - want) <= 8 * (len(fs) + 1) * EPS * scale
    want = sum_defect_oracle(add, tables, oracle_coeffs, rtable, vs)
    if want is None:
        with pytest.raises(WindowMarginError):
            _sweep_max(fs, coeffs, rhs, _sum_defect)
    else:
        got = _sweep_max(fs, coeffs, rhs, _sum_defect)
        assert abs(got - want) <= 2 * EPS * max(1.0, want)


def coords(x):
    return x.coords


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_difference_operators_match_oracles_on_groups(orders):
    g = Group(orders)
    rng = np.random.default_rng([7, *orders])
    elements, add = g.elements(), group_add(orders)
    nonzero = [x.coords for x in elements[1:]]
    steps = [g.zero, *(elements[i] for i in
                       rng.choice(g.size, size=min(4, g.size), replace=False))]
    for vals in (g.pairing_matrix[int(rng.integers(g.size))],
                 np.ones(g.size), random_values(rng, g.size)):
        keep = rng.random(g.size) < 0.7
        keep[0] = True
        for support in (np.ones(g.size, dtype=bool), keep):
            pts = tuple(x for x, k in zip(elements, support) if k)
            f = FunctionTable(g, pts, vals[support])
            table = as_dict(f, coords)
            check_differences(f, table, add, steps, coords)
            for n in range(3):
                check_polynomial(f, table, add, nonzero, n)


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_equation_sweeps_match_oracles_on_groups(orders):
    g = Group(orders)
    rng = np.random.default_rng([11, *orders])
    elements, add = g.elements(), group_add(orders)
    endos = _suite_endos(g, list(orders))
    for trial in range(6):
        picks = rng.choice(len(endos), size=3, replace=False)
        betas = [endos[i] for i in picks]
        fs = []
        for j in range(3):
            keep = rng.random(g.size) < (1.0 if trial < 2 else 0.7)
            pts = tuple(x for x, k in zip(elements, keep) if k) or elements
            vals = (g.pairing_matrix[int(rng.integers(g.size))] if j == 0
                    else random_values(rng, g.size))
            fs.append(FunctionTable(g, pts, vals[[g.index(x) for x in pts]]))
        rhs_vals = random_values(rng, g.size)
        half = tuple(elements[::2])
        vanishing = rhs_vals.copy()
        vanishing[int(rng.integers(g.size))] = 0.0
        for rhs in (None, FunctionTable(g, elements, rhs_vals),
                    FunctionTable(g, half, rhs_vals[::2]),
                    FunctionTable(g, elements, vanishing)):
            check_equations(fs, betas, rhs, add,
                            [endo_coeff(orders, b.matrix) for b in betas],
                            [x.coords for x in elements], coords)


LATTICES = [make_lattice([2, 3], 1, 12), make_lattice([3], 0, 10)]
WINDOW_COEFFS = [(1, 2, 3), (1, Fraction(3, 2), Fraction(1, 3)),
                 (Fraction(1, 3), 2, Fraction(-3, 2)),
                 (1, 2 ** 63 - 1, Fraction(2 ** 62 + 1, 3))]


def window_supports(lat, rng):
    """Full, sub-window (as after ``ratio_diff``), irregular, every other."""
    pts = lat.points
    keep = rng.random(len(pts)) < 0.6
    return {"full": pts, "sub-window": pts[3:-1],
            "irregular": tuple(p for p, k in zip(pts, keep) if k),
            "every other": pts[::2]}


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
def test_difference_operators_match_oracles_on_windows(lat):
    rng = np.random.default_rng([lat.radius, lat.denominator])
    step = lat.step()
    steps = [0, step, -step, 2 * step, -3 * step, 5 * step,
             lat.radius * step, 2 * lat.radius * step]
    for label, pts in window_supports(lat, rng).items():
        ys = np.array([float(p) for p in pts])
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        for vals in (c[0] + 0 * ys, c[0] + c[1] * ys,
                     c[0] + c[1] * ys + c[2] * ys ** 2,
                     random_values(rng, len(pts))):
            f = FunctionTable(lat, pts, vals)
            table = as_dict(f)
            check_differences(f, table, operator.add, steps, lambda p: p)
            for n in range(4):
                check_polynomial(f, table, operator.add,
                                 window_steps_oracle(table, n + 1), n)
    f = FunctionTable.constant(lat)
    with pytest.raises(DomainError):  # a step off the window's grid
        diff(f, step / 2)
    with pytest.raises(DomainError):
        ratio_diff(f, step / 2)


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
def test_equation_sweeps_match_oracles_on_windows(lat):
    rng = np.random.default_rng([3, lat.radius, lat.denominator])
    pts = lat.points
    supports = list(window_supports(lat, rng).values())
    for coeffs in WINDOW_COEFFS:
        for trial in range(4):
            fs = []
            for j in range(3):
                sup = supports[int(rng.integers(len(supports)))] \
                    if trial else pts
                fs.append(FunctionTable(lat, sup,
                                        random_values(rng, len(sup))))
            rhs_vals = random_values(rng, len(pts))
            vanishing = rhs_vals.copy()
            vanishing[len(pts) // 2 + 1] = 0.0
            for rhs in (None, FunctionTable(lat, pts, rhs_vals),
                        FunctionTable(lat, pts[::2], rhs_vals[::2]),
                        FunctionTable(lat, pts, vanishing)):
                check_equations(fs, coeffs, rhs, operator.add,
                                [lambda v, c=c: c * v for c in coeffs], pts,
                                lambda p: p)


def test_disjoint_window_supports_raise_margin_errors():
    lat = LATTICES[0]
    pts = lat.points
    low = FunctionTable(lat, pts[:5], np.ones(5))
    high = FunctionTable(lat, pts[-5:], np.ones(5))
    for op in (low.ratio, low.times):
        with pytest.raises(WindowMarginError):
            op(high)
    check_equations([low, high], [0, 0], None, operator.add,
                    [lambda v: 0 * v] * 2, pts, lambda p: p)
    check_equations([low, high], [0, Fraction(1, 3)], None, operator.add,
                    [lambda v: 0 * v, lambda v: v / 3], pts, lambda p: p)


# -- pullbacks and point lookups ------------------------------------------------

# The last two overflow int64 products of point indices.
PULLBACK_COEFFS = [1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2),
                   Fraction(1, 3), 2 ** 63 - 1, Fraction(2 ** 62 + 1, 3)]


def check_pullback(f, beta, want, key):
    g = f.pullback(beta)
    assert [key(p) for p in g.points] == list(want), beta
    assert g.values.tolist() == list(want.values()), beta
    assert g._idx.tolist() == f.domain.indices(g.points).tolist(), beta


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
def test_pullback_matches_pointwise_lookup_on_windows(lat):
    rng = np.random.default_rng([5, lat.radius, lat.denominator])
    for label, pts in window_supports(lat, rng).items():
        f = FunctionTable(lat, pts, random_values(rng, len(pts)))
        table = as_dict(f)
        for b in PULLBACK_COEFFS:
            want = {v: table[b * v] for v in lat.points if b * v in table}
            check_pullback(f, b, want, lambda p: p)
    endo = SolenoidEndo(lat, Fraction(-3))
    check_pullback(f, endo, {v: table[endo.apply(v)] for v in lat.points
                             if endo.apply(v) in table}, lambda p: p)


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_pullback_matches_pointwise_lookup_on_groups(orders):
    g = Group(orders)
    rng = np.random.default_rng([13, *orders])
    elements = [x.coords for x in g.elements()]
    keep = rng.random(g.size) < 0.6
    for support in (np.ones(g.size, dtype=bool), keep):
        pts = tuple(x for x, k in zip(g.elements(), support) if k)
        f = FunctionTable(g, pts, random_values(rng, len(pts)))
        table = as_dict(f, coords)
        for e in _suite_endos(g, list(orders)):
            apply = endo_coeff(orders, e.matrix)
            want = {x: table[apply(x)] for x in elements if apply(x) in table}
            check_pullback(f, e, want, coords)


def check_lookups(f, table, keys):
    for k in keys:
        assert (k in f) == (k in table), k
        if k in table:
            assert f[k] == table[k], k
        else:
            with pytest.raises(DomainError):
                f[k]


def test_window_lookups_match_point_dict():
    lat = LATTICES[0]
    D, r = lat.denominator, lat.radius
    rng = np.random.default_rng(17)
    for pts in (lat.points, lat.points[::2], lat.points[3:-1]):
        f = FunctionTable(lat, pts, random_values(rng, len(pts)))
        table = dict(zip(pts, f.values.tolist()))
        off_grid = [Fraction(1, 2 * D), Fraction(-7, 5 * D)]
        outside = [Fraction(r + 1, D), Fraction(-r - 1, D),
                   Fraction(10 ** 30, D), Fraction(-(10 ** 30) - 1, 3)]
        foreign = [0, 1, -2, True, "0", None, (0,), Element((0,)),
                   Group([3]).zero]
        check_lookups(f, table, [*lat.points, *off_grid, *outside, *foreign])
        # Points are exact: a float equal to a grid point is not a key.
        for y in (0.0, float(pts[1])):
            assert y not in f
            with pytest.raises(DomainError):
                f[y]


def test_group_lookups_match_point_dict():
    g = Group([4, 6])
    rng = np.random.default_rng(19)
    keep = rng.random(g.size) < 0.6
    pts = tuple(x for x, k in zip(g.elements(), keep) if k)
    f = FunctionTable(g, pts, random_values(rng, len(pts)))
    table = dict(zip(pts, f.values.tolist()))
    foreign = [Element((4, 0)), Element((0, -1)), Element((1,)),
               Element((0, 0, 0)), Fraction(0), 0, "x", None, (0, 0)]
    check_lookups(f, table, [*g.elements(), *foreign])


# -- character-Gaussian tables and the Gaussian fit ------------------------------

GAUSS_LATTICES = [make_lattice([2, 3, 5], d, r)
                  for d, r in ((0, 3), (1, 40), (2, 200), (2, 7))]
GAUSS_LATTICES += [make_lattice([2, 3], 1, r) for r in (3, 24, 111)]


def random_phases(rng):
    """Phases with small, large (above 2^40) and huge (numerator above 2^62)
    terms, of both signs and outside [0, 1)."""
    yield Fraction(0)
    yield Fraction(int(rng.integers(0, 30)), 30)
    yield Fraction(int(rng.integers(-10 ** 6, 10 ** 6)), 999983)
    big = 2 ** 40 + int(rng.integers(1, 2 ** 20))
    yield Fraction(int(rng.integers(0, big)), big)
    yield Fraction(2 ** 62 + int(rng.integers(1, 2 ** 40)), 2 ** 41 + 3)
    yield Fraction(-(2 ** 63) - int(rng.integers(1, 2 ** 40)),
                   2 ** 43 + 2 * int(rng.integers(0, 2 ** 30)) + 1)


@pytest.mark.parametrize("lat", GAUSS_LATTICES, ids=repr)
def test_character_gaussian_values_match_oracle(lat):
    rng = np.random.default_rng([23, lat.radius, lat.denominator])
    for phase in random_phases(rng):
        for sigma in (0.0, 0.25, -0.2, float(rng.normal()), 1e-4):
            try:
                want = character_gaussian_oracle(lat.points, lat.denominator,
                                                 phase, sigma)
            except OverflowError:  # exp(-sigma y^2) beyond the float range
                with pytest.raises(OverflowError):
                    character_gaussian_values(lat, phase, sigma)
                continue
            f = character_gaussian_values(lat, phase, sigma)
            assert f.points == lat.points
            assert f.values.tolist() == want, (phase, sigma)


def fit_cases(lat, rng):
    """Nonvanishing tables of at least 7 points for the Gaussian fit."""
    pts, D = lat.points, lat.denominator
    ys = np.array([float(p) for p in pts])
    for sigma in (0.3, -0.05, 0.0, float(rng.normal())):
        phase = Fraction(int(rng.integers(0, D)), D)
        f = character_gaussian_values(lat, phase, sigma)
        yield f
        yield f.times(character_gaussian_values(lat, Fraction(1, D), 0.25))
        yield f.map_values(lambda v: v * np.exp(-0.4 * ys ** 4))
        yield f.map_values(lambda v: v * (1 + 1e-8 * rng.normal(size=len(v))))
        even = slice(lat.radius % 2, None, 2)  # every other point, with 0
        yield FunctionTable(lat, pts[even], f.values[even])
    keep = rng.random(len(pts)) < 0.7
    keep[:7] = True
    sub = tuple(p for p, k in zip(pts, keep) if k)
    yield FunctionTable(lat, sub, random_values(rng, len(sub)))


@pytest.mark.parametrize("lat", [g for g in GAUSS_LATTICES if g.radius >= 3],
                         ids=repr)
def test_fit_gaussian_ratio_matches_oracle(lat):
    rng = np.random.default_rng([29, lat.radius, lat.denominator])
    for f in fit_cases(lat, rng):
        if len(f) < 7 or not f.nonvanishing():
            with pytest.raises((WindowMarginError, VanishingFactorError)):
                fit_gaussian_ratio(f)
            continue
        sigma, residual, modulus_ok = gaussian_fit_oracle(as_dict(f), FIT_TOL)
        # The parent's verdict: modulus test and is_character on the phase.
        ok = modulus_ok and is_character(f.phase_part(),
                                         tol=max(FIT_TOL, 1e-9))
        fit = fit_gaussian_ratio(f)
        assert (fit.sigma, fit.modulus_residual, fit.ok) \
            == (sigma, residual, ok)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_gaussian_ratio_nan_defect_verdict():
    # An infinite value gives a NaN phase defect, which is_character accepts.
    lat = LATTICES[1]
    f = character_gaussian_values(lat, Fraction(1, 3), 0.1)
    vals = f.values.copy()
    vals[2] = np.inf
    f = FunctionTable(lat, f.points, vals)
    fit = fit_gaussian_ratio(f)
    assert np.isnan(fit.phase_defect)
    assert fit.phase_is_character == is_character(f.phase_part(),
                                                  tol=max(FIT_TOL, 1e-9))
    sigma, residual, modulus_ok = gaussian_fit_oracle(as_dict(f), FIT_TOL)
    assert fit.ok == (modulus_ok and fit.phase_is_character)
    assert (repr(fit.sigma), repr(fit.modulus_residual)) \
        == (repr(sigma), repr(residual))

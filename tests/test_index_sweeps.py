"""The index-arithmetic pair sweeps against the per-pair oracles.

Equality conventions.  Everything discrete is compared with ``==``:
booleans, located elements, recovered shifts, points and ``idx``.  A float
is compared with ``==`` only where both sides run the same IEEE operations
(differences, sums, gathers, pullbacks, the joint-law sweeps against the
dense tables they replaced).  Where the package runs numpy's complex
multiply, ``abs``, ``exp`` or ``log`` and the oracle runs CPython's, the two
may round apart (numpy's SIMD loops differ by CPU), so the float is held to
the oracle within a bound, and a verdict must agree with the oracle's
wherever the oracle's value is farther than that bound from the tolerance:

- ``ulp_tol`` (4 eps times the squared scale of the values) for the
  Hermitian defect, the Bernstein products, ``times`` and the convolution;
- ``closed_form_tol``, the rounding of each side, for the Poisson closed
  form and its deviation: the package takes ``exp`` of one exact root per
  phase, the oracle of a product of two pairing values;
- ``gaussian_tol``, the phase and modulus rounding of each side, for the
  character-Gaussian tables;
- twice each field's a-priori noise floor (``reporting.FLOORS``) for the
  fitted ``sigma`` and ``modulus_residual`` of the Gaussian fit.

Every table's support is a box in index order: a whole group table, or a
window progression ``{j s : lo <= j <= hi}``.  Tables are built from their
points in a random order, which the constructor sorts, and a partial group
table, an irregular window support or a repeated point must raise
DomainError at construction.  The difference operators and the product- and
sum-equation residuals are checked on group tables (coordinate tuples,
endomorphism coefficients given by their matrices) and on window tables
(Fraction points, rational coefficients), on the whole window, sub-windows,
every other point and progressions that miss 0.  Quotients are held
within a few ulps of their magnitude.  The screened shift search must
return the element of the dense search.  The FFT characteristic functions and Poisson masses must
stay within a stated a-priori rounding bound of the dense products they
replaced, a convolution's transform within one of the product of the
transforms, and ``Distribution.random`` must return the masses of the dense
rejection loop.

The character and polynomial checks are generator certificates, and the
all-pairs sweeps they replaced are the oracles.  On a whole group table, or
a window support that is an arithmetic progression through 0, they must
accept exact characters and polynomials, reject a table with one value moved
far above the tolerance, never report a larger character defect than the
all-pairs sup (their pairs are among it), and give the all-pairs verdict
(``check_character``, ``check_generator_polynomial``).  On a window box
that misses 0 they raise DomainError, and the all-pairs sweeps must match
the per-pair oracles there.  The Bernstein check reads views of the same
supports, must give the per-pair oracle's verdict on them and raises
DomainError off them.  The adjoint check must give the all-pairs verdict
with a fault at every admissible matrix entry, and reject index maps that
are not homomorphisms.

The batched character, location and Bernstein checks over a block of
value rows must give, row by row, the verdicts of the one-table functions
and of the per-table oracles, on characters and on rows moved by twice the
tolerance, NaN or zero at one point; the location must return what the
dense oracle returns, on tables built in index and in random order and on
either side of ``tol = sin(pi/L)/2``.  A NaN or an infinity anywhere fails
the Bernstein check, as it fails its oracle.

Cut into two or three row stripes, every joint-law sweep must give the
values of the unsplit sweep, ``==`` and NaN for NaN, raise the exception of
a stripe only once every stripe has finished, and keep the caller's numpy
error state.
"""

import operator
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupident import (Distribution, Endo, Group, LinearFormSpec,
                        annihilator, consistent_shifts, is_subgroup,
                        joint_char_array, kernel_counterexample,
                        kotlarski_coeffs, poisson_closed_form_array,
                        poisson_counterexample, recover_shift,
                        shifted_sum_degrees, verify_form_I,
                        verify_form_II)
from groupident.cli import _suite_endos, find_shift_coeffs, main
from groupident.distributions import factor_plan, joint_residual
from groupident.endomorphisms import is_adjoint_pair
from groupident.errors import (CapacityError, DomainError,
                               VanishingFactorError, WindowMarginError)
from groupident.funceq import (FunctionTable, ProductEquation,
                               _generator_plan,
                               _product_defect, _sum_defect, _sweep_max,
                               _sweep_plan, bernstein_check,
                               bernstein_square_table, character_defect,
                               character_table_checks, diff, is_character,
                               is_polynomial, kernel_conditions, least_degree,
                               locate_character, ratio_diff)
from groupident import distributions, funceq, groups, identify
from groupident.identify import (VERDICT_PRECONDITIONS, VERDICT_SHIFT,
                                 poisson_pair_deviations)
from groupident.groups import Element, _shift_screen
from groupident.solenoid import (FIT_TOL, RationalLattice, SolenoidEndo,
                                 character_gaussian_values,
                                 fit_gaussian_ratio, make_lattice)

from oracles import (adjoint_pair_oracle, annihilator_oracle,
                     bernstein_check_percall, bernstein_oracle,
                     char_array_dense, character_defect_oracle,
                     character_defect_sweep, character_gaussian_oracle,
                     convolve_dense,
                     diff_oracle, endo_coeff, find_shift_coeffs_search,
                     gaussian_fit_oracle, group_add, hermitian_defect_oracle,
                     is_adjoint_pair_sweep, is_polynomial_oracle,
                     is_polynomial_sweep, is_subgroup_oracle,
                     joint_char_array_dense,
                     joint_residual_dense, locate_character_oracle,
                     poisson_closed_form_dense, poisson_deviations_dense,
                     poisson_dense, random_dense, recover_shift_dense,
                     residual_defect_oracle, sum_defect_oracle,
                     sweep_max_percall, window_steps_oracle)

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


def shuffled(dom, idx, vals, rng):
    """The table of ``vals`` on the box ``idx``, built from its points in a
    random order: the constructor puts them back in index order."""
    order = rng.permutation(len(idx))
    f = FunctionTable(dom, dom.points_at(idx[order]), vals[order])
    assert f.idx.tolist() == idx.tolist()
    assert np.array_equal(f.values, vals, equal_nan=True)
    return f


def refused(dom, idx):
    """A partial group table or an irregular window support: DomainError
    at construction."""
    with pytest.raises(DomainError):
        FunctionTable(dom, dom.points_at(idx), np.ones(len(idx)))


def check_character(f, want, located=True):
    """The character check against the all-pairs sup ``want``.

    With ``|f(0) - 1|`` added to ``want``: the defect is at most that (its
    pairs are among all pairs, up to the rounding of a product), and the
    verdict is the all-pairs one, ``want <= TOL`` and a located character,
    wherever ``want`` is farther than ``ulp_tol`` from ``TOL``.
    """
    got, bound = character_defect(f), ulp_tol(f.values)
    want = max(want, abs(f[f.domain.zero] - 1))
    assert got <= want + bound
    if abs(want - TOL) > bound:
        assert is_character(f, TOL) == (want <= TOL and located)


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_pair_sweeps_match_oracles(orders):
    g = Group(orders)
    rng = np.random.default_rng(list(orders))
    elements = g.elements()
    for label, vals in tables(g, rng):
        keep = rng.random(g.size) < 0.6
        keep[rng.integers(g.size)] = False
        refused(g, g.every[keep])
        f = shuffled(g, g.every, vals, rng)
        table = {x.coords: complex(v) for x, v in zip(elements, f.values)}

        bound = ulp_tol(f.values)
        assert abs(f.hermitian_defect()
                   - hermitian_defect_oracle(orders, table)) <= bound, label
        verdict, margin = bernstein_oracle(orders, table, TOL)
        if margin > bound:
            assert bernstein_check(f, TOL) == verdict, label
        located = locate_character_oracle(orders, table, TOL)
        assert locate_character(f, TOL) == (
            None if located is None else g.element(located)), label
        want = character_defect_oracle(orders, table)
        assert abs(character_defect_sweep(f) - want) <= bound, label
        check_character(f, want, located is not None)


def broken_adjoints(b: Endo):
    """``b`` with the smallest admissible change at each matrix entry that
    admits one."""
    ns = b.group.orders
    for i, n_i in enumerate(ns):
        for j, n_j in enumerate(ns):
            step = n_i // np.gcd(n_i, n_j)
            if step < n_i:
                broken = [list(row) for row in b.matrix]
                broken[i][j] += step
                yield Endo(b.group, broken)


def broken_index_maps(e: Endo, rng):
    """Objects that read like ``e`` but whose index map moves one point:
    0, and a random one."""
    g = e.group
    for x in (0, int(rng.integers(g.size))):
        m = e.index_map.copy()
        m[x] = (m[x] + 1) % g.size
        yield SimpleNamespace(group=g, index_map=m)


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_adjoint_and_annihilator_identities_match_oracles(orders):
    g = Group(orders)
    rng = np.random.default_rng([len(orders), *orders])
    for e in _suite_endos(g, list(orders)):
        adj = e.adjoint()
        assert is_adjoint_pair(e, adj)
        for b in broken_adjoints(adj):
            assert is_adjoint_pair(e, b) == adjoint_pair_oracle(
                orders, e.matrix, b.matrix)
        for a, b in ((e, adj), (adj, e)):
            for fake in broken_index_maps(b, rng):
                assert not is_adjoint_pair_sweep(a, fake)
                assert not is_adjoint_pair(a, fake)
                assert not is_adjoint_pair(fake, a)
        kernel = e.kernel()
        assert is_subgroup(g, kernel)
        assert ([y.coords for y in annihilator(g, kernel)]
                == annihilator_oracle(orders, [x.coords for x in kernel]))
    for _ in range(10):
        subset = [x for x in g.elements() if rng.random() < 0.5] + [g.zero]
        assert is_subgroup(g, subset) == is_subgroup_oracle(
            orders, [x.coords for x in subset])
    # Every subgroup generated by one or two elements, and a coset of one.
    for _ in range(10):
        x, y = (g.element_at(int(i)) for i in rng.integers(g.size, size=2))
        sub = {g.zero}
        while True:
            grown = sub | {g.add(z, t) for z in sub for t in (x, y)}
            if grown == sub:
                break
            sub = grown
        sub = sorted(sub, key=g.index)
        assert is_subgroup(g, sub)
        assert ([y.coords for y in annihilator(g, sub)]
                == annihilator_oracle(orders, [z.coords for z in sub]))
        # A coset, and unions of two cosets, which are closed under the
        # subgroup's generators but are subgroups only when 2 z is in it.
        z = g.element_at(int(rng.integers(g.size)))
        unions = [sorted(set(sub) | {g.add(t, w) for t in sub}, key=g.index)
                  for w in (y, z)]
        for subset in ([g.add(t, x) for t in sub], *unions):
            assert is_subgroup(g, subset) == is_subgroup_oracle(
                orders, [t.coords for t in subset])
    # Two cosets of {0} x Z3 x {0}: closed under (0, 1, 0), not (1, 0, 0).
    if orders == (3, 3, 2):
        rows = [g.element([a, b, 0]) for a in (0, 1) for b in range(3)]
        assert not is_subgroup(g, rows)


@pytest.mark.parametrize("orders", [(8, 8), (9, 8), (30, 50), (2, 2, 3, 5)],
                         ids=lambda o: "x".join(map(str, o)))
def test_adjoint_generator_check_matches_sweep_at_scale(orders):
    """On groups of 64 elements or more, against the all-pairs sweep over
    index maps."""
    g = Group(orders)
    rng = np.random.default_rng([3, *orders])
    for e in _suite_endos(g, list(orders)):
        adj = e.adjoint()
        cases = [(e, adj), (adj, e), *((e, b) for b in broken_adjoints(adj)),
                 *((e, b) for b in broken_index_maps(adj, rng))]
        for a, b in cases:
            assert is_adjoint_pair(a, b) == is_adjoint_pair_sweep(a, b)


def test_subgroup_span_of_a_long_cyclic_factor_stays_linear():
    """The whole of Z2 x Z5000 is spanned by (0, 1) and (1, 0), and each
    span doubles along its element: no |span| x order table of indices."""
    g = Group([2, 5000])
    whole = Endo.zero(g).kernel()
    tracemalloc.start()
    try:
        assert is_subgroup(g, whole)
        assert annihilator(g, whole) == [g.zero]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# -- difference operators and equation sweeps ---------------------------------

EPS = np.finfo(float).eps


def as_dict(f: FunctionTable, key=lambda p: p) -> dict:
    return {key(p): complex(v) for p, v in zip(f.points, f.values)}


def random_values(rng, size):
    """Complex values with moduli in [0.5, 2] and random phases."""
    return (rng.uniform(0.5, 2.0, size)
            * np.exp(2j * np.pi * rng.random(size)))


def check_points(t):
    """``t``, after checking that its indices are its box in index order
    and that its points convert back to them."""
    s, lo, hi = t.box
    assert t.idx.tolist() == [j * s for j in range(lo, hi + 1)]
    assert t.idx.tolist() == t.domain.indices(t.points).tolist()
    return t


def check_differences(f, table, add, steps, key):
    squares = np.array([v * v for v in table.values()])
    assert np.all(np.abs(check_points(f.times(f)).values - squares)
                  <= ulp_tol(f.values))
    assert np.allclose(check_points(f.ratio(f)).values, 1.0, rtol=0,
                       atol=2 * EPS)
    assert check_points(f.map_values(np.conj)).points == f.points
    for h in steps:
        want = diff_oracle(add, table, key(h))
        if not want:
            for op in (diff, ratio_diff):
                with pytest.raises(WindowMarginError):
                    op(f, h)
            continue
        d = check_points(diff(f, h))
        assert [key(p) for p in d.points] == list(want), h
        assert list(d.values) == list(want.values()), h
        r = check_points(ratio_diff(f, h))
        quot = diff_oracle(add, table, key(h), operator.truediv)
        assert [key(p) for p in r.points] == list(quot), h
        assert np.allclose(r.values, list(quot.values()), rtol=4 * EPS,
                           atol=0), h


def generator_support(f) -> bool:
    """Whether the generator checks read ``f``: a whole group, or a window
    support ``{k s : lo <= k <= hi}``, ``lo <= 0 <= hi`` and ``hi > lo``."""
    if isinstance(f.domain, Group):
        return len(f) == f.domain.size
    ms = sorted(f.idx.tolist())
    steps = {b - a for a, b in zip(ms, ms[1:])}
    return len(steps) == 1 and 0 in ms


def check_polynomial(f, table, add, steps, n):
    if not generator_support(f):
        with pytest.raises(DomainError):
            is_polynomial(f, n, TOL)
        return
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
        f = shuffled(g, g.every, vals, rng)
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
        fs = [shuffled(g, g.every, g.pairing_matrix[int(rng.integers(g.size))]
                       if j == 0 else random_values(rng, g.size), rng)
              for j in range(3)]
        rhs_vals = random_values(rng, g.size)
        vanishing = rhs_vals.copy()
        vanishing[int(rng.integers(g.size))] = 0.0
        for rhs in (None, FunctionTable(g, elements, rhs_vals),
                    FunctionTable(g, elements, vanishing)):
            check_equations(fs, betas, rhs, add,
                            [endo_coeff(orders, b.matrix) for b in betas],
                            [x.coords for x in elements], coords)


LATTICES = [make_lattice([2, 3], 1, 12), make_lattice([3], 0, 10)]
WINDOW_COEFFS = [(1, 2, 3), (1, Fraction(3, 2), Fraction(1, 3)),
                 (Fraction(1, 3), 2, Fraction(-3, 2)),
                 (1, 2 ** 63 - 1, Fraction(2 ** 62 + 1, 3))]


def window_supports(lat, rng):
    """Full, sub-window (as after ``ratio_diff``), every other point, a
    sub-window that misses 0 and every third point below 0, each in a
    random order."""
    r, pts = lat.radius, np.array(lat.points, dtype=object)
    out = {"full": pts, "sub-window": pts[3:-1],
           "every other": pts[r % 2::2], "positive": pts[r + 2:],
           "thirds below 0": pts[r % 3:r:3]}
    return {k: tuple(rng.permutation(v)) for k, v in out.items()}


def irregular(dom, rng):
    """Supports that are no box: a random part of the window, odd points,
    and two points with a gap; on a group, a random part of it."""
    every = dom.every
    keep = rng.random(len(every)) < 0.6
    keep[[0, 1, -1]] = True, False, True
    if isinstance(dom, Group):
        return [every[keep]]
    return [every[keep], every[every % 2 == 1], np.array([-2, 2]),
            np.array([0, 1, 3])]


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
def test_difference_operators_match_oracles_on_windows(lat):
    rng = np.random.default_rng([lat.radius, lat.denominator])
    step = lat.step()
    steps = [0, step, -step, 2 * step, -3 * step, 5 * step,
             lat.radius * step]
    for idx in irregular(lat, rng):
        refused(lat, idx)
    for label, pts in window_supports(lat, rng).items():
        ys = np.array([float(p) for p in pts])
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        for vals in (c[0] + 0 * ys, c[0] + c[1] * ys,
                     c[0] + c[1] * ys + c[2] * ys ** 2,
                     random_values(rng, len(pts))):
            f = check_points(FunctionTable(lat, pts, vals))
            table = as_dict(f)
            check_differences(f, table, operator.add, steps, lambda p: p)
            for n in range(4):
                check_polynomial(f, table, operator.add,
                                 window_steps_oracle(table, n + 1), n)
    f = FunctionTable.constant(lat)
    # Steps off the window's grid, and outside the window.
    for h in (step / 2, (lat.radius + 1) * step, -2 * lat.radius * step):
        for op in (diff, ratio_diff):
            with pytest.raises(DomainError):
                op(f, h)


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


# -- the box contract -------------------------------------------------------
#
# Every table holds a box in index order, and every operator returns one:
# its ``idx`` is its box, and its values are those of a point-dict oracle.

BOX_DOMAINS = [Group([6]), Group([2, 3]), Group([4, 6]), Group([3, 3, 2]),
               *LATTICES, make_lattice([2], 0, 9)]


def draw_box(data, dom) -> np.ndarray:
    """The whole group; on a window the whole window, or the multiples of a
    step 1, 2 or 3 (a sub-window, every other or every third point) from a
    ``lo <= 0`` to a ``hi >= 0``."""
    if isinstance(dom, Group):
        return dom.every
    r = dom.radius
    s = data.draw(st.sampled_from([0, 1, 2, 3]), label="step (0: whole)")
    if not s:
        return dom.every
    lo = data.draw(st.integers(-(r // s), 0), label="lo")
    hi = data.draw(st.integers(0, r // s), label="hi")
    return s * np.arange(lo, hi + 1)


def check_box(t, want: dict, rtol: float = 0.0) -> None:
    """``t`` holds its box in index order and the values of ``want`` at its
    points: exactly, or within ``rtol`` of their magnitude."""
    assert t.box[0] > 0
    check_points(t)
    key = coords if isinstance(t.domain, Group) else (lambda p: p)
    got = as_dict(t, key)
    assert set(got) == set(want)
    for p, v in want.items():
        assert abs(got[p] - v) <= rtol * abs(v), p


@settings(max_examples=60, deadline=None)
@given(dom=st.sampled_from(BOX_DOMAINS), data=st.data())
def test_every_operator_returns_a_box_in_index_order(dom, data):
    """Tables built from points in a random order, and what ``ratio``,
    ``times``, ``pullback``, ``diff``, ``ratio_diff`` and ``map_values``
    return, hold their box in index order and the oracle's values; a
    partial group table, an irregular window support and a repeated point
    are refused at construction."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    group = isinstance(dom, Group)
    key = coords if group else (lambda p: p)
    add = group_add(dom.orders) if group else operator.add
    a, b = draw_box(data, dom), draw_box(data, dom)
    f = shuffled(dom, a, random_values(rng, len(a)), rng)
    g = shuffled(dom, b, random_values(rng, len(b)), rng)
    F, G = as_dict(f, key), as_dict(g, key)
    check_box(f, F)
    check_box(f.map_values(np.conj), {p: v.conjugate() for p, v in F.items()})
    common = [p for p in F if p in G]  # both boxes hold 0
    check_box(f.times(g), {p: F[p] * G[p] for p in common}, 2 * EPS)
    check_box(f.ratio(g), {p: F[p] / G[p] for p in common}, 4 * EPS)
    if group:
        betas = [(e, endo_coeff(dom.orders, e.matrix))
                 for e in _suite_endos(dom, list(dom.orders))]
    else:
        betas = [(c, lambda v, c=c: c * v) for c in PULLBACK_COEFFS]
    for beta, apply in betas:
        want = {v: F[apply(v)] for v in map(key, dom.points) if apply(v) in F}
        check_box(f.pullback(beta), want)
    h = data.draw(st.sampled_from(dom.points), label="step")
    want = diff_oracle(add, F, key(h))
    if want:
        check_box(diff(f, h), want)
        check_box(ratio_diff(f, h),
                  diff_oracle(add, F, key(h), operator.truediv), 4 * EPS)
    else:
        for op in (diff, ratio_diff):
            with pytest.raises(WindowMarginError):
                op(f, h)
    # Not a box: a point dropped from inside a box of four or more, or from
    # a group; and a repeated point.
    if group or len(a) >= 4:
        inner = (0, len(a) - 1) if group else (1, len(a) - 2)
        refused(dom, np.delete(a, data.draw(st.integers(*inner),
                                            label="dropped")))
    again = data.draw(st.integers(0, len(a) - 1), label="repeated")
    with pytest.raises(DomainError):
        FunctionTable(dom, dom.points_at(np.append(a, a[again])),
                      np.ones(len(a) + 1))


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


# -- planned and generator checks against the all-pairs code -----------------
#
# The equation sweeps gather along plans cached per support, the Bernstein
# check reads views of its table, and the character and polynomial checks
# gather along generators and their doubling ladders; the all-pairs code they
# replaced is in oracles.py.  Verdicts and sweep maxima must be equal, and the
# generator and Bernstein checks must raise DomainError off their supports.

PLAN_DOMAINS = [Group([6]), Group([2, 3]), Group([12]), Group([4, 6]),
                Group([3, 3, 2]), *LATTICES, make_lattice([2], 0, 9)]


def plan_supports(dom):
    """The whole group; on a window also a sub-window, every other point
    and a sub-window that misses 0."""
    every = dom.every
    if isinstance(dom, Group):
        return {"full": every}
    return {"full": every, "sub-window": every[2:-1],
            "every other": every[every % 2 == 0], "positive": every[every > 1]}


def plan_values(dom, rng):
    """(label, values on the whole domain) of the tables to sweep."""
    if isinstance(dom, Group):
        x = int(rng.integers(dom.size))
        char = dom.roots[dom.phase_idx(x, dom.every)]
        poly = np.full(dom.size, complex(*rng.normal(size=2)))
    else:
        phase = Fraction(int(rng.integers(dom.denominator)), dom.denominator)
        char = character_gaussian_values(dom, phase, 0.0).values
        y = dom.every / dom.denominator
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        poly = c[0] + c[1] * y + c[2] * y ** 2
    near = char.copy()
    near[int(rng.integers(len(near)))] *= 1 + 2 * TOL
    return [("character", char), ("character moved by 2 tol", near),
            ("polynomial", poly), ("random", random_values(rng, len(char)))]


def outcome(fn, *args):
    """``fn(*args)``, or the type of the margin or vanishing error it raises."""
    try:
        return fn(*args)
    except (WindowMarginError, VanishingFactorError) as exc:
        return type(exc)


def check_generator_polynomial(f, n):
    """``is_polynomial`` gives the verdict of the all-steps sweep, or raises
    WindowMarginError where it does."""
    assert (outcome(is_polynomial, f, n, TOL)
            == outcome(is_polynomial_sweep, f, n, TOL)), n


# Groups of 7 to 72 elements, and windows whose step is 1/D.
CERT_GROUPS = [(7,), (12,), (4, 6), (3, 3, 2), (2, 2, 2, 2), (8, 8), (9, 8),
               (5, 13), (2, 4, 8)]
CERT_LATTICES = [make_lattice([2, 3], 1, 12), make_lattice([3], 0, 10),
                 make_lattice([2, 3, 5], 2, 40)]
PULLBACKS = [2, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3), -3]
moduli = st.floats(0.5, 2.0)


def check_caught(f, n):
    """``f`` is not a character, nor a polynomial of degree ``n`` unless
    no step leaves margin, by either check."""
    assert character_defect_sweep(f) > TOL
    assert not is_character(f, TOL)
    assert (outcome(is_polynomial, f, n, TOL)
            == outcome(is_polynomial_sweep, f, n, TOL)
            in (False, WindowMarginError))


@settings(max_examples=40, deadline=None)
@given(orders=st.sampled_from(CERT_GROUPS), data=st.data())
def test_generator_checks_match_all_pairs_on_groups(orders, data):
    g = Group(orders)
    x = data.draw(st.integers(0, g.size - 1), label="character")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="table order")
    order = np.random.default_rng(seed).permutation(g.size)
    rel = data.draw(st.sampled_from([1e-6, 1e-3, 0.5]), label="perturbation")
    c = data.draw(moduli) * np.exp(2j * np.pi * data.draw(st.floats(0, 1)))

    def table(vals):
        return FunctionTable(g, g.points_at(order), vals[order])

    char = g.roots[g.phase_idx(x, g.every)]
    const = np.full(g.size, c)
    f = table(char)
    check_character(f, character_defect_sweep(f))
    assert is_character(f) and locate_character(f) == g.element_at(x)
    for vals in (char, const):
        for n in range(3):
            check_generator_polynomial(table(vals), n)
    assert is_polynomial(table(const), 0)
    # One value moved at an element of largest word length.
    far = g.compose([n // 2 for n in orders])
    for vals in (char, const):
        moved = vals.copy()
        moved[far] += rel
        for n in range(3):
            check_caught(table(moved), n)


def cert_supports(lat, data):
    """The whole window, a sub-window through 0 and the even points: each
    an arithmetic progression through 0."""
    every, r = lat.every, lat.radius
    lo = data.draw(st.integers(-r, 0), label="sub-window start")
    hi = data.draw(st.integers(1, r), label="sub-window end")
    return [every, every[(every >= lo) & (every <= hi)], every[every % 2 == 0]]


@settings(max_examples=40, deadline=None)
@given(lat=st.sampled_from(CERT_LATTICES), data=st.data())
def test_generator_checks_match_all_pairs_on_windows(lat, data):
    D = lat.denominator
    phase = Fraction(data.draw(st.integers(0, 10 ** 6)), 999983)
    degree = data.draw(st.integers(0, 2), label="degree")
    cs = [data.draw(moduli) * (-1) ** data.draw(st.integers(0, 1))
          for _ in range(degree + 1)]
    rel = data.draw(st.sampled_from([1e-6, 1e-3, 0.5]), label="perturbation")
    y = lat.every / D
    whole = {"character": character_gaussian_values(lat, phase, 0.0),
             "polynomial": FunctionTable._at(
                 lat, lat.every, sum(c * y ** k for k, c in enumerate(cs)))}
    for label, f in whole.items():
        tables = [FunctionTable._at(lat, idx, f.values[idx + lat.radius])
                  for idx in cert_supports(lat, data)]
        tables += [f.pullback(b) for b in PULLBACKS]
        for t in tables:
            if len(t) < 2:
                continue
            assert generator_support(t)
            for n in range(4):
                check_generator_polynomial(t, n)
            if label == "character":
                check_character(t, character_defect_sweep(t))
                assert is_character(t)
            else:
                assert outcome(is_polynomial, t, degree, TOL) in (
                    True, WindowMarginError)
            if len(t) < 3:
                continue  # no pair (k, l) with k + l inside reads f(s)
            # One value moved at a point of largest |y|.
            far = int(np.argmax(np.abs(t.idx)))
            moved = t.values.copy()
            moved[far] += rel
            check_caught(FunctionTable._at(lat, t.idx, moved), degree)


@pytest.mark.parametrize("dom", [Group([4, 6]), Group([9, 8]), *LATTICES],
                         ids=repr)
def test_generator_checks_refuse_other_supports(dom):
    """Partial group tables and irregular window supports are refused at
    construction.  On window progressions that miss 0 the generator checks
    raise DomainError, and the all-pairs sweeps still give what the
    per-pair oracles give."""
    rng = np.random.default_rng([41, len(dom.every)])
    for idx in irregular(dom, rng):
        refused(dom, idx)
    if isinstance(dom, Group):
        return
    every = dom.every
    for idx in (every[every > 0], every[(every < 0) & (every % 3 == 0)],
                every[every >= 2][::2]):
        f = shuffled(dom, idx, random_values(rng, len(idx)), rng)
        assert not generator_support(f)
        for check in (character_defect, is_character,
                      lambda f: is_polynomial(f, 0),
                      lambda f: least_degree(f, 2), bernstein_check):
            with pytest.raises(DomainError):
                check(f)
        table = as_dict(f)
        want = character_defect_oracle(None, table, operator.add)
        got = outcome(character_defect_sweep, f)
        if want is None:
            assert got is WindowMarginError
        else:
            assert abs(got - want) <= ulp_tol(f.values)
        steps = window_steps_oracle(table, 2)
        want = is_polynomial_oracle(operator.add, table, 1, TOL, steps)
        assert outcome(is_polynomial_sweep, f, 1) == (
            WindowMarginError if want is None or not steps else want)


def test_window_polynomial_check_reads_the_longest_step():
    """A slowly turning character on a radius-12 window: its third
    difference along the step ``s`` stays below the tolerance, along the
    longest step with margin it does not, and both checks reject it."""
    lat = make_lattice([2, 3], 1, 12)
    f = character_gaussian_values(lat, Fraction(80, 999983), 0.0)
    d = f
    for _ in range(3):
        d = diff(d, lat.step())
    assert np.abs(d.values).max() < TOL
    assert not is_polynomial(f, 2) and not is_polynomial_sweep(f, 2)


@pytest.mark.parametrize("dom", [Group([6]), Group([4, 6]), *LATTICES],
                         ids=repr)
def test_character_defect_reads_the_value_at_zero(dom):
    """A vanishing table satisfies every product identity, so only the
    term ``|f(0) - 1|`` tells it from a character: the all-pairs sup reads
    0, the generator defect 1."""
    f = FunctionTable.constant(dom, 0.0)
    assert character_defect_sweep(f) == 0.0
    assert character_defect(f) == 1.0
    assert not is_character(f)


def test_generator_checks_on_a_wide_window_build_no_quadratic_plan():
    # The all-pairs character and polynomial plans of one radius-2000
    # window would hold over 200 MB of int64 positions; the ladder plans
    # hold a few dozen rows of the window's length.
    lat = make_lattice([2, 3, 5], 2, 2000)
    f = character_gaussian_values(lat, Fraction(7, 30), 0.001)
    tracemalloc.start()
    try:
        fit = fit_gaussian_ratio(f)
        degree = least_degree(f.log_modulus(), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.ok and degree == 2
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("dom", PLAN_DOMAINS, ids=repr)
def test_planned_sweeps_match_per_call_code(dom):
    rng = np.random.default_rng([31, len(dom.every)])
    if isinstance(dom, Group):
        betas = _suite_endos(dom, list(dom.orders))[-3:]
    else:
        betas = WINDOW_COEFFS[1]
    supports = plan_supports(dom)
    for label, vals in plan_values(dom, rng):
        tables = {name: shuffled(dom, idx, vals[idx - dom.every[0]], rng)
                  for name, idx in supports.items()}
        for name, f in tables.items():
            case = f"{label} on the {name} support"
            if not generator_support(f):
                for check in (character_defect, lambda f: is_polynomial(f, 1),
                              bernstein_check):
                    with pytest.raises(DomainError):
                        check(f)
                continue
            assert bernstein_check(f, TOL) == bernstein_check_percall(f, TOL)
            for n in range(4):
                check_generator_polynomial(f, n)
            want = outcome(character_defect_sweep, f)
            assert not isinstance(want, type), case
            check_character(f, want)
        fs = [tables.get(name, tables["full"])
              for name in ("full", "positive", "every other")]
        for rhs in (None, tables["full"], fs[2]):
            for defect in (_sum_defect, _product_defect):
                assert (outcome(_sweep_max, fs, betas, rhs, defect)
                        == outcome(sweep_max_percall, fs, betas, rhs,
                                   defect)), label


def test_plan_cache_keys_by_value():
    rng = np.random.default_rng(37)
    vals = np.exp(2j * np.pi * rng.random(6))
    # The same box on two domains whose generators differ.
    a, b = (FunctionTable(g, g.elements(), vals)
            for g in (Group([6]), Group([2, 3])))
    assert a.box == b.box
    assert _generator_plan(a.domain, a.box, None) is not _generator_plan(
        b.domain, b.box, None)
    for f in (a, b):
        check_character(f, character_defect_sweep(f))
    # Two windows of equal radius and different base.
    wa, wb = (FunctionTable.constant(make_lattice([base], 0, 5))
              for base in (2, 3))
    assert _generator_plan(wa.domain, wa.box, None) is not _generator_plan(
        wb.domain, wb.box, None)
    # Tables sharing a box: one sweep plan, and each its own result.
    pts = make_lattice([2, 3], 1, 12).points[::2]
    f, g = (FunctionTable(make_lattice([2, 3], 1, 12), pts,
                          np.exp(2j * np.pi * rng.random(len(pts))))
            for _ in range(2))
    _sweep_plan.cache_clear()
    for t in (f, g, f):
        assert (_sweep_max([t, t], [1, 2], None, _sum_defect)
                == sweep_max_percall([t, t], [1, 2], None, _sum_defect))
    info = _sweep_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def plan_arrays(plan):
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, tuple):
        for part in plan:
            yield from plan_arrays(part)


def test_cached_plan_arrays_refuse_writes():
    lat = LATTICES[0]
    f = FunctionTable(lat, lat.points[1:], np.ones(len(lat.points) - 1))
    rhs = FunctionTable.constant(lat)
    plans = [_sweep_plan(lat, (f.box, f.box), rhs.box, 1, Fraction(3, 2)),
             _generator_plan(lat, f.box, None),
             _generator_plan(lat, f.box, 2)]
    for plan in plans:
        arrays = list(plan_arrays(plan))
        assert arrays
        for a in arrays:
            assert not a.flags.writeable
            if a.size:
                with pytest.raises(ValueError):
                    a[0] = 0


def test_repeated_campaign_builds_no_plan(tmp_path):
    argv = ["verify-gaussian", "--radius", "60", "--trials", "1",
            "--out", str(tmp_path / "report.json")]
    caches = (_sweep_plan, _generator_plan)
    for cache in caches:
        cache.cache_clear()
    assert main(argv) == 0
    first = [cache.cache_info() for cache in caches]
    assert main(argv) == 0
    for cache, before in zip(caches, first):
        after = cache.cache_info()
        assert before.misses > 0 and after.misses == before.misses
        assert after.hits > before.hits


# -- pullbacks and point lookups ------------------------------------------------

# The last two overflow int64 products of point indices.
PULLBACK_COEFFS = [1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2),
                   Fraction(1, 3), 2 ** 63 - 1, Fraction(2 ** 62 + 1, 3)]


def check_pullback(f, beta, want, key):
    g = check_points(f.pullback(beta))
    assert [key(p) for p in g.points] == list(want), beta
    assert g.values.tolist() == list(want.values()), beta


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
    f = shuffled(g, g.every, random_values(rng, g.size), rng)
    table = as_dict(f, coords)
    for e in _suite_endos(g, list(orders)):
        apply = endo_coeff(orders, e.matrix)
        check_pullback(f, e, {x: table[apply(x)] for x in elements}, coords)


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
    f = shuffled(g, g.every, random_values(rng, g.size), rng)
    table = dict(zip(g.elements(), f.values.tolist()))
    foreign = [Element((4, 0)), Element((0, -1)), Element((1,)),
               Element((0, 0, 0)), Fraction(0), 0, "x", None, (0, 0)]
    check_lookups(f, table, [*g.elements(), *foreign])


# -- character-Gaussian tables and the Gaussian fit ------------------------------

GAUSS_LATTICES = [make_lattice([2, 3, 5], d, r)
                  for d, r in ((0, 3), (1, 40), (2, 200), (2, 7))]
GAUSS_LATTICES += [make_lattice([2, 3], 1, r) for r in (3, 24, 111)]


def random_phases(rng):
    """Phases with small, large (above 2^40) and huge (numerator above 2^62,
    or the prime denominator 3 * 2^61 + 47, whose turns on a window of
    radius 2 or more need Python integers; it is far from a power of two, so
    an int64 wrap would show) terms, of both signs and outside [0, 1)."""
    yield Fraction(0)
    yield Fraction(int(rng.integers(0, 30)), 30)
    yield Fraction(int(rng.integers(-10 ** 6, 10 ** 6)), 999983)
    big = 2 ** 40 + int(rng.integers(1, 2 ** 20))
    yield Fraction(int(rng.integers(0, big)), big)
    yield Fraction(2 ** 62 + int(rng.integers(1, 2 ** 40)), 2 ** 41 + 3)
    yield Fraction(-(2 ** 63) - int(rng.integers(1, 2 ** 40)),
                   2 ** 43 + 2 * int(rng.integers(0, 2 ** 30)) + 1)
    yield Fraction(int(rng.integers(-2 ** 62, 2 ** 62)), 3 * 2 ** 61 + 47)


def gaussian_tol(want, exponent):
    """Bound on ``|values - oracle|`` at each point of a character-Gaussian
    table ``exp(2 pi i turn - exponent)``, ``u = EPS/2``: each side's phase
    carries ``(6 pi + 2) u`` (three roundings of an angle below ``2 pi``, and
    ``exp``), and its modulus ``(1 + 2|exponent|) u`` relative (the square,
    the product and ``exp``); a subnormal result adds its spacing."""
    tiny = np.finfo(float).smallest_subnormal
    return (22 + 2 * np.abs(exponent)) * EPS * np.abs(want) + 2 * tiny


@pytest.mark.parametrize("lat", GAUSS_LATTICES, ids=repr)
def test_character_gaussian_values_match_oracle(lat):
    rng = np.random.default_rng([23, lat.radius, lat.denominator])
    for phase in random_phases(rng):
        for sigma in (0.0, 0.25, -0.2, float(rng.normal()), 1e-4):
            try:
                want = character_gaussian_oracle(lat.points, lat.denominator,
                                                 phase, sigma)
            except OverflowError:  # exp(-sigma y^2) beyond the float range
                with pytest.raises(CapacityError):
                    character_gaussian_values(lat, phase, sigma)
                continue
            f = character_gaussian_values(lat, phase, sigma)
            assert f.points == lat.points
            ys = np.array([float(p) for p in lat.points])
            assert np.all(np.abs(f.values - want)
                          <= gaussian_tol(want, sigma * ys ** 2)), (phase,
                                                                     sigma)


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
    # Random values on a sub-window through 0, and on one that misses 0.
    for sub in (pts[3:], pts[lat.radius + 1:]):
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
        if not generator_support(f):
            # The phase test reads supports that generator checks cover.
            with pytest.raises(DomainError):
                fit_gaussian_ratio(f)
            continue
        sigma, residual, modulus_ok, margin = gaussian_fit_oracle(
            as_dict(f), FIT_TOL)
        # The parent's verdict: modulus test and is_character on the phase.
        ok = modulus_ok and is_character(f.phase_part(),
                                         tol=max(FIT_TOL, 1e-9))
        fit = fit_gaussian_ratio(f)
        # Each side is within the field's a-priori noise floor of the exact
        # value, so the two are within twice that.
        bound = 2 * fit.modulus_residual.floor
        assert abs(fit.sigma - sigma) <= 2 * fit.sigma.floor
        assert abs(fit.modulus_residual - residual) <= bound
        if margin > bound:
            assert fit.ok == ok


def test_fit_gaussian_ratio_nan_defect_verdict():
    """An infinite value, or two adjacent ones, give a NaN phase defect,
    which is_character accepts.  The phase part and the ratio difference
    read NaN there, and numpy warns of nothing (the suite raises
    RuntimeWarning)."""
    lat = LATTICES[1]
    base = character_gaussian_values(lat, Fraction(1, 3), 0.1)
    for infs in ([2], [2, 3]):
        vals = base.values.copy()
        vals[infs] = np.inf
        f = FunctionTable(lat, base.points, vals)
        assert np.isnan(f.phase_part().values[infs]).all()
        step = lat.points[lat.radius + 1]
        both = [i for i in infs if i + 1 in infs]  # inf / inf
        assert np.isnan(ratio_diff(f, step).values[both]).all()
        fit = fit_gaussian_ratio(f)
        assert np.isnan(fit.phase_defect)
        assert fit.phase_is_character == is_character(
            f.phase_part(), tol=max(FIT_TOL, 1e-9))
        sigma, residual, modulus_ok, _ = gaussian_fit_oracle(as_dict(f),
                                                             FIT_TOL)
        assert fit.ok == (modulus_ok and fit.phase_is_character)
        assert (repr(fit.sigma), repr(fit.modulus_residual)) \
            == (repr(sigma), repr(residual))


# -- joint laws and shift recovery against the dense tables --------------------

JOINT_GROUPS = GROUPS + [(9, 8), (1021,), (30, 50)]


def group_id(orders):
    return "x".join(map(str, orders))


def smallest_prime(n: int) -> int:
    return next(p for p in range(2, n + 1) if n % p == 0)


def with_char(d: Distribution, values) -> Distribution:
    """A copy of ``d`` whose characteristic function reads ``values``."""
    out = Distribution(d.group, d.masses)
    out.__dict__["char_array"] = values
    return out


def plan_specs(g: Group, endos):
    """Specs whose factors ``factor_plan`` reads in each of its ways: box
    factors, columns (``b_j = 0``), rows (``a_j = 0``) and a constant
    factor (``a_j = b_j = 0``)."""
    one, zero = Endo.identity(g), Endo.zero(g)
    b = endos[-3:]
    return [LinearFormSpec.form_II(kotlarski_coeffs(g)),
            LinearFormSpec.form_I([Endo.scalar(g, c) for c in (0, 1, 2)]),
            LinearFormSpec(g, (one, zero, one), (b[0], zero, b[2])),
            LinearFormSpec(g, (one, zero, one, b[1]),
                           (zero, b[0], b[2], b[1])),
            LinearFormSpec(g, (one, zero), (zero, one))]


@pytest.mark.parametrize("orders", JOINT_GROUPS, ids=group_id)
def test_joint_sweeps_match_dense_tables(orders):
    g = Group(orders)
    endos = _suite_endos(g, list(orders))
    mus = [Distribution.random(g, [41, g.size, j], 0.2) for j in range(4)]
    nus = [Distribution.random(g, [43, g.size, j], 0.2) for j in range(4)]
    coeff_sets = [endos[-3:]] if g.size > 100 else [endos[-3:], endos[:3]]
    specs = [spec for bs in coeff_sets
             for spec in (LinearFormSpec.form_I(bs),
                          LinearFormSpec.form_II(bs),
                          LinearFormSpec.form_I(bs[:2]))]
    for spec in specs + plan_specs(g, endos):
        k = spec.arity
        assert np.array_equal(joint_char_array(spec, mus[:k]),
                              joint_char_array_dense(spec, mus[:k]))
        for other in (nus[:k], mus[:k]):
            assert (joint_residual(spec, mus[:k], other)
                    == joint_residual_dense(spec, mus[:k], other))


@pytest.mark.parametrize("orders", JOINT_GROUPS, ids=group_id)
def test_joint_sweeps_carry_nan_and_inf_of_vector_factors(orders):
    """A NaN or an infinity in a column or row factor reaches the joint
    table and the residual as in the dense tables.  An infinity sits in a
    later factor only: the dense oracle starts from a table of ones, and
    ``1 * inf`` is ``inf + nan j`` in complex arithmetic."""
    g = Group(orders)
    mus = [Distribution.random(g, [41, g.size, j], 0.2) for j in range(3)]
    nus = [Distribution.random(g, [43, g.size, j], 0.2) for j in range(3)]
    spec = LinearFormSpec.form_II(kotlarski_coeffs(g))  # column, box, row
    at = int(np.random.default_rng([97, g.size]).integers(g.size))
    for j, value in ((0, np.nan), (2, np.nan), (2, np.inf)):
        vals = mus[j].char_array.copy()
        vals[at] = value
        bad = list(mus)
        bad[j] = with_char(mus[j], vals)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(joint_char_array(spec, bad),
                                  joint_char_array_dense(spec, bad),
                                  equal_nan=True)
            for other in (nus, bad):
                got = joint_residual(spec, bad, other)
                want = joint_residual_dense(spec, bad, other)
                assert not np.isfinite(got)
                assert got == want or np.isnan(got) and np.isnan(want)


def test_repeated_shift_campaign_builds_no_factor_plan(tmp_path):
    out = str(tmp_path / "report.json")
    argvs = [["verify-shift", "--group", "30x50", "--form", "II",
              "--trials", "1", "--out", out],
             ["counterexample", "--kind", "poisson-pair", "--group", "30x50",
              "--out", out]]
    factor_plan.cache_clear()
    for argv in argvs:
        assert main(argv) == 0
    first = factor_plan.cache_info()
    for argv in argvs:
        assert main(argv) == 0
    second = factor_plan.cache_info()
    assert first.misses > 0 and second.misses == first.misses
    assert second.hits > first.hits


def closed_form_tol(a: float) -> float:
    """Bound on ``|package - oracle|`` at any entry of the Poisson closed
    form ``e^{-4a} exp(4a (x0,u)(x~,v)) mu_hat(u + b3~ v)``, ``u = 2^-53``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, §3.1 and Lemma 3.5), to first order in ``u``.

    Both sides read the root table ``Group.roots``, whose entries are within
    ``e = (6 pi + 2) u`` of the exact roots (``transform_bound``).  The
    oracle takes ``exp`` of ``w = 4a r_u r_v``, two table entries times
    ``4a`` with one rounding and a complex product (``2 sqrt(2) u``):
    within ``4a (2e + 4u)`` of ``4a zeta``, ``zeta`` the exact root of the
    phase sum.  The package takes it of ``4a r_k``, one entry and one
    rounding: within ``4a (e + u)``.  ``e^{-4a} exp`` moves a difference
    ``dw`` by at most ``|dw|``, as ``Re w <= 4a`` to first order.  After
    that each side rounds ``exp`` (libm's ``exp``, ``cos`` and ``sin`` within
    an ulp, and their product: ``5u`` per part), the scaling by ``e^{-4a}``
    (``2u``) and the product with ``mu_hat`` (``2 sqrt(2) u``), each relative
    to values of modulus at most 1: ``10u`` per side.  In all
    ``4a (3e + 5u) + 20u``, about ``(270a + 20) u``; the package's own part,
    ``4a (e + u) + 10u``, stays inside the ``200 rate u`` that
    ``FLOORS["closed_form_deviation"]`` adds to the joint-law floor.  A
    deviation is a maximum of moduli of differences with identical joint
    values on both sides, so it moves by no more, plus relative ``u``
    roundings of values far below the bound.
    """
    u = np.finfo(float).eps / 2
    e = (6 * np.pi + 2) * u
    return 4 * a * (3 * e + 5 * u) + 20 * u


@pytest.mark.parametrize("orders", JOINT_GROUPS, ids=group_id)
def test_poisson_pair_matches_dense_tables(orders):
    g = Group(orders)
    p = smallest_prime(g.exponent)
    bs = [Endo.scalar(g, c) for c in (1, 1 + p, 2)]
    mu3 = Distribution.random(g, [47, g.size], 0.2)
    for k, rest in ((3, mu3), (2, None)):
        mus, nus = poisson_counterexample(bs[:k], 0.7, rest)
        bound = closed_form_tol(0.7)
        got = poisson_pair_deviations(bs[:k], 0.7, rest, mus[:2],
                                      nus[:2])
        want = poisson_deviations_dense(bs[:k], 0.7, rest, mus, nus)
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= bound
        assert np.all(np.abs(poisson_closed_form_array(bs[:k], 0.7, rest)
                             - poisson_closed_form_dense(bs[:k], 0.7, rest))
                      <= bound)
        for j in (0, 1):
            assert recover_shift_dense(mus[j], nus[j]) is None
            assert recover_shift(mus[j], nus[j]) is None


def test_poisson_pair_deviations_read_mu_rest_for_the_third_factor():
    """The third factor of both sides is ``mu_rest``, read by value: a copy
    of it gives the deviations of the dense tables of the pair."""
    g = Group([6])
    bs = [Endo.scalar(g, c) for c in (1, 3, 2)]
    mu3 = Distribution.random(g, [43, 6], 0.2)
    mus, nus = poisson_counterexample(bs, 0.7, mu3)
    want = poisson_deviations_dense(bs, 0.7, mu3, mus, nus)
    for rest in (mu3, Distribution(g, mu3.masses)):
        got = poisson_pair_deviations(bs, 0.7, rest, mus[:2], nus[:2])
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= closed_form_tol(0.7)


# JOINT_GROUPS holds 2x4 and 6x6, with 3 nonzero elements of order 2 each;
# 2x2x2 has 7 and no other nonzero element.
@pytest.mark.parametrize("orders", JOINT_GROUPS + [(2, 2, 2)], ids=group_id)
def test_transforms_and_roots_are_exactly_conjugate_symmetric(orders):
    """``f(-y) == conj(f(y))`` exactly, and so ``f(y)`` real where
    ``2y = 0``, for ``Group.roots`` under ``k -> -k mod L``, every row of
    ``char_arrays`` and the ``char_array`` of Poisson laws."""
    g = Group(orders)
    L = g.exponent
    assert np.array_equal(g.roots[-np.arange(L) % L], g.roots.conj())
    masses, _, _ = distributions.random_masses(
        g, [[71, g.size, j] for j in range(3)], 0.2)
    rows = [*distributions.char_arrays(g, masses),
            *(Distribution.poisson(g, 0.7, x).char_array
              for x in g.points_at(g.every[-2:]))]
    for c in rows:
        assert np.array_equal(c[g.neg_index], c.conj())
    assert len(g.mirror[0]) == (g.size + g.order_two_count() + 1) // 2


@pytest.mark.parametrize("orders", [(7,), (2, 4), (6, 6), (9, 8)],
                         ids=group_id)
def test_broken_symmetry_sweeps_the_whole_grid(orders, monkeypatch):
    """One finite entry of a factor table moved off its mirror's conjugate
    makes ``joint_residual`` and ``poisson_pair_deviations`` sweep all
    ``n^2`` pairs, and they still equal the dense oracle exactly; with
    every table symmetric they sweep the ``n (n + t) / 2`` of the mirror
    half.  A moved entry of the Poisson phase table does the same."""
    g = Group(orders)
    pairs, blocks = [], distributions.pair_index_blocks

    def recording(*args):
        for rows, reads, bufs in blocks(*args):
            pairs.append(bufs[0].size)
            yield rows, reads, bufs

    monkeypatch.setattr(distributions, "pair_index_blocks", recording)
    at = int(np.random.default_rng([103, g.size]).integers(g.size))

    def moved(d):
        vals = d.char_array.copy()
        vals[at] += 1e-3j
        return with_char(d, vals)

    def swept(fn, *args):
        pairs.clear()
        return fn(*args), sum(pairs)

    half, whole = g.size * len(g.mirror[0]), g.size ** 2
    mus = [Distribution.random(g, [41, g.size, j], 0.2) for j in range(4)]
    nus = [Distribution.random(g, [43, g.size, j], 0.2) for j in range(4)]
    for spec in plan_specs(g, _suite_endos(g, list(orders))):
        k = spec.arity
        got, n = swept(joint_residual, spec, mus[:k], nus[:k])
        assert (got, n) == (joint_residual_dense(spec, mus[:k], nus[:k]),
                            half)
        for j in range(k):
            bad = [*mus[:j], moved(mus[j]), *mus[j + 1:k]]
            got, n = swept(joint_residual, spec, bad, nus[:k])
            assert (got, n) == (joint_residual_dense(spec, bad, nus[:k]),
                                whole)
    p = smallest_prime(g.exponent)
    bs = [Endo.scalar(g, c) for c in (1, 1 + p, 2)]
    rest = Distribution.random(g, [47, g.size], 0.2)
    pmus, pnus = poisson_counterexample(bs, 0.7, rest)
    bad = moved(rest)
    for lhs, r, n_want in (((*pmus[:2], rest), rest, half),
                           ((moved(pmus[0]), pmus[1], rest), rest, whole),
                           ((*pmus[:2], bad), bad, whole)):
        got, n = swept(poisson_pair_deviations, bs, 0.7, r, lhs[:2], pnus[:2])
        want = poisson_deviations_dense(bs, 0.7, r, lhs, (*pnus[:2], r))
        assert got[0] == want[0] and n == n_want
        assert abs(got[1] - want[1]) <= closed_form_tol(0.7)
    phase_table = identify._phase_table

    def moved_phase(*args):
        out = phase_table(*args)
        out[1] += 1e-3j
        return out

    monkeypatch.setattr(identify, "_phase_table", moved_phase)
    got, n = swept(poisson_pair_deviations, bs, 0.7, rest, pmus[:2],
                   pnus[:2])
    want = poisson_deviations_dense(bs, 0.7, rest, pmus, pnus)
    assert got[0] == want[0] and n == whole


def shift_cases(g: Group):
    """(label, mu, nu, the element the dense search must return)."""
    n, tol = g.size, 1e-8
    rng = np.random.default_rng([53, n])
    x = g.element_at(int(rng.integers(n)))
    mu = Distribution.random(g, [59, n], 0.2)
    uniform = Distribution.uniform(g)
    yield "uniform", uniform, uniform, g.zero
    yield "shifted", mu, mu.shift(x), x
    yield "unrelated", mu, Distribution.random(g, [61, n], 0.2), None
    # Invariant under shifts by the subgroup killed by p, so every x + h
    # with h in it ties with x.
    H = Endo.scalar(g, smallest_prime(g.exponent)).kernel()
    inv = Distribution(g, np.mean([mu.shift(h).masses for h in H], axis=0))
    yield "subgroup-invariant", inv, inv.shift(x), "dense"
    y = int(rng.integers(n))
    for eps, want in ((tol / 2, x), (2 * tol, None)):
        vals = mu.shift(x).char_array.copy()
        vals[y] += eps
        yield f"perturbed by {eps:g}", mu, with_char(mu.shift(x), vals), want
    # min |mu_hat| near 1e-9: every x is within tol, the shift is nearest.
    masses = np.full(n, (1 - 1e-9) / n)
    masses[int(rng.integers(n))] += 1e-9
    tiny = Distribution(g, masses)
    yield "tiny characteristic function", tiny, tiny.shift(x), x
    p = smallest_prime(g.exponent)
    mus, nus = kernel_counterexample([Endo.scalar(g, c) for c in (1, 2, p)])
    yield "kernel-mass", mus[2], nus[2], None


@pytest.mark.parametrize("orders", JOINT_GROUPS, ids=group_id)
def test_recover_shift_matches_dense_search(orders):
    g = Group(orders)
    for label, mu, nu, want in shift_cases(g):
        got = recover_shift(mu, nu)
        assert got == recover_shift_dense(mu, nu), label
        if want != "dense":
            assert got == want, label
        # The screen keeps every x within tol of the dense search ...
        a, b = mu.char_array, nu.char_array
        dev = np.max(np.abs(b[None, :] - a[None, :] * g.pairing_matrix),
                     axis=1)
        kept = _shift_screen(g, a[None], b[None], 1e-8)[0]
        assert kept[dev < 1e-8].all(), label
        # ... and, for a nonvanishing mu_hat, nothing but the shift.
        if label == "shifted":
            assert np.flatnonzero(kept).tolist() == [g.index(want)]


@pytest.mark.parametrize("orders", JOINT_GROUPS, ids=group_id)
def test_shift_screen_rounding_bound_holds(orders):
    """The computed L2^2 stays within half of the screen's bound E (which is
    twice the error budget) of the extended-precision sum it replaces."""
    g = Group(orders)
    n, u = g.size, np.finfo(float).eps / 2
    for label, mu, nu, _ in shift_cases(g):
        a, b = mu.char_array, nu.char_array
        w = a.conj() * b
        S, T = float(np.vdot(a, a).real), float(np.vdot(b, b).real)
        l2 = S + T - 2 * np.fft.fftn(w.reshape(orders)).reshape(-1).real
        E = 2 * u * ((2 * n + 8) * (S + T)
                     + 64 * np.log2(4 * n) * np.sqrt(n) * np.linalg.norm(w))
        P = g.pairing_matrix.astype(np.clongdouble)
        exact = (np.abs(b.astype(np.clongdouble)[None, :]
                        - a.astype(np.clongdouble)[None, :] * P) ** 2
                 ).sum(axis=1)
        assert np.max(np.abs(l2 - exact.astype(float))) <= E / 2, label


@pytest.mark.parametrize("form", ("I", "II"))
@pytest.mark.parametrize("orders", [(n,) for n in range(2, 17)] + [
    (3, 9), (4, 3), (5, 5), (11, 13), (25,), (30, 50)], ids=group_id)
def test_find_shift_coeffs_closed_form_matches_search(orders, form):
    g = Group(orders)
    assert find_shift_coeffs(g, form) == find_shift_coeffs_search(g, form)


@pytest.mark.parametrize("orders", GROUPS, ids=group_id)
def test_kernel_conditions_match_kernel_lists(orders):
    g = Group(orders)
    endos = _suite_endos(g, list(orders))
    for e in endos:
        for f in endos:
            assert (kernel_conditions((True, True), (e, f))["ker(b1-b2)=0"]
                    == (len((e - f).kernel()) == 1))
            assert (kernel_conditions((True, False), (e, f))["ker(b2)=0"]
                    == (len(f.kernel()) == 1))


def test_shift_verifiers_and_poisson_pair_build_no_addition_table(
        monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("the dense addition table was built")

    monkeypatch.setattr(Group, "add_table", property(refuse))
    for form, orders, cs in (("I", [7], (0, 1, 2)), ("II", [4, 3], (0, 1, 1))):
        g = Group(orders)
        bs = [Endo.scalar(g, c) for c in cs]
        mus = [Distribution.random(g, [67, j], 0.2) for j in range(3)]
        shifts = consistent_shifts(bs, form, g.element_at(5))
        nus = [mu.shift(x) for mu, x in zip(mus, shifts)]
        for mu, x, nu in zip(mus, shifts, nus):
            moved = [g.index(g.add(y, x)) for y in g.elements()]
            assert np.array_equal(nu.masses[moved], mu.masses)
        verify = verify_form_I if form == "I" else verify_form_II
        report = verify(bs, mus, nus)
        assert (report.verdict, report.shifts) == (VERDICT_SHIFT, shifts)
    out = tmp_path / "report.json"
    assert main(["counterexample", "--kind", "poisson-pair",
                 "--out", str(out)]) == 0


def test_campaigns_convert_at_most_one_point_per_call(monkeypatch, tmp_path):
    """Tables are built on indices: points are converted only at the API,
    one step or zero at a time."""
    converted = []
    for cls in (Group, RationalLattice):
        def counting(self, points, original=cls.indices):
            converted.append(len(points))
            return original(self, points)
        monkeypatch.setattr(cls, "indices", counting)
    out = tmp_path / "report.json"
    assert main(["verify-gaussian", "--radius", "60", "--trials", "1",
                 "--out", str(out)]) == 0
    assert main(["counterexample", "--kind", "bernstein", "--group", "6x6",
                 "--out", str(out)]) == 0
    assert converted and max(converted) <= 1


# -- spectral characteristic functions against the dense products ----------

SPECTRAL_GROUPS = [(1,), (2, 1)] + GROUPS + [(63,), (64,), (7, 9), (8, 8),
                                            (1021,), (30, 50)]


def transform_bound(v) -> float:
    """Bound on ``|FFT - dense product|`` at any entry of
    ``sum_x v[x] pair(x, y)``, ``n = len(v)``, ``u = 2^-53``; each side is
    held to the exact sum (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002).

    FFT: the §24.1 term of ``groups._shift_screen``, ``c log2(m) u`` times
    the exact transform's 2-norm, ``sqrt(n) |v|_2`` by Parseval, with
    ``c = 32`` and ``m = 4n``; it bounds every entry.  The scalings by
    ``1/n`` and ``n`` add ``2u |v|_1``.  Dense product: each of the ``n``
    complex products and the sum are off by ``sqrt(2) gamma_{n+2} |v|_1``
    (§3.1, Lemma 3.5), and each table entry by ``(6 pi + 2) u``: its angle
    ``2 pi k / L`` carries three roundings of a value below ``2 pi``, and
    ``exp`` one more in each part.
    """
    n, u = len(v), np.finfo(float).eps / 2
    l1, l2 = float(np.abs(v).sum()), float(np.linalg.norm(v))
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    fft = 32 * np.log2(4 * n) * u * np.sqrt(n) * l2 + 2 * u * l1
    dense = (np.sqrt(2) * gamma + (6 * np.pi + 2) * u) * l1
    return fft + dense


def poisson_bound(hat) -> float:
    """Bound on ``|FFT masses - dense masses|`` of a Poisson law with
    characteristic function ``hat``.

    Before clipping, both mass vectors are transforms divided by ``n``, so
    each entry is within ``e = (transform_bound(hat) + u |hat|_1) / n`` of
    the other.  Clipping at 0 keeps that, and moves the sums ``s`` and ``t``
    apart by at most ``n e``; the sums are at least ``1 - n e``, since the
    unclipped exact masses sum to ``hat(0) = 1``.  So
    ``|a/s - b/t| <= |a - b|/s + (b/t) |t - s|/s <= (n + 1) e / (1 - n e)``,
    and the final division adds ``u``.
    """
    n, u = len(hat), np.finfo(float).eps / 2
    e = (transform_bound(hat) + u * float(np.abs(hat).sum())) / n
    return (n + 1) * e / (1 - n * e) + u


def transform_laws(g: Group):
    """(label, law) for the transform comparisons."""
    x0 = g.element_at(int(np.random.default_rng([73, g.size]).integers(
        min(1, g.size - 1), g.size)))
    yield "random", Distribution.random(g, [79, g.size], 0.2)
    yield "degenerate at 0", Distribution.degenerate(g, g.zero)
    yield f"degenerate at {x0}", Distribution.degenerate(g, x0)
    yield "uniform", Distribution.uniform(g)
    yield f"poisson at {x0}", Distribution.poisson(g, 0.7, x0)


@pytest.mark.parametrize("orders", SPECTRAL_GROUPS, ids=group_id)
def test_spectral_transforms_match_dense_products(orders):
    g = Group(orders)
    for label, d in transform_laws(g):
        err = np.max(np.abs(d.char_array - char_array_dense(d)))
        assert err <= transform_bound(d.masses), label
    x0 = g.element_at(g.size // 2)
    for x in (g.zero, x0):
        for lam in (0.0, 0.7, 3.0):
            hat = np.exp(lam * (g.pairing_matrix[g.index(x)] - 1.0))
            err = np.max(np.abs(Distribution.poisson(g, lam, x).masses
                                - poisson_dense(g, lam, x).masses))
            assert err <= poisson_bound(hat), (x, lam)
    for seed in range(20):
        assert np.array_equal(Distribution.random(g, [83, seed]).masses,
                              random_dense(g, [83, seed]).masses), seed


def char_floor(g: Group) -> float:
    """The README's bound on a characteristic-function entry of a law, an
    FFT: ``(32 log2(4n) sqrt(n) + 2) u``, ``log2(4n)`` taken as the bit
    length of ``4n``."""
    n, u = g.size, np.finfo(float).eps / 2
    return (32 * (4 * n).bit_length() * np.sqrt(n) + 2) * u


@pytest.mark.parametrize("orders", SPECTRAL_GROUPS + [(41, 41)],
                         ids=group_id)
def test_convolution_matches_transform_and_dense_table(orders):
    """``(mu * nu)^ = mu^ nu^`` within ``3e + (n + 4) u``, ``e`` the
    ``char_floor``: each convolved mass sums ``n`` nonnegative products, so
    the masses are off by ``(n + 1) u`` in total, which the transform adds
    to its own ``e``; each side's factor is within ``e`` and their product
    rounds by ``2 sqrt(2) u``.  Below the dense-table limit the masses also
    match the sums over the addition table."""
    g = Group(orders)
    n, u = g.size, np.finfo(float).eps / 2
    laws = [d for _, d in transform_laws(g)]
    for mu, nu in zip(laws, laws[1:] + laws[:1]):
        got = mu.convolve(nu)
        err = np.max(np.abs(got.char_array - mu.char_array * nu.char_array))
        assert err <= 3 * char_floor(g) + (n + 4) * u
        if n <= groups.TABLE_SIZE_LIMIT:
            assert np.max(np.abs(got.masses - convolve_dense(mu, nu))) \
                <= ulp_tol(got.masses)


@pytest.mark.parametrize("orders", [(4,), (7,), (11,), (13,), (4, 3), (5, 5),
                                    (1021,), (30, 50)], ids=group_id)
def test_spectral_paths_build_no_dense_table(orders, monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("a dense n x n table was built")

    monkeypatch.setattr(Group, "pairing_matrix", property(refuse))
    monkeypatch.setattr(Group, "phase_matrix", property(refuse))
    g = Group(orders)
    mus = [Distribution.random(g, [89, j], 0.2) for j in range(3)]
    odd = g.exponent % 2 == 1
    for form, cs in (("I", (0, 1, 2)), ("II", (0, 1, 1))):
        bs = [Endo.scalar(g, c) for c in cs]
        shifts = consistent_shifts(bs, form, g.element_at(5 % g.size))
        nus = [mu.shift(x) for mu, x in zip(mus, shifts)]
        verify = verify_form_I if form == "I" else verify_form_II
        report = verify(bs, mus, nus)
        if form == "I" and not odd:
            # ker(0 - 2) holds the elements of order two
            assert report.verdict == VERDICT_PRECONDITIONS
        else:
            assert (report.verdict, report.shifts) == (VERDICT_SHIFT, shifts)
    x = g.element_at((g.size - 7) % g.size)
    assert recover_shift(mus[0], mus[0].shift(x)) == x
    assert recover_shift(mus[0], mus[1]) is None
    # A full character table takes the screened search.
    char = g.roots[g.phase_idx(g.index(x), np.arange(g.size))]
    assert locate_character(FunctionTable(g, g.elements(), char)) == x
    assert locate_character(FunctionTable(g, g.elements(), -char)) is None
    x0 = g.element_at(1)
    row = g.roots[g.phase_idx(g.index(x0), np.arange(g.size))]
    law = Distribution.poisson(g, 0.7, x0)
    assert np.max(np.abs(law.char_array - np.exp(0.7 * (row - 1.0)))) < 1e-12
    p = smallest_prime(g.exponent)
    out = tmp_path / "report.json"
    assert main(["counterexample", "--kind", "poisson-pair",
                 "--group", "x".join(map(str, orders)),
                 "--coeffs", f"1,{1 + p},2", "--out", str(out)]) == 0


# -- joint-law sweeps split into row stripes ---------------------------------


def record_stripes(monkeypatch):
    """Monkeypatch ``pair_index_blocks`` to record the ``(lo, hi)`` of every
    stripe a sweep reads."""
    stripes, blocks = [], distributions.pair_index_blocks

    def recording(plan, size, cols, dtypes, lo, hi, block):
        stripes.append((lo, hi))
        return blocks(plan, size, cols, dtypes, lo, hi, block)

    monkeypatch.setattr(distributions, "pair_index_blocks", recording)
    return stripes


def split_cases(g: Group):
    """(label, sweep, arguments) of every grid sweep: the joint table and
    residual of specs that read every kind of factor, the Poisson closed
    form and deviations, and each with a NaN or an infinity in a column, a
    box and a row factor of form II's ``(0, 1, 1)`` (``kotlarski_coeffs``)
    and in a box factor and the third factor of the Poisson pair."""
    endos = _suite_endos(g, list(g.orders))
    mus = [Distribution.random(g, [41, g.size, j], 0.2) for j in range(4)]
    nus = [Distribution.random(g, [43, g.size, j], 0.2) for j in range(4)]
    specs = [LinearFormSpec.form_I(endos[-3:]),
             LinearFormSpec.form_II(endos[-3:]), *plan_specs(g, endos)]
    for i, spec in enumerate(specs):
        k = spec.arity
        yield f"spec {i}", joint_char_array, (spec, mus[:k])
        yield f"spec {i}", joint_residual, (spec, mus[:k], nus[:k])
    p = smallest_prime(g.exponent)
    bs = [Endo.scalar(g, c) for c in (1, 1 + p, 2)]
    rest = Distribution.random(g, [47, g.size], 0.2)
    pmus, pnus = poisson_counterexample(bs, 0.7, rest)
    yield "poisson", poisson_closed_form_array, (bs, 0.7, rest)
    yield "poisson", poisson_pair_deviations, (bs, 0.7, rest, pmus[:2],
                                               pnus[:2])
    at = int(np.random.default_rng([101, g.size]).integers(g.size))

    def spoilt(d, value):
        vals = d.char_array.copy()
        vals[at] = value
        return with_char(d, vals)

    spec = LinearFormSpec.form_II(kotlarski_coeffs(g))  # column, box, row
    for value in (np.nan, np.inf):
        for j in range(3):
            bad = list(mus[:3])
            bad[j] = spoilt(mus[j], value)
            label = f"{value} in factor {j}"
            yield label, joint_char_array, (spec, bad)
            yield label, joint_residual, (spec, bad, nus[:3])
            yield label, joint_residual, (spec, bad, bad)
        label = f"{value} in the Poisson pair"
        yield label, poisson_closed_form_array, (bs, 0.7, spoilt(rest, value))
        yield label, poisson_pair_deviations, (
            bs, 0.7, spoilt(rest, value), [spoilt(pmus[0], value), pmus[1]],
            pnus[:2])


# The Poisson pair of ``split_cases`` needs an element of prime order.
@pytest.mark.parametrize("orders", SPECTRAL_GROUPS[1:] + [(41, 41)],
                         ids=group_id)
def test_split_sweeps_equal_unsplit_sweeps(orders, monkeypatch):
    """Every grid sweep gives the same values, ``==`` and NaN for NaN, on
    one stripe and on two or three.  A grid of fewer than two blocks is
    swept in blocks of 2 pairs, so that it splits too, into one stripe per
    row on Z2; 1021 and 41x41 rows fall into stripes of unequal lengths.
    Above the dense-table gate, as on 41x41, the dense joint table and
    closed form are refused, and the residual sweeps run."""
    g = Group(orders)
    if g.size ** 2 < 2 * distributions.JOINT_BLOCK:
        monkeypatch.setattr(distributions, "JOINT_BLOCK", 2)
    stripes = record_stripes(monkeypatch)
    for label, sweep, args in split_cases(g):
        if (sweep in (joint_char_array, poisson_closed_form_array)
                and g.size > groups.TABLE_SIZE_LIMIT):
            with pytest.raises(CapacityError):
                sweep(*args)
            continue
        with np.errstate(invalid="ignore"):
            monkeypatch.setattr(distributions, "CPUS", 1)
            want = sweep(*args)
            for cpus in (2, 3):
                monkeypatch.setattr(distributions, "CPUS", cpus)
                stripes.clear()
                assert np.array_equal(sweep(*args), want, equal_nan=True), \
                    (label, sweep.__name__, cpus)
                k = min(cpus, g.size)
                cuts = [g.size * i // k for i in range(k + 1)]
                assert sorted(stripes) == list(zip(cuts, cuts[1:]))


def test_stripe_errors_reach_the_caller_after_every_stripe(monkeypatch):
    """An exception raised in a later stripe is raised by the call, which
    returns only once every stripe has finished; the first stripe, in row
    order, that raised is the one reported."""
    g = Group([30])
    plan = factor_plan(LinearFormSpec.form_I([Endo.scalar(g, 1)] * 2).pairs)
    monkeypatch.setattr(distributions, "JOINT_BLOCK", 60)
    monkeypatch.setattr(distributions, "CPUS", 3)
    for raising in ({10}, {20}, {10, 20}):
        done = []

        def body(rows, reads, bufs):
            stripe = rows.start // 10 * 10
            if stripe in raising and rows.start == stripe:
                raise DomainError(f"stripe {stripe}")
            time.sleep(0.01)
            done.append(rows.start)

        with pytest.raises(DomainError, match=f"stripe {min(raising)}"):
            distributions.sweep_rows(plan, g.size, g.size, [], body)
        assert sorted(done) == [r for r in range(30)
                                if r // 10 * 10 not in raising]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("orders", [(1021,), (30, 50)], ids=group_id)
def test_split_sweeps_keep_the_callers_error_state(orders, monkeypatch):
    """An infinity in the last row's column factor makes the last stripe
    multiply ``inf`` by a finite value with a zero part, an invalid
    operation: under ``np.errstate(invalid="raise")`` the call raises
    FloatingPointError, under ``invalid="ignore"`` it warns of nothing and
    returns a residual that is not finite, however many stripes there
    are."""
    g = Group(orders)
    mus = [Distribution.random(g, [41, g.size, j], 0.2) for j in range(3)]
    vals = mus[0].char_array.copy()
    vals[g.size - 1] = np.inf
    bad = [with_char(mus[0], vals), *mus[1:]]
    spec = LinearFormSpec.form_II(kotlarski_coeffs(g))  # column, box, row
    stripes = record_stripes(monkeypatch)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(distributions, "CPUS", cpus)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            joint_residual(spec, bad, mus)
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(joint_residual(spec, bad, mus))
        assert len(set(stripes)) == cpus
        stripes.clear()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_sweeps_split_grids(monkeypatch):
    """A child forked after a split sweep has built the pool sweeps split
    grids too, on a pool of its own; it has 10 s to finish."""
    monkeypatch.setattr(distributions, "CPUS", 2)
    g = Group([1021])
    mus = [Distribution.random(g, [41, g.size, j], 0.2) for j in range(3)]
    nus = [Distribution.random(g, [43, g.size, j], 0.2) for j in range(3)]
    spec = LinearFormSpec.form_II(kotlarski_coeffs(g))
    want = joint_residual(spec, mus, nus)
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if joint_residual(spec, mus, nus) == want else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 10
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's sweep did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_tiny_campaigns_start_no_pool(tmp_path):
    """Campaigns whose grids hold fewer than two blocks import no executor,
    even on a host of several CPUs; a campaign on Z30xZ50 builds the pool."""
    script = f"""
import sys
from groupident import distributions
from groupident.cli import main
distributions.CPUS = 2
out = {str(tmp_path / "report.json")!r}
for argv in (["verify-shift", "--group", "7", "--trials", "2"],
             ["invariants", "--groups", "2..4"],
             ["verify-gaussian", "--radius", "20", "--trials", "1"]):
    assert main([*argv, "--out", out]) == 0
print("concurrent.futures" in sys.modules)
assert main(["verify-shift", "--group", "30x50", "--form", "II",
             "--trials", "1", "--out", out]) == 0
print("concurrent.futures" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parent.parent / "src"),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


# -- character checks on rows of values, and the root-table certificate ----

BATCH_GROUPS = [(2,), (7,), (12,), (2, 4), (4, 6), (6, 6), (3, 3, 2),
                (9, 8)]


def batch_rows(g: Group, rng):
    """(label, values on all of g) of one block's rows: characters, one of
    them moved by twice the tolerance, NaN or zero at one point (zero at a
    generator), or turned by opposite phases at ``y`` and ``-y`` (which
    keeps the side conditions of the Bernstein check and fails its pair
    equation), the square table and a random unit-modulus row."""
    P = np.concatenate(list(g.character_rows()))
    xs = rng.choice(g.size, size=min(4, g.size), replace=False)
    out = [(f"character {x}", P[x]) for x in xs]
    x, point = xs[-1], int(rng.integers(g.size))
    gen = int(g.generators[rng.integers(g.rank)])
    for label, at, value in (("moved by 2 tol", point, P[x, point] * (1 + 2 * TOL)),
                             ("NaN", point, np.nan),
                             ("zero", gen, 0.0)):
        vals = P[x].copy()
        vals[at] = value
        out.append((f"character {x}, {label} at {at}", vals))
    y = int(rng.integers(1, g.size))
    if g.neg_index[y] != y:
        vals = P[x].copy()
        vals[[y, g.neg_index[y]]] *= np.exp([1e-3j, -1e-3j])
        out.append((f"character {x}, turned at +-{y}", vals))
    if g.rank == 2 and not any(n % 2 for n in g.orders):
        out.append(("square table", bernstein_square_table(g).values))
    out.append(("random unit modulus", np.exp(2j * np.pi * rng.random(g.size))))
    return out


@pytest.mark.parametrize("orders", BATCH_GROUPS, ids=group_id)
def test_batched_checks_match_per_table_oracles(orders):
    """The one-table checks on each row of ``batch_rows``, built from the
    group's points in a random order, give the oracles' verdicts."""
    g = Group(orders)
    rng = np.random.default_rng([71, *orders])
    for label, row in batch_rows(g, rng):
        f = shuffled(g, g.every, row, rng)
        table = as_dict(f, coords)
        bound = ulp_tol(np.where(np.isfinite(f.values), f.values, 0))
        want = locate_character_oracle(orders, table, TOL)
        assert locate_character(f, TOL) == (
            None if want is None else g.element(want)), label
        verdict, margin = bernstein_oracle(orders, table, TOL)
        if not margin <= bound:
            assert bernstein_check(f, TOL) == verdict, label
        defect = character_defect_oracle(orders, table)
        if not abs(defect - TOL) <= bound:
            assert is_character(f, TOL) == (defect <= TOL
                                            and want is not None), label


@pytest.mark.parametrize("orders", BATCH_GROUPS + [(5, 13)], ids=group_id)
def test_generator_location_matches_exhaustive_search(orders):
    """Characters with each value moved by up to about a half to twice the
    tolerance, at tolerances around ``sin(pi/L)/2``, below which at most one
    character passes, and a character turned at a unit vector: on tables
    built from the points in a random order ``locate_character`` returns
    what the dense oracle returns."""
    g = Group(orders)
    rng = np.random.default_rng([73, *orders])
    P = np.concatenate(list(g.character_rows()))
    edge = np.sin(np.pi / g.exponent) / 2
    # A character turned at the first unit vector by just over half a step
    # of its phase: within 2 sin(pi/L) of it where n_1 = L, but its phase
    # there rounds to the next character.
    x, n1 = int(rng.integers(g.size)), g.orders[0]
    turned = P[x].copy()
    turned[g.generators[0]] *= np.exp(1j * np.pi / n1 * 1.001)
    for tol in (TOL, 1e-3 * edge, np.nextafter(edge, 0), edge,
                np.nextafter(edge, 1), 1.5 * edge, 3 * edge):
        scale = tol * np.array([0.5, 0.9, 0.99, 1.01, 1.1, 2.0])[:, None]
        noise = scale * rng.random((6, g.size)) ** 0.25
        V = np.vstack([P[rng.integers(g.size, size=6)] + noise * np.exp(
            2j * np.pi * rng.random((6, g.size))), turned])
        for row in V:
            f = shuffled(g, g.every, row, rng)
            want = locate_character_oracle(orders, as_dict(f, coords), tol)
            assert locate_character(f, tol) == (
                None if want is None else g.element(want)), tol


def per_row_checks(g: Group, tol: float) -> tuple[bool, bool]:
    """The oracle of ``character_table_checks``: ``is_character`` and
    ``bernstein_check`` on every row of the character table."""
    rows = [FunctionTable._at(g, g.every, v)
            for V in g.character_rows() for v in V]
    return (all([is_character(f, tol) for f in rows]),
            all([bernstein_check(f, tol) for f in rows]))


# Groups with several involutions, and two whose exponent exceeds every
# cyclic order.
TABLE_GROUPS = BATCH_GROUPS + [(2, 3, 5), (12, 18)]


@pytest.mark.parametrize("orders", TABLE_GROUPS, ids=group_id)
def test_character_table_checks_match_per_row_loop(orders):
    """At the default tolerance every character passes; far below the
    roots' rounding the character entries fail, so the rows are checked one
    by one, and the Bernstein table still gives the rows' verdict; above
    ``sin(pi/L)/2`` the rows are located by the search, and at 0 by none."""
    g = Group(orders)
    assert character_table_checks(g, TOL) == (True, True)
    edge = np.sin(np.pi / g.exponent) / 2
    for tol in (TOL, 1e-16, 0.0, 3 * edge):
        assert character_table_checks(g, tol) == per_row_checks(g, tol), tol


@pytest.mark.parametrize("orders", [(7,), (4, 6), (3, 3, 2), (2, 3, 5)],
                         ids=group_id)
def test_character_table_checks_see_a_perturbed_root(orders, monkeypatch):
    """One entry of ``Group.roots`` turned or scaled by ``10 TOL``: both
    paths see it at ``TOL``, and agree at tolerances on either side of the
    defects it causes, where the table passes or fails in part."""
    rng = np.random.default_rng([83, *orders])
    for factor in (np.exp(10j * TOL), 1 + 10 * TOL):
        g = Group(orders)
        w = g.roots.copy()
        w[rng.integers(1, g.exponent)] *= factor
        monkeypatch.setattr(g, "roots", w)
        assert character_table_checks(g, TOL) == (False, False)
        for tol in TOL * np.array([1, 5, 10, 15, 20, 30]):
            assert character_table_checks(g, tol) == per_row_checks(g, tol)


@pytest.mark.parametrize("dom", [Group([9, 8]), Group([12]), *LATTICES],
                         ids=repr)
def test_batched_checks_cut_into_cells_match_whole_rows(dom, monkeypatch):
    """With blocks of 7 values, ``bernstein_check``, which then cuts each
    row along the leading coordinate of ``v``, and
    ``character_table_checks`` run in short runs, and both must give the
    uncut results."""
    rng = np.random.default_rng([79, len(dom.every)])
    if isinstance(dom, Group):
        rows = [vals for _, vals in batch_rows(dom, rng)]
    else:
        rows = [character_gaussian_values(dom, Fraction(k, 97), 0.0).values
                for k in range(4)]
        rows.append(rows[0] * (1 + 2 * TOL))
    tables = [FunctionTable._at(dom, dom.every, v) for v in rows]
    checks = [lambda: [bernstein_check(f, TOL) for f in tables]]
    if isinstance(dom, Group):
        checks += [lambda: character_table_checks(dom, TOL),
                   lambda: character_table_checks(dom, 1e-16)]
    whole = [check() for check in checks]
    assert True in whole[0] and False in whole[0]
    monkeypatch.setattr(funceq, "VALUE_BLOCK", 7)
    for want, check in zip(whole, checks):
        assert check() == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dom", [Group([6, 6]), Group([7]), *LATTICES],
                         ids=repr)
def test_bernstein_check_rejects_non_finite_values(dom):
    """Any NaN or infinity fails the check, and numpy warns of nothing."""
    group = isinstance(dom, Group)
    if group:
        base = dom.roots[dom.phase_idx(dom.size - 1, dom.every)]
    else:
        base = character_gaussian_values(dom, Fraction(7, 30), 0.0).values
    assert bernstein_check(FunctionTable._at(dom, dom.every, base), TOL)
    zero = int(np.flatnonzero(dom.every == 0)[0])
    for bad in (np.nan, np.inf, complex(np.nan, np.nan)):
        for where in (zero, (zero + 1) % len(base), slice(None)):
            vals = base.copy()
            vals[where] = bad
            f = FunctionTable._at(dom, dom.every, vals)
            table = as_dict(f, coords if group else (lambda p: p))
            want, _ = bernstein_oracle(dom.orders if group else None, table,
                                       TOL)
            assert bernstein_check(f, TOL) == want is False, (bad, where)


@pytest.mark.parametrize("lat", [*LATTICES, make_lattice([2], 0, 9)],
                         ids=repr)
def test_bernstein_check_on_window_progressions_matches_oracle(lat):
    """On the window progressions ``[-R/3, R]``, every other point and a
    sub-window, each built from its points in a random order, a character
    passes, and the same
    with one Hermitian pair turned by 1e-6, or with one NaN, fails, as
    ``bernstein_oracle`` says: the padded offsets of each support line up
    with its points."""
    rng = np.random.default_rng([89, lat.radius])
    every, R = lat.every, lat.radius
    char = character_gaussian_values(lat, Fraction(7, 30), 0.0).values
    for name, idx in {"asymmetric": every[every >= -(R // 3)],
                      "every other": every[every % 2 == 0],
                      "sub-window": every[2:-1]}.items():
        y = int(rng.choice(idx[(idx > 0) & np.isin(-idx, idx)]))
        turned = char.copy()
        turned[[R + y, R - y]] *= np.exp([1e-6j, -1e-6j])
        nan = char.copy()
        nan[R + int(rng.choice(idx))] = np.nan
        for label, vals in (("character", char), ("turned", turned),
                            ("NaN", nan)):
            f = shuffled(lat, idx, vals[idx + R], rng)
            want, _ = bernstein_oracle(None, as_dict(f), TOL)
            assert want == (label == "character"), (name, label)
            assert bernstein_check(f, TOL) == want, (name, label)


def test_a_nan_fails_the_polynomial_check():
    """One NaN in ``y^2`` on a radius-60 window, or in the constant 1 on
    Z12, fails every degree, as it fails the all-steps sweep and the
    per-pair oracle on Z12."""
    lat = make_lattice([2, 3, 5], 2, 60)
    y = lat.every / lat.denominator
    g = Group([12])
    for at in (0, 1, len(y) // 2, -1):
        vals = (y ** 2).astype(complex)
        vals[at] = np.nan
        f = FunctionTable._at(lat, lat.every, vals)
        assert not is_polynomial(f, 2) and not is_polynomial_sweep(f, 2), at
        assert least_degree(f, 3) is None, at
    for at in range(g.size):
        vals = np.ones(g.size, dtype=complex)
        vals[at] = np.nan
        t = FunctionTable._at(g, g.every, vals)
        steps = [x.coords for x in g.elements()[1:]]
        assert not is_polynomial(t, 0) and not is_polynomial_sweep(t, 0), at
        assert is_polynomial_oracle(group_add((12,)), as_dict(t, coords), 0,
                                    TOL, steps) is False, at


@pytest.mark.parametrize("radius", [160, 400])
def test_a_nan_reaches_the_equation_sweeps(radius):
    """``f`` is 1 but for one NaN at the first or last point.  The sweep of
    ``f(u + v) * 1(u + 2v)`` is one row block at radius 160 and several at
    radius 400, and the NaN reaches the product and the sum defect in
    both, as it reaches the per-call sweep."""
    lat = make_lattice([2, 3, 5], 2, radius)
    ones = FunctionTable.constant(lat)
    blocks = _sweep_plan(lat, (ones.box, ones.box), None, 1, 2)
    assert (len(blocks) > 1) == (radius == 400)
    for at in (0, -1):
        vals = np.ones(len(lat.every), dtype=complex)
        vals[at] = np.nan
        f = FunctionTable._at(lat, lat.every, vals)
        assert np.isnan(ProductEquation(((f, 1), (ones, 2))).residual_defect())
        assert np.isnan(shifted_sum_degrees([f, ones], [1, 2]).equation_defect)
        for defect in (_product_defect, _sum_defect):
            assert np.isnan(sweep_max_percall([f, ones], [1, 2], None, defect))


def test_bernstein_counterexample_builds_no_dense_table(monkeypatch,
                                                       tmp_path):
    def refuse(self):
        raise AssertionError("a dense n x n table was built")

    monkeypatch.setattr(Group, "pairing_matrix", property(refuse))
    monkeypatch.setattr(Group, "phase_matrix", property(refuse))
    out = tmp_path / "report.json"
    assert main(["counterexample", "--kind", "bernstein", "--group", "6x6",
                 "--out", str(out)]) == 0


def test_bernstein_check_of_the_square_table_holds_no_pair_plan():
    """The 40x40 square table has 2.56 million pairs, whose positions
    alone would take 61 MB as int64; the check reads and tests them one
    block at a time."""
    f = bernstein_square_table(Group([40, 40]))
    tracemalloc.start()
    try:
        assert bernstein_check(f, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("dom", [Group([6, 6]), *LATTICES], ids=repr)
def test_bernstein_check_does_no_index_arithmetic(dom, monkeypatch):
    """The check reads its pairs as views of the table: it finds no
    position in the box and adds or negates no index."""
    def refuse(*args):
        raise AssertionError("index arithmetic in the Bernstein check")

    if isinstance(dom, Group):
        f = bernstein_square_table(dom)
    else:
        f = character_gaussian_values(dom, Fraction(7, 30), 0.0)
    monkeypatch.setattr(funceq, "_box_positions", refuse)
    for name in ("add_idx", "neg_idx"):
        monkeypatch.setattr(type(dom), name, refuse)
    assert bernstein_check(f, TOL)


def test_poisson_pair_deviations_keep_a_nan_of_either_side():
    """A NaN in the first characteristic function of either side reaches
    the closed-form deviation, in the sweep and in the dense oracle."""
    g = Group([6])
    bs = [Endo.scalar(g, c) for c in (1, 3, 2)]
    mu3 = Distribution.random(g, [43, 6], 0.2)
    mus, nus = poisson_counterexample(bs, 0.7, mu3)
    for side in (0, 1):
        sides = [list(mus), list(nus)]
        vals = sides[side][0].char_array.copy()
        vals[0] = np.nan
        sides[side][0] = with_char(sides[side][0], vals)
        got = poisson_pair_deviations(bs, 0.7, mu3, sides[0][:2],
                                      sides[1][:2])
        want = poisson_deviations_dense(bs, 0.7, mu3, *sides)
        assert np.isnan(got).all() and np.isnan(want).all(), side

"""The index-arithmetic pair sweeps against the per-pair oracles.

Every table is checked on its full support and on a random partial support.
Booleans must agree exactly, and so must the Hermitian defect, whose
arithmetic is unchanged.  ``character_defect`` multiplies with numpy's complex
multiply, which its window tables have always used; where numpy dispatches
SIMD loops this rounds differently from CPython's complex product, so its
group defects are held to the oracle within ``ulp_tol``, a bound set from the
float64 epsilon, and its verdicts must agree wherever the oracle's defect is
farther than that from the tolerance.
"""

import numpy as np
import pytest

from groupident import Endo, Group, annihilator, is_subgroup
from groupident.cli import _suite_endos
from groupident.endomorphisms import is_adjoint_pair
from groupident.errors import WindowMarginError
from groupident.funceq import (FunctionTable, bernstein_check,
                               bernstein_square_table, character_defect,
                               is_character, locate_character)

from oracles import (adjoint_pair_oracle, annihilator_oracle,
                     bernstein_oracle, character_defect_oracle,
                     hermitian_defect_oracle, is_subgroup_oracle,
                     locate_character_oracle)

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

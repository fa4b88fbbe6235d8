"""Independent exact-arithmetic oracles shared by the test modules."""

import cmath
import math
from fractions import Fraction
from itertools import product


def rational_rref_nullspace(rows):
    """Nullspace basis by row reduction over Fractions (no package code)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [a - fac * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


# -- pair-sweep oracles on finite groups ------------------------------------
#
# Per-pair loops over coordinate tuples, with Python complex arithmetic and
# exact Fraction phases; nothing here calls package arithmetic.  A table is a
# dict mapping coordinate tuples to complex values.


def group_elements(orders):
    return list(product(*(range(n) for n in orders)))


def _add(orders, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, orders))


def _neg(orders, x):
    return tuple((-a) % n for a, n in zip(x, orders))


def _phase(orders, x, y):
    """Pairing phase of x and y as a Fraction in [0, 1)."""
    return sum(Fraction(a * b, n) for a, b, n in zip(x, y, orders)) % 1


def _apply(orders, matrix, x):
    return tuple(sum(m * c for m, c in zip(row, x)) % n
                 for row, n in zip(matrix, orders))


def character_defect_oracle(orders, table):
    """Sup of |f(k+l) - f(k)f(l)|; None when no pair has k+l in the table."""
    worst, checked = 0.0, 0
    for k in table:
        for l in table:
            s = _add(orders, k, l)
            if s in table:
                checked += 1
                worst = max(worst, abs(table[s] - table[k] * table[l]))
    return worst if checked else None


def hermitian_defect_oracle(orders, table):
    worst = 0.0
    for p in table:
        q = _neg(orders, p)
        if q in table:
            worst = max(worst, abs(table[q] - table[p].conjugate()))
    return worst


def locate_character_oracle(orders, table, tol):
    """The x with max |pair(x, p) - f(p)| < tol over the table, if any."""
    best, best_dev = None, None
    for x in group_elements(orders):
        dev = max(abs(cmath.exp(2j * math.pi * _phase(orders, x, p)) - v)
                  for p, v in table.items())
        if best_dev is None or dev < best_dev:
            best, best_dev = x, dev
    return best if best_dev < tol else None


def bernstein_oracle(orders, table, tol):
    if max(abs(abs(v) - 1.0) for v in table.values()) > tol:
        return False
    if hermitian_defect_oracle(orders, table) > tol:
        return False
    zero = (0,) * len(orders)
    if zero not in table or abs(table[zero] - 1.0) > tol:
        return False
    for u in table:
        gu2 = table[u] ** 2
        for v in table:
            s = _add(orders, u, v)
            d = _add(orders, u, _neg(orders, v))
            if s in table and d in table:
                if abs(table[s] * table[d] - gu2) > tol:
                    return False
    return True


def adjoint_pair_oracle(orders, a, b):
    """Whether (Ax, y) = (x, By) for every pair of elements."""
    elements = group_elements(orders)
    return all(_phase(orders, _apply(orders, a, x), y)
               == _phase(orders, x, _apply(orders, b, y))
               for x in elements for y in elements)


def is_subgroup_oracle(orders, subset):
    members = set(subset)
    return ((0,) * len(orders) in members
            and all(_add(orders, x, y) in members
                    for x in subset for y in subset))


def annihilator_oracle(orders, subgroup):
    return [y for y in group_elements(orders)
            if all(_phase(orders, x, y) == 0 for x in subgroup)]

"""Independent oracles shared by the test modules: exact-arithmetic loops,
and the dense-table and per-call implementations that faster paths
replaced."""

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from groupident import Distribution, Endo, Group
from groupident.distributions import LinearFormSpec
from groupident.errors import (CapacityError, DomainError, GenerationError,
                               PreconditionError, WindowMarginError)
from groupident.funceq import _coeff_idx, kernel_conditions, summed_variables
from groupident.groups import row_blocks


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
# dict mapping coordinate tuples to complex values.  The Hermitian and
# Bernstein oracles also take window tables, keyed by Fraction points, with
# ``orders`` None.  A NaN compared reaches each sup.


def group_elements(orders):
    return list(product(*(range(n) for n in orders)))


def _add(orders, x, y):
    if orders is None:
        return x + y
    return tuple((a + b) % n for a, b, n in zip(x, y, orders))


def _neg(orders, x):
    if orders is None:
        return -x
    return tuple((-a) % n for a, n in zip(x, orders))


def _sup(values, empty=None):
    """The largest of ``values``, NaN if one is NaN, ``empty`` if none."""
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=empty)


def _phase(orders, x, y):
    """Pairing phase of x and y as a Fraction in [0, 1)."""
    return sum(Fraction(a * b, n) for a, b, n in zip(x, y, orders)) % 1


def _apply(orders, matrix, x):
    return tuple(sum(m * c for m, c in zip(row, x)) % n
                 for row, n in zip(matrix, orders))


def consistent_shifts_percall(bs, form, x1):
    """The shift recipe of one first shift ``x1`` on coordinate tuples, as
    the package ran it before its index form: each preimage by a scan of
    every element, PreconditionError where it is not unique."""
    o, m = bs[0].group.orders, [b.matrix for b in bs]

    def diff(i, j):
        return [[a - b for a, b in zip(r, s)] for r, s in zip(m[i], m[j])]

    def preimage(matrix, target):
        hits = [x for x in group_elements(o) if _apply(o, matrix, x) == target]
        if len(hits) != 1:
            raise PreconditionError(
                f"({','.join(map(str, target))}) has {len(hits)} preimages "
                f"under a coefficient that must be bijective")
        return hits[0]

    if summed_variables(form, 3)[2]:
        x2 = preimage(diff(1, 2), _neg(o, _apply(o, diff(0, 2), x1)))
        return x1, x2, _neg(o, _add(o, x1, x2))
    return x1, _neg(o, x1), preimage(m[2], _neg(o, _apply(o, diff(0, 1), x1)))


def character_defect_oracle(orders, table, add=None):
    """Sup of |f(k+l) - f(k)f(l)|; None when no pair has k+l in the table.
    ``add`` defaults to the addition of the group of ``orders``."""
    defects = []
    for k in table:
        for l in table:
            s = _add(orders, k, l) if add is None else add(k, l)
            if s in table:
                defects.append(abs(table[s] - table[k] * table[l]))
    return _sup(defects)


def hermitian_defect_oracle(orders, table):
    return _sup((abs(table[_neg(orders, p)] - v.conjugate())
                 for p, v in table.items() if _neg(orders, p) in table), 0.0)


@lru_cache(maxsize=8)
def _pairings(orders):
    """``pair(x, p)`` of every two elements, ``[x][p]``, from exact phases."""
    elements = group_elements(orders)
    return {x: {p: cmath.exp(2j * math.pi * _phase(orders, x, p))
                for p in elements} for x in elements}


def locate_character_oracle(orders, table, tol):
    """The x with max |pair(x, p) - f(p)| < tol over the table, if any."""
    best, best_dev = None, None
    for x, pair in _pairings(tuple(orders)).items():
        dev = _sup(abs(pair[p] - v) for p, v in table.items())
        if best_dev is None or dev < best_dev:
            best, best_dev = x, dev
    return best if best_dev < tol else None


def bernstein_oracle(orders, table, tol):
    """(verdict, distance from ``tol`` of the closest quantity it compares)."""
    zero = Fraction(0) if orders is None else (0,) * len(orders)
    if zero not in table:
        return False, math.inf
    qs = [abs(abs(v) - 1.0) for v in table.values()]
    qs += [hermitian_defect_oracle(orders, table), abs(table[zero] - 1.0)]
    for u in table:
        gu2 = table[u] ** 2
        for v in table:
            s = _add(orders, u, v)
            d = _add(orders, u, _neg(orders, v))
            if s in table and d in table:
                qs.append(abs(table[s] * table[d] - gu2))
    return all(q <= tol for q in qs), min(abs(q - tol) for q in qs)


def adjoint_pair_oracle(orders, a, b):
    """Whether (Ax, y) = (x, By) for every pair of elements."""
    elements = group_elements(orders)
    return all(_phase(orders, _apply(orders, a, x), y)
               == _phase(orders, x, _apply(orders, b, y))
               for x in elements for y in elements)


def index_map_oracle(orders, matrix):
    """Position of ``A x`` in ``group_elements`` at the position of each
    ``x``."""
    elements = group_elements(orders)
    where = {x: i for i, x in enumerate(elements)}
    return [where[_apply(orders, matrix, x)] for x in elements]


def suite_matrices_percall(orders, seed):
    """The invariant suite's random matrices as it drew them one entry at a
    time: entry ``(i, j)`` a multiple of ``n_i / gcd(n_i, n_j)``."""
    rng = np.random.default_rng([seed, math.prod(orders)])
    out = []
    for _ in range(3):
        out.append(tuple(
            tuple(int(rng.integers(0, math.gcd(n, m))) * (n // math.gcd(n, m))
                  for m in orders) for n in orders))
    return out


def kernel_oracle(orders, matrix):
    """The ``x`` with ``A x = 0``, in lexicographic order."""
    zero = (0,) * len(orders)
    return [x for x in group_elements(orders)
            if _apply(orders, matrix, x) == zero]


def image_oracle(orders, matrix):
    """The points ``A x``, each once, in lexicographic order."""
    return sorted({_apply(orders, matrix, x) for x in group_elements(orders)})


def is_subgroup_oracle(orders, subset):
    members = set(subset)
    return ((0,) * len(orders) in members
            and all(_add(orders, x, y) in members
                    for x in subset for y in subset))


def annihilator_oracle(orders, subgroup):
    return [y for y in group_elements(orders)
            if all(_phase(orders, x, y) == 0 for x in subgroup)]


# -- difference and equation oracles on either kind of domain -----------------
#
# The per-point and per-pair loops of the difference operators and of the
# product- and sum-equation residuals, on dict tables.  ``add`` adds two
# points: ``group_add(orders)`` on coordinate tuples, or ``operator.add`` on
# Fraction window points.  A coefficient is a callable on points.


def group_add(orders):
    return lambda x, y: _add(orders, x, y)


def endo_coeff(orders, matrix):
    return lambda x: _apply(orders, matrix, x)


def diff_oracle(add, table, h, op=lambda a, b: a - b):
    """``{y: op(f(y+h), f(y))}`` over points with ``y+h`` in the table."""
    return {p: op(table[add(p, h)], table[p]) for p in table
            if add(p, h) in table}


def window_steps_oracle(table, folds):
    extent = max(abs(p) for p in table)
    return [p for p in table if p != 0 and abs(p) * folds <= extent / 2]


def is_polynomial_oracle(add, table, n, tol, steps):
    """True, False, or None where some step's difference runs out of points."""
    for h in steps:
        g = table
        for _ in range(n + 1):
            g = diff_oracle(add, g, h)
            if not g:
                return None
        if not _sup(abs(v) for v in g.values()) <= tol:
            return False
    return True


def _equation_oracle(add, tables, coeffs, rhs, vs, combine):
    defects = []
    for v in vs:
        if rhs is not None and v not in rhs:
            continue
        shifts = [b(v) for b in coeffs]
        for u in tables[0]:
            args = [add(u, s) for s in shifts]
            if all(a in f for a, f in zip(args, tables)):
                vals = [f[a] for a, f in zip(args, tables)]
                defects.append(combine(vals, None if rhs is None else rhs[v]))
    return _sup(defects)


def _residual(vals, r):
    prod = 1.0 + 0j
    for x in vals:
        prod *= x
    if r is not None:
        prod /= r  # ZeroDivisionError when the right-hand side vanishes
    return abs(prod - 1.0)


def residual_defect_oracle(add, tables, coeffs, rhs, vs):
    """Sup of |prod_j f_j(u + b_j v) / rhs(v) - 1|; None when no pair fits."""
    return _equation_oracle(add, tables, coeffs, rhs, vs, _residual)


def sum_defect_oracle(add, tables, coeffs, rhs, vs):
    """Sup of |sum_j f_j(u + b_j v) - rhs(v)|; None when no pair fits."""
    return _equation_oracle(add, tables, coeffs, rhs, vs,
                            lambda vals, r: abs(sum(vals) - (r or 0.0)))


# -- Gaussian window oracles --------------------------------------------------
#
# The per-point Fraction evaluation of character-Gaussian tables and of the
# modulus part of the Gaussian fit, with CPython and libm arithmetic on
# Fraction window points.  A table is a dict mapping points to complex values.


def character_gaussian_oracle(points, denominator, phase, sigma):
    """``exp(2 pi i {m phase}) * exp(-sigma y^2)`` for each ``y = m/D``."""
    phase = Fraction(phase)
    vals = []
    for p in points:
        turn = p * denominator * phase
        ang = 2.0 * math.pi * float(turn - math.floor(turn))
        vals.append(cmath.exp(1j * ang) * math.exp(-sigma * float(p) ** 2))
    return vals


def gaussian_fit_oracle(table, tol):
    """(sigma, largest modulus deviation, modulus verdict, distance of the
    closest deviation from its bound) of the fit of ``log|f|`` against
    ``-y^2``, summed in point order."""
    pts = sorted(table)
    mods = [abs(table[p]) for p in pts]
    logs = [math.log(m) for m in mods]
    num = math.fsum(-float(p) ** 2 * lg for p, lg in zip(pts, logs))
    den = math.fsum(float(p) ** 4 for p in pts)
    sigma = num / den if den > 0 else 0.0
    devs = [abs(m - math.exp(-sigma * float(p) ** 2))
            for p, m in zip(pts, mods)]
    bounds = [tol * max(1.0, m) for m in mods]
    return (sigma, max(devs), all(d <= b for d, b in zip(devs, bounds)),
            min(abs(d - b) for d, b in zip(devs, bounds)))


# -- dense-table oracles on finite groups --------------------------------------
#
# The dense ``n x n`` joint tables and the exhaustive shift search that the
# row-blocked sweeps and the screened search replaced, kept as they were.
# They read the package's ``add_table`` and ``pairing_matrix``, so they check
# the index arithmetic and the screen, with results compared by ``==``.
# The dense characteristic function, Poisson masses and rejection loop that
# the FFTs replaced are kept too, for groups up to the dense-table limit; the
# FFTs round differently, so they are compared within a stated bound.  So is
# the convolution over the addition table that index arithmetic replaced.


def char_array_dense(d):
    """``char_array[j] = sum_x masses[x] * pair(x, y_j)``."""
    return d.masses @ d.group.pairing_matrix


def poisson_dense(group, lam, x0):
    """The compound-point-mass law with char. function ``exp(lam*((x0,y)-1))``."""
    if lam < 0:
        raise DomainError("poisson rate must be nonnegative")
    group._check(x0)
    hat = np.exp(lam * (group.pairing_matrix[group.index(x0)] - 1.0))
    masses = (group.pairing_matrix.conj() @ hat).real / group.size
    masses = np.clip(masses, 0.0, None)
    return Distribution(group, masses / masses.sum())


def random_dense(group, seed, floor=0.1, nonvanishing_tol=0.05,
                 max_tries=1000):
    """Seeded random distribution, rejected until ``min |char| > tol``."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        raw = rng.random(group.size)
        m = (1.0 - floor) * raw / raw.sum()
        m[0] += floor
        cand = Distribution(group, m)
        if np.min(np.abs(char_array_dense(cand))) > nonvanishing_tol:
            return cand
    raise GenerationError(
        f"no nonvanishing distribution within {max_tries} tries")


def convolve_dense(mu, nu):
    """``mu * nu`` from the dense addition table."""
    g = mu.group
    sub = g.add_table[:, g.neg_index]
    return (mu.masses[None, :] * nu.masses[sub]).sum(axis=1)


def joint_char_array_dense(spec, dists):
    """``(u, v)`` grid of ``prod_j char_j(adj(a_j) u + adj(b_j) v)``."""
    g = spec.group
    if len(dists) != spec.arity:
        raise DomainError("distribution count must match the arity")
    for d in dists:
        if d.group != g:
            raise DomainError("distributions live on a different group")
    if g.size ** 2 > 4_000_000:
        raise CapacityError("joint table would exceed the size limit")
    add = g.add_table
    out = np.ones((g.size, g.size), dtype=np.complex128)
    for a, b, d in zip(spec.coeffs1, spec.coeffs2, dists):
        ua = a.adjoint().index_map
        vb = b.adjoint().index_map
        out *= d.char_array[add[ua[:, None], vb[None, :]]]
    return out


def joint_residual_dense(spec, mus, nus):
    return float(np.max(np.abs(joint_char_array_dense(spec, mus)
                               - joint_char_array_dense(spec, nus))))


def recover_shift_dense(mu, nu, tol=1e-8):
    """The ``x`` with ``nu_hat = mu_hat * pair(x, .)`` everywhere, if one exists."""
    g = mu.group
    P = g.pairing_matrix
    dev = np.max(np.abs(nu.char_array[None, :] - mu.char_array[None, :] * P),
                 axis=1)
    best = int(np.argmin(dev))
    if dev[best] < tol:
        return g.element_at(best)
    return None


def poisson_closed_form_dense(bs, a, mu_rest=None):
    """The closed-form joint value ``e^{-4a} exp(4a (x0,u)(x~,v)) mu_hat(u+b3~v)``."""
    g = bs[0].group
    kernel = (bs[0] - bs[1]).kernel()
    x0 = next(x for x in kernel if x != g.zero)
    xt = bs[0].apply(x0)
    P = g.pairing_matrix
    row_u = P[g.index(x0)]
    row_v = P[g.index(xt)]
    out = np.exp(-4 * a) * np.exp(4 * a * row_u[:, None] * row_v[None, :])
    if len(bs) == 3:
        add = g.add_table
        vb = bs[2].adjoint().index_map
        out = out * mu_rest.char_array[add[np.arange(g.size)[:, None],
                                           vb[None, :]]]
    return out


def poisson_deviations_dense(bs, a, mu_rest, mus, nus):
    """(joint residual, closed-form deviation) as the poisson-pair command
    computed them from whole tables."""
    lhs = joint_char_array_dense(LinearFormSpec.form_I(bs), mus)
    rhs = joint_char_array_dense(LinearFormSpec.form_I(bs), nus)
    closed = poisson_closed_form_dense(bs, a, mu_rest)
    residual = float(np.max(np.abs(lhs - rhs)))
    closed_dev = float(np.maximum(np.max(np.abs(lhs - closed)),
                                  np.max(np.abs(rhs - closed))))
    return residual, closed_dev


def find_shift_coeffs_search(group, form):
    """First scalar coefficient triple, in lexicographic order over
    ``0..min(exponent, 12)-1``, satisfying the kernel conditions."""
    summed = summed_variables(form, 3)
    span = range(min(group.exponent, 12))
    scalars = [Endo.scalar(group, c) for c in span]
    for cs in product(span, repeat=3):
        if all(kernel_conditions(summed, [scalars[c] for c in cs]).values()):
            return list(cs)
    return None


# -- all-pairs sweeps --------------------------------------------------------
#
# The pair checks as they were before the generator checks replaced the
# character, polynomial and adjoint sweeps, and before the Bernstein and
# equation sweeps were planned once per support: every call forms its index
# pairs and table positions again, in row blocks, or as one n x n table.
# They read package tables and ``row_blocks``, and find table positions in
# a slot array over each table's indices, not from its box.  The planned
# Bernstein and equation sweeps must return what they return, and the
# generator checks their verdicts.


def _positions(f, k):
    """Position in ``f`` of each domain index in ``k``; -1 where absent."""
    idx = f.idx
    # slots[m - lo] is the position of index m; a -1 pads each end.
    lo, hi = (int(idx.min()) - 1, int(idx.max()) + 1) if len(idx) else (0, 0)
    slots = np.full(hi - lo + 1, -1, dtype=np.int64)
    slots[idx - lo] = np.arange(len(idx))
    return slots.take(k - lo, mode="clip")


def _window_steps_sweep(f, folds):
    if isinstance(f.domain, Group):
        return np.arange(1, f.domain.size)
    k = np.abs(f.idx)
    return f.idx[(k != 0) & (2 * folds * k <= k.max())]


def is_polynomial_sweep(f, n, tol=1e-9):
    """Whether the (n+1)-fold difference of every step leaving margin
    vanishes; the first step whose difference is nonzero (False) or empty
    (WindowMarginError) decides."""
    if n < 0:
        raise DomainError("polynomial degree bound must be >= 0")
    ks = _window_steps_sweep(f, n + 1)
    dom, idx = f.domain, f.idx
    if not isinstance(dom, Group) and not len(ks):
        raise WindowMarginError(
            f"no step leaves margin for {n + 1} differences")
    for rows in row_blocks(len(ks), len(idx)):
        q = _positions(f, dom.add_idx(idx[None, :], ks[rows, None]))
        has, at = q >= 0, q + len(idx) * np.arange(len(q))[:, None]
        g, live = np.tile(f.values, (len(q), 1)), np.ones(q.shape, dtype=bool)
        for _ in range(n + 1):
            live = has & live & live.take(at)
            g = g.take(at) - g
        empty = ~live.any(axis=1)
        far = ~(np.abs(g) <= tol) & live
        stop = np.flatnonzero(empty | far.any(axis=1))
        if len(stop):
            if empty[stop[0]]:
                raise WindowMarginError(
                    f"window too small for {n + 1} differences of step "
                    f"index {ks[rows][stop[0]]}")
            return False
    return True


def character_defect_sweep(f):
    """Sup of ``|f(k+l) - f(k)f(l)|`` over every pair with ``k+l`` in the
    table."""
    i = f.idx
    s = _positions(f, f.domain.add_idx(i[:, None], i[None, :]))
    inside = s >= 0
    if not inside.any():
        raise WindowMarginError("no pair (k, l) with k+l inside the window")
    prod = f.values[:, None] * f.values[None, :]
    return float(np.max(np.abs(f.values[s[inside]] - prod[inside])))


def is_adjoint_pair_sweep(a, b):
    """Whether ``(Ax, y) = (x, By)`` on every pair, on exact phases of the
    index maps, one row block at a time."""
    g = a.group
    every = np.arange(g.size)
    return all(np.array_equal(g.phase_idx(a.index_map[rows, None], every),
                              g.phase_idx(every[rows, None], b.index_map))
               for rows in row_blocks(g.size, g.size))


def bernstein_check_percall(g, tol=1e-9):
    if float(np.max(np.abs(np.abs(g.values) - 1.0))) > tol:
        return False
    if g.hermitian_defect() > tol:
        return False
    dom, i, vals = g.domain, g.idx, g.values
    z = int(_positions(g, dom.indices([dom.zero]))[0])
    if z < 0 or abs(complex(vals[z]) - 1.0) > tol:
        return False
    s = _positions(g, dom.add_idx(i[:, None], i[None, :]))
    d = _positions(g, dom.add_idx(i[:, None], dom.neg_idx(i)[None, :]))
    both = (s >= 0) & (d >= 0)
    c = np.broadcast_to(vals[:, None], both.shape)[both]
    defect = np.abs(vals[s[both]] * vals[d[both]] - c * c)
    return not bool(np.any(defect > tol))


def sweep_max_percall(tables, betas, rhs, defect):
    dom = tables[0].domain
    us, vs = tables[0].idx, dom.every
    at = (np.zeros(len(vs), dtype=np.int64) if rhs is None
          else _positions(rhs, vs))
    mapped = [_coeff_idx(b, vs) for b in betas]
    keep = np.logical_and.reduce([at >= 0] + [ok for _, ok in mapped])
    at, shifts = at[keep], [s[keep] for s, _ in mapped]
    maxima = []
    for rows in row_blocks(int(keep.sum()), len(us)):
        pos = [_positions(f, dom.add_idx(us[None, :], s[rows, None]))
               for f, s in zip(tables, shifts)]
        inside = np.logical_and.reduce([p >= 0 for p in pos])
        pairs = int(inside.sum())
        if not pairs:
            continue
        vals = (f.values[p[inside]] for f, p in zip(tables, pos))
        r = None if rhs is None else np.broadcast_to(
            rhs.values[at[rows], None], inside.shape)[inside]
        maxima.append(np.max(defect(vals, r, pairs)))
    if not maxima:
        raise WindowMarginError(
            "no (u, v) pair keeps every argument inside its table")
    return float(np.max(maxima))

"""Difference-operator machinery for product-form functional equations.

This module executes, numerically and on finite carriers, the manipulations
that drive the identifiability arguments: finite differences ``f(y+h)-f(y)``
and their multiplicative counterparts ``f(y+h)/f(y)``, polynomial and
character tests, the Bernstein equation ``g(u+v)g(u-v)=g(u)^2``, and the
substitute-and-divide elimination step that removes one factor from an
equation of the form

    f_1(u + b_1 v) * f_2(u + b_2 v) * ... * f_n(u + b_n v) = R(v).

Tables live either on a whole finite group or on a finite symmetric window
of a rational lattice; window operations shrink their domain explicitly and
raise when the margin runs out rather than truncating silently.  The
character, Bernstein and Hermitian checks are numpy sweeps over all pairs of
integer point indices, the same code on both kinds of domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, PreconditionError, VanishingFactorError,
                     WindowMarginError)
from .groups import Element, Group

# -- domains ------------------------------------------------------------------
#
# A table domain is either a Group (points are Elements) or a rational lattice
# window (points are sorted Fractions).  Both provide ``points``, ``zero``,
# ``contains``, ``add`` and ``neg`` on points, and the same operations on
# integer point indices: ``indices``, ``add_idx`` and ``neg_idx``.


def apply_coeff(beta, p):
    """Apply a linear-form coefficient to a dual point.

    ``beta`` is an endomorphism acting on the dual (finite case) or a
    rational multiplier (lattice case); plain ints and Fractions are accepted
    for the latter.
    """
    if hasattr(beta, "apply"):
        return beta.apply(p)
    return p * beta


def _coeff_ratio(beta) -> Fraction | None:
    if isinstance(beta, (int, Fraction)):
        return Fraction(beta)
    return getattr(beta, "ratio", None)


def coeff_difference_covers(beta_i, beta_j) -> bool:
    """Whether ``beta_i - beta_j`` has full range on the dual.

    On a finite group this is surjectivity of the difference endomorphism;
    for rational multipliers it is plain inequality.
    """
    ri, rj = _coeff_ratio(beta_i), _coeff_ratio(beta_j)
    if ri is not None and rj is not None:
        return ri != rj
    return (beta_i - beta_j).is_surjective()


# -- function tables -----------------------------------------------------------


@dataclass(frozen=True)
class FunctionTable:
    """A complex-valued function on (a subset of) a domain.

    ``points`` is the ordered support; ``values`` is the aligned complex
    vector.  Tables are immutable.
    """

    domain: object
    points: tuple
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if len(self.points) != len(vals):
            raise DomainError("points and values length mismatch")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, domain, fn: Callable, points=None) -> "FunctionTable":
        pts = tuple(points) if points is not None else domain.points
        return cls(domain, pts, np.array([fn(p) for p in pts]))

    @classmethod
    def constant(cls, domain, value=1.0, points=None) -> "FunctionTable":
        pts = tuple(points) if points is not None else domain.points
        return cls(domain, pts, np.full(len(pts), value, dtype=np.complex128))

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _idx(self) -> np.ndarray:
        """Domain index of every point."""
        return self.domain.indices(self.points)

    @cached_property
    def _slots(self) -> tuple[int, np.ndarray]:
        # slots[k - lo] is the position of index k; a -1 pads each end.
        idx = self._idx
        lo, hi = (idx.min() - 1, idx.max() + 1) if len(idx) else (0, 0)
        slots = np.full(hi - lo + 1, -1, dtype=np.int64)
        slots[idx - lo] = np.arange(len(idx))
        return lo, slots

    def _positions(self, idx: np.ndarray) -> np.ndarray:
        """Table position of every domain index in ``idx``; -1 where absent."""
        lo, slots = self._slots
        return slots.take(idx - lo, mode="clip")

    def __contains__(self, p) -> bool:
        return p in self._index

    def __getitem__(self, p) -> complex:
        try:
            return complex(self.values[self._index[p]])
        except KeyError:
            raise DomainError(f"{p!r} is not in the table domain") from None

    def __len__(self) -> int:
        return len(self.points)

    # -- pointwise transforms --------------------------------------------------

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "FunctionTable":
        return FunctionTable(self.domain, self.points, fn(self.values))

    def conjugate(self) -> "FunctionTable":
        return self.map_values(np.conj)

    def modulus(self) -> "FunctionTable":
        return self.map_values(np.abs)

    def log_modulus(self) -> "FunctionTable":
        """Real table ``log|f|``; requires a nonvanishing table."""
        if np.any(self.values == 0):
            raise VanishingFactorError("log-modulus of a vanishing table")
        return self.map_values(lambda v: np.log(np.abs(v)))

    def phase_part(self) -> "FunctionTable":
        """Unit-modulus table ``f/|f|``."""
        if np.any(self.values == 0):
            raise VanishingFactorError("phase part of a vanishing table")
        return self.map_values(lambda v: v / np.abs(v))

    def ratio(self, other: "FunctionTable") -> "FunctionTable":
        """Pointwise ``self/other`` on the common support."""
        if self.domain != other.domain:
            raise DomainError("tables live on different domains")
        common = [p for p in self.points if p in other]
        if not common:
            raise WindowMarginError("tables share no points")
        den = np.array([other[p] for p in common])
        if np.any(den == 0):
            raise VanishingFactorError("division by a vanishing table")
        num = np.array([self[p] for p in common])
        return FunctionTable(self.domain, tuple(common), num / den)

    def times(self, other: "FunctionTable") -> "FunctionTable":
        if self.domain != other.domain:
            raise DomainError("tables live on different domains")
        common = [p for p in self.points if p in other]
        if not common:
            raise WindowMarginError("tables share no points")
        vals = np.array([self[p] * other[p] for p in common])
        return FunctionTable(self.domain, tuple(common), vals)

    # -- structural checks -------------------------------------------------------

    def value_at_zero(self) -> complex:
        return self[self.domain.zero]

    def hermitian_defect(self) -> float:
        """Max of ``|f(-y) - conj(f(y))|`` over points whose negation is present."""
        q = self._positions(self.domain.neg_idx(self._idx))
        has = q >= 0
        d = self.values[q[has]] - np.conj(self.values[has])
        # hypot rounds as CPython's abs(complex); numpy's complex abs may not.
        return float(np.max(np.hypot(d.real, d.imag), initial=0.0))

    def nonvanishing(self, tol: float = 0.0) -> bool:
        return bool(np.min(np.abs(self.values)) > tol)


# -- fast paths for contiguous lattice windows -------------------------------------
#
# Window tables built from a RationalLattice keep their points as consecutive
# multiples of 1/D; on that representation difference operators and the
# product/sum equation sweeps reduce to array slicing, which matters for the
# repeated-difference degree checks.  Group tables and irregular supports use
# the generic path there.


def _int_grid(f: FunctionTable):
    """``(lo, D)`` when the points are the consecutive integers ``lo..hi`` over D."""
    dom = f.domain
    if isinstance(dom, Group):
        return None
    D = getattr(dom, "denominator", None)
    if D is None or not f.points:
        return None
    first = f.points[0] * D
    if not isinstance(f.points[0], Fraction) or first.denominator != 1:
        return None
    lo = int(first)
    for i, p in enumerate(f.points):
        m = p * D
        if m.denominator != 1 or int(m) != lo + i:
            return None
    return lo, D


def _grid_step(h, D) -> int | None:
    k = Fraction(h) * D
    return int(k) if k.denominator == 1 else None


def _fold_difference(vals: np.ndarray, k: int, folds: int) -> np.ndarray | None:
    """``folds``-fold difference with integer step ``k`` on a contiguous grid."""
    g = vals
    for _ in range(folds):
        if k > 0:
            if len(g) <= k:
                return None
            g = g[k:] - g[:-k]
        else:
            if len(g) <= -k:
                return None
            g = g[: len(g) + k] - g[-k:]
    return g


# -- difference operators --------------------------------------------------------


def diff(f: FunctionTable, h) -> FunctionTable:
    """Additive finite difference ``y -> f(y+h) - f(y)``.

    On a group the domain is unchanged; on a window the result is restricted
    to points with ``y+h`` still inside, and an empty restriction raises.
    """
    dom = f.domain
    if isinstance(dom, Group) and not dom.contains(h):
        raise DomainError(f"step {h!r} is not in the domain")
    pts = [p for p in f.points if dom.add(p, h) in f]
    if not pts:
        raise WindowMarginError(f"window too small for difference step {h!r}")
    vals = np.array([f[dom.add(p, h)] - f[p] for p in pts])
    return FunctionTable(dom, tuple(pts), vals)


def ratio_diff(f: FunctionTable, h) -> FunctionTable:
    """Multiplicative difference ``y -> f(y+h)/f(y)`` on a nonvanishing table."""
    dom = f.domain
    pts = [p for p in f.points if dom.add(p, h) in f]
    if not pts:
        raise WindowMarginError(f"window too small for ratio step {h!r}")
    den = np.array([f[p] for p in pts])
    if np.any(den == 0):
        raise VanishingFactorError("ratio difference of a vanishing table")
    num = np.array([f[dom.add(p, h)] for p in pts])
    return FunctionTable(dom, tuple(pts), num / den)


def _window_steps(f: FunctionTable, folds: int) -> list:
    """Candidate difference steps that keep ``folds`` iterations inside."""
    dom = f.domain
    if isinstance(dom, Group):
        return [h for h in dom.elements() if h != dom.zero]
    extent = max(abs(p) for p in f.points)
    hs = [p for p in f.points if p != 0 and abs(p) * folds <= extent / 2]
    return hs


def is_polynomial(f: FunctionTable, n: int, tol: float = 1e-9,
                  steps=None) -> bool:
    """Whether the (n+1)-fold difference of ``f`` vanishes for all tested steps.

    On a finite group every step is tested, which makes the check exact up to
    ``tol``; on a window the steps are those leaving enough margin, and the
    verdict is a statement about the window only.
    """
    if n < 0:
        raise DomainError("polynomial degree bound must be >= 0")
    hs = list(steps) if steps is not None else _window_steps(f, n + 1)
    if not isinstance(f.domain, Group) and not hs:
        raise WindowMarginError(
            f"no step leaves margin for {n + 1} differences")
    grid = _int_grid(f)
    if grid is not None:
        lo, D = grid
        for h in hs:
            k = _grid_step(h, D)
            if k is None or k == 0:
                continue
            g = _fold_difference(f.values, k, n + 1)
            if g is None:
                raise WindowMarginError(
                    f"window too small for {n + 1} differences of step {h}")
            if float(np.max(np.abs(g))) > tol:
                return False
        return True
    for h in hs:
        g = f
        for _ in range(n + 1):
            g = diff(g, h)
        if float(np.max(np.abs(g.values))) > tol:
            return False
    return True


def least_degree(f: FunctionTable, max_degree: int, tol: float = 1e-9,
                 steps=None) -> int | None:
    """Smallest ``d <= max_degree`` with ``is_polynomial(f, d)``, else None."""
    for d in range(max_degree + 1):
        if is_polynomial(f, d, tol, steps=steps):
            return d
    return None


# -- character and Bernstein tests ----------------------------------------------


def character_defect(f: FunctionTable) -> float:
    """Sup of ``|f(k+l) - f(k)f(l)|`` over pairs with ``k+l`` in the table."""
    i = f._idx
    s = f._positions(f.domain.add_idx(i[:, None], i[None, :]))
    inside = s >= 0
    if not inside.any():
        raise WindowMarginError("no pair (k, l) with k+l inside the window")
    prod = f.values[:, None] * f.values[None, :]
    return float(np.max(np.abs(f.values[s[inside]] - prod[inside])))


def is_character(f: FunctionTable, tol: float = 1e-9) -> bool:
    """Multiplicativity test; on a full group also requires a matching element.

    A character table satisfies ``f(k+l) = f(k)f(l)`` everywhere; on a finite
    group the test additionally locates an ``x`` with ``f = pair(x, .)``,
    which exists exactly when the table is a character of the whole group.
    """
    if character_defect(f) > tol:
        return False
    if isinstance(f.domain, Group) and len(f.points) == f.domain.size:
        return locate_character(f, tol) is not None
    return True


def locate_character(f: FunctionTable, tol: float = 1e-9) -> Element | None:
    """The element ``x`` with ``f = pair(x, .)`` on a full group table, if any."""
    dom = f.domain
    if not isinstance(dom, Group):
        return None
    P = dom.roots[dom.phase_idx(np.arange(dom.size)[:, None], f._idx[None, :])]
    dev = np.max(np.abs(P - f.values[None, :]), axis=1)
    best = int(np.argmin(dev))
    if dev[best] < tol:
        return dom.element_at(best)
    return None


def bernstein_square_table(group: Group) -> FunctionTable:
    """The table ``(m, n) -> (-1)^(m*n)`` on a product of two even cyclic factors.

    It solves the Bernstein equation and meets all its side conditions, yet
    is not a character; this is possible because such groups carry three
    involutions.
    """
    if group.rank != 2 or any(n % 2 for n in group.orders):
        raise DomainError("the square-phase table needs two even cyclic factors")
    vals = np.array([(-1.0) ** (x.coords[0] * x.coords[1])
                     for x in group.elements()], dtype=np.complex128)
    return FunctionTable(group, group.elements(), vals)


def bernstein_check(g: FunctionTable, tol: float = 1e-9) -> bool:
    """Test of ``g(u+v)g(u-v) = g(u)^2`` plus the unit-modulus side conditions.

    The side conditions are ``|g| = 1``, ``g(-y) = conj(g(y))`` and
    ``g(0) = 1``.  Every character passes; the converse holds only on groups
    with at most one element of order 2.
    """
    if float(np.max(np.abs(np.abs(g.values) - 1.0))) > tol:
        return False
    if g.hermitian_defect() > tol:
        return False
    dom, i, vals = g.domain, g._idx, g.values
    z = int(g._positions(dom.indices([dom.zero]))[0])
    if z < 0 or abs(complex(vals[z]) - 1.0) > tol:
        return False
    s = g._positions(dom.add_idx(i[:, None], i[None, :]))
    d = g._positions(dom.add_idx(i[:, None], dom.neg_idx(i)[None, :]))
    both = (s >= 0) & (d >= 0)
    a, b = vals[s[both]], vals[d[both]]
    c = np.broadcast_to(vals[:, None], both.shape)[both]
    # g(u+v)g(u-v) - g(u)^2 with products rounded as CPython rounds them.
    re = a.real * b.real - a.imag * b.imag - (c.real * c.real - c.imag * c.imag)
    im = a.real * b.imag + a.imag * b.real - (c.real * c.imag + c.imag * c.real)
    return not bool(np.any(np.hypot(re, im) > tol))


# -- product equations ----------------------------------------------------------


@dataclass(frozen=True)
class ProductEquation:
    """``prod_j f_j(u + beta_j v) = rhs(v)`` on a common dual domain.

    ``factors`` pairs each table with its coefficient acting on ``v``; a
    ``rhs`` of None means the constant 1.  The residual of the equation is
    ``prod_j f_j(u + beta_j v) / rhs(v)``, evaluated wherever every shifted
    argument lies inside its table.
    """

    factors: tuple[tuple[FunctionTable, object], ...]
    rhs: FunctionTable | None = None

    def __post_init__(self) -> None:
        if not self.factors:
            raise DomainError("a product equation needs at least one factor")
        object.__setattr__(self, "factors", tuple(
            (f, b) for f, b in self.factors))

    @property
    def domain(self):
        return self.factors[0][0].domain

    @property
    def arity(self) -> int:
        return len(self.factors)

    def residual_defect(self, max_pairs: int | None = None) -> float:
        """Sup of ``|residual(u, v) - 1|`` over all evaluable pairs."""
        fast = self._residual_defect_grid(max_pairs)
        if fast is not None:
            return fast
        dom = self.domain
        us, vs = self.factors[0][0].points, dom.points
        worst = -1.0
        checked = 0
        for v in vs:
            if self.rhs is not None and v not in self.rhs:
                continue
            shifts = [apply_coeff(b, v) for _, b in self.factors]
            for u in us:
                args = [dom.add(u, s) for s in shifts]
                if all(a in f for a, (f, _) in zip(args, self.factors)):
                    prod = 1.0 + 0j
                    for a, (f, _) in zip(args, self.factors):
                        prod *= f[a]
                    if self.rhs is not None:
                        r = self.rhs[v]
                        if r == 0:
                            raise VanishingFactorError(
                                "equation right-hand side vanishes")
                        prod /= r
                    worst = max(worst, abs(prod - 1.0))
                    checked += 1
                    if max_pairs is not None and checked >= max_pairs:
                        return worst
        if checked == 0:
            raise WindowMarginError(
                "no (u, v) pair keeps every argument inside its table")
        return worst

    def _residual_defect_grid(self, max_pairs: int | None) -> float | None:
        """Sliced evaluation on contiguous lattice windows; None when unusable."""
        grids = [_int_grid(f) for f, _ in self.factors]
        if any(g is None for g in grids):
            return None
        D = grids[0][1]
        if any(g[1] != D for g in grids):
            return None
        rhs_grid = None
        if self.rhs is not None:
            rhs_grid = _int_grid(self.rhs)
            if rhs_grid is None or rhs_grid[1] != D:
                return None
        u_grid = grids[0]
        u_lo = u_grid[0]
        u_len = len(self.factors[0][0].points)
        worst = -1.0
        checked = 0
        for v in self.domain.points:
            mv = _grid_step(v, D)
            if mv is None:
                continue
            if rhs_grid is not None:
                r_pos = mv - rhs_grid[0]
                if not 0 <= r_pos < len(self.rhs.points):
                    continue
            shifts = []
            usable = True
            for (_, b) in self.factors:
                s = apply_coeff(b, v) * D
                if s.denominator != 1:
                    usable = False
                    break
                shifts.append(int(s))
            if not usable:
                continue
            lo = u_lo
            hi = u_lo + u_len  # exclusive, in units of m_u
            for (f, _), g, s in zip(self.factors, grids, shifts):
                lo = max(lo, g[0] - s)
                hi = min(hi, g[0] + len(f.points) - s)
            if lo >= hi:
                continue
            prod = np.ones(hi - lo, dtype=np.complex128)
            for (f, _), g, s in zip(self.factors, grids, shifts):
                start = lo + s - g[0]
                prod = prod * f.values[start:start + (hi - lo)]
            if rhs_grid is not None:
                r = self.rhs.values[r_pos]
                if r == 0:
                    raise VanishingFactorError(
                        "equation right-hand side vanishes")
                prod = prod / r
            worst = max(worst, float(np.max(np.abs(prod - 1.0))))
            checked += hi - lo
            if max_pairs is not None and checked >= max_pairs:
                return worst
        if checked == 0:
            raise WindowMarginError(
                "no (u, v) pair keeps every argument inside its table")
        return worst


def eliminate(eq: ProductEquation, index: int, k) -> ProductEquation:
    """Remove the factor at ``index`` by substitute-and-divide.

    Substituting ``u -> u+h``, ``v -> v+k`` with ``h = -beta_index k`` and
    dividing by the original equation cancels the chosen factor; every other
    factor ``f_j`` becomes the ratio ``f_j(. + (beta_j - beta_index)k)/f_j(.)``
    and the right-hand side becomes ``rhs(. + k)/rhs(.)``.  If the input
    residual is identically 1 so is the output's.
    """
    if not 0 <= index < eq.arity:
        raise DomainError(f"factor index {index} out of range")
    dom = eq.domain
    if k == dom.zero:
        return eq
    _, beta0 = eq.factors[index]
    h = dom.neg(apply_coeff(beta0, k))
    new_factors = []
    for j, (f, b) in enumerate(eq.factors):
        if j == index:
            continue
        delta = dom.add(h, apply_coeff(b, k))
        new_factors.append((ratio_diff(f, delta), b))
    new_rhs = ratio_diff(eq.rhs, k) if eq.rhs is not None else None
    if not new_factors:
        # Everything moved to the right-hand side; keep the equation shape by
        # carrying the residual as a single constant-coefficient factor.
        if new_rhs is None:
            raise DomainError("cannot eliminate the only factor of rhs-free equation")
        inv = new_rhs.map_values(lambda v: 1.0 / v)
        return ProductEquation(((inv, _ZeroCoeff(dom)),), None)
    return ProductEquation(tuple(new_factors), new_rhs)


class _ZeroCoeff:
    """Coefficient that sends every dual point to zero (used after full cascades)."""

    def __init__(self, domain):
        self._zero = domain.zero

    def apply(self, p):
        return self._zero


@dataclass(frozen=True)
class CharacterVerdict:
    index: int
    is_char: bool
    defect: float
    located: Element | None
    cascade_defect: float


def _default_cascade_steps(eq: ProductEquation, limit: int = 12) -> list:
    dom = eq.domain
    if isinstance(dom, Group):
        pts = [p for p in dom.elements() if p != dom.zero]
        return pts[:limit]
    pts = [p for p in dom.points if p != 0]
    pts.sort(key=abs)
    # Small steps leave margin for the repeated restrictions of the cascade.
    return pts[: 2 * (eq.arity - 1)][:limit]


def extract_character(eq: ProductEquation,
                      order: Sequence[int] | None = None,
                      *,
                      steps=None,
                      tol: float = 1e-9,
                      max_pairs: int | None = 20000) -> list[CharacterVerdict]:
    """Run the elimination cascade and certify each factor as a character.

    For every factor in turn the others are eliminated (lowest index first
    unless ``order`` prescribes a different sequence), checking that the
    reduced equation keeps residual 1 for the sampled substitution steps;
    the surviving ratio table is then tested for multiplicativity and, on a
    finite group, matched against an explicit character.

    Raises PreconditionError when some pair of coefficients has a difference
    without full range, which is exactly when the conclusion may fail.
    """
    base_order = list(order) if order is not None else list(range(eq.arity))
    if sorted(base_order) != list(range(eq.arity)):
        raise DomainError("order must be a permutation of the factor indices")
    for a in range(eq.arity):
        for b in range(a + 1, eq.arity):
            if not coeff_difference_covers(eq.factors[a][1], eq.factors[b][1]):
                raise PreconditionError(
                    f"coefficient difference ({a},{b}) does not cover the dual")
    zero = eq.domain.zero
    ks = [k for k in (steps if steps is not None
                      else _default_cascade_steps(eq)) if k != zero]
    if not ks:
        raise WindowMarginError("no usable substitution steps")
    verdicts = []
    for survivor in range(eq.arity):
        elim_order = [i for i in base_order if i != survivor]
        cascade_worst = 0.0
        for k in ks:
            reduced = eq
            remaining = list(range(eq.arity))
            # Factor positions shift as earlier factors drop out.
            for i in elim_order:
                pos = remaining.index(i)
                reduced = eliminate(reduced, pos, k)
                remaining.pop(pos)
            cascade_worst = max(cascade_worst,
                                reduced.residual_defect(max_pairs=max_pairs))
        f = eq.factors[survivor][0]
        defect = character_defect(f)
        located = locate_character(f, tol)
        if isinstance(eq.domain, Group) and len(f.points) == eq.domain.size:
            ok = defect <= tol and located is not None
        else:
            ok = defect <= tol
        verdicts.append(CharacterVerdict(survivor, bool(ok), float(defect),
                                         located, float(cascade_worst)))
    return verdicts


# -- degree reports for additive shifted-sum equations -----------------------------


@dataclass(frozen=True)
class DegreeReport:
    equation_defect: float
    degrees: tuple[int | None, ...]
    bound: int
    rhs_is_zero: bool
    within_bound: bool


def _sum_defect_grid(psis, betas, rhs) -> float | None:
    """Sliced sum-equation sweep on contiguous windows; None when unusable."""
    grids = [_int_grid(f) for f in psis]
    if any(g is None for g in grids):
        return None
    D = grids[0][1]
    if any(g[1] != D for g in grids):
        return None
    rhs_grid = None
    if rhs is not None:
        rhs_grid = _int_grid(rhs)
        if rhs_grid is None or rhs_grid[1] != D:
            return None
    u_lo = grids[0][0]
    u_len = len(psis[0].points)
    worst = -1.0
    checked = 0
    for v in psis[0].domain.points:
        mv = _grid_step(v, D)
        if mv is None:
            continue
        target = 0.0
        if rhs_grid is not None:
            r_pos = mv - rhs_grid[0]
            if not 0 <= r_pos < len(rhs.points):
                continue
            target = rhs.values[r_pos]
        shifts = []
        usable = True
        for b in betas:
            s = apply_coeff(b, v) * D
            if s.denominator != 1:
                usable = False
                break
            shifts.append(int(s))
        if not usable:
            continue
        lo, hi = u_lo, u_lo + u_len
        for f, g, s in zip(psis, grids, shifts):
            lo = max(lo, g[0] - s)
            hi = min(hi, g[0] + len(f.points) - s)
        if lo >= hi:
            continue
        total = np.zeros(hi - lo, dtype=np.complex128)
        for f, g, s in zip(psis, grids, shifts):
            start = lo + s - g[0]
            total = total + f.values[start:start + (hi - lo)]
        worst = max(worst, float(np.max(np.abs(total - target))))
        checked += hi - lo
    if checked == 0:
        raise WindowMarginError("no evaluable (u, v) pair for the sum equation")
    return worst


def shifted_sum_degrees(psis: Sequence[FunctionTable],
                        betas: Sequence[object],
                        rhs: FunctionTable | None = None,
                        tol: float = 1e-8,
                        steps=None) -> DegreeReport:
    """Verify ``sum_j psi_j(u + beta_j v) = B(v)`` and bound each degree.

    With ``n`` summands and pairwise coefficient differences of full range,
    each ``psi_j`` must be a polynomial of degree at most ``n-1``; when the
    right-hand side vanishes identically the bound improves to ``n-2``.  The
    report carries the observed equation residual and the least degree found
    for each function.
    """
    n = len(psis)
    if n < 2 or len(betas) != n:
        raise DomainError("need n >= 2 summands with matching coefficients")
    for a in range(n):
        for b in range(a + 1, n):
            if not coeff_difference_covers(betas[a], betas[b]):
                raise PreconditionError(
                    f"coefficient difference ({a},{b}) does not cover the dual")
    dom = psis[0].domain
    worst = _sum_defect_grid(psis, betas, rhs)
    if worst is None:
        worst = -1.0
        checked = 0
        for v in dom.points:
            if rhs is not None and v not in rhs:
                continue
            shifts = [apply_coeff(b, v) for b in betas]
            for u in psis[0].points:
                args = [dom.add(u, s) for s in shifts]
                if all(a in f for a, f in zip(args, psis)):
                    total = sum(f[a] for a, f in zip(args, psis))
                    target = rhs[v] if rhs is not None else 0.0
                    worst = max(worst, abs(total - target))
                    checked += 1
        if checked == 0:
            raise WindowMarginError(
                "no evaluable (u, v) pair for the sum equation")
    rhs_zero = rhs is None or bool(np.max(np.abs(rhs.values)) <= tol)
    bound = n - 2 if rhs_zero else n - 1
    degrees = tuple(least_degree(psi, bound, tol, steps=steps) for psi in psis)
    within = worst <= tol and all(d is not None for d in degrees)
    return DegreeReport(float(worst), degrees, bound, rhs_zero, bool(within))

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
raise when the margin runs out rather than truncating silently.  Every
operator is one numpy body over the integer point indices that both kinds of
domain provide: differences and polynomial tests gather along shifted
indices, and the character, Bernstein and Hermitian checks and the product-
and sum-equation residuals sweep index pairs in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, PreconditionError, VanishingFactorError,
                     WindowMarginError)
from .groups import Element, Group, row_blocks

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


def _coeff_idx(beta, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of ``beta`` applied to each point index in ``m``, and where defined.

    A rational ``p/q`` sends ``m`` to ``m*p/q`` (exactly, then clipped to
    ``+-2**62``), a grid point only where that is an integer; an
    endomorphism maps through its ``index_map``.
    """
    r = _coeff_ratio(beta)
    if r is None:
        return beta.index_map[m], np.ones(len(m), dtype=bool)
    num = m.astype(object) * r.numerator
    return (np.clip(num // r.denominator, -2 ** 62, 2 ** 62).astype(np.int64),
            num % r.denominator == 0)


def summed_variables(form: str, n: int) -> tuple[bool, ...]:
    """Which of ``n`` variables ``L_1`` sums: all of them in form I, all but
    the last in form II."""
    left_out = {"I": 0, "II": 1}.get(form)
    if left_out is None:
        raise DomainError(f"unknown form {form!r}")
    return (True,) * (n - left_out) + (False,) * left_out


def _trivial_kernel(beta, minus=None) -> bool:
    """Whether ``beta - minus`` (``beta`` alone without ``minus``) has trivial
    kernel on the dual; for a rational multiplier, whether it is nonzero."""
    r = _coeff_ratio(beta)
    s = Fraction(0) if minus is None else _coeff_ratio(minus)
    if r is None or s is None:
        return len((beta if minus is None else beta - minus).kernel()) == 1
    return r != s


def kernel_conditions(summed: Sequence[bool],
                      betas: Sequence[object]) -> dict[str, bool]:
    """The kernel hypotheses of the identifiability theorems, by label.

    ``summed[j]`` says whether ``L_1`` sums variable ``j``.  Every two summed
    coefficients must differ by a map with trivial kernel (``ker(bi-bj)=0``)
    and every coefficient of a variable left out of ``L_1`` must have trivial
    kernel itself (``ker(bj)=0``): these are the 2x2 minors
    ``a_i b_j - a_j b_i`` of the coefficient pairs.
    """
    conds = {}
    for i, b in enumerate(betas):
        if not summed[i]:
            conds[f"ker(b{i + 1})=0"] = _trivial_kernel(b)
            continue
        for j in range(i + 1, len(betas)):
            if summed[j]:
                conds[f"ker(b{i + 1}-b{j + 1})=0"] = _trivial_kernel(
                    b, betas[j])
    return conds


def require_kernel_conditions(summed: Sequence[bool],
                              betas: Sequence[object]) -> None:
    """Raise PreconditionError naming the first kernel condition that fails."""
    for label, holds in kernel_conditions(summed, betas).items():
        if not holds:
            raise PreconditionError(f"kernel condition {label} fails")


# -- function tables -----------------------------------------------------------


@dataclass(frozen=True)
class FunctionTable:
    """A complex-valued function on (a subset of) a domain.

    ``points`` is the ordered support (group elements, or exact Fractions
    on a window); ``values`` is the aligned complex vector.  Tables are
    immutable.  Every operator computes on the points' integer domain
    indices ``_idx``, which on a window are the grid indices ``m = y*D``.
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
    def from_function(cls, domain, fn: Callable) -> "FunctionTable":
        return cls(domain, domain.points,
                   np.array([fn(p) for p in domain.points]))

    @classmethod
    def constant(cls, domain, value=1.0) -> "FunctionTable":
        return cls(domain, domain.points,
                   np.full(len(domain.points), value, dtype=np.complex128))

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

    def _found(self, idx: np.ndarray, err: str) -> tuple[np.ndarray, np.ndarray]:
        """Where in ``idx`` the table has points, and their table positions."""
        q = self._positions(idx)
        has = np.flatnonzero(q >= 0)
        if not len(has):
            raise WindowMarginError(err)
        return has, q[has]

    def _restrict(self, rows: np.ndarray, values) -> "FunctionTable":
        """The table with ``values`` on the points at positions ``rows``."""
        t = FunctionTable(self.domain,
                          tuple(map(self.points.__getitem__, rows.tolist())),
                          values)
        t.__dict__["_idx"] = self._idx[rows]  # known; skip recomputing
        return t

    def _position(self, p) -> int:
        """Table position of the point ``p``; -1 where absent or foreign."""
        try:
            return int(self._positions(self.domain.indices([p]))[0])
        except (DomainError, AttributeError, OverflowError):
            return -1

    def __contains__(self, p) -> bool:
        return self._position(p) >= 0

    def __getitem__(self, p) -> complex:
        i = self._position(p)
        if i < 0:
            raise DomainError(f"{p!r} is not in the table domain")
        return complex(self.values[i])

    def __len__(self) -> int:
        return len(self.points)

    # -- pointwise transforms --------------------------------------------------

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "FunctionTable":
        t = FunctionTable(self.domain, self.points, fn(self.values))
        if "_idx" in self.__dict__:
            t.__dict__["_idx"] = self._idx  # same points; skip recomputing
        return t

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

    def _common(self, other: "FunctionTable") -> tuple[np.ndarray, np.ndarray]:
        """Positions of the common support in ``self`` and in ``other``."""
        if self.domain != other.domain:
            raise DomainError("tables live on different domains")
        return other._found(self._idx, "tables share no points")

    def ratio(self, other: "FunctionTable") -> "FunctionTable":
        """Pointwise ``self/other`` on the common support."""
        has, q = self._common(other)
        den = other.values[q]
        if np.any(den == 0):
            raise VanishingFactorError("division by a vanishing table")
        return self._restrict(has, self.values[has] / den)

    def pullback(self, beta) -> "FunctionTable":
        """The table ``v -> f(beta v)`` where ``beta v`` is in the table."""
        whole = FunctionTable.constant(self.domain)
        img, ok = _coeff_idx(beta, whole._idx)
        q = np.where(ok, self._positions(img), -1)
        rows = np.flatnonzero(q >= 0)
        return whole._restrict(rows, self.values[q[rows]])

    def times(self, other: "FunctionTable") -> "FunctionTable":
        """Pointwise ``self*other`` on the common support."""
        has, q = self._common(other)
        a, b = self.values[has], other.values[q]
        # Products rounded as CPython's complex multiply rounds them.
        vals = np.empty(len(has), dtype=np.complex128)
        vals.real = a.real * b.real - a.imag * b.imag
        vals.imag = a.real * b.imag + a.imag * b.real
        return self._restrict(has, vals)

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


# -- difference operators --------------------------------------------------------


def _step(f: FunctionTable, h, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the points ``y`` of ``f`` with ``y + h`` inside, and of ``y + h``."""
    dom = f.domain
    return f._found(dom.add_idx(f._idx, dom.indices([h])[0]),
                    f"window too small for {what} step {h!r}")


def diff(f: FunctionTable, h) -> FunctionTable:
    """Additive finite difference ``y -> f(y+h) - f(y)``.

    On a group the domain is unchanged; on a window the result is restricted
    to points with ``y+h`` still inside, and an empty restriction raises.  A
    step outside the domain (or off the window's grid) raises DomainError.
    """
    has, q = _step(f, h, "difference")
    return f._restrict(has, f.values[q] - f.values[has])


def ratio_diff(f: FunctionTable, h) -> FunctionTable:
    """Multiplicative difference ``y -> f(y+h)/f(y)`` on a nonvanishing table."""
    has, q = _step(f, h, "ratio")
    den = f.values[has]
    if np.any(den == 0):
        raise VanishingFactorError("ratio difference of a vanishing table")
    return f._restrict(has, f.values[q] / den)


def _window_steps(f: FunctionTable, folds: int) -> np.ndarray:
    """Indices of the difference steps that keep ``folds`` iterations inside."""
    if isinstance(f.domain, Group):
        return np.arange(1, f.domain.size)
    k = np.abs(f._idx)
    return f._idx[(k != 0) & (2 * folds * k <= k.max())]


def is_polynomial(f: FunctionTable, n: int, tol: float = 1e-9) -> bool:
    """Whether the (n+1)-fold difference of ``f`` vanishes for all tested steps.

    On a finite group every step is tested, which makes the check exact up to
    ``tol``; on a window the steps are those leaving enough margin, and the
    verdict is a statement about the window only.  The first step, in the
    order of the table's points, whose difference is nonzero (False) or
    empty (WindowMarginError) decides.
    """
    if n < 0:
        raise DomainError("polynomial degree bound must be >= 0")
    ks = _window_steps(f, n + 1)
    dom, idx = f.domain, f._idx
    if not isinstance(dom, Group) and not len(ks):
        raise WindowMarginError(
            f"no step leaves margin for {n + 1} differences")
    for rows in row_blocks(len(ks), len(idx)):
        # Row r of g holds the running difference with step ks[r], aligned
        # with the table's points; live marks where it is defined, and at is
        # the flat position of y + ks[r] (masked by has where it is absent).
        q = f._positions(dom.add_idx(idx[None, :], ks[rows, None]))
        has, at = q >= 0, q + len(idx) * np.arange(len(q))[:, None]
        g, live = np.tile(f.values, (len(q), 1)), np.ones(q.shape, dtype=bool)
        for _ in range(n + 1):
            live = has & live & live.take(at)
            g = g.take(at) - g
        empty = ~live.any(axis=1)
        stop = np.flatnonzero(empty | ((np.abs(g) > tol) & live).any(axis=1))
        if len(stop):
            if empty[stop[0]]:
                raise WindowMarginError(
                    f"window too small for {n + 1} differences of step "
                    f"index {ks[rows][stop[0]]}")
            return False
    return True


def least_degree(f: FunctionTable, max_degree: int,
                 tol: float = 1e-9) -> int | None:
    """Smallest ``d <= max_degree`` with ``is_polynomial(f, d)``, else None."""
    for d in range(max_degree + 1):
        if is_polynomial(f, d, tol):
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

    def residual_defect(self) -> float:
        """Sup of ``|residual(u, v) - 1|`` over all evaluable pairs."""
        return _sweep_max([f for f, _ in self.factors],
                          [b for _, b in self.factors], self.rhs,
                          _product_defect)


def _sweep_max(tables, betas, rhs, defect) -> float:
    """Max of ``defect`` over the pairs ``(u, v)`` that keep every argument inside.

    ``u`` runs over the support of ``tables[0]``, ``v`` over the domain
    points where ``rhs`` is defined.  For each row block of ``v``, ``defect``
    is called with ``vals``, which yields ``tables[j]`` at ``u + betas[j] v``
    for each ``j`` in turn, with ``rhs`` at ``v`` (None without a right-hand
    side) and with the number of pairs; all are flat over the block's pairs.
    """
    dom = tables[0].domain
    us, vs = tables[0]._idx, dom.indices(dom.points)
    at = np.zeros(len(vs), dtype=np.int64) if rhs is None else rhs._positions(vs)
    mapped = [_coeff_idx(b, vs) for b in betas]
    keep = np.logical_and.reduce([at >= 0] + [ok for _, ok in mapped])
    at, shifts = at[keep], [s[keep] for s, _ in mapped]
    worst = None
    for rows in row_blocks(int(keep.sum()), len(us)):
        pos = [f._positions(dom.add_idx(us[None, :], s[rows, None]))
               for f, s in zip(tables, shifts)]
        inside = np.logical_and.reduce([p >= 0 for p in pos])
        pairs = int(inside.sum())
        if not pairs:
            continue
        vals = (f.values[p[inside]] for f, p in zip(tables, pos))
        r = None if rhs is None else np.broadcast_to(
            rhs.values[at[rows], None], inside.shape)[inside]
        block = float(np.max(defect(vals, r, pairs)))
        worst = block if worst is None else max(worst, block)
    if worst is None:
        raise WindowMarginError(
            "no (u, v) pair keeps every argument inside its table")
    return worst


def _product_defect(vals, r, pairs) -> np.ndarray:
    """``|f_1 * ... * f_n / rhs - 1|`` per pair."""
    prod = np.ones(pairs, dtype=np.complex128)
    for v in vals:
        prod = prod * v
    if r is not None:
        if np.any(r == 0):
            raise VanishingFactorError("equation right-hand side vanishes")
        prod = prod / r
    return np.abs(prod - 1.0)


def _sum_defect(vals, r, pairs) -> np.ndarray:
    """``|psi_1 + ... + psi_n - rhs|`` per pair; ``rhs`` is 0 when absent."""
    total = np.zeros(pairs, dtype=np.complex128)
    for v in vals:
        total = total + v
    return np.abs(total - (0.0 if r is None else r))


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

    ratio = Fraction(0)

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


def extract_character(eq: ProductEquation, *,
                      tol: float = 1e-9) -> list[CharacterVerdict]:
    """Run the elimination cascade and certify each factor as a character.

    For every factor in turn the others are eliminated, lowest index first,
    checking that the reduced equation keeps residual 1 on every evaluable
    pair for each substitution step; the surviving ratio table is then tested
    for multiplicativity and, on a finite group, matched against an explicit
    character.

    Raises PreconditionError when some pair of coefficients has a difference
    with nontrivial kernel, which is exactly when the conclusion may fail.
    """
    require_kernel_conditions((True,) * eq.arity, [b for _, b in eq.factors])
    ks = _default_cascade_steps(eq)
    if not ks:
        raise WindowMarginError("no usable substitution steps")
    verdicts = []
    for survivor in range(eq.arity):
        cascade_worst = 0.0
        for k in ks:
            reduced = eq
            # Lowest index first: each factor below the survivor is at
            # position 0 when it goes, each factor above it at position 1.
            for pos in [0] * survivor + [1] * (eq.arity - 1 - survivor):
                reduced = eliminate(reduced, pos, k)
            cascade_worst = max(cascade_worst, reduced.residual_defect())
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


def shifted_sum_degrees(psis: Sequence[FunctionTable],
                        betas: Sequence[object],
                        rhs: FunctionTable | None = None,
                        tol: float = 1e-8) -> DegreeReport:
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
    require_kernel_conditions((True,) * n, betas)
    worst = _sweep_max(psis, betas, rhs, _sum_defect)
    rhs_zero = rhs is None or bool(np.max(np.abs(rhs.values)) <= tol)
    bound = n - 2 if rhs_zero else n - 1
    degrees = tuple(least_degree(psi, bound, tol) for psi in psis)
    within = worst <= tol and all(d is not None for d in degrees)
    return DegreeReport(float(worst), degrees, bound, rhs_zero, bool(within))

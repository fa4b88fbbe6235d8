"""Difference-operator machinery for product-form functional equations.

Finite differences ``f(y+h)-f(y)`` and ``f(y+h)/f(y)``, polynomial and
character tests, the Bernstein equation ``g(u+v)g(u-v)=g(u)^2``, and the
substitute-and-divide step that removes one factor from an equation
``f_1(u + b_1 v) * ... * f_n(u + b_n v) = R(v)``, run numerically on tables
over a whole finite group or a finite symmetric window of a rational
lattice.  A table's support is a box: a whole group, or a window
progression ``{j s : lo <= j <= hi}``, which window operations shrink
explicitly, raising when the margin runs out.  Every operator is one numpy
body over the integer point indices that both kinds of domain provide.  The
character and polynomial tests are homomorphism identities and gather along
generators only.  The Bernstein equation reads its pairs as windows of its
table, and the product equations sweep index pairs, both in row blocks.
A group table's character is located by ``character_search``, the search of
the shift recovery.  Every character of a group is certified at once on one
table over ``Z_L`` (``character_table_checks``): the phase pairing is
bilinear into ``Z_L``, ``L`` the exponent, so each row of the character
table reads its values from ``Group.roots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .endomorphisms import Endo
from .errors import (DomainError, PreconditionError, VanishingFactorError,
                     WindowMarginError)
from .groups import VALUE_BLOCK, Element, Group, character_search, row_blocks

# -- domains ------------------------------------------------------------------
#
# A table domain is either a Group (points are Elements) or a rational lattice
# window (points are sorted Fractions).  Tables compute on integer point
# indices, and both domains provide: ``every``, the read-only index array of
# the whole domain in the order of ``points``; ``add_idx`` and ``neg_idx`` on
# indices; and, at the API only, ``points``, ``zero``, ``contains``,
# ``indices`` (points to indices) and ``points_at`` (indices to points).


# Plans kept per kind, and coefficient differences (``_coeff_diff``): 32 of
# each hold a gaussian-window run, whose campaigns use one sweep plan, per fold
# count a character and a polynomial plan, and at most six differences.
PLAN_CACHE_SIZE = 32


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


@lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def _coeff_diff(beta, minus):
    """``beta - minus``: a Fraction when both are rational, else an
    endomorphism difference, built with its index map once per pair."""
    r, s = _coeff_ratio(beta), _coeff_ratio(minus)
    return beta - minus if r is None or s is None else r - s


def _trivial_kernel(beta) -> bool:
    """Whether ``beta`` has trivial kernel on the dual; for a rational
    multiplier, whether it is nonzero."""
    r = _coeff_ratio(beta)
    return len(beta.kernel_idx()) == 1 if r is None else r != 0


def kernel_conditions(summed: Sequence[bool],
                      betas: Sequence[object]) -> dict[str, bool]:
    """The kernel conditions of the identifiability theorems, by label.

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
                    _coeff_diff(b, betas[j]))
    return conds


def require_kernel_conditions(summed: Sequence[bool],
                              betas: Sequence[object]) -> None:
    """Raise PreconditionError naming the first kernel condition that fails."""
    for label, holds in kernel_conditions(summed, betas).items():
        if not holds:
            raise PreconditionError(f"kernel condition {label} fails")


# -- function tables -----------------------------------------------------------


def _per_row(f, a: np.ndarray):
    """A check's result per row of ``f``; a scalar for a table."""
    return a if f.values.ndim > 1 else a[0].item()


def _box_idx(box: tuple[int, int, int]) -> np.ndarray:
    """The indices ``j s``, ``lo <= j <= hi``, of ``box = (s, lo, hi)``."""
    s, lo, hi = box
    return s * np.arange(lo, hi + 1, dtype=np.int64)


def _box_positions(box: tuple[int, int, int], k: np.ndarray) -> np.ndarray:
    """Position of each domain index in ``k`` in ``box = (s, lo, hi)``:
    ``k/s - lo`` where ``s`` divides ``k`` and that is in range, else -1."""
    s, lo, hi = box
    j = k // s - lo
    j[(k % s != 0) | (j < 0) | (j > hi - lo)] = -1
    return j


@dataclass(frozen=True, init=False, eq=False)
class FunctionTable:
    """A complex-valued function on a box of a domain.

    A table is its domain, the int64 domain indices ``idx`` of its support
    in index order (on a window the grid indices ``m = y*D``) and the
    aligned complex ``values`` (float64 for a real table); every operator
    computes on ``idx``.  A stack of tables on one box holds ``(k, len(idx))``
    values, a row per table: operators act along the last axis, and each
    check gives a result per row, where a table gives a scalar.  The
    support is a box, ``idx = {j s : lo <= j <= hi}`` for ``box = (s, lo,
    hi)``: the whole group, or a progression of a window.  Every operator
    returns a box: a window ``diff`` restriction, a pullback by ``p/q`` and
    the common support of two windows are progressions again.  ``points``,
    the support as group elements or exact Fractions, is built from ``idx``
    when first read.  The constructor takes points in any order and sorts
    them; a repeated point or a support that is no box raises DomainError.
    Tables are immutable, and compare and hash by identity.
    """

    domain: object
    idx: np.ndarray
    values: np.ndarray

    def __init__(self, domain, points, values) -> None:
        idx = domain.indices(points)
        vals = np.asarray(values, dtype=np.complex128)
        if len(idx) != len(vals):
            raise DomainError("points and values length mismatch")
        order = np.argsort(idx)
        idx = idx[order]
        vars(self).update(vars(self._at(domain, idx, vals[order])))
        # A repeated point is never in the box.
        if not np.array_equal(idx, _box_idx(self.box)):
            raise DomainError("the points, each once, must be a whole group "
                              "or a window progression {j s : lo <= j <= hi}")

    @classmethod
    def _at(cls, domain, idx: np.ndarray, values) -> "FunctionTable":
        """The table with ``values`` at the box ``idx``, in index order."""
        vals = np.asarray(values)
        if vals.dtype != np.float64:
            vals = np.asarray(vals, dtype=np.complex128)
        idx.setflags(write=False)
        vals.setflags(write=False)
        t = cls.__new__(cls)
        vars(t).update(domain=domain, idx=idx, values=vals)
        return t

    @classmethod
    def from_function(cls, domain, fn: Callable) -> "FunctionTable":
        return cls._at(domain, domain.every,
                       np.array([fn(p) for p in domain.points]))

    @classmethod
    def constant(cls, domain, value=1.0) -> "FunctionTable":
        return cls._at(domain, domain.every, np.full(
            domain.every.size, value, dtype=np.complex128))

    @cached_property
    def box(self) -> tuple[int, int, int]:
        """``(s, lo, hi)``: ``(1, 0, n - 1)`` on a group of ``n`` elements;
        on a window ``s`` is the gcd of ``idx`` (the step of a progression
        of two or more points), or 1 for ``{0}`` and an empty table."""
        if isinstance(self.domain, Group):
            return 1, 0, self.domain.size - 1
        s = int(np.gcd.reduce(self.idx)) or 1
        lo = int(self.idx[0]) // s if len(self) else 0
        return s, lo, lo + len(self) - 1

    @cached_property
    def points(self) -> tuple:
        """The support as points, in index order."""
        return self.domain.points_at(self.idx)

    def _found(self, idx: np.ndarray, err: str) -> tuple[np.ndarray, np.ndarray]:
        """Where in ``idx`` the table has points, and their table positions."""
        q = _box_positions(self.box, idx)
        has = np.flatnonzero(q >= 0)
        if not len(has):
            raise WindowMarginError(err)
        return has, q[has]

    def _position(self, p) -> int:
        """Table position of the point ``p``; -1 where absent or foreign."""
        try:
            return int(_box_positions(self.box, self.domain.indices([p]))[0])
        except (DomainError, AttributeError, OverflowError):
            return -1

    def __contains__(self, p) -> bool:
        return self._position(p) >= 0

    def __getitem__(self, p) -> complex:
        i = self._position(p)
        if i < 0:
            raise DomainError(f"{p!r} is not in the table domain")
        v = self.values[..., i]
        return v if v.ndim else complex(v)

    def __len__(self) -> int:
        return len(self.idx)

    # -- pointwise transforms --------------------------------------------------

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "FunctionTable":
        return self._at(self.domain, self.idx, fn(self.values))

    def log_modulus(self) -> "FunctionTable":
        """Real table ``log|f|``; requires a nonvanishing table."""
        if np.any(self.values == 0):
            raise VanishingFactorError("log-modulus of a vanishing table")
        return self.map_values(lambda v: np.log(np.abs(v)))

    def phase_part(self) -> "FunctionTable":
        """Unit-modulus table ``f/|f|``; NaN where ``f`` is infinite."""
        if np.any(self.values == 0):
            raise VanishingFactorError("phase part of a vanishing table")
        v = self.values
        # Complex division by |f| takes 1/|f|, which overflows where |f| is
        # subnormal; those values are first scaled by 2**54, exactly.
        tiny = np.abs(v) < np.finfo(float).tiny
        if tiny.any():
            v = v.copy()
            v[tiny] *= 2.0 ** 54
        with np.errstate(invalid="ignore"):
            return self._at(self.domain, self.idx, v / np.abs(v))

    def _common(self, other: "FunctionTable") -> tuple[np.ndarray, np.ndarray]:
        """Positions of the common support in ``self`` and in ``other``."""
        if self.domain != other.domain:
            raise DomainError("tables live on different domains")
        return other._found(self.idx, "tables share no points")

    def ratio(self, other: "FunctionTable") -> "FunctionTable":
        """Pointwise ``self/other`` on the common support."""
        has, q = self._common(other)
        den = other.values[..., q]
        if np.any(den == 0):
            raise VanishingFactorError("division by a vanishing table")
        # inf / inf is NaN, which every verdict on the ratio fails.
        with np.errstate(invalid="ignore"):
            return self._at(self.domain, self.idx[has],
                            self.values[..., has] / den)

    def pullback(self, beta) -> "FunctionTable":
        """The table ``v -> f(beta v)`` where ``beta v`` is in the table."""
        every = self.domain.every
        img, ok = _coeff_idx(beta, every)
        q = np.where(ok, _box_positions(self.box, img), -1)
        rows = np.flatnonzero(q >= 0)
        return self._at(self.domain, every[rows], self.values[..., q[rows]])

    def times(self, other: "FunctionTable") -> "FunctionTable":
        """Pointwise ``self*other`` on the common support."""
        has, q = self._common(other)
        return self._at(self.domain, self.idx[has],
                        self.values[..., has] * other.values[..., q])

    # -- structural checks -------------------------------------------------------

    def value_at_zero(self) -> complex:
        return self[self.domain.zero]

    def hermitian_defect(self) -> float:
        """Max of ``|f(-y) - conj(f(y))|`` over points whose negation is present."""
        neg = _box_positions(self.box, self.domain.neg_idx(self.idx))
        has, v = neg >= 0, np.atleast_2d(self.values)
        return _per_row(self, np.max(np.abs(v[:, neg[has]] - np.conj(v[:, has])),
                                     axis=1, initial=0.0))

    def nonvanishing(self, tol: float = 0.0) -> bool:
        return _per_row(self, np.min(np.abs(np.atleast_2d(self.values)),
                                     axis=1) > tol)

    def rows(self, which) -> "FunctionTable":
        """The stack of rows ``which`` of a stack; a table is one row."""
        return self._at(self.domain, self.idx,
                        np.atleast_2d(self.values)[which])


# -- plans ---------------------------------------------------------------------
#
# Which index pairs a generator check or an equation sweep visits, and at
# which table positions, depends on the domain, the boxes and the
# coefficients, never on the values.  Each such check splits into a plan of
# those positions, built once per key by an ``lru_cache`` of
# ``PLAN_CACHE_SIZE`` entries, and an evaluation that gathers values along
# it.  ``bernstein_check`` needs no plan: its pairs are windows of an
# extended copy of its values at offsets affine in the row.  Plan arrays are
# read-only.  Positions are int64: a gather with int32 positions converts
# them on every call, and costs twice as long.

def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# -- difference operators --------------------------------------------------------


def _step(f: FunctionTable, k, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the points ``y`` of ``f`` with ``y + k`` inside, and of
    ``y + k``, for the domain index ``k``."""
    return f._found(f.domain.add_idx(f.idx, k), f"window too small for "
                    f"{what} step {f.domain.points_at([k])[0]!r}")


def diff(f: FunctionTable, h) -> FunctionTable:
    """Additive finite difference ``y -> f(y+h) - f(y)``.

    On a group the domain is unchanged; on a window the result is restricted
    to points with ``y+h`` still inside, and an empty restriction raises.  A
    step outside the domain (or off the window's grid) raises DomainError.
    """
    has, q = _step(f, f.domain.indices([h])[0], "difference")
    return f._at(f.domain, f.idx[has], f.values[q] - f.values[has])


def ratio_diff(f: FunctionTable, h) -> FunctionTable:
    """Multiplicative difference ``y -> f(y+h)/f(y)`` on a nonvanishing table."""
    return _ratio_step(f, f.domain.indices([h])[0])


def _ratio_step(f: FunctionTable, k) -> FunctionTable:
    """``ratio_diff`` by the domain index ``k``."""
    has, q = _step(f, k, "ratio")
    den = f.values[has]
    if np.any(den == 0):
        raise VanishingFactorError("ratio difference of a vanishing table")
    with np.errstate(invalid="ignore"):  # inf / inf is NaN, as in ``ratio``
        return f._at(f.domain, f.idx[has], f.values[q] / den)


# -- generator certificates ---------------------------------------------------
#
# The character and polynomial equations are homomorphism identities: on a
# finitely generated abelian group each holds everywhere exactly when it holds
# along generators (Djokovic, Ann. Polon. Math. 22, 1969; Szekelyhidi, 1991,
# ch. 1).  So both checks gather along a few shifts of a whole group table, or
# of a window box through 0 (a whole window, a ``diff`` restriction, a
# pullback by ``p/q``); a window box that misses 0 raises DomainError.
# ``_through_zero`` holds this contract, and ``bernstein_check`` takes it
# too.  Against an absolute tolerance a smooth table's defect grows with the
# shift, so a doubling ladder of multiples of the generators runs up to the
# longest shift the all-pairs sweeps read.


def _through_zero(dom, box: tuple[int, int, int]) -> None:
    """Raise WindowMarginError for the window box ``{0}`` or an empty one,
    and DomainError for any other that misses 0."""
    if isinstance(dom, Group):
        return
    _, lo, hi = box
    if lo >= 0 >= hi:
        raise WindowMarginError("a window table needs a point besides 0")
    if not lo <= 0 <= hi:
        raise DomainError("this check needs a window support through 0")


def _ladder(top: int) -> set:
    """``1, 2, 4, ...`` up to ``top``, and ``top``."""
    return {top, *(1 << i for i in range(top.bit_length()))} - {0}


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _generator_plan(dom, box: tuple, folds: int | None) -> tuple:
    """The position of point 0, and the shifts ``e`` in blocks (for
    differences two, the first alone): per ``e`` a row of positions of
    ``x + e`` for the points ``x`` of ``box`` (-1 where absent), the same in
    a tile of the values with a row per shift, and where ``folds``
    differences (one for None) are defined.

    The character check (``folds`` None) shifts a group table by its unit
    vectors, a window ``{j s : lo <= j <= hi}`` by ``j s`` for ``j`` in
    ``_ladder(hi)`` and ``-_ladder(-lo)``.  ``folds`` differences step by
    ``j e`` for each unit vector ``e`` of order ``n`` and ``j`` in
    ``_ladder(n // 2)``, or by ``j s`` for ``j`` in ``_ladder(K)``, ``K``
    the largest with ``2 folds K s <= max |k|`` (WindowMarginError at 0).
    """
    _through_zero(dom, box)
    s, lo, hi = box
    if isinstance(dom, Group):
        shifts = dom.generators if folds is None else np.concatenate([
            e * np.array(sorted(_ladder(n // 2)), dtype=np.int64)
            for e, n in zip(dom.generators, dom.orders)])
    else:
        if folds is None:
            js = _ladder(hi) | {-j for j in _ladder(-lo)}
        elif not (js := _ladder(max(-lo, hi) // (2 * folds))):
            raise WindowMarginError(
                f"no step leaves margin for {folds} differences")
        shifts = s * np.array(sorted(js), dtype=np.int64)
    idx, blocks = _box_idx(box), []
    for block in (shifts[:1], shifts[1:]) if folds else (shifts,):
        q = _box_positions(box, dom.add_idx(idx, block[:, None]))
        at = q + len(idx) * np.arange(len(q))[:, None]
        live = np.ones(q.shape, dtype=bool)
        for _ in range(folds or 1):
            live = (q >= 0) & live & live.take(at)
        blocks.append((_frozen(q), _frozen(at), _frozen(live)))
    # Point 0 has index 0 on both kinds of domain, so position -lo.
    return -lo, tuple(blocks)


def is_polynomial(f: FunctionTable, n: int, tol: float = 1e-9) -> bool:
    """Whether ``Delta_e^{n+1} f`` is at most ``tol`` for each step ``e``
    of ``_generator_plan``; on a window a statement about the window only.

    On a finite group, whose polynomials are the constants, pure differences
    along each unit vector suffice.  Each difference runs the floating-point
    operations of the all-steps sweep, which tests every group element, or
    every ``k s``, ``k <= K``.
    A smooth table's difference grows like ``k^(n+1)``, so its largest is
    at the longest step read here, and one wrong value shows at step ``s``
    at least as much as at any other; a table may still pass here and fail
    a step not read.  The first step, which a higher degree fails, goes first.
    A NaN difference is not at most ``tol``, so it fails.  On a stack, the
    verdict of each row; a row that fails a block skips the next.
    """
    if n < 0:
        raise DomainError("polynomial degree bound must be >= 0")
    v = np.atleast_2d(f.values)
    ok = np.ones(len(v), dtype=bool)
    for q, at, live in _generator_plan(f.domain, f.box, n + 1)[1]:
        r = np.flatnonzero(ok)
        w = v if len(r) == len(v) else v[r]
        d = w[:, q] - w[:, None, :]
        for _ in range(n):
            d = d.reshape(len(w), -1)[:, at] - d
        ok[r] = ~(~(np.abs(d) <= tol) & live).any(axis=(1, 2))
        if not ok.any():
            break
    return _per_row(f, ok)


def least_degree(f: FunctionTable, max_degree,
                 tol: float = 1e-9) -> int | None:
    """Smallest ``d <= max_degree`` with ``is_polynomial(f, d)``, else None;
    on a stack, -1 for None, with ``max_degree`` for all rows or per row."""
    top = np.broadcast_to(max_degree, np.atleast_2d(f.values).shape[:1])
    out = np.full(len(top), -1)
    for d in range(int(np.max(top, initial=-1)) + 1):
        open_ = np.flatnonzero((out < 0) & (d <= top))
        if not len(open_):
            break
        out[open_[is_polynomial(f.rows(open_), d, tol)]] = d
    return out if f.values.ndim > 1 else (None if out[0] < 0 else int(out[0]))


# -- character and Bernstein tests ----------------------------------------------


def character_defect(f: FunctionTable) -> float:
    """Sup of ``|f(0) - 1|`` and of ``|f(x + e) - f(x) f(e)|`` over the
    shifts ``e`` of ``_generator_plan`` and the points ``x`` with ``x + e``
    in the table; 0 exactly on characters, and a NaN reaches it.  On
    unit-modulus values a defect ``d`` bounds that of a pair ``(x, y)`` by
    about ``w d``, ``w`` the number of shifts that sum to ``y``: a word
    length on a group, about ``log2(|y| / s)`` on a window."""
    z, blocks = _generator_plan(f.domain, f.box, None)
    v = np.atleast_2d(f.values)
    out = np.abs(v[:, z] - 1.0)
    for q, _, has in blocks:
        # Entry (e, x) holds f(x + e) - f(x) f(e); f(e) is at 0 + e.
        d = v[:, q] - v[:, None, :] * v[:, q[:, z], None]
        out = np.maximum(out, np.max(np.abs(d), axis=(1, 2), where=has,
                                     initial=0.0))
    return _per_row(f, out)


def is_character(f: FunctionTable, tol: float = 1e-9) -> bool:
    """Whether ``character_defect`` is at most ``tol`` and, on a group,
    ``locate_character`` finds an ``x`` within ``tol`` of ``f``.  A NaN
    defect is not above ``tol``: a window table passes with it, and on a
    group no character is then found."""
    return (not character_defect(f) > tol
            and (not isinstance(f.domain, Group)
                 or locate_character(f, tol) is not None))


def locate_character(f: FunctionTable, tol: float = 1e-9) -> Element | None:
    """The element ``x`` with ``max |f - pair(x, .)| < tol`` on the table's
    support of a group, if any; where several pass, the lowest-index one of
    least deviation.  This is ``character_search`` with ``a = 1``, which
    leaves each pairing value exact.  A value that is not finite makes every
    deviation NaN or inf, so nothing is found."""
    dom = f.domain
    if not isinstance(dom, Group):
        return None
    x = character_search(dom, np.ones((1, len(f))), f.values[None], tol)[0]
    return None if x < 0 else dom.element_at(int(x))


def bernstein_square_table(group: Group) -> FunctionTable:
    """The table ``(m, n) -> (-1)^(m*n)`` on a product of two even cyclic factors.

    It solves the Bernstein equation and meets all its side conditions, yet
    is not a character; this is possible because such groups carry three
    involutions.
    """
    if group.rank != 2 or any(n % 2 for n in group.orders):
        raise DomainError("the square-phase table needs two even cyclic factors")
    C = group.coords_array
    return FunctionTable._at(group, group.every, (-1.0) ** (C[:, 0] * C[:, 1]))


def bernstein_check(g: FunctionTable, tol: float = 1e-9) -> bool:
    """Test of ``g(u+v)g(u-v) = g(u)^2`` plus the unit-modulus side conditions.

    The side conditions are ``|g| = 1``, ``g(-y) = conj(g(y))`` and
    ``g(0) = 1``.  Every quantity compared must be at most ``tol``, so a
    NaN fails, and numpy's warning of an invalid operation (``inf - inf``)
    is not raised.  The table takes the boxes of ``_through_zero``: a whole
    group table, or a window progression through 0; another window box
    raises DomainError.  On the values in index order, ``g(u+v)``
    and ``g(u-v)`` over every ``v`` are windows of an extended array at
    offsets affine in ``u``: on a group the table tiled over the doubled box
    (``Group.box_tile``) and that tile reversed, on a window the values
    padded by their length on each side and reversed, with the padding
    masked.  The pairs with ``u + v`` and ``u - v`` in the table go in
    blocks of about ``VALUE_BLOCK`` values (whole rows, or a row cut along
    the leading coordinate of ``v``), each tested before the next, so no
    all-pairs structure is held.  Every character passes; the converse
    holds only on groups with at most one element of order 2.
    """
    _through_zero(g.domain, g.box)
    v, n = g.values, len(g)
    if isinstance(g.domain, Group):
        # With c the coordinates of u, g(u+v) over v in index order is the
        # box of the tile at c, and g(u-v) that of the reversed tile at
        # n_k - 1 - c_k, where it reads g(-1-k) at k.  Every pair is in.
        shape, z, live = g.domain.orders, 0, None
        ext = g.domain.box_tile(v).reshape([2 * m for m in shape])
        plus = g.domain.coords_array
        minus = np.array(shape) - 1 - plus
    else:
        # u and v at positions r and t of the support {j s : lo <= j <= hi}:
        # u + v is at r + t + lo + n of the padded values, and u - v at
        # r - t - lo + n, so at 2n - 1 + lo - r + t of them reversed.  The
        # padded mask of the support is its own reverse.
        lo = g.box[1]
        shape, z = (n,), -lo
        ext = np.pad(v, n)
        live = sliding_window_view(np.pad(np.ones(n, dtype=bool), n), n)
        r = np.arange(n)[:, None]
        plus, minus = r + lo + n, 2 * n - 1 + lo - r
    P, M = (sliding_window_view(a, shape) for a in (ext, np.flip(ext)))

    def read(rows: slice, cols: slice) -> tuple:
        """g(u+v) and g(u-v) for u in rows and v with leading coordinate
        in cols, and where both are in the table."""
        p = tuple(plus[rows].T) + (cols,)
        m = tuple(minus[rows].T) + (cols,)
        k = len(p[0])
        has = True if live is None else (live[p] & live[m]).reshape(k, -1)
        return P[p].reshape(k, -1), M[m].reshape(k, -1), has

    with np.errstate(invalid="ignore"):
        # The row of u = 0 reads g(-v) at every v whose negation is in the
        # table.
        _, neg, has = read(slice(z, z + 1), slice(None))
        if not ((np.abs(np.abs(v) - 1.0) <= tol).all()
                and (np.abs(neg - np.conj(v)) <= tol).all(where=has)
                and np.abs(v[z] - 1.0) <= tol):
            return False
        # Blocks of about VALUE_BLOCK values: whole rows, or cut along the
        # leading coordinate of v where a row is longer.
        cols = row_blocks(shape[0], n // shape[0], VALUE_BLOCK)
        for rows in row_blocks(n, n, VALUE_BLOCK):
            vu = v[rows, None]
            for c in cols:
                s, d, has = read(rows, c)
                if not (np.abs(s * d - vu * vu) <= tol).all(where=has):
                    return False
    return True


def character_table_checks(group: Group,
                           tol: float = 1e-9) -> tuple[bool, bool]:
    """Whether every character ``pair(x, .)`` of ``group``, as a whole group
    table, passes ``is_character``, and whether every one passes
    ``bernstein_check``, both at ``tol``.

    Row ``x`` of the character table is ``w[p(x, .)]``, where ``w`` is
    ``group.roots`` and ``p = phase_idx`` is bilinear into ``Z_L``, ``L``
    the exponent: ``p(x, y + e) = p(x, y) + p(x, e)`` and
    ``p(x, -y) = -p(x, y)`` mod ``L``.  So each quantity the two checks
    compare on a row is an entry of a table over ``Z_L``, the same
    floating-point operation on the same doubles: ``|w[0] - 1|``,
    ``|w[a+b] - w[a] w[b]|``, ``||w[a]| - 1|``, ``|w[-a] - conj w[a]|`` and
    ``|w[a+b] w[a-b] - w[a]^2|``.  For ``tol > 0``, ``locate_character``
    finds a character on row ``x``: the search computes the pairing row of
    its candidate ``x`` as the same doubles, so that candidate deviates by
    0, and the screen, which drops only a provable ``dev >= tol``, keeps it.
    So where the table passes, every row passes.  An element of order ``L`` has
    ``p(x, .)`` onto ``Z_L``, so its row reads every entry, and the
    Bernstein verdict of the table is that of the rows.  Where a character
    entry exceeds ``tol`` or ``tol`` is not positive, the rows go through
    ``is_character`` one by one.  The table costs ``O(L^2)``, in blocks of
    ``VALUE_BLOCK`` values; the rows hold ``n^2`` values and ``n^3``
    Bernstein pairs (``n`` the group size).
    """
    L, w = group.exponent, group.roots
    b = np.arange(L)
    chars = 0 < tol and np.abs(w[0] - 1.0) <= tol
    bern = (np.abs(w[0] - 1.0) <= tol and (np.abs(np.abs(w) - 1.0) <= tol).all()
            and (np.abs(w[-b % L] - np.conj(w)) <= tol).all())
    for rows in row_blocks(L, L, VALUE_BLOCK):
        a = b[rows, None]
        wa, ws = w[a], w[(a + b) % L]
        chars = chars and (np.abs(ws - wa * w) <= tol).all()
        bern = bern and (np.abs(ws * w[(a - b) % L] - wa * wa) <= tol).all()
    if not chars:
        chars = all(is_character(FunctionTable._at(group, group.every, v), tol)
                    for V in group.character_rows() for v in V)
    return bool(chars), bool(bern)


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


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _sweep_plan(dom, boxes: tuple, rhs: tuple | None, *betas) -> tuple:
    """Row blocks of the pairs ``(u, v)`` that keep every argument inside.

    ``boxes`` holds the box of each table, ``rhs`` that of the right-hand
    side (None without one), ``betas`` the coefficient of each table.  For
    each row block of ``v`` with pairs: the positions of ``u + beta_j v`` in
    table ``j``, pair by pair; the position of each ``v`` of the block in
    the right-hand side (0 without one); and the number of pairs of each.
    """
    us, vs = _box_idx(boxes[0]), dom.every
    at = (np.zeros(len(vs), dtype=np.int64) if rhs is None
          else _box_positions(rhs, vs))
    mapped = [_coeff_idx(b, vs) for b in betas]
    keep = np.logical_and.reduce([at >= 0] + [ok for _, ok in mapped])
    at, shifts = at[keep], [s[keep] for s, _ in mapped]
    blocks = []
    for rows in row_blocks(len(at), len(us)):
        pos = [_box_positions(box, dom.add_idx(us[None, :], s[rows, None]))
               for box, s in zip(boxes, shifts)]
        inside = np.logical_and.reduce([p >= 0 for p in pos])
        if inside.any():
            blocks.append((tuple(_frozen(p[inside]) for p in pos),
                           _frozen(at[rows]), _frozen(inside.sum(axis=1))))
    return tuple(blocks)


def _sweep_max(tables, betas, rhs, defect):
    """Max of ``defect`` over the pairs ``(u, v)`` that keep every argument
    inside.

    ``u`` runs over the support of ``tables[0]``, ``v`` over the domain
    points where ``rhs`` is defined.  For each row block of ``v``, and in
    runs of rows of about ``VALUE_BLOCK`` values (one row at least),
    ``defect`` is called with ``vals``, which yields ``tables[j]`` at
    ``u + betas[j] v`` for each ``j`` in turn, with ``rhs`` at ``v`` (None
    without a right-hand side) and with the shape ``(rows, pairs)`` of
    each.  The pairs and their positions depend on the boxes and
    coefficients only; that plan is cached, and a call only gathers values
    along it.  A NaN in any block reaches the maximum of its row.
    """
    vals = [np.atleast_2d(t.values) for t in tables]
    rv = None if rhs is None else np.atleast_2d(rhs.values)
    worst = None
    for pos, at, counts in _sweep_plan(
            tables[0].domain, tuple(t.box for t in tables),
            None if rhs is None else rhs.box, *betas):
        block = np.empty(len(vals[0]))
        for s in row_blocks(len(block), len(pos[0]), VALUE_BLOCK):
            r = None if rv is None else np.repeat(
                np.take(rv[s], at, axis=1), counts, axis=1)
            block[s] = np.max(defect((np.take(v[s], p, axis=1)
                                      for v, p in zip(vals, pos)), r,
                                     (len(block[s]), len(pos[0]))), axis=1)
        worst = block if worst is None else np.maximum(worst, block)
    if worst is None:
        raise WindowMarginError(
            "no (u, v) pair keeps every argument inside its table")
    return _per_row(tables[0], worst)


def _product_defect(vals, r, pairs) -> np.ndarray:
    """``|f_1 * ... * f_n / rhs - 1|`` per pair."""
    prod = reduce(np.multiply, vals)
    if r is not None:
        if np.any(r == 0):
            raise VanishingFactorError("equation right-hand side vanishes")
        prod = prod / r
    return np.abs(prod - 1.0)


def _sum_defect(vals, r, pairs) -> np.ndarray:
    """``|psi_1 + ... + psi_n - rhs|`` per pair; ``rhs`` is 0 when absent."""
    total = np.zeros(pairs)
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
    return _eliminate(eq, index, int(eq.domain.indices([k])[0]))


def _eliminate(eq: ProductEquation, index: int, k: int) -> ProductEquation:
    """``eliminate`` by the domain index ``k``."""
    dom = eq.domain
    if k == 0:
        return eq
    _, beta0 = eq.factors[index]
    new_factors = []
    for j, (f, b) in enumerate(eq.factors):
        if j == index:
            continue
        # The step (b - beta0) k, which may be on the grid when b k is not.
        step, ok = _coeff_idx(_coeff_diff(b, beta0), np.array([k]))
        if not ok[0]:
            raise DomainError(f"a point is off the 1/{dom.denominator} grid")
        new_factors.append((_ratio_step(f, step[0]), b))
    new_rhs = _ratio_step(eq.rhs, k) if eq.rhs is not None else None
    if not new_factors:
        # Everything moved to the right-hand side; keep the equation shape by
        # carrying the residual as a single constant-coefficient factor.
        if new_rhs is None:
            raise DomainError("cannot eliminate the only factor of rhs-free equation")
        inv = new_rhs.map_values(lambda v: 1.0 / v)
        zero = Endo.zero(dom) if isinstance(dom, Group) else 0
        return ProductEquation(((inv, zero),), None)
    return ProductEquation(tuple(new_factors), new_rhs)


@dataclass(frozen=True)
class CharacterVerdict:
    index: int
    is_char: bool
    defect: float
    located: Element | None
    cascade_defect: float


def _default_cascade_steps(eq: ProductEquation, limit: int = 12) -> np.ndarray:
    every = eq.domain.every
    if isinstance(eq.domain, Group):
        return every[1:limit + 1]  # all but the zero
    # The shortest steps (after 0) leave margin for the cascade's restrictions.
    steps = every[np.argsort(np.abs(every), kind="stable")]
    return steps[1:min(2 * eq.arity - 1, limit + 1)]


def extract_character(eq: ProductEquation, *,
                      tol: float = 1e-9) -> list[CharacterVerdict]:
    """Run the elimination cascade and certify each factor as a character.

    For every factor in turn the others are eliminated, lowest index first,
    checking that the reduced equation keeps residual 1 on every evaluable
    pair for each substitution step; the surviving ratio table is then tested
    for multiplicativity and, on a finite group, matched against an explicit
    character.  The cascade samples its steps: on a group the first 12
    nonzero elements in index order, on a window the ``2(arity-1)`` shortest
    nonzero steps, negative before positive, at most 12; ``cascade_defect``
    is the worst residual over those steps.  Raises PreconditionError when some
    pair of coefficients has a difference with nontrivial kernel, exactly
    when the conclusion may fail.
    """
    require_kernel_conditions((True,) * eq.arity, [b for _, b in eq.factors])
    ks = _default_cascade_steps(eq).tolist()
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
                reduced = _eliminate(reduced, pos, k)
            cascade_worst = max(cascade_worst, reduced.residual_defect())
        f = eq.factors[survivor][0]
        defect = character_defect(f)
        located = locate_character(f, tol)
        ok = defect <= tol and (located is not None
                                or not isinstance(eq.domain, Group))
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
    for each function; on stacks, each row's report.
    """
    n = len(psis)
    if n < 2 or len(betas) != n:
        raise DomainError("need n >= 2 summands with matching coefficients")
    require_kernel_conditions((True,) * n, betas)
    worst = np.atleast_1d(_sweep_max(psis, betas, rhs, _sum_defect))
    rhs_zero = (np.ones(len(worst), dtype=bool) if rhs is None else
                np.max(np.abs(np.atleast_2d(rhs.values)), axis=1) <= tol)
    bound = np.where(rhs_zero, n - 2, n - 1)
    degrees = np.stack([least_degree(psi.rows(slice(None)), bound, tol)
                        for psi in psis], axis=1)
    out = [DegreeReport(w, tuple(None if d < 0 else d for d in ds), b, z,
                        w <= tol and min(ds) >= 0)
           for w, ds, b, z in zip(worst.tolist(), degrees.tolist(),
                                  bound.tolist(), rhs_zero.tolist())]
    return out if psis[0].values.ndim > 1 else out[0]

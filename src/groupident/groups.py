"""Finite abelian groups as direct products of cyclic factors.

A group ``Z_{n_1} x ... x Z_{n_k}`` serves as its own character group: the
character labelled by ``y`` evaluates on ``x`` as
``exp(2*pi*i * sum_i x_i*y_i/n_i)``.  All group arithmetic is exact integer
arithmetic; the pairing is computed from an exact rational phase and rounded
to a complex double exactly once, so pairing identities hold to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_ENUMERATION_BOUND = 10**6

# Dense pairing / addition tables are quadratic in the group size; they
# serve tests and tracing only, and are built for desk-scale groups.
TABLE_SIZE_LIMIT = 1500


@dataclass(frozen=True)
class Element:
    """A group element, stored as coordinates reduced into ``[0, n_i)``."""

    coords: tuple[int, ...]

    def __repr__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class Group:
    """``Z_{n_1} x ... x Z_{n_k}`` with the self-dual character pairing.

    Instances are immutable; every operation is pure, so unrestricted
    concurrent use is safe.
    """

    def __init__(self, orders: Iterable[int], *,
                 enumeration_bound: int = DEFAULT_ENUMERATION_BOUND) -> None:
        orders = tuple(int(n) for n in orders)
        if not orders:
            raise DomainError("a group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise DomainError(f"cyclic orders must be >= 1, got {orders}")
        size = math.prod(orders)
        if size > enumeration_bound:
            raise CapacityError(
                f"group size {size} exceeds enumeration bound {enumeration_bound}")
        self.orders = orders
        self.size = size
        self.enumeration_bound = enumeration_bound
        # Common denominator of the pairing phases.
        self.exponent = math.lcm(*orders)

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.orders)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def zero(self) -> Element:
        return Element((0,) * self.rank)

    # -- element handling ---------------------------------------------------

    def element(self, coords: Sequence[int]) -> Element:
        if len(coords) != self.rank:
            raise DomainError(
                f"expected {self.rank} coordinates, got {len(coords)}")
        return Element(tuple(int(c) % n for c, n in zip(coords, self.orders)))

    def contains(self, x: Element) -> bool:
        return (isinstance(x, Element) and len(x.coords) == self.rank
                and all(0 <= c < n for c, n in zip(x.coords, self.orders)))

    def _check(self, *xs: Element) -> None:
        for x in xs:
            if not self.contains(x):
                raise DomainError(f"{x!r} is not an element of {self!r}")

    def add(self, x: Element, y: Element) -> Element:
        return self.element_at(self.add_idx(self.index(x), self.index(y)))

    def neg(self, x: Element) -> Element:
        return self.element_at(self.neg_idx(self.index(x)))

    def sub(self, x: Element, y: Element) -> Element:
        return self.add(x, self.neg(y))

    def index(self, x: Element) -> int:
        """Position of ``x`` in the lexicographic enumeration."""
        self._check(x)
        return self.compose(x.coords)

    def element_at(self, index: int) -> Element:
        if not 0 <= index < self.size:
            raise DomainError(f"element index {index} out of range")
        return Element(tuple(self.coords_array[index].tolist()))

    @cached_property
    def points(self) -> tuple[Element, ...]:
        """All elements in lexicographic order by coordinates."""
        return self.points_at(self.every)

    def elements(self) -> tuple[Element, ...]:
        """The tuple ``points``."""
        return self.points

    def points_at(self, idx) -> tuple[Element, ...]:
        """The elements of the lexicographic indices ``idx``."""
        C = self.coords_array
        return tuple(Element(tuple(c)) for c in C[idx].tolist())

    def order_two_count(self) -> int:
        """Number of nonzero elements ``x`` with ``x + x = 0``."""
        return 2 ** sum(n % 2 == 0 for n in self.orders) - 1

    # -- the character pairing ----------------------------------------------

    def pair_phase(self, x: Element, y: Element) -> int:
        """Exact numerator of the pairing phase over denominator ``exponent``.

        ``pair(x, y) = exp(2*pi*i * pair_phase(x, y) / exponent)``.
        """
        return int(self.phase_idx(self.index(x), self.index(y)))

    def pair(self, x: Element, y: Element) -> complex:
        """Value of the character ``y`` at the element ``x``; unit modulus."""
        return self.roots[self.pair_phase(x, y)]

    @cached_property
    def roots(self) -> np.ndarray:
        """``exp(2 pi i k / L)``, ``L`` the exponent, with ``roots[L - k]``
        exactly ``conj(roots[k])`` and entries 0 and ``L/2`` real."""
        L = self.exponent
        half = np.exp(2j * np.pi * np.arange(L // 2 + 1) / L)
        half.imag[[0, -1] if L % 2 == 0 else 0] = 0.0
        return np.concatenate([half, half[(L + 1) // 2 - 1:0:-1].conj()])

    # -- index arithmetic: exact, elementwise on broadcastable int64 arrays ---

    @cached_property
    def every(self) -> np.ndarray:
        """Index of every element, in order; read-only."""
        out = np.arange(self.size)
        out.setflags(write=False)
        return out

    @cached_property
    def generators(self) -> np.ndarray:
        """Index of each unit coordinate vector, the generators."""
        return self.compose(np.eye(self.rank, dtype=np.int64)
                            % np.array(self.orders)[:, None])

    @cached_property
    def coords_array(self) -> np.ndarray:
        """``(size, rank)`` int64 array of all coordinates, lexicographic."""
        out = np.stack(np.meshgrid(*[np.arange(n) for n in self.orders],
                                   indexing="ij"), axis=-1)
        return out.reshape(self.size, self.rank).astype(np.int64)

    def compose(self, digits):
        """Index of the coordinates ``digits``, one per cyclic factor."""
        total = 0
        for d, n in zip(digits, self.orders):
            total = total * n + d
        return total

    def indices(self, xs: Sequence[Element]) -> np.ndarray:
        """Lexicographic indices of the elements ``xs`` as an int64 array."""
        try:
            C = np.array([x.coords for x in xs], dtype=np.int64)
            C = C.reshape(len(xs), self.rank)
            ok = bool(((C >= 0) & (C < self.orders)).all())
        except (AttributeError, TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise DomainError(f"not every point is an element of {self!r}")
        return self.compose(C.T)

    def add_idx(self, i, j) -> np.ndarray:
        """Index of ``element_at(i) + element_at(j)``."""
        C = self.coords_array
        return self.compose((C[i, k] + C[j, k]) % n
                             for k, n in enumerate(self.orders))

    def neg_idx(self, i) -> np.ndarray:
        """Index of ``-element_at(i)``."""
        C = self.coords_array
        return self.compose((-C[i, k]) % n for k, n in enumerate(self.orders))

    def box_idx(self, i) -> np.ndarray:
        """Index of ``element_at(i)`` in the doubled coordinate box
        ``Z_{2n_1} x ... x Z_{2n_k}``, read without reduction.

        Coordinates of a sum of two elements stay below ``2n`` on each axis,
        so the box index of the unreduced sum is ``box_idx(i) + box_idx(j)``,
        and ``box_tile(f)`` holds ``f`` of the reduced sum there.
        """
        C = self.coords_array
        total = 0
        for k, n in enumerate(self.orders):
            total = total * (2 * n) + C[i, k]
        return total

    def box_tile(self, values: np.ndarray) -> np.ndarray:
        """``values`` tiled over the doubled box on its last axis, so that
        ``box_tile(f)[box_idx(i) + box_idx(j)] == f[add_idx(i, j)]``.
        The tile is C-contiguous, so reshaping it copies nothing."""
        return values.take(self._box_source, axis=-1)

    @cached_property
    def _box_source(self) -> np.ndarray:
        """Index of the element at each point of the doubled box."""
        return np.tile(np.arange(self.size).reshape(self.orders),
                       (2,) * self.rank).reshape(-1)

    def phase_idx(self, i, j) -> np.ndarray:
        """Exact ``pair_phase(element_at(i), element_at(j))``."""
        C, S = self.coords_array, self._phase_coords
        # Each term is below L^2 and L is at most the group size, so the sum
        # fits in int64 and one reduction at the end suffices.
        total = 0
        for k in range(self.rank):
            total = total + C[i, k] * S[j, k]
        return total % self.exponent

    @cached_property
    def _phase_coords(self) -> np.ndarray:
        """``coords_array`` times ``exponent // n_k`` on axis ``k``."""
        return self.coords_array * (self.exponent // np.array(self.orders))

    # -- dense helper tables (desk scale; tests and tracing only) ------------

    def _require_table_capacity(self, what: str) -> None:
        if self.size > TABLE_SIZE_LIMIT:
            raise CapacityError(
                f"{what} needs a {self.size}x{self.size} table; "
                f"limit is {TABLE_SIZE_LIMIT}x{TABLE_SIZE_LIMIT}")

    @cached_property
    def phase_matrix(self) -> np.ndarray:
        """``(size, size)`` exact pairing phases mod ``exponent``."""
        self._require_table_capacity("the pairing matrix")
        return self.phase_idx(self.every[:, None], self.every[None, :])

    @cached_property
    def pairing_matrix(self) -> np.ndarray:
        """``P[i, j] = pair(element_at(i), element_at(j))`` as complex
        doubles, stacked from ``character_rows``."""
        self._require_table_capacity("the pairing matrix")
        return np.concatenate(list(self.character_rows()))

    def character_rows(self):
        """The rows ``pair(x, .)`` of the character table, ``x`` in index
        order, from exact phases, in blocks of at most ``VALUE_BLOCK``
        values (one row at least)."""
        every = self.every
        for rows in row_blocks(self.size, self.size, VALUE_BLOCK):
            yield self.roots[self.phase_idx(every[rows, None], every)]

    @cached_property
    def add_table(self) -> np.ndarray:
        """``add_table[i, j]`` is the index of ``element_at(i) + element_at(j)``."""
        self._require_table_capacity("the addition table")
        return self.add_idx(self.every[:, None], self.every[None, :])

    @cached_property
    def neg_index(self) -> np.ndarray:
        """``neg_index[i]`` is the index of ``-element_at(i)``."""
        return self.neg_idx(self.every)

    @cached_property
    def mirror(self) -> tuple[np.ndarray, ...]:
        """``(half, y, -y, z)``: the indices ``v`` with ``-v >= v``, ``y``
        with ``-y < y`` and their ``-y``, and ``z`` with ``2z = 0``."""
        neg, every = self.neg_index, self.every
        y = np.flatnonzero(neg < every)
        return (np.flatnonzero(neg >= every), y, neg[y],
                np.flatnonzero(neg == every))


# Pairs per row block of an index-pair sweep; bounds its temporary memory.
PAIR_BLOCK = 1 << 18

# Values per block of a batched check over rows of tables: 2^12 complex
# doubles, 64 KiB, stay under glibc's 128 KiB mmap threshold, so a block's
# temporaries come from the heap and not from fresh mappings.
VALUE_BLOCK = 1 << 12


def row_blocks(rows: int, cols: int, block: int = PAIR_BLOCK) -> list[slice]:
    """Row slices of a ``rows x cols`` pair sweep, about ``block`` pairs each."""
    step = max(1, block // max(cols, 1))
    return [slice(a, a + step) for a in range(0, rows, step)]


# -- the exhaustive character search ------------------------------------------


def character_search(g: Group, a: np.ndarray, b: np.ndarray,
                     tol: float) -> np.ndarray:
    """For each row of the ``(k, n)`` stacks ``a`` and ``b``, the index of
    the lowest-index minimiser ``x`` of
    ``dev(x) = max_y |b[y] - a[y] pair(x, y)|`` over every element ``y`` in
    index order, if that minimum is below ``tol``; else -1, as the dense
    search over every ``x``.  ``_shift_screen`` first drops every ``x``
    whose ``dev(x)`` provably reaches ``tol``; ``dev`` of the rest is exact,
    in blocks of ``(row, x)`` candidates of at most ``VALUE_BLOCK`` values
    (one candidate at least), on pairing rows from ``phase_idx``."""
    r, x = np.nonzero(_shift_screen(g, a, b, tol))
    # A dropped candidate reads inf, so it is never below tol.
    dev = np.full((len(a), g.size), np.inf)
    for s in row_blocks(len(r), g.size, VALUE_BLOCK):
        P = g.roots[g.phase_idx(x[s, None], g.every)]
        dev[r[s], x[s]] = np.max(np.abs(b[r[s]] - a[r[s]] * P), axis=1)
    best = np.argmin(dev, axis=1)
    return np.where(dev[np.arange(len(a)), best] < tol, best, -1)


def _shift_screen(g: Group, a: np.ndarray, b: np.ndarray,
                  tol: float) -> np.ndarray:
    """For each row of the ``(k, n)`` stacks ``a`` and ``b``, the mask of
    the ``x`` that may have a computed ``dev(x) < tol`` in
    ``character_search`` over every character ``y``, one FFT over the
    trailing ``orders`` axes for all rows.

    Over all ``n`` characters ``y``,
    ``L2^2(x) = sum_y |b(y) - a(y) pair(x, y)|^2 = S + T - 2 Re F(x)`` with
    ``S = sum |a|^2``, ``T = sum |b|^2`` and ``F = fftn(conj(a) b)`` over the
    ``orders`` shape (numpy's ``fftn`` carries ``exp(-2 pi i <x, y>)``).
    A maximum is at least the root mean square, so ``dev(x)^2 >= L2^2(x)/n``.

    Rounding bound, with ``u = 2^-53`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002): the sums ``S`` and ``T`` of ``2n``
    real products are off by at most ``gamma_2n (S+T)`` (§3.1, in any
    summation order); each product ``conj(a) b`` by ``sqrt(2) gamma_2 |a||b|``
    (Lemma 3.5), which moves ``F(x)`` by at most ``sqrt(2) gamma_2 (S+T)/2``;
    an FFT by ``c log2(m) u`` relative to the 2-norm (§24.1, Thm 24.2, where
    ``c`` is about 7 for radix 2), which by Parseval is at most
    ``c log2(m) u sqrt(n) |w|_2`` in any one ``F(x)``, ``w = conj(a) b``.
    We take ``c = 32`` and ``m = 4n``, to cover pocketfft's mixed radices and
    the padded Bluestein transform it uses for prime lengths, and the final
    sum adds ``4u (S+T)``.  ``E`` below is twice the total; the errors seen
    on the test groups stay under 1% of it.  A computed ``dev(x)`` is off by
    at most ``4u (max|a| + tol)`` (one complex product, a subtraction and a
    modulus), and ``max|a| <= sqrt(S)``, so a computed ``dev(x) < tol``
    means ``dev(x) < t`` for the ``t`` below.  An ``x`` is dropped only when the
    computed ``L2^2(x) - E >= n t^2``, which forces ``dev(x) >= t``; a NaN
    keeps it.
    """
    n, u = g.size, 2.0 ** -53
    S = np.einsum("ij,ij->i", a.conj(), a).real
    T = np.einsum("ij,ij->i", b.conj(), b).real
    w = a.conj() * b
    axes = tuple(range(1, g.rank + 1))
    F = np.fft.fftn(w.reshape((len(w),) + g.orders),
                    axes=axes).reshape(len(w), n)
    l2 = (S + T)[:, None] - 2 * F.real
    W = np.sqrt(np.einsum("ij,ij->i", w.conj(), w).real)
    E = 2 * u * ((2 * n + 8) * (S + T)
                 + 64 * math.log2(4 * n) * math.sqrt(n) * W)
    t = tol + 4 * u * (np.sqrt(S) + tol)
    return ~(l2 - E[:, None] >= n * (t * t)[:, None])

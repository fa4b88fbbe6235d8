"""Endomorphisms of finite abelian groups as constrained integer matrices.

An endomorphism of ``Z_{n_1} x ... x Z_{n_k}`` is a ``k x k`` integer matrix
``A`` acting by ``x -> A x mod (n_1, ..., n_k)``; the entry ``A[i][j]`` must
satisfy ``A[i][j]*n_j = 0 (mod n_i)`` so that the generator images have
compatible orders.  The adjoint with respect to the character pairing is
again an integer matrix, computed exactly.

The module works on stacks: ``(E, k, k)`` int64 matrix stacks, ``(E, n)``
index-map stacks and ``(E, n)`` boolean masks of subsets, one row per
endomorphism.  An ``Endo`` and the per-element functions run the same code
on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidEndomorphismError
from .groups import Element, Group


@dataclass(frozen=True)
class Endo:
    """A group endomorphism; ``matrix[i][j]`` is reduced mod ``orders[i]``."""

    group: Group
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, group: Group, matrix: Sequence[Sequence[int]]) -> None:
        k = group.rank
        rows = [list(map(int, row)) for row in matrix]
        if len(rows) != k or any(len(row) != k for row in rows):
            raise InvalidEndomorphismError(
                f"matrix must be {k}x{k} for {group!r}")
        reduced = []
        for i, n_i in enumerate(group.orders):
            row = []
            for j, n_j in enumerate(group.orders):
                a = rows[i][j] % n_i
                if ill_defined(a, n_i, n_j):
                    raise InvalidEndomorphismError(
                        f"entry ({i},{j})={rows[i][j]} violates "
                        f"{rows[i][j]}*{n_j} = 0 (mod {n_i})")
                row.append(a)
            reduced.append(tuple(row))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrix", tuple(reduced))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, group: Group) -> "Endo":
        k = group.rank
        return cls(group, [[1 if i == j else 0 for j in range(k)]
                           for i in range(k)])

    @classmethod
    def zero(cls, group: Group) -> "Endo":
        k = group.rank
        return cls(group, [[0] * k for _ in range(k)])

    @classmethod
    def scalar(cls, group: Group, c: int) -> "Endo":
        """Multiplication by the integer ``c`` on every factor."""
        k = group.rank
        return cls(group, [[c if i == j else 0 for j in range(k)]
                           for i in range(k)])

    # -- action ----------------------------------------------------------------

    def apply(self, x: Element) -> Element:
        g = self.group
        g._check(x)
        coords = tuple(
            sum(self.matrix[i][j] * x.coords[j] for j in range(g.rank)) % n_i
            for i, n_i in enumerate(g.orders))
        return Element(coords)

    @cached_property
    def index_map(self) -> np.ndarray:
        """``index_map[i]`` is the index of ``apply(element_at(i))``."""
        return index_maps(self.group, np.array([self.matrix]))[0]

    @cached_property
    def inverse_map(self) -> np.ndarray:
        """``inverse_map[j]`` is the index of the one ``x`` with
        ``index_map[x] = j``, or -1 where ``j`` has none or several."""
        m, out = self.index_map, np.full(self.group.size, -1)
        out[m] = self.group.every
        return np.where(np.bincount(m, minlength=len(m)) == 1, out, -1)

    # -- algebra ---------------------------------------------------------------

    def __sub__(self, other: "Endo") -> "Endo":
        if self.group != other.group:
            raise DomainError("endomorphisms act on different groups")
        k = self.group.rank
        return Endo(self.group,
                    [[self.matrix[i][j] - other.matrix[i][j]
                      for j in range(k)] for i in range(k)])

    def adjoint(self) -> "Endo":
        """The endomorphism ``A~`` of the dual with ``(Ax, y) = (x, A~y)``
        (``adjoints``), computed once per instance."""
        if "_adjoint" not in self.__dict__:
            adj = adjoints(self.group, np.array([self.matrix]))[0]
            object.__setattr__(self, "_adjoint", Endo(self.group, adj))
        return self.__dict__["_adjoint"]

    # -- kernel / image machinery ------------------------------------------------

    def kernel_idx(self) -> np.ndarray:
        """Indices of all ``x`` with ``apply(x) = 0``, in order."""
        return np.flatnonzero(kernel_masks(self.index_map[None])[0])

    def image_idx(self) -> np.ndarray:
        """Indices of the image, in order."""
        return np.flatnonzero(image_masks(self.index_map[None])[0])

    def kernel(self) -> list[Element]:
        return list(self.group.points_at(self.kernel_idx()))

    def image(self) -> list[Element]:
        return list(self.group.points_at(self.image_idx()))

    def is_surjective(self) -> bool:
        return len(self.image_idx()) == self.group.size


# -- stacks of endomorphisms ------------------------------------------------------


def ill_defined(a, n_i, n_j):
    """Whether matrix entries ``a`` at ``(i, j)`` break
    ``a*n_j = 0 (mod n_i)``: on integers, or elementwise on arrays."""
    return a * n_j % n_i != 0


def index_maps(group: Group, A: np.ndarray) -> np.ndarray:
    """``(E, n)`` index maps of the ``(E, k, k)`` matrix stack ``A``: row
    ``e`` holds the index of ``A[e] x`` at the index of each ``x``.

    Coordinate ``i`` of ``A x`` sums one term ``A[i][j] x_j mod n_i`` per
    axis ``j``, broadcast over the coordinate box; one table read reduces
    the sum, which is below ``k n_i``, and weights it."""
    E, k, ns = len(A), group.rank, group.orders
    out = 0
    for i, (n_i, w_i) in enumerate(zip(ns, group.generators)):
        y = 0
        for j, n_j in enumerate(ns):
            box = [1] * k
            box[j] = n_j
            y = y + (A[:, i, j, None] * np.arange(n_j) % n_i).reshape(E, *box)
        out = out + (np.arange(k * n_i) % n_i * w_i)[y]
    return out.reshape(E, group.size)


def adjoints(group: Group, A: np.ndarray) -> np.ndarray:
    """The adjoints of the ``(E, k, k)`` stack ``A`` of well-defined
    matrices.  With the fixed pairing, ``A~[j][i] = A[i][j]*n_j/n_i mod n_j``,
    an integer because of the well-definedness constraint."""
    ns = np.array(group.orders)
    return (A * ns // ns[:, None]).swapaxes(1, 2) % ns[:, None]


def adjoint_pairs(group: Group, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether ``(A x, y) = (x, B y)`` for all pairs, per row of the
    ``(E, n)`` index-map stacks ``a`` and ``b``, on exact pairing phases.

    Both sides are bi-additive once both maps are homomorphisms, and then
    they agree everywhere when they agree on the ``rank**2`` generator
    pairs.  A map ``m`` is a homomorphism exactly when the matrix whose
    column ``j`` holds the coordinates of ``m`` at generator ``j`` is well
    defined and has index map ``m``."""
    t, m, ns = group.generators, np.concatenate([a, b]), np.array(group.orders)
    M = group.coords_array[m[:, t]].swapaxes(1, 2)
    hom = (~ill_defined(M, ns[:, None], ns).any(axis=(1, 2))
           & (index_maps(group, M) == m).all(axis=1))
    pairs = (group.phase_idx(a[:, t, None], t)
             == group.phase_idx(t[:, None], b[:, None, t])).all(axis=(1, 2))
    return hom[:len(a)] & hom[len(a):] & pairs


def kernel_masks(maps: np.ndarray) -> np.ndarray:
    """``(E, n)`` masks of the kernels of the index-map stack ``maps``."""
    return maps == 0


def image_masks(maps: np.ndarray) -> np.ndarray:
    """``(E, n)`` masks of the images of the index-map stack ``maps``."""
    out = np.zeros(maps.shape, dtype=bool)
    np.put_along_axis(out, maps, True, axis=1)
    return out


def subgroup_generators(group: Group,
                        member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(gens, closed)`` for the ``(E, n)`` mask stack ``member``: per row,
    generators picked from the row, padded with 0 to ``(E, G)``, and
    whether the row is a subgroup.

    Each row grows a span ``S`` inside the span of its picks until ``S``
    holds the row.  Picked at a step ``x`` outside a subgroup ``S``, the
    span ``S + {0, ..., 2^i - 1} x`` is ``S + <x>`` exactly when it holds
    ``2^i x``; until then each doubling adds ``S + 2^i x`` to it, reading
    the span once.  Then the first member outside joins the picks (at most
    ``log2(size)`` join).  A set containing 0 and closed under adding each
    pick contains their span, hence is a subgroup.  One loop serves every
    row."""
    C, ns, w = group.coords_array, np.array(group.orders), group.generators
    E = len(member)
    span = np.zeros(member.shape, dtype=bool)
    span[:, 0] = True
    # Coordinates of each row's step, and of its picks.
    x, picked = np.zeros((E, group.rank), dtype=np.int64), []
    while (pending := (need := member & ~span).any(axis=1)).any():
        pick = pending & span[np.arange(E), x @ w]
        if pick.any():
            x = np.where(pick[:, None], C[need.argmax(axis=1)], x)
            picked.append(x * pick[:, None])
        rows, cols = np.nonzero(span & pending[:, None])
        span[rows, (C[cols] + x[rows]) % ns @ w] = True
        x = 2 * x % ns
    gens = (np.stack(picked, axis=1) if picked
            else np.zeros((E, 0, group.rank), dtype=np.int64))
    rows, cols = np.nonzero(member)
    closed = member[:, 0].copy()
    outside = ~member[rows[:, None],
                      (C[cols, None] + gens[rows]) % ns @ w]
    closed[rows[outside.any(axis=1)]] = False
    return gens @ w, closed


def annihilator_masks(group: Group, member: np.ndarray) -> np.ndarray:
    """``(E, n)`` masks of the characters that equal 1 on each row of the
    subgroup mask stack ``member``: exactly, by pairing phase numerators
    that vanish mod the group exponent, on the generators that
    ``subgroup_generators`` picks."""
    gens, closed = subgroup_generators(group, member)
    if not closed.all():
        raise DomainError("annihilator input must be a subgroup")
    return ~(group.phase_idx(gens[:, :, None], group.every) != 0).any(axis=1)


# -- one endomorphism, one subset: stacks of one ----------------------------------


def is_adjoint_pair(a: Endo, b: Endo) -> bool:
    """Whether ``(Ax, y) = (x, By)`` for all pairs (``adjoint_pairs``)."""
    if a.group != b.group:
        raise DomainError("endomorphisms act on different groups")
    return bool(adjoint_pairs(a.group, a.index_map[None],
                              b.index_map[None])[0])


def is_subgroup(group: Group, subset: Sequence[Element]) -> bool:
    """Exact closure check, under generators picked from the subset."""
    try:
        idx = group.indices(subset)
    except DomainError:
        return False
    member = np.zeros((1, group.size), dtype=bool)
    member[0, idx] = True
    return bool(subgroup_generators(group, member)[1][0])


def annihilator_idx(group: Group, subgroup: np.ndarray) -> np.ndarray:
    """Indices, in order, of the characters that equal 1 on the subgroup of
    indices ``subgroup`` (``annihilator_masks``)."""
    idx = np.asarray(subgroup)
    if idx.ndim != 1 or idx.size and (idx.dtype.kind not in "iu"
                                      or idx.min() < 0
                                      or idx.max() >= group.size):
        raise DomainError(
            f"subgroup indices must be integers in [0, {group.size})")
    member = np.zeros((1, group.size), dtype=bool)
    member[0, idx.astype(np.int64)] = True
    return np.flatnonzero(annihilator_masks(group, member)[0])


def annihilator(group: Group, subgroup: Sequence[Element]) -> list[Element]:
    return list(group.points_at(annihilator_idx(group,
                                                group.indices(subgroup))))

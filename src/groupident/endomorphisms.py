"""Endomorphisms of finite abelian groups as constrained integer matrices.

An endomorphism of ``Z_{n_1} x ... x Z_{n_k}`` is a ``k x k`` integer matrix
``A`` acting by ``x -> A x mod (n_1, ..., n_k)``; the entry ``A[i][j]`` must
satisfy ``A[i][j]*n_j = 0 (mod n_i)`` so that the generator images have
compatible orders.  The adjoint with respect to the character pairing is
again an integer matrix, computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidEndomorphismError
from .groups import Element, Group, row_blocks


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
                if (a * n_j) % n_i != 0:
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
        g = self.group
        C = g.coords_array
        A = np.asarray(self.matrix, dtype=np.int64)
        img = C @ A.T
        total = np.zeros(g.size, dtype=np.int64)
        for i, n in enumerate(g.orders):
            total = total * n + img[:, i] % n
        return total

    # -- algebra ---------------------------------------------------------------

    def __sub__(self, other: "Endo") -> "Endo":
        if self.group != other.group:
            raise DomainError("endomorphisms act on different groups")
        k = self.group.rank
        return Endo(self.group,
                    [[self.matrix[i][j] - other.matrix[i][j]
                      for j in range(k)] for i in range(k)])

    def adjoint(self) -> "Endo":
        """The endomorphism ``A~`` of the dual with ``(Ax, y) = (x, A~y)``.

        With the fixed pairing this is ``A~[j][i] = A[i][j]*n_j/n_i mod n_j``,
        an integer because of the well-definedness constraint.  It is
        computed once per instance.
        """
        if "_adjoint" not in self.__dict__:
            ns = self.group.orders
            adj = [[self.matrix[i][j] * n_j // n_i for i, n_i in enumerate(ns)]
                   for j, n_j in enumerate(ns)]
            object.__setattr__(self, "_adjoint", Endo(self.group, adj))
        return self.__dict__["_adjoint"]

    # -- kernel / image machinery ------------------------------------------------

    def kernel(self) -> list[Element]:
        """All ``x`` with ``apply(x) = 0``; always a subgroup containing 0."""
        return list(self.group.points_at(np.flatnonzero(self.index_map == 0)))

    def image(self) -> list[Element]:
        g = self.group
        return [g.element_at(int(i)) for i in np.unique(self.index_map)]

    def is_surjective(self) -> bool:
        return len(np.unique(self.index_map)) == self.group.size


def is_adjoint_pair(a: Endo, b: Endo) -> bool:
    """Whether ``(Ax, y) = (x, By)`` for all pairs, on exact pairing phases."""
    g = a.group
    every = np.arange(g.size)
    return all(np.array_equal(g.phase_idx(a.index_map[rows, None], every),
                              g.phase_idx(every[rows, None], b.index_map))
               for rows in row_blocks(g.size, g.size))


def is_subgroup(group: Group, subset: Sequence[Element]) -> bool:
    """Exact closure check: contains 0 and is closed under addition."""
    try:
        idx = group.indices(subset)
    except DomainError:
        return False
    member = np.zeros(group.size, dtype=bool)
    member[idx] = True
    return bool(member[0]) and all(
        member[group.add_idx(idx[rows, None], idx)].all()
        for rows in row_blocks(len(idx), len(idx)))


def annihilator(group: Group, subgroup: Sequence[Element]) -> list[Element]:
    """Characters that equal 1 on every element of ``subgroup``.

    The membership test is exact: ``y`` annihilates ``x`` iff the pairing
    phase numerator vanishes mod the group exponent.
    """
    if not is_subgroup(group, subgroup):
        raise DomainError("annihilator input must be a subgroup")
    sub, ys = group.indices(subgroup), np.arange(group.size)
    hit = np.concatenate([group.phase_idx(sub, ys[rows, None]).any(axis=1)
                          for rows in row_blocks(group.size, len(sub))])
    return [group.elements()[i] for i in np.flatnonzero(~hit)]

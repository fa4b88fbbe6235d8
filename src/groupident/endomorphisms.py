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

    def kernel_idx(self) -> np.ndarray:
        """Indices of all ``x`` with ``apply(x) = 0``, in order."""
        return np.flatnonzero(self.index_map == 0)

    def image_idx(self) -> np.ndarray:
        """Indices of the image, in order."""
        return np.unique(self.index_map)

    def kernel(self) -> list[Element]:
        return list(self.group.points_at(self.kernel_idx()))

    def image(self) -> list[Element]:
        return list(self.group.points_at(self.image_idx()))

    def is_surjective(self) -> bool:
        return len(self.image_idx()) == self.group.size


def is_adjoint_pair(a: Endo, b: Endo) -> bool:
    """Whether ``(Ax, y) = (x, By)`` for all pairs, on exact pairing phases:
    both sides are bi-additive once both index maps are homomorphisms,
    ``m[x + t] = m[x] + m[t]`` at each ``x`` and generator ``t``, and then
    they agree everywhere when they agree on the ``rank**2`` generators."""
    g, t = a.group, a.group.generators
    m = np.array([a.index_map, b.index_map])
    return bool((m[:, g.add_idx(g.every, t[:, None])]
                 == g.add_idx(m[:, None], m[:, t, None])).all()
                and (g.phase_idx(m[0, t, None], t)
                     == g.phase_idx(t[:, None], m[1, t])).all())


def _subgroup_generators(group: Group, idx: np.ndarray) -> np.ndarray | None:
    """Generators picked from the indices ``idx`` if they form a subgroup,
    else None: the first element outside the span of those so far joins
    them (at most ``log2(size)`` join), and a set containing 0 and closed
    under adding each of them contains their span, hence is a subgroup."""
    span, member = np.zeros((2, group.size), dtype=bool)
    span[0], member[idx], picked = True, True, []
    while not span[idx].all():
        picked.append(x := idx[np.argmin(span[idx])])
        # S + {0, ..., 2^i - 1} x is closed under adding 2^i x exactly when
        # it is S + <x>; each doubling reads the span once.
        while not span[new := group.add_idx(np.flatnonzero(span), x)].all():
            span[new], x = True, group.add_idx(x, x)
    gens = np.array(picked, dtype=np.int64)
    closed = member[0] and member[group.add_idx(idx, gens[:, None])].all()
    return gens if closed else None


def is_subgroup(group: Group, subset: Sequence[Element]) -> bool:
    """Exact closure check, under generators picked from the subset."""
    try:
        return _subgroup_generators(group, group.indices(subset)) is not None
    except DomainError:
        return False


def annihilator_idx(group: Group, subgroup: np.ndarray) -> np.ndarray:
    """Indices, in order, of the characters that equal 1 on the subgroup of
    indices ``subgroup``: exactly, by pairing phase numerators that vanish
    mod the group exponent, on the generators that ``is_subgroup`` picks."""
    gens = _subgroup_generators(group, subgroup)
    if gens is None:
        raise DomainError("annihilator input must be a subgroup")
    return np.flatnonzero(~(group.phase_idx(gens[:, None], group.every)
                            != 0).any(axis=0))


def annihilator(group: Group, subgroup: Sequence[Element]) -> list[Element]:
    return list(group.points_at(annihilator_idx(group,
                                                group.indices(subgroup))))

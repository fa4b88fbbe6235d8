"""Probability distributions on finite abelian groups.

Masses are a float vector in the lexicographic element order.  Their
characteristic function is an FFT over the ``orders`` shape on a
``Group.spectral`` group, with no ``n x n`` table, and the cheaper product
with the exact ``Group.pairing_matrix`` below that size.  Joint laws of two
linear forms are swept over the ``(u, v)`` grid in row blocks, each factor
read from its characteristic function tiled over the doubled coordinate box
(``Group.box_idx``), so comparing two needs no ``n x n`` table either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .endomorphisms import Endo
from .errors import CapacityError, DomainError, GenerationError
from .funceq import FunctionTable
from .groups import Element, Group

MASS_TOL = 1e-12

# Pairs per row block of a joint-law sweep.  Smaller than PAIR_BLOCK so that
# a block's index and value buffers stay in cache: on Z30xZ50 and Z1021 a
# joint residual takes 0.7-0.75 of its time at PAIR_BLOCK (2-CPU x86-64
# host, numpy 2.4).  A sweep allocates its buffers once (``pair_index_blocks``)
# and writes every block into them: a block of complex values is 512 KiB,
# and glibc serves each allocation of 128 KiB or more with a fresh mmap.
# With new temporaries per block, ``verify-shift --group 30x50 --form II
# --trials 1`` took 145 ms instead of 93 ms.
JOINT_BLOCK = 1 << 15


@dataclass(frozen=True)
class Distribution:
    """A probability vector over ``group.elements()``."""

    group: Group
    masses: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=np.float64)
        if m.shape != (self.group.size,):
            raise DomainError(
                f"need {self.group.size} masses, got shape {m.shape}")
        if np.any(m < -MASS_TOL):
            raise DomainError("negative probability mass")
        if abs(float(m.sum()) - 1.0) > 1e-9:
            raise DomainError(f"masses sum to {m.sum()}, not 1")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def degenerate(cls, group: Group, x: Element) -> "Distribution":
        group._check(x)
        m = np.zeros(group.size)
        m[group.index(x)] = 1.0
        return cls(group, m)

    @classmethod
    def uniform(cls, group: Group) -> "Distribution":
        return cls(group, np.full(group.size, 1.0 / group.size))

    @classmethod
    def from_pairs(cls, group: Group, pairs: dict) -> "Distribution":
        """Build from ``{element: mass}``; unlisted elements get mass 0."""
        m = np.zeros(group.size)
        for x, p in pairs.items():
            m[group.index(x)] += float(p)
        return cls(group, m)

    @classmethod
    def poisson(cls, group: Group, lam: float, x0: Element) -> "Distribution":
        """The compound-point-mass law with char. function ``exp(lam*((x0,y)-1))``.

        Masses come from the inverse transform of the closed-form
        characteristic function, so there is no series-truncation error; tiny
        negative round-off is clamped and the vector renormalized.
        """
        if lam < 0:
            raise DomainError("poisson rate must be nonnegative")
        row = group.roots[group.phase_idx(group.index(x0),
                                          np.arange(group.size))]
        hat = np.exp(lam * (row - 1.0))
        if group.spectral:
            masses = np.fft.fftn(hat.reshape(group.orders)).reshape(-1).real
        else:
            masses = (group.pairing_matrix.conj() @ hat).real
        masses = np.clip(masses / group.size, 0.0, None)
        return cls(group, masses / masses.sum())

    @classmethod
    def random(cls, group: Group, seed, floor: float = 0.1, *,
               nonvanishing_tol: float = 0.05,
               max_tries: int = 1000) -> "Distribution":
        """Seeded random distribution guaranteed nonvanishing.

        A raw random vector is mixed with a point mass at 0 (weight
        ``floor``) and rejected until ``min |char| > nonvanishing_tol``.
        Deterministic for a fixed seed.
        """
        if not 0 < floor < 1:
            raise DomainError("floor must lie strictly between 0 and 1")
        rng = np.random.default_rng(seed)
        for _ in range(max_tries):
            raw = rng.random(group.size)
            m = (1.0 - floor) * raw / raw.sum()
            m[0] += floor
            cand = cls(group, m)
            if cand.nonvanishing(nonvanishing_tol):
                return cand
        raise GenerationError(
            f"no nonvanishing distribution within {max_tries} tries")

    # -- characteristic function ---------------------------------------------------

    @cached_property
    def char_array(self) -> np.ndarray:
        """``char_array[j] = sum_x masses[x] * pair(x, y_j)``.

        numpy's ``ifftn`` carries ``exp(+2 pi i <x, y>)``, the pairing, and
        divides by ``n``.
        """
        g = self.group
        if g.spectral:
            return np.fft.ifftn(self.masses.reshape(g.orders)).reshape(-1) \
                * g.size
        return self.masses @ g.pairing_matrix

    def nonvanishing(self, tol: float) -> bool:
        return bool(np.min(np.abs(self.char_array)) > tol)

    # -- semigroup operations --------------------------------------------------------

    def convolve(self, other: "Distribution") -> "Distribution":
        if self.group != other.group:
            raise DomainError("convolution needs a common group")
        g = self.group
        # (mu*nu)(z) = sum_x mu(x) nu(z - x); z - x indexed via the add table.
        sub = g.add_table[:, g.neg_index]
        masses = (self.masses[None, :] * other.masses[sub]).sum(axis=1)
        return Distribution(g, masses)

    def shift(self, x: Element) -> "Distribution":
        """Convolution with the point mass at ``x``."""
        g = self.group
        out = np.zeros(g.size)
        out[g.add_idx(np.arange(g.size), g.index(x))] = self.masses
        return Distribution(g, out)

    def pushforward(self, e: Endo) -> "Distribution":
        if e.group != self.group:
            raise DomainError("endomorphism acts on a different group")
        out = np.zeros(self.group.size)
        np.add.at(out, e.index_map, self.masses)
        return Distribution(self.group, out)

    def total_variation(self, other: "Distribution") -> float:
        if self.group != other.group:
            raise DomainError("total variation needs a common group")
        return 0.5 * float(np.abs(self.masses - other.masses).sum())


# -- joint characteristic functions of two linear forms ----------------------------


@dataclass(frozen=True)
class LinearFormSpec:
    """Coefficients of two linear forms ``L_1 = sum a_j xi_j``, ``L_2 = sum b_j xi_j``."""

    group: Group
    coeffs1: tuple[Endo, ...]
    coeffs2: tuple[Endo, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs1) != len(self.coeffs2):
            raise DomainError("coefficient lists must share one arity")
        if len(self.coeffs1) not in (2, 3, 4):
            raise DomainError("arity must be 2, 3 or 4")
        for e in (*self.coeffs1, *self.coeffs2):
            if e.group != self.group:
                raise DomainError("coefficients act on different groups")
        object.__setattr__(self, "coeffs1", tuple(self.coeffs1))
        object.__setattr__(self, "coeffs2", tuple(self.coeffs2))

    @property
    def arity(self) -> int:
        return len(self.coeffs1)

    @property
    def pairs(self) -> tuple[tuple[Endo, Endo], ...]:
        """The coefficient pairs ``(a_j, b_j)``, one per variable."""
        return tuple(zip(self.coeffs1, self.coeffs2))

    @classmethod
    def form_I(cls, bs: Sequence[Endo]) -> "LinearFormSpec":
        """``L_1`` sums every variable; ``L_2`` uses the given coefficients."""
        g = bs[0].group
        return cls(g, tuple(Endo.identity(g) for _ in bs), tuple(bs))

    @classmethod
    def form_II(cls, bs: Sequence[Endo]) -> "LinearFormSpec":
        """``L_1`` omits the last variable; ``L_2`` uses the given coefficients."""
        g = bs[0].group
        ones = [Endo.identity(g) for _ in bs]
        ones[-1] = Endo.zero(g)
        return cls(g, tuple(ones), tuple(bs))


def pair_index_blocks(pairs: Sequence[tuple[Endo, Endo]],
                      dtypes: Sequence[type] = ()
                      ) -> Iterator[tuple[slice, list[np.ndarray],
                                          list[np.ndarray]]]:
    """Row blocks of the ``(u, v)`` grid of the factors ``(a_j, b_j)``.

    Each block of rows ``u`` comes with one box index per factor, that of
    ``adj(a_j) u + adj(b_j) v`` for every ``v``: the sum of the two images'
    box indices (``Group.box_idx``), with no reduction and no addition table,
    and with one block-shaped buffer of each dtype in ``dtypes`` for the
    caller's values.  All of them are allocated once per sweep and rewritten
    for every block, so a caller uses a block before it takes the next one.
    """
    g = pairs[0][0].group
    uv = [(g.box_idx(a.adjoint().index_map), g.box_idx(b.adjoint().index_map))
          for a, b in pairs]
    step = min(g.size, max(1, JOINT_BLOCK // g.size))
    idx = [np.empty((step, g.size), np.int64) for _ in uv]
    bufs = [np.empty((step, g.size), d) for d in dtypes]
    for start in range(0, g.size, step):
        rows = slice(start, min(start + step, g.size))
        if rows.stop - start < step:  # only the last block is shorter
            idx = [b[:rows.stop - start] for b in idx]
            bufs = [b[:rows.stop - start] for b in bufs]
        for (U, V), out in zip(uv, idx):
            np.add(U[rows, None], V[None, :], out=out)
        yield rows, idx, bufs


def joint_block(tiled: Sequence[np.ndarray], idx: Sequence[np.ndarray],
                out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``prod_j tiled[j][idx[j]]`` written into ``out``, multiplied in factor
    order; ``tmp`` holds each later factor.  Both have the block's shape.

    Box indices are in range by construction, so the gathers use
    ``mode="clip"``: with ``out`` and the default ``mode="raise"`` numpy
    buffers the output, which made a gather on Z1021 or Z30xZ50 1.6 times
    as slow.  The ``take`` method skips ``np.take``'s dispatch, which
    costs more than the gather itself on a small group.
    """
    tiled[0].take(idx[0], out=out, mode="clip")
    for t, i in zip(tiled[1:], idx[1:]):
        t.take(i, out=tmp, mode="clip")
        out *= tmp
    return out


def _check_dists(spec: LinearFormSpec, dists: Sequence[Distribution]) -> None:
    if len(dists) != spec.arity:
        raise DomainError("distribution count must match the arity")
    for d in dists:
        if d.group != spec.group:
            raise DomainError("distributions live on a different group")


def box_chars(dists: Sequence[Distribution]) -> list[np.ndarray]:
    """Each characteristic function tiled over the doubled box."""
    return [d.group.box_tile(d.char_array) for d in dists]


def joint_char_array(spec: LinearFormSpec,
                     dists: Sequence[Distribution]) -> np.ndarray:
    """``(u, v)`` grid of ``prod_j char_j(adj(a_j) u + adj(b_j) v)``."""
    g = spec.group
    _check_dists(spec, dists)
    if g.size ** 2 > 4_000_000:
        raise CapacityError("joint table would exceed the size limit")
    tiled = box_chars(dists)
    out = np.empty((g.size, g.size), dtype=np.complex128)
    for rows, idx, (tmp,) in pair_index_blocks(spec.pairs, [np.complex128]):
        joint_block(tiled, idx, out[rows], tmp)
    return out


def joint_residual(spec: LinearFormSpec, mus: Sequence[Distribution],
                   nus: Sequence[Distribution]) -> float:
    """``max |phi_mu(u, v) - phi_nu(u, v)|`` over the whole ``(u, v)`` grid,
    one row block at a time; both sides share each block's indices."""
    _check_dists(spec, mus)
    _check_dists(spec, nus)
    lhs, rhs = box_chars(mus), box_chars(nus)
    worst = []
    for _, idx, (x, y, tmp, mod) in pair_index_blocks(
            spec.pairs, [np.complex128] * 3 + [np.float64]):
        diff = joint_block(lhs, idx, x, tmp)
        diff -= joint_block(rhs, idx, y, tmp)
        worst.append(np.abs(diff, out=mod).max())
    return float(np.max(worst))


def joint_char(spec: LinearFormSpec,
               dists: Sequence[Distribution]) -> FunctionTable:
    """Joint characteristic function as a table on the product group.

    The product group ``X x X`` is self-dual with the componentwise pairing,
    so the returned table is indexed by concatenated ``(u, v)`` coordinates.
    """
    g = spec.group
    values = joint_char_array(spec, dists).reshape(-1)
    product = Group(g.orders + g.orders,
                    enumeration_bound=max(g.enumeration_bound, g.size ** 2))
    return FunctionTable._at(product, product.every, values)

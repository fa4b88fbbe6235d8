"""Probability distributions on finite abelian groups.

Masses are a float vector in the lexicographic element order.  Their
characteristic function is an FFT over the ``orders`` shape on a
``Group.spectral`` group, with no ``n x n`` table, and the cheaper product
with the exact ``Group.pairing_matrix`` below that size.  Joint laws of two
linear forms are swept over the ``(u, v)`` grid in row blocks, each factor
read at the rank it depends on (``factor_plan``): a factor with ``b_j = 0``
is a column over ``u`` and one with ``a_j = 0`` a row over ``v``, each read
once per sweep, and every other factor is gathered from its characteristic
function tiled over the doubled coordinate box (``Group.box_idx``).  So
comparing two needs no ``n x n`` table either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .endomorphisms import Endo
from .errors import CapacityError, DomainError, GenerationError
from .funceq import FunctionTable
from .groups import Element, Group, row_blocks

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
        # (mu*nu)(z) = sum_x mu(x) nu(z - x), one row block of z at a time,
        # with z - x by index arithmetic.
        masses = np.concatenate([
            (self.masses * other.masses[g.add_idx(g.every[rows, None],
                                                   g.neg_index)]).sum(axis=1)
            for rows in row_blocks(g.size, g.size)])
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


# Factor plans held at once.  A plan is a few index vectors of the group's
# size per factor, and one campaign sweeps one or two coefficient tuples.
FACTOR_PLAN_CACHE_SIZE = 16

# Per factor, the index arrays ``(U, V)`` of its reads at ``u`` and at ``v``;
# None where the factor does not depend on that variable.
FactorPlan = tuple[tuple[np.ndarray | None, np.ndarray | None], ...]


def _is_zero(e: Endo) -> bool:
    return not any(map(any, e.matrix))


@lru_cache(maxsize=FACTOR_PLAN_CACHE_SIZE)
def factor_plan(pairs: tuple[tuple[Endo, Endo], ...]) -> FactorPlan:
    """How each factor ``mu_j^(adj(a_j) u + adj(b_j) v)`` of a joint sweep
    is read, as a pair ``(U, V)``: ``(adj(a_j), None)`` index maps when
    ``b_j = 0``, a column read at ``u`` alone; ``(None, adj(b_j))`` when
    ``a_j = 0``, a row read at ``v`` alone; else the two images' box
    indices (``Group.box_idx``), whose sums index the doubled box.  Keyed
    by the coefficients' values; the arrays are read-only."""
    plan = []
    for a, b in pairs:
        g = a.group
        U, V = a.adjoint().index_map, b.adjoint().index_map
        if _is_zero(b):
            U, V = U.copy(), None
        elif _is_zero(a):
            U, V = None, V.copy()
        else:
            U, V = g.box_idx(U), g.box_idx(V)
        for x in (U, V):
            if x is not None:
                x.setflags(write=False)
        plan.append((U, V))
    return tuple(plan)


def factor_tables(plan: FactorPlan,
                  dists: Sequence[Distribution]) -> list[np.ndarray]:
    """Each characteristic function as ``plan`` reads it: the column
    ``mu^[U]`` as ``(n, 1)``, the row ``mu^[V]`` as ``(1, n)``, or tiled
    over the doubled box."""
    out = []
    for (U, V), d in zip(plan, dists):
        c = d.char_array
        if V is None:
            out.append(c[U][:, None])
        elif U is None:
            out.append(c[V][None, :])
        else:
            out.append(d.group.box_tile(c))
    return out


def pair_index_blocks(plan: FactorPlan, size: int,
                      dtypes: Sequence[type] = ()
                      ) -> Iterator[tuple[slice, list, list[np.ndarray]]]:
    """Row blocks of the ``(u, v)`` grid of ``size x size`` pairs, read as
    ``plan`` says (``factor_plan``).

    Each block of rows ``u`` comes with one read per factor, for
    ``read_factor``: the slice ``rows`` of a column factor, the whole of a
    row factor, and for every other factor the table indices
    ``U[u] + V[v]``, box indices for a characteristic function, with no
    reduction and no addition table; and with one block-shaped buffer of
    each dtype in ``dtypes`` for the caller's values.  Index and value
    buffers are allocated once per sweep and rewritten for every block, so
    a caller uses a block before it takes the next one.
    """
    step = min(size, max(1, JOINT_BLOCK // size))
    idx = [None if U is None or V is None else np.empty((step, size), np.int64)
           for U, V in plan]
    bufs = [np.empty((step, size), d) for d in dtypes]
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        if rows.stop - start < step:  # only the last block is shorter
            idx = [b if b is None else b[:rows.stop - start] for b in idx]
            bufs = [b[:rows.stop - start] for b in bufs]
        reads = []
        for (U, V), out in zip(plan, idx):
            if out is None:
                reads.append(rows if V is None else slice(None))
            else:
                reads.append(np.add(U[rows, None], V[None, :], out=out))
        yield rows, reads, bufs


def read_factor(table: np.ndarray, read, tmp: np.ndarray) -> np.ndarray:
    """One factor's block: a broadcastable view of a column or row factor,
    or the gather of any other factor written into ``tmp``.

    Table indices are in range by construction, so the gathers use
    ``mode="clip"``: with ``out`` and the default ``mode="raise"`` numpy
    buffers the output, which made a gather on Z1021 or Z30xZ50 1.6 times
    as slow.  The ``take`` method skips ``np.take``'s dispatch, which
    costs more than the gather itself on a small group.
    """
    if isinstance(read, slice):
        return table[read]
    return table.take(read, out=tmp, mode="clip")


def joint_block(tables: Sequence[np.ndarray], reads: Sequence,
                out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``prod_j`` of the factors' blocks (``read_factor``) written into
    ``out``, multiplied in factor order, so every value is the product the
    dense ``n x n`` tables give and a NaN reaches it; ``tmp`` holds each
    later gathered factor.  Both have the block's shape."""
    acc = read_factor(tables[0], reads[0], out)
    for t, r in zip(tables[1:], reads[1:]):
        acc = np.multiply(acc, read_factor(t, r, tmp), out=out)
    if acc is not out:
        np.copyto(out, acc)
    return out


def _check_dists(spec: LinearFormSpec, dists: Sequence[Distribution]) -> None:
    if len(dists) != spec.arity:
        raise DomainError("distribution count must match the arity")
    for d in dists:
        if d.group != spec.group:
            raise DomainError("distributions live on a different group")


def joint_char_array(spec: LinearFormSpec,
                     dists: Sequence[Distribution]) -> np.ndarray:
    """``(u, v)`` grid of ``prod_j char_j(adj(a_j) u + adj(b_j) v)``."""
    g = spec.group
    _check_dists(spec, dists)
    if g.size ** 2 > 4_000_000:
        raise CapacityError("joint table would exceed the size limit")
    plan = factor_plan(spec.pairs)
    tables = factor_tables(plan, dists)
    out = np.empty((g.size, g.size), dtype=np.complex128)
    for rows, reads, (tmp,) in pair_index_blocks(plan, g.size,
                                                 [np.complex128]):
        joint_block(tables, reads, out[rows], tmp)
    return out


def joint_residual(spec: LinearFormSpec, mus: Sequence[Distribution],
                   nus: Sequence[Distribution]) -> float:
    """``max |phi_mu(u, v) - phi_nu(u, v)|`` over the whole ``(u, v)`` grid,
    one row block at a time; both sides share each block's indices."""
    _check_dists(spec, mus)
    _check_dists(spec, nus)
    plan = factor_plan(spec.pairs)
    lhs, rhs = factor_tables(plan, mus), factor_tables(plan, nus)
    worst = []
    for _, reads, (x, y, tmp, mod) in pair_index_blocks(
            plan, spec.group.size, [np.complex128] * 3 + [np.float64]):
        diff = joint_block(lhs, reads, x, tmp)
        diff -= joint_block(rhs, reads, y, tmp)
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

"""Probability distributions on finite abelian groups.

Masses are a float vector in the lexicographic element order.  Their
characteristic function is an FFT over the ``orders`` shape, with no
``n x n`` table, at every group size.  Joint laws of two
linear forms are swept over the ``(u, v)`` grid in row blocks, each factor
read at the rank it depends on (``factor_plan``): a factor with ``b_j = 0``
is a column over ``u`` and one with ``a_j = 0`` a row over ``v``, each read
once per sweep, and every other factor is gathered from its characteristic
function tiled over the doubled coordinate box (``Group.box_idx``).  So
comparing two needs no ``n x n`` table either.  On exactly conjugate-
symmetric tables, as ``char_arrays`` makes them, a residual sweep reads
only the columns ``v`` with ``-v >= v``, since ``(u, v)`` and ``(-u, -v)``
deviate alike (``mirror_plan``).

Every such sweep goes through ``sweep_rows``.  A grid of at least two
blocks is cut into one stripe of contiguous rows per CPU the process may run
on (``CPUS``), each swept in blocks of ``JOINT_BLOCK // CPUS`` pairs with
its own buffers.  The caller's thread sweeps the first stripe and a pool of
``CPUS - 1`` threads, built at the first sweep that splits, sweeps the
others.  Every value is computed by the same operations whatever the
stripes, so sweeps and report bodies do not depend on the CPU count.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .endomorphisms import Endo
from .errors import DomainError, GenerationError
from .funceq import FunctionTable, summed_variables
from .groups import VALUE_BLOCK, Element, Group, row_blocks

MASS_TOL = 1e-12

# Pairs per row block of a joint-law sweep, shared by its stripes: each of
# ``CPUS`` stripes takes blocks of ``JOINT_BLOCK // CPUS`` pairs, so a split
# sweep's buffers take the memory of an unsplit one.  Smaller than
# PAIR_BLOCK so that a block's index and value buffers stay in cache: on
# Z30xZ50 and Z1021 a joint residual takes 0.7-0.75 of its time at
# PAIR_BLOCK (2-CPU x86-64 host, numpy 2.4).  A stripe allocates its buffers
# once (``pair_index_blocks``) and writes every block into them: a block of
# complex values is 512 KiB, and glibc serves each allocation of 128 KiB or
# more with a fresh mmap.  With new temporaries per block, ``verify-shift
# --group 30x50 --form II --trials 1`` took 145 ms instead of 93 ms.
JOINT_BLOCK = 1 << 15

# Box-tile values (``factor_tables``, ``2^rank n`` per entry, factor and side)
# that ``joint_residuals`` holds at once, 16 MiB: held all at once, the tiles
# of a 20-trial campaign on a group of rank 10 peaked at 1,978 MB.
TILE_BUDGET = 1 << 20

# CPUs the process may run on: the stripe count of a grid of at least two
# blocks (``sweep_rows``).
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)


@dataclass(frozen=True)
class Distribution:
    """A probability vector over ``group.elements()``."""

    group: Group
    masses: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=np.float64)
        if m.ndim != 1:
            raise DomainError(
                f"need {self.group.size} masses, got shape {m.shape}")
        object.__setattr__(self, "masses", checked_masses(self.group, m))

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
        masses = np.fft.fftn(hat.reshape(group.orders)).reshape(-1).real
        masses = np.clip(masses / group.size, 0.0, None)
        return cls(group, masses / masses.sum())

    @classmethod
    def random(cls, group: Group, seed, floor: float = 0.1, *,
               nonvanishing_tol: float = 0.05,
               max_tries: int = 1000) -> "Distribution":
        """Seeded random distribution guaranteed nonvanishing: the draw of
        ``random_masses`` from the one seed ``seed``."""
        masses, _, errors = random_masses(group, [seed], floor,
                                          nonvanishing_tol=nonvanishing_tol,
                                          max_tries=max_tries)
        if errors[0] is not None:
            raise errors[0]
        return cls(group, masses[0])

    # -- characteristic function ---------------------------------------------------

    @cached_property
    def char_array(self) -> np.ndarray:
        """``char_array[j] = sum_x masses[x] * pair(x, y_j)``, by
        ``char_arrays``."""
        return char_arrays(self.group, self.masses[None])[0]

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
        return Distribution(g, shifted_masses(g, self.masses, g.index(x)))

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


# -- stacks of laws ---------------------------------------------------------------


def checked_masses(group: Group, masses) -> np.ndarray:
    """``masses``, probability vectors over ``group.elements()`` on the last
    axis, clipped at 0 and read-only; DomainError unless each is one."""
    m = np.asarray(masses, dtype=np.float64)
    if m.shape[-1:] != (group.size,):
        raise DomainError(f"need {group.size} masses, got shape {m.shape}")
    if np.any(m < -MASS_TOL):
        raise DomainError("negative probability mass")
    sums = m.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-9
    if np.any(off):
        raise DomainError(f"masses sum to {sums[off][0]}, not 1")
    m = np.clip(m, 0.0, None)
    m.setflags(write=False)
    return m


def char_arrays(group: Group, masses: np.ndarray) -> np.ndarray:
    """``out[..., j] = sum_x masses[..., x] * pair(x, y_j)`` for a stack of
    mass vectors on the last axis.

    One ``ifftn`` over the trailing ``orders`` axes (numpy's ``ifftn``
    carries ``exp(+2 pi i <x, y>)``, the pairing, and divides by ``n``);
    each row of a stack is the transform of that row alone.  An entry at
    ``y`` with ``-y < y`` is then read as the conjugate of the one at
    ``-y``, and one with ``2y = 0`` as its real part (``mirror_plan``).
    """
    g = group
    lead = masses.shape[:-1]
    axes = tuple(range(-g.rank, 0))
    out = np.fft.ifftn(masses.reshape(lead + g.orders),
                       axes=axes).reshape(lead + (g.size,)) * g.size
    _, y, neg, fixed = g.mirror
    out[..., y] = out[..., neg].conj()
    out.imag[..., fixed] = 0.0
    return out


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), fixed by
# the stream guarantee of NEP 19.
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_MASK32 = 0xFFFFFFFF


@cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i mod 2**32`` for ``i < count``: hash step ``i`` xors
    with entry ``i`` and multiplies by entry ``i + 1``."""
    out = np.array([init] + [mult] * (count - 1), np.uint32)
    out = out.cumprod(dtype=np.uint32)
    out.setflags(write=False)
    return out


def _seed_words(seed) -> list[int]:
    """numpy's ``_coerce_to_uint32_array``: the 32-bit little-endian words
    of each nonnegative int (one word for 0), sequences flattened."""
    if isinstance(seed, (int, np.integer)):
        n = int(seed)
        if n < 0:
            raise DomainError(f"seeds must be nonnegative, got {n}")
        return [n & _MASK32, *_seed_words(n >> 32)] if n >> 32 else [n]
    if isinstance(seed, str):
        raise TypeError(f"seeds are ints or sequences of ints, got {seed!r}")
    return [w for s in seed for w in _seed_words(s)]


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of
    the ``(k, m)`` uint32 entropy ``words``: the 4-word pool hashed and
    mixed as numpy does, one column step at a time over every row."""
    k, m = words.shape
    c = _hash_consts(_INIT_A, _MULT_A, 4 * max(m, 4) + 1)

    def hashmix(v, i, w):
        v = (v ^ c[i:i + w]) * c[i + 1:i + w + 1]
        return v ^ (v >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    pool = np.zeros((k, 4), np.uint32)
    pool[:, :min(m, 4)] = words[:, :4]
    pool = hashmix(pool, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst],
                           hashmix(pool[:, src, None], 4 + 3 * src, 3))
    for src in range(4, m):
        pool = mix(pool, hashmix(words[:, src, None], 4 * src, 4))
    b = _hash_consts(_INIT_B, _MULT_B, 9)
    state = (np.tile(pool, 2) ^ b[:8]) * b[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PoolState(np.random.bit_generator.ISeedSequence):
    """A SeedSequence's PCG64 state, already generated."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


def generators(seeds: Sequence) -> list[np.random.Generator]:
    """One generator per seed, entry ``i`` with exactly the streams of
    ``np.random.default_rng(seeds[i])``: numpy's SeedSequence hash runs once
    over the rows of each entropy word count, as uint32 array arithmetic,
    and each PCG64 seeds itself from its row's state.  A stack of ints
    below ``2**32``, or of equal-length sequences of them, is one ``(k, m)``
    array.  A negative seed raises DomainError.  A batch of one costs more
    than ``default_rng``, which code that builds one generator at a time
    calls (``solenoid.synth_gaussian_instance``, ``cli._suite_endos``)."""
    try:
        a = np.asarray(seeds)
    except (ValueError, OverflowError):
        a = np.asarray(())
    if (a.size and a.dtype.kind in "iu" and a.min() >= 0
            and a.max() <= _MASK32):
        states = _pcg64_states(a.reshape(len(a), -1).astype(np.uint32))
    else:
        rows = [_seed_words(s) for s in seeds]
        states = np.empty((len(rows), 4), np.uint64)
        for m in {len(r) for r in rows}:
            at = [i for i, r in enumerate(rows) if len(r) == m]
            states[at] = _pcg64_states(np.array(
                [rows[i] for i in at], np.uint32).reshape(len(at), m))
    return [np.random.Generator(np.random.PCG64(_PoolState(s)))
            for s in states]


def random_masses(group: Group, seeds: Sequence, floor: float = 0.1, *,
                  nonvanishing_tol: float = 0.05, max_tries: int = 1000
                  ) -> tuple[np.ndarray, np.ndarray, list]:
    """Seeded random nonvanishing laws, one per seed: ``(masses, chars,
    errors)``, the first two as rows of ``(len(seeds), n)`` arrays.

    Each seed has its own generator, ``default_rng(seed)`` bit for bit, all
    seeded in one ``generators`` hash pass.  A raw random vector is mixed
    with a point mass at 0 (weight ``floor``) and drawn again from its
    generator until ``min |char| > nonvanishing_tol``; each round tests the
    rows still drawing as one stack.  A row rejected ``max_tries`` times
    reads NaN, with a GenerationError at its place in ``errors`` (None
    elsewhere).  A row's masses depend on its seed alone.
    """
    if not 0 < floor < 1:
        raise DomainError("floor must lie strictly between 0 and 1")
    rngs = generators(seeds)
    masses = np.full((len(rngs), group.size), np.nan)
    chars = np.full(masses.shape, np.nan, dtype=np.complex128)
    todo = np.arange(len(rngs))
    for _ in range(max_tries):
        if not todo.size:
            break
        raw = np.empty((todo.size, group.size))
        for row, i in zip(raw, todo):
            rngs[i].random(out=row)
        m = (1.0 - floor) * raw / raw.sum(axis=1, keepdims=True)
        m[:, 0] += floor
        m = checked_masses(group, m)
        c = char_arrays(group, m)
        ok = np.min(np.abs(c), axis=1) > nonvanishing_tol
        masses[todo[ok]], chars[todo[ok]] = m[ok], c[ok]
        todo = todo[~ok]
    errors: list = [None] * len(rngs)
    for i in todo:
        errors[i] = GenerationError(
            f"no nonvanishing distribution within {max_tries} tries")
    return masses, chars, errors


def shifted_masses(group: Group, masses: np.ndarray, x) -> np.ndarray:
    """``masses`` convolved with the point mass at the element of index
    ``x``, which broadcasts against the stack's leading axes:
    ``out[..., z] = masses[..., z - x]``."""
    src = group.add_idx(group.every, group.neg_idx(np.asarray(x))[..., None])
    return np.take_along_axis(masses, np.broadcast_to(src, masses.shape),
                              axis=-1)


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
    def of(cls, summed: Sequence[bool], bs: Sequence[Endo]) -> "LinearFormSpec":
        """``L_1`` sums the variables ``summed`` flags; ``L_2`` has ``bs``."""
        g = bs[0].group
        one, zero = Endo.identity(g), Endo.zero(g)
        return cls(g, tuple(one if s else zero for s in summed), tuple(bs))

    @classmethod
    def form_I(cls, bs: Sequence[Endo]) -> "LinearFormSpec":
        """``of`` form I's flags: ``L_1`` sums every variable."""
        return cls.of(summed_variables("I", len(bs)), bs)

    @classmethod
    def form_II(cls, bs: Sequence[Endo]) -> "LinearFormSpec":
        """``of`` form II's flags: ``L_1`` omits the last variable."""
        return cls.of(summed_variables("II", len(bs)), bs)


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


def char_rows(dists: Sequence[Distribution]) -> list[np.ndarray]:
    """The characteristic function of each of ``dists`` as a stack of one
    row, for ``factor_tables``."""
    return [d.char_array[None] for d in dists]


def factor_tables(group: Group, plan: FactorPlan,
                  chars: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each factor's characteristic functions, a ``(k, n)`` stack of one
    row per entry, as ``plan`` reads them over the rows ``(e, u)`` of the
    stacked grids of ``k`` entries: the columns ``mu_e^[U]`` as one
    ``(k n, 1)`` column, the rows ``mu_e^[V]`` as ``(k, n)``, or each
    ``mu_e^`` tiled over the doubled box, the boxes end to end
    (``stack_plan``)."""
    out = []
    for (U, V), c in zip(plan, chars):
        if V is None:
            out.append(c[:, U].reshape(-1, 1))
        elif U is None:
            out.append(c[:, V])
        else:
            out.append(group.box_tile(c).reshape(-1))
    return out


def stack_plan(plan: FactorPlan, group: Group, k: int) -> FactorPlan:
    """``plan`` over the rows ``(e, u)`` of ``k`` stacked grids: each box
    read at ``u`` moves into entry ``e``'s box, as ``factor_tables`` lays
    them out."""
    if k == 1:
        return plan
    offsets = np.arange(k)[:, None] * (group.size << group.rank)
    return tuple((U, V) if U is None or V is None
                 else ((offsets + U).reshape(-1), V) for U, V in plan)


def mirror_plan(group: Group, plan: FactorPlan, chars: Sequence[np.ndarray],
                phase: np.ndarray | None = None) -> tuple[FactorPlan, int]:
    """``plan`` with its reads at ``v`` cut to the mirror half, and its
    size, if each of ``chars`` and ``phase``, read at ``k mod L``, is
    exactly conjugate-symmetric (a NaN is not), compared in row blocks;
    else ``plan`` and ``n``."""
    tables = [(c.reshape(-1, group.size), group.neg_index) for c in chars]
    if phase is not None:
        tables.append((phase[None], -np.arange(len(phase)) % group.exponent))
    if not all(np.array_equal(t[s][:, neg], t[s].conj()) for t, neg in tables
               for s in row_blocks(len(t), len(neg))):
        return plan, group.size
    half = group.mirror[0]
    return tuple((U, V if V is None else V[half]) for U, V in plan), len(half)


def pair_index_blocks(plan: FactorPlan, size: int, cols: int,
                      dtypes: Sequence[type], lo: int, hi: int, block: int
                      ) -> Iterator[tuple[slice, list, list[np.ndarray]]]:
    """Row blocks of rows ``lo:hi`` of stacked grids of ``size`` rows ``u``
    and ``cols`` columns ``v`` each, about ``block`` pairs each, read as
    ``plan`` says (``factor_plan``, ``stack_plan``, ``mirror_plan``); row
    ``r`` is ``u = r mod size`` of entry ``e = r // size``.

    Each block of rows comes with one read per factor, for
    ``read_factor``: the slice ``rows`` of a column factor; for a row
    factor the slice ``e:e+1`` of its entry's row, or the entry of each
    row where a block spans two entries; and for every other factor the
    table indices ``U[r] + V[v]``, box indices for a characteristic
    function, with no reduction and no addition table; and with one
    block-shaped buffer of each dtype in ``dtypes`` for the caller's
    values.  Index and value buffers are allocated once per call and
    rewritten for every block, so a caller uses a block before it takes
    the next one.
    """
    step = max(1, min(hi - lo, block // cols))
    idx = [None if U is None or V is None else np.empty((step, cols), np.int64)
           for U, V in plan]
    bufs = [np.empty((step, cols), d) for d in dtypes]
    for start in range(lo, hi, step):
        rows = slice(start, min(start + step, hi))
        if rows.stop - start < step:  # only the last block is shorter
            idx = [b if b is None else b[:rows.stop - start] for b in idx]
            bufs = [b[:rows.stop - start] for b in bufs]
        e = start // size
        entry = (slice(e, e + 1) if (rows.stop - 1) // size == e
                 else np.arange(start, rows.stop) // size)
        reads = []
        for (U, V), out in zip(plan, idx):
            if out is not None:
                reads.append(np.add(U[rows, None], V[None, :], out=out))
            else:
                reads.append(rows if V is None else entry)
        yield rows, reads, bufs


@cache
def _stripe_pool():
    """The threads that sweep every stripe but the first, built at the
    first sweep that splits, so that a process whose sweeps never split
    imports no executor."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(CPUS - 1, thread_name_prefix="groupident-sweep")


# A forked child has none of the pool's threads, so work sent to the pool it
# inherits would never run: the child builds its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_stripe_pool.cache_clear)


def sweep_rows(plan: FactorPlan, size: int, cols: int,
               dtypes: Sequence[type],
               body: Callable[[slice, list, list[np.ndarray]], Any],
               entries: int = 1) -> list:
    """``body(rows, reads, bufs)`` of every block of ``pair_index_blocks``
    over the ``entries * size`` rows of ``entries`` stacked ``size x cols``
    grids, in row order.

    A block holds at most ``JOINT_BLOCK`` pairs, and on stacked grids of
    fewer pairs at most those of one grid or ``groups.VALUE_BLOCK``,
    whichever is more: a stack of small grids then holds the memory of one
    grid's sweep, not ``JOINT_BLOCK`` pairs (2.5 MB of buffers).  A sweep
    of at least two ``JOINT_BLOCK`` blocks is cut into ``CPUS`` stripes of
    contiguous rows (one per row if there are fewer rows), each with its
    own buffers and blocks of a ``CPUS``-th of that size.  The
    caller's thread sweeps the first stripe, the pool (``_stripe_pool``)
    the others, each in a copy of the caller's context, so numpy's error
    state (``np.errstate``) holds in every stripe; numpy releases the GIL
    in gathers and ufunc loops.  The call returns once every stripe has
    finished, and raises the exception of the first stripe, in row order,
    that raised one.  ``body`` runs on the pool's threads: it calls only
    numpy, ``read_factor`` and ``joint_block``, and writes only to its
    buffers and to its rows of an output, so every value is the one an
    unsplit sweep gives.
    """
    rows = entries * size
    k = min(CPUS, rows) if rows * cols >= 2 * JOINT_BLOCK else 1
    block = min(JOINT_BLOCK, max(size * cols, VALUE_BLOCK)) // k

    def stripe(lo: int, hi: int) -> list:
        return [body(*b) for b in pair_index_blocks(plan, size, cols, dtypes,
                                                    lo, hi, block)]

    if k == 1:
        return stripe(0, rows)
    from concurrent.futures import wait
    cuts = [rows * i // k for i in range(k + 1)]
    futures = [_stripe_pool().submit(contextvars.copy_context().run, stripe,
                                     lo, hi)
               for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        first = stripe(0, cuts[1])
    finally:
        wait(futures)
    return [r for part in (first, *(f.result() for f in futures))
            for r in part]


def read_factor(table: np.ndarray, read, tmp: np.ndarray) -> np.ndarray:
    """One factor's block: a broadcastable view of a column factor or of
    one entry's row factor, or the gather of any other factor, or of the
    rows of several entries, written into ``tmp``.

    Table indices are in range by construction, so the gathers use
    ``mode="clip"``: with ``out`` and the default ``mode="raise"`` numpy
    buffers the output, which made a gather on Z1021 or Z30xZ50 1.6 times
    as slow.  The ``take`` method skips ``np.take``'s dispatch, which
    costs more than the gather itself on a small group.
    """
    if isinstance(read, slice):
        return table[read]
    return table.take(read, axis=0, out=tmp, mode="clip")


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


def joint_table(plan: FactorPlan, tables: Sequence[np.ndarray],
                size: int) -> np.ndarray:
    """The ``size x size`` grid of ``joint_block`` products of ``tables``,
    read as ``plan`` says."""
    out = np.empty((size, size), dtype=np.complex128)
    sweep_rows(plan, size, size, [np.complex128],
               lambda rows, reads, bufs: joint_block(tables, reads, out[rows],
                                                     *bufs))
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
    g._require_table_capacity("the joint law")
    plan = factor_plan(spec.pairs)
    return joint_table(plan, factor_tables(g, plan, char_rows(dists)),
                       g.size)


def joint_residuals(spec: LinearFormSpec, lhs: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """``max |phi_mu(u, v) - phi_nu(u, v)|`` over the whole ``(u, v)`` grid
    of each of ``k`` entries, whose two sides' characteristic functions are
    the ``(k, arity, n)`` stacks ``lhs`` and ``rhs``.

    One sweep over the ``k n`` rows of the stacked grids, one row block at
    a time, in runs of entries whose tiles fit ``TILE_BUDGET``; both sides
    share each block's indices, and each row's largest deviation goes to
    its entry.

    If every table is exactly conjugate-symmetric, only the ``(n + t) / 2``
    columns ``v`` with ``-v >= v`` are swept (``mirror_plan``), ``t`` the
    number of ``v`` with ``2v = 0``; their maximum is the grid's bit for
    bit.  A factor is read at ``adj(a_j) u + adj(b_j) v``, a homomorphism,
    so at ``(-u, -v)`` it reads the exact conjugate of its entry at
    ``(u, v)``.  Negation is exact and round-to-nearest symmetric, so
    products, differences and moduli of exact conjugates are exact
    conjugates or equal, with or without FMA: each pair is swept itself or
    through its mirror ``(-u, -v)``.
    """
    g = spec.group
    shape = (len(lhs), spec.arity, g.size)
    if lhs.shape != shape or rhs.shape != shape:
        raise DomainError(f"need two {shape} stacks, got {lhs.shape} and "
                          f"{rhs.shape}")
    plan, cols = mirror_plan(g, factor_plan(spec.pairs), [lhs, rhs])
    tiles = 2 * sum(U is not None and V is not None for U, V in plan)
    run = max(1, TILE_BUDGET // max(1, tiles * (g.size << g.rank)))
    worst = np.empty((len(lhs), g.size))

    def body(rows, reads, bufs):
        x, y, tmp, mod = bufs
        diff = joint_block(L, reads, x, tmp)
        diff -= joint_block(R, reads, y, tmp)
        np.maximum.reduce(np.abs(diff, out=mod), axis=1, out=out[rows])

    for e in range(0, len(lhs), run):
        L, R = (factor_tables(g, plan, c[e:e + run].swapaxes(0, 1))
                for c in (lhs, rhs))
        out, k = worst[e:e + run].reshape(-1), min(run, len(lhs) - e)
        sweep_rows(stack_plan(plan, g, k), g.size, cols,
                   [np.complex128] * 3 + [np.float64], body, entries=k)
        del L, R  # this run's tiles go before the next run's are built
    return worst.max(axis=1)


def joint_residual(spec: LinearFormSpec, mus: Sequence[Distribution],
                   nus: Sequence[Distribution]) -> float:
    """``joint_residuals`` of the one entry ``(mus, nus)``."""
    _check_dists(spec, mus)
    _check_dists(spec, nus)
    lhs, rhs = (np.stack(char_rows(d), axis=1) for d in (mus, nus))
    return float(joint_residuals(spec, lhs, rhs)[0])


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

"""Desk-scale model of the solenoid character group and Gaussian fitting.

The character group of an a-adic solenoid is the discrete group of rationals
``m/(a_0 a_1 ... a_n)``; everything here runs on finite symmetric windows of
it.  Points, phases and coefficients are exact ``Fraction`` values at the
API, and window arithmetic runs on the grid indices ``m = y*D``,
``D = a_0...a_n``.  Characters are compatible phase sequences, Gaussian
characteristic functions a phase plus a quadratic decay rate, and
endomorphisms admissible rational multipliers, whose kernel conditions
reduce to being nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (CapacityError, DomainError, GroupIdentError,
                     InvalidEndomorphismError, PreconditionError,
                     VanishingFactorError, WindowMarginError)
from .funceq import (PLAN_CACHE_SIZE, DegreeReport, FunctionTable,
                     ProductEquation, _box_idx, character_defect,
                     least_degree, require_kernel_conditions,
                     shifted_sum_degrees, summed_variables)
from .reporting import FLOORS, Measured, Phases, evidence_float

FIT_TOL = 1e-8
EQUATION_TOL = 1e-8

# Values of each (k, 4, n) table stack of a campaign's run of entries, so
# that a campaign's memory grows with its window and not with its trials:
# a run holds 6 trials (12 entries) at radius 160, where n = 321.
RUN_VALUES = 1 << 14


# -- the lattice window ------------------------------------------------------------


@dataclass(frozen=True)
class RationalLattice:
    """Symmetric window ``{m/(a_0...a_n) : |m| <= radius}`` in exact rationals."""

    base: tuple[int, ...]
    depth: int
    radius: int

    def __post_init__(self) -> None:
        base = tuple(int(a) for a in self.base)
        if not base or any(a < 2 for a in base):
            raise DomainError(f"base entries must be >= 2, got {base}")
        if not 0 <= self.depth < len(base):
            raise DomainError(f"depth {self.depth} out of range for base {base}")
        if self.radius < 1:
            raise WindowMarginError("radius must be >= 1 (margin precondition)")
        for name, value in (("base", base), ("depth", int(self.depth)),
                            ("radius", int(self.radius)),
                            ("denominator", math.prod(base[: self.depth + 1])),
                            ("full_denominator", math.prod(base))):
            object.__setattr__(self, name, value)

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return self.points_at(self.every)

    @cached_property
    def every(self) -> np.ndarray:
        """Grid index ``m`` of every point, in order; read-only."""
        out = np.arange(-self.radius, self.radius + 1)
        out.setflags(write=False)
        return out

    def points_at(self, idx) -> tuple[Fraction, ...]:
        """The points ``m/D`` of the grid indices ``idx``."""
        return tuple(Fraction(int(m), self.denominator) for m in idx)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    def contains(self, p) -> bool:
        if not isinstance(p, Fraction):
            return False
        m = p * self.denominator
        return m.denominator == 1 and abs(m) <= self.radius

    def step(self) -> Fraction:
        """The finest generator ``1/(a_0...a_n)`` of the window."""
        return Fraction(1, self.denominator)

    def indices(self, points) -> np.ndarray:
        """Integer indices ``p * D`` of points of the window."""
        D = self.denominator
        if any(D % p.denominator for p in points):
            raise DomainError(f"a point is off the 1/{D} grid")
        ms = [p.numerator * (D // p.denominator) for p in points]
        if any(abs(m) > self.radius for m in ms):
            raise DomainError(f"a point lies outside the window {self!r}")
        return np.array(ms, dtype=np.int64)

    add_idx, neg_idx = staticmethod(np.add), staticmethod(np.negative)


def make_lattice(base: Sequence[int], depth: int, radius: int) -> RationalLattice:
    return RationalLattice(base, depth, radius)


# -- characters and Gaussian tables ---------------------------------------------------


def _frac_mod1(r: Fraction) -> Fraction:
    return r - (r.numerator // r.denominator)


@dataclass(frozen=True)
class SolenoidCharModel:
    """A character times a Gaussian decay on a lattice window.

    ``phases[k]`` is the phase (a rational in ``[0, 1)``) of the character at
    the generator ``1/(a_0...a_k)``; coarser and finer phases are tied by
    ``phases[k] = a_{k+1} * phases[k+1] (mod 1)``, which is exactly the
    condition for the sequence to define one character of the whole dual.
    ``sigma >= 0`` is the quadratic decay rate.
    """

    base: tuple[int, ...]
    depth: int
    phases: tuple[Fraction, ...]
    sigma: float = 0.0

    def __post_init__(self) -> None:
        base = tuple(int(a) for a in self.base)
        phases = tuple(Fraction(r) for r in self.phases)
        if len(phases) != self.depth + 1:
            raise DomainError(
                f"need {self.depth + 1} phases, got {len(phases)}")
        if any(not 0 <= r < 1 for r in phases):
            raise DomainError("phases must lie in [0, 1)")
        for k in range(self.depth):
            if _frac_mod1(base[k + 1] * phases[k + 1]) != phases[k]:
                raise DomainError(
                    f"phase compatibility fails at level {k}: "
                    f"{base[k + 1]}*{phases[k + 1]} != {phases[k]} (mod 1)")
        if self.sigma < 0:
            raise DomainError("sigma must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def from_finest(cls, base: Sequence[int], depth: int, finest: Fraction,
                    sigma: float = 0.0) -> "SolenoidCharModel":
        """Build the compatible chain from the phase at the finest generator."""
        base = tuple(int(a) for a in base)
        rs = [_frac_mod1(Fraction(finest))]
        for k in range(depth, 0, -1):
            rs.append(_frac_mod1(base[k] * rs[-1]))
        return cls(base, depth, tuple(reversed(rs)), sigma)

    @property
    def finest_phase(self) -> Fraction:
        return self.phases[-1]


def character_gaussian_values(lattice: RationalLattice, phase,
                              sigma) -> FunctionTable:
    """Table ``y -> exp(2 pi i m phase) * exp(-sigma y^2)`` for ``y = m/D``.

    The sign of ``sigma`` is free here; this is the building block for ratio
    tables, where a negative rate means the Gaussian sits on the other side.
    For an array of phases and rates, broadcast together, the stack with a
    row per phase, or CapacityError if any row's Gaussian overflows.
    """
    a, b = (np.array(x, dtype=object)[:, None] for x in zip(*(
        Fraction(p).as_integer_ratio() for p in np.ravel(phase))))
    D, r, m = lattice.denominator, lattice.radius, lattice.every
    # Exact turns (m a mod b)/b: |m (a mod b)| < r b, so int64 holds the
    # products of the rows with r b < 2^63; the rest take Python integers.
    a, small = a % b, (r * b < 2 ** 63)[:, 0].astype(bool)
    turns = np.empty((len(a), len(m)))
    for rows, dtype in ((small, np.int64), (~small, object)):
        if rows.any():
            m_, a_, b_ = (x.astype(dtype) for x in (m, a[rows], b[rows]))
            turns[rows] = (m_ * a_ % b_ / b_).astype(float)
    turns = turns.reshape(np.shape(phase) + m.shape)
    with np.errstate(over="ignore"):
        gauss = np.exp(-np.asarray(sigma, dtype=float)[..., None]
                       * (m / D) ** 2)
    if np.isinf(gauss).any():
        raise CapacityError("exp(-sigma y^2) exceeds the float range")
    return FunctionTable._at(lattice, m, np.exp(2j * np.pi * turns) * gauss)


def gaussian_table(lattice: RationalLattice,
                   model: SolenoidCharModel) -> FunctionTable:
    """Characteristic-function table of the Gaussian described by ``model``."""
    if model.base[: lattice.depth + 1] != lattice.base[: lattice.depth + 1] \
            or model.depth != lattice.depth:
        raise DomainError("model and lattice disagree on base or depth")
    return character_gaussian_values(lattice, model.finest_phase, model.sigma)


# -- coefficients -------------------------------------------------------------------


@dataclass(frozen=True)
class SolenoidEndo:
    """Multiplication by a nonzero admissible rational on the dual lattice."""

    lattice: RationalLattice
    ratio: Fraction

    def __post_init__(self) -> None:
        r = Fraction(self.ratio)
        if r == 0:
            raise InvalidEndomorphismError("ratio must be nonzero")
        # The image of the window generator must live in the dual at full depth.
        scaled = r * Fraction(1, self.lattice.denominator) \
            * self.lattice.full_denominator
        if scaled.denominator != 1:
            raise InvalidEndomorphismError(
                f"{r} maps the window outside depth {len(self.lattice.base) - 1}")
        object.__setattr__(self, "ratio", r)

    def apply(self, p: Fraction) -> Fraction:
        return self.ratio * p


def _coeff_value(b) -> Fraction:
    if isinstance(b, SolenoidEndo):
        return b.ratio
    return Fraction(b)


# -- nullspace of the power constraints ------------------------------------------------


def vandermonde_nullspace(bs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Generator of the nullspace of the rows ``(1,..), (b_j,..), ... (b_j^{n-2},..)``.

    For distinct ``b_j`` the nullspace is one-dimensional and spanned by the
    alternating products of coefficient differences.  The result is scaled to
    coprime integers with a negative leading entry, so ``(1, 2, 3, 4)`` maps
    to ``(-1, 3, -3, 1)``.
    """
    bs = [Fraction(b) for b in bs]
    n = len(bs)
    if n < 2 or len(set(bs)) != n:
        raise DomainError("need at least two pairwise distinct coefficients")
    cs = []
    for j in range(n):
        rest = [b for t, b in enumerate(bs) if t != j]
        prod = Fraction(1)
        for i in range(len(rest)):
            for k in range(i + 1, len(rest)):
                prod *= rest[k] - rest[i]
        cs.append((-1) ** j * prod)
    scale = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * scale) for c in cs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    lead = next(c for c in ints if c != 0)
    if lead > 0:
        ints = [-c for c in ints]
    return tuple(Fraction(c) for c in ints)


# -- Gaussian-ratio fitting --------------------------------------------------------------


@dataclass(frozen=True)
class GaussianFitResult:
    sigma: float
    modulus_residual: float
    phase_is_character: bool
    phase_defect: float
    ok: bool

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _fit_window(box: tuple, D: int) -> tuple:
    """The points ``y`` of a window box (read-only), ``fsum(y^4)``, and the
    floors' exact ``max y^2 sum y^2 / sum y^4`` and ``max y^2``."""
    idx = _box_idx(box)
    ys = idx / D
    ys.setflags(write=False)
    m2 = [m * m for m in idx.tolist()]  # exact, so the floors are too
    return (ys, math.fsum(ys ** 4),
            max(m2) * sum(m2) / sum(m * m for m in m2), max(m2) / D ** 2)


def fit_gaussian_ratio(f: FunctionTable, tol: float = FIT_TOL):
    """Factor a ratio table as character times ``exp(-sigma y^2)``.

    ``sigma`` is the least-squares slope of ``log|f|`` against ``-y^2``
    (positive means the second side carries the extra Gaussian, negative the
    first); the verdict fails when the modulus deviates from the fitted
    Gaussian by more than ``tol`` times ``max(1, |f|)`` anywhere on the
    window, or when the phase part is not multiplicative.  The reported
    ``modulus_residual`` is the absolute deviation.  On a stack, the list
    of each row's result.
    """
    if len(f) < 7:
        raise WindowMarginError("gaussian fit needs at least 3 points per side")
    if not np.all(f.nonvanishing(0.0)):
        raise VanishingFactorError("gaussian fit needs a nonvanishing table")
    ys, den, spread, y2 = _fit_window(f.box, f.domain.denominator)
    mods = np.abs(np.atleast_2d(f.values))
    logs = np.log(mods)
    with np.errstate(invalid="ignore"):  # an infinite value gives NaN
        sigma = np.array([math.fsum(r) / den if den > 0 else 0.0
                          for r in (-ys ** 2 * logs).tolist()])
        devs = np.abs(mods - np.exp(-sigma[:, None] * ys ** 2))
    # The bound is relative where the modulus exceeds 1: an exact ratio
    # with modulus near 5e8 carries rounding of about 1e-7.
    modulus_ok = np.all(devs <= tol * np.maximum(1.0, mods), axis=1)
    defect = np.atleast_1d(character_defect(f.phase_part()))
    # On a window, is_character is this test of the same defect.
    phase_ok = ~(defect > max(tol, 1e-9))
    # fmax: a NaN deviation, from an infinite value, hides no finite one;
    # and max(1, |f|) reads 1 where |f| is NaN.
    out = [GaussianFitResult(
        Measured(sig, FLOORS["sigma"](psi, spread, y2), signed=True),
        Measured(dev, FLOORS["modulus_residual"](scale, psi, spread)),
        p_ok, Measured(d, FLOORS["phase_defect"]), ok)
        for sig, dev, psi, scale, d, p_ok, ok in zip(*(a.tolist() for a in (
            sigma, np.fmax.reduce(devs, axis=1), np.max(np.abs(logs), axis=1),
            np.fmax(1.0, np.max(mods, axis=1)), defect, phase_ok,
            modulus_ok & phase_ok)))]
    return out if f.values.ndim > 1 else out[0]


# -- the four-variable verifiers ------------------------------------------------------------


VERDICT_GAUSSIAN = "determined-up-to-gaussian"
VERDICT_NOT_GAUSSIAN = "not-gaussian-ratio"
VERDICT_MISMATCH = "mismatch"


@dataclass(frozen=True)
class GaussianIdentReport:
    form: str
    coefficients: tuple[Fraction, ...]
    window: str
    equation_defect: float
    degree_report: DegreeReport
    extra_degree: int | None
    fits: tuple[GaussianFitResult, ...]
    sigma_sums: tuple[float, ...] | None
    failures: tuple[str, ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "form": self.form,
            "coefficients": [str(b) for b in self.coefficients],
            "verified_on_window": self.window,
            "equation_defect": self.equation_defect,
            "degrees": list(self.degree_report.degrees),
            "degree_bound": self.degree_report.bound,
            "sum_equation_defect": self.degree_report.equation_defect,
            "extra_degree": self.extra_degree,
            "fits": [fit.to_json_dict() for fit in self.fits],
            "sigma_sums": (None if self.sigma_sums is None
                           else list(self.sigma_sums)),
            "failures": list(self.failures),
            "verdict": self.verdict,
        }


def _verify_gaussian(form: str, bs, muhats, nuhats, tol: float,
                     phases: Phases | None):
    """The report of each entry of the stacks ``muhats`` and ``nuhats``
    (factor ``j`` of every entry on one box), or the first GroupIdentError
    the entry alone raises; on tables, the report.  Each step runs once on
    the open entries: the ratio tables, where an entry may fail and leave,
    their product equation on the window, each log-modulus degree through
    the shifted-sum equation, and a factoring of each ratio as character
    times Gaussian, timed in ``phases``.  An error raised on the stack
    depends on the coefficients and boxes alone: it is each open entry's,
    and a WindowMarginError propagates.  Form I also checks the power sums
    of the fitted rates; in form II the fourth ratio moves to the right-hand
    side and its log-modulus must be quadratic on its own."""
    phases = Phases() if phases is None else phases
    stack = muhats[0].values.ndim > 1
    muhats, nuhats = [[t.rows(slice(None)) for t in ts]
                      for ts in (muhats, nuhats)]
    out = [None] * len(muhats[0].values)
    rows = np.arange(len(out))

    def fail(error, bad, *stacks) -> list:
        """Close the open entries where any of ``bad`` with ``error``."""
        nonlocal rows
        bad = np.any(bad, axis=0)
        for i in rows[bad]:
            out[i] = error
        rows = rows[~bad]
        return [[t.rows(~bad) for t in stack] if bad.any() else stack
                for stack in stacks]

    try:
        if len(bs) != 4:
            raise PreconditionError(f"form {form} takes four coefficients")
        summed, vals = summed_variables(form, 4), [_coeff_value(b) for b in bs]
        require_kernel_conditions(summed, vals)
        with phases.timed("ratio_tables_s"):
            if len(muhats) != len(nuhats):
                raise DomainError("need equally many tables on both sides")
            muhats, nuhats = fail(
                PreconditionError("all tables must be nonvanishing"),
                [~t.nonvanishing(0.0) for t in (*muhats, *nuhats)], muhats,
                nuhats)
            fs = [nu.ratio(mu) for mu, nu in zip(muhats, nuhats)]
            for j in range(len(fs)):
                # Ratios of characteristic functions are normalized and
                # Hermitian, relative to the modulus where it exceeds 1; an
                # infinite ratio caps to NaN, which is not within 1e-6.
                with np.errstate(invalid="ignore"):
                    capped = fs[j].map_values(
                        lambda v: v / np.maximum(1.0, np.abs(v)))
                fs, = fail(PreconditionError(
                    f"ratio table {j + 1} is not a characteristic-function "
                    "ratio"), [~(np.abs(fs[j].value_at_zero() - 1.0) <= 1e-6),
                               ~(capped.hermitian_defect() <= 1e-6)], fs)
            fs, = fail(VanishingFactorError("log-modulus of a vanishing table"),
                       [np.any(f.values == 0, axis=1) for f in fs], fs)
            # A NaN that no check above reads: a box not symmetric about 0.
            fs, = fail(VanishingFactorError(
                "gaussian fit needs a nonvanishing table"),
                [~f.nonvanishing(0.0) for f in fs], fs)
            lattice, m, rhs = fs[0].domain, sum(summed), None
            if m < 4:
                # Right-hand side 1/f4(b4 v), where b4 v stays in the table:
                # 0 where |f4| overflows (the entry leaves), NaN at inf.
                with np.errstate(over="ignore", invalid="ignore"):
                    rhs = fs[3].pullback(vals[3]).map_values(lambda v: 1.0 / v)
                if not len(rhs):
                    raise WindowMarginError(
                        "fourth coefficient maps the window outside")
                fs, (rhs,) = fail(
                    VanishingFactorError("equation right-hand side vanishes"),
                    [np.any(rhs.values == 0, axis=1)], fs, [rhs])
            if not len(rows):
                return _entries(stack, out)
        with phases.timed("product_equation_s"):
            psis = [f.log_modulus() for f in fs]
            psi = [max(r) for r in zip(*(
                np.max(np.abs(p.values), axis=1).tolist() for p in psis))]
            eq = ProductEquation(tuple(zip(fs[:m], vals[:m])),
                                 rhs).residual_defect().tolist()
        with phases.timed("sum_equation_s"):
            neg_psi4 = extra = None
            if rhs is not None:
                neg_psi4 = psis[3].pullback(vals[3]).map_values(np.negative)
                extra = least_degree(psis[3], 2, tol=max(tol, 1e-9)).tolist()
            degs = shifted_sum_degrees(psis[:m], vals[:m], neg_psi4,
                                       tol=max(tol, 1e-9))
        with phases.timed("gaussian_fit_s"):
            fits = list(zip(*(fit_gaussian_ratio(f) for f in fs)))
    except WindowMarginError:
        raise
    except GroupIdentError as exc:
        for i in rows:
            out[i] = exc
        return _entries(stack, out)
    for i, row in enumerate(rows):
        eq_defect = Measured(eq[i], FLOORS["equation_defect"](psi[i]))
        deg = replace(degs[i], equation_defect=Measured(
            degs[i].equation_defect, FLOORS["sum_equation_defect"](psi[i])))
        extra_degree = None if extra is None or extra[i] < 0 else extra[i]
        sums = None
        if rhs is None:
            sums = tuple(Measured(abs(math.fsum(
                fit.sigma * float(b) ** k for fit, b in zip(fits[i], vals))),
                FLOORS["sigma_sum"](k, fits[i], vals)) for k in range(3))
        failures = []
        if not eq_defect <= tol:
            shown = evidence_float(eq_defect, eq_defect.floor)
            failures.append(f"product equation defect {shown:.2e}")
        for j, fit in enumerate(fits[i]):
            if not fit.ok:
                failures.append(f"factor {j + 1} is not character*gaussian")
        if not deg.within_bound:
            failures.append("log-modulus degree bound violated")
        if rhs is not None and extra_degree is None:
            failures.append("fourth log-modulus is not quadratic on the window")
        if sums is not None and any(s > 1e-8 for s in sums):
            failures.append("fitted rates violate the power-sum constraints")
        verdict = (VERDICT_MISMATCH if not eq_defect <= tol else
                   VERDICT_NOT_GAUSSIAN if failures else VERDICT_GAUSSIAN)
        out[row] = GaussianIdentReport(form, tuple(vals), repr(lattice),
                                       eq_defect, deg, extra_degree, fits[i],
                                       sums, tuple(failures), verdict)
    return _entries(stack, out)


def _entries(stack: bool, out: list):
    """``out`` for a stack; for a table its one outcome, raised if an error."""
    if not stack and isinstance(out[0], GroupIdentError):
        raise out[0]
    return out if stack else out[0]


def verify_gaussian_form_I(bs, muhats: Sequence[FunctionTable],
                           nuhats: Sequence[FunctionTable], *,
                           tol: float = EQUATION_TOL,
                           phases: Phases | None = None):
    """Four variables, ``L_1 = xi_1+...+xi_4``: components are pinned down up
    to a Gaussian convolution when all pairwise coefficient differences are
    nonzero.  On stacks, each entry's outcome (``_verify_gaussian``)."""
    return _verify_gaussian("I", bs, muhats, nuhats, tol, phases)


def verify_gaussian_form_II(bs, muhats: Sequence[FunctionTable],
                            nuhats: Sequence[FunctionTable], *,
                            tol: float = EQUATION_TOL,
                            phases: Phases | None = None):
    """Four variables, ``L_1 = xi_1+xi_2+xi_3``: the fourth ratio enters the
    equation composed with its coefficient alone, which must be injective.
    On stacks, each entry's outcome (``_verify_gaussian``)."""
    return _verify_gaussian("II", bs, muhats, nuhats, tol, phases)


# -- synthetic instances for campaigns and round-trip tests -----------------------------


def phase_solution(summed: Sequence[bool], bs: Sequence[Fraction],
                   r1: Fraction, r2: Fraction) -> tuple[Fraction, ...]:
    """Phases ``r_3, r_4`` completing ``r_1, r_2`` to ``sum a_j r_j = 0`` and
    ``sum b_j r_j = 0`` exactly, with ``a_j = 1`` where ``L_1`` sums variable
    ``j`` and 0 elsewhere: a 2x2 Cramer solve in the rationals."""
    a = [Fraction(int(s)) for s in summed]
    b = [Fraction(x) for x in bs]
    r1, r2 = Fraction(r1), Fraction(r2)
    p = -(a[0] * r1 + a[1] * r2)
    q = -(b[0] * r1 + b[1] * r2)
    det = a[2] * b[3] - a[3] * b[2]
    if det == 0:
        raise DomainError("the last two coefficient pairs are dependent")
    return (r1, r2, (p * b[3] - a[3] * q) / det, (a[2] * q - b[2] * p) / det)


def form_sigmas(bs: Sequence[Fraction], scale: float,
                form: str = "I") -> tuple[float, ...]:
    """Gaussian rates solving the modulus constraints for the given form.

    The summed variables take the scaled Vandermonde nullspace; a variable
    left out of ``L_1`` then balances the ``v^2`` power sum on its own.
    """
    b = [Fraction(x) for x in bs]
    m = sum(summed_variables(form, len(b)))
    sigmas = [scale * float(c) for c in vandermonde_nullspace(b[:m])]
    if m < len(b):
        s2 = sum(s * float(bj) ** 2 for s, bj in zip(sigmas, b))
        sigmas.append(-s2 / float(b[m]) ** 2)
    return tuple(sigmas)


def synth_gaussian_stack(lattice: RationalLattice, bs, rngs, form: str = "I"):
    """``(muhats, nuhats, sigmas, phases)``, an exactly valid ratio system
    per generator of ``rngs``, which draws ``r_1``, ``r_2`` and each muhat's
    phase: ``muhats[j]`` stacks factor ``j``, a row per generator.  Ratio
    rates are 0.1 times the nullspace generator; muhats have rate 0.25."""
    vals = [_coeff_value(b) for b in bs]
    D = lattice.denominator
    draws = [[Fraction(int(rng.integers(0, D)), D) for _ in range(6)]
             for rng in rngs]
    summed = summed_variables(form, 4)
    phases = [phase_solution(summed, vals, *d[:2]) for d in draws]
    sigmas = form_sigmas(vals, 0.1, form)
    mus = character_gaussian_values(lattice, [d[2:] for d in draws], 0.25)
    nus = mus.times(character_gaussian_values(lattice, phases, sigmas))
    muhats, nuhats = ([t.map_values(lambda v: np.ascontiguousarray(v[:, j]))
                       for j in range(4)] for t in (mus, nus))
    return muhats, nuhats, sigmas, phases


def synth_gaussian_instance(lattice: RationalLattice, bs, seed,
                            form: str = "I"):
    """Seeded (muhats, nuhats, sigmas, phases) with an exactly valid ratio
    system: ``synth_gaussian_stack`` with the generator of ``seed``."""
    muhats, nuhats, sigmas, phases = synth_gaussian_stack(
        lattice, bs, [np.random.default_rng(seed)], form)
    return ([t.rows(0) for t in muhats], [t.rows(0) for t in nuhats],
            sigmas, phases[0])

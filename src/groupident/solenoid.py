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
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (CapacityError, DomainError, InvalidEndomorphismError,
                     PreconditionError, VanishingFactorError,
                     WindowMarginError)
from .funceq import (DegreeReport, FunctionTable, ProductEquation,
                     character_defect, least_degree,
                     require_kernel_conditions, shifted_sum_degrees,
                     summed_variables)
from .reporting import FLOORS, Measured, evidence_float

FIT_TOL = 1e-8
EQUATION_TOL = 1e-8


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


def character_gaussian_values(lattice: RationalLattice, phase: Fraction,
                              sigma: float) -> FunctionTable:
    """Table ``y -> exp(2 pi i m phase) * exp(-sigma y^2)`` for ``y = m/D``.

    The sign of ``sigma`` is free here; this is the building block for ratio
    tables, where a negative rate means the Gaussian sits on the other side.
    """
    a, b = Fraction(phase).as_integer_ratio()
    D, r = lattice.denominator, lattice.radius
    # Exact turns (m a mod b)/b: |m (a mod b)| < r b, so int64 holds the
    # products while r b < 2^63; beyond that they are Python integers.
    m = lattice.every.astype(np.int64 if r * b < 2 ** 63 else object)
    turns = (m * (a % b) % b / b).astype(float)
    with np.errstate(over="ignore"):
        gauss = np.exp(-sigma * (m / D).astype(float) ** 2)
    if np.isinf(gauss).any():
        raise CapacityError("exp(-sigma y^2) exceeds the float range")
    return FunctionTable._at(lattice, lattice.every,
                             np.exp(2j * np.pi * turns) * gauss)


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


def fit_gaussian_ratio(f: FunctionTable, tol: float = FIT_TOL) -> GaussianFitResult:
    """Factor a ratio table as character times ``exp(-sigma y^2)``.

    ``sigma`` is the least-squares slope of ``log|f|`` against ``-y^2``
    (positive means the second side carries the extra Gaussian, negative the
    first); the verdict fails when the modulus deviates from the fitted
    Gaussian by more than ``tol`` times ``max(1, |f|)`` anywhere on the
    window, or when the phase part is not multiplicative.  The reported
    ``modulus_residual`` is the absolute deviation.
    """
    if len(f) < 7:
        raise WindowMarginError("gaussian fit needs at least 3 points per side")
    if not f.nonvanishing(0.0):
        raise VanishingFactorError("gaussian fit needs a nonvanishing table")
    D = f.domain.denominator
    mods = np.abs(f.values)
    ys = f.idx / D
    logs = np.log(mods)
    num = math.fsum(-ys ** 2 * logs)
    den = math.fsum(ys ** 4)
    sigma = num / den if den > 0 else 0.0
    devs = np.abs(mods - np.exp(-sigma * ys ** 2))
    # The bound is relative where the modulus exceeds 1: an exact ratio
    # with modulus near 5e8 carries rounding of about 1e-7.
    modulus_ok = bool(np.all(devs <= tol * np.maximum(1.0, mods)))
    defect = character_defect(f.phase_part())
    # On a window, is_character is this test of the same defect.
    phase_ok = not defect > max(tol, 1e-9)
    ok = modulus_ok and phase_ok
    psi, scale = float(np.max(np.abs(logs))), max(1.0, float(np.max(mods)))
    m2 = [m * m for m in f.idx.tolist()]  # exact, so the floors are too
    spread, y2 = max(m2) * sum(m2) / sum(m * m for m in m2), max(m2) / D ** 2
    # fmax: a NaN deviation, from an infinite value, hides no finite one.
    return GaussianFitResult(
        Measured(sigma, FLOORS["sigma"](psi, spread, y2), signed=True),
        Measured(np.fmax.reduce(devs),
                 FLOORS["modulus_residual"](scale, psi, spread)),
        bool(phase_ok), Measured(defect, FLOORS["phase_defect"]), bool(ok))


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


def _ratio_tables(muhats, nuhats) -> list[FunctionTable]:
    if len(muhats) != len(nuhats):
        raise DomainError("need equally many tables on both sides")
    for t in (*muhats, *nuhats):
        if not t.nonvanishing(0.0):
            raise PreconditionError("all tables must be nonvanishing")
    fs = [nu.ratio(mu) for mu, nu in zip(muhats, nuhats)]
    for j, f in enumerate(fs):
        # Ratios of characteristic functions are normalized and Hermitian;
        # symmetry is checked relative to the modulus where it exceeds 1.
        # An infinite ratio caps to NaN, which is not within 1e-6.
        with np.errstate(invalid="ignore"):
            capped = f.map_values(lambda v: v / np.maximum(1.0, np.abs(v)))
        if not (abs(f.value_at_zero() - 1.0) <= 1e-6
                and capped.hermitian_defect() <= 1e-6):
            raise PreconditionError(
                f"ratio table {j + 1} is not a characteristic-function ratio")
    return fs


def _verify_gaussian(form: str, bs, muhats: Sequence[FunctionTable],
                     nuhats: Sequence[FunctionTable],
                     tol: float) -> GaussianIdentReport:
    """Check the product equation of the ratio tables on the window, bound
    each log-modulus degree through the shifted-sum equation and factor each
    ratio as character times Gaussian.  Form I also checks the power sums of
    the fitted rates; in form II the fourth ratio moves to the right-hand
    side and its log-modulus must be quadratic on its own."""
    if len(bs) != 4:
        raise PreconditionError(f"form {form} takes four coefficients")
    summed = summed_variables(form, 4)
    vals = [_coeff_value(b) for b in bs]
    require_kernel_conditions(summed, vals)
    fs = _ratio_tables(muhats, nuhats)
    lattice, m = fs[0].domain, sum(summed)
    rhs = None
    if m < 4:
        # Right-hand side 1/f4(b4 v), defined where b4 v stays in the table.
        rhs = fs[3].pullback(vals[3]).map_values(lambda v: 1.0 / v)
        if not len(rhs):
            raise WindowMarginError("fourth coefficient maps the window outside")
    psis = [f.log_modulus() for f in fs]
    psi = max(float(np.max(np.abs(p.values))) for p in psis)
    eq_defect = Measured(ProductEquation(tuple(zip(fs[:m], vals[:m])),
                                         rhs).residual_defect(),
                         FLOORS["equation_defect"](psi))
    neg_psi4 = extra_degree = sums = None
    if rhs is not None:
        neg_psi4 = psis[3].pullback(vals[3]).map_values(np.negative)
        extra_degree = least_degree(psis[3], 2, tol=max(tol, 1e-9))
    deg = shifted_sum_degrees(psis[:m], vals[:m], neg_psi4,
                              tol=max(tol, 1e-9))
    deg = replace(deg, equation_defect=Measured(
        deg.equation_defect, FLOORS["sum_equation_defect"](psi)))
    fits = tuple(fit_gaussian_ratio(f) for f in fs)
    if rhs is None:
        sums = tuple(Measured(abs(math.fsum(fit.sigma * float(b) ** k
                                            for fit, b in zip(fits, vals))),
                              FLOORS["sigma_sum"](k, fits, vals))
                     for k in range(3))
    failures = []
    if not eq_defect <= tol:
        shown = evidence_float(eq_defect, eq_defect.floor)
        failures.append(f"product equation defect {shown:.2e}")
    for j, fit in enumerate(fits):
        if not fit.ok:
            failures.append(f"factor {j + 1} is not character*gaussian")
    if not deg.within_bound:
        failures.append("log-modulus degree bound violated")
    if rhs is not None and extra_degree is None:
        failures.append("fourth log-modulus is not quadratic on the window")
    if sums is not None and any(s > 1e-8 for s in sums):
        failures.append("fitted rates violate the power-sum constraints")
    if not eq_defect <= tol:
        verdict = VERDICT_MISMATCH
    elif failures:
        verdict = VERDICT_NOT_GAUSSIAN
    else:
        verdict = VERDICT_GAUSSIAN
    return GaussianIdentReport(form, tuple(vals), repr(lattice), eq_defect,
                               deg, extra_degree, fits, sums,
                               tuple(failures), verdict)


def verify_gaussian_form_I(bs, muhats: Sequence[FunctionTable],
                           nuhats: Sequence[FunctionTable], *,
                           tol: float = EQUATION_TOL) -> GaussianIdentReport:
    """Four variables, ``L_1 = xi_1+...+xi_4``: components are pinned down up
    to a Gaussian convolution when all pairwise coefficient differences are
    nonzero."""
    return _verify_gaussian("I", bs, muhats, nuhats, tol)


def verify_gaussian_form_II(bs, muhats: Sequence[FunctionTable],
                            nuhats: Sequence[FunctionTable], *,
                            tol: float = EQUATION_TOL) -> GaussianIdentReport:
    """Four variables, ``L_1 = xi_1+xi_2+xi_3``: the fourth ratio enters the
    equation composed with its coefficient alone, which must be injective."""
    return _verify_gaussian("II", bs, muhats, nuhats, tol)


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


def synth_gaussian_instance(lattice: RationalLattice, bs, seed,
                            form: str = "I"):
    """Seeded (muhats, nuhats, sigmas, phases) with an exactly valid ratio system.

    Ratio rates are 0.1 times the nullspace generator; every muhat has rate 0.25.
    """
    vals = [_coeff_value(b) for b in bs]
    rng = np.random.default_rng(seed)
    D = lattice.denominator
    r1 = Fraction(int(rng.integers(0, D)), D)
    r2 = Fraction(int(rng.integers(0, D)), D)
    phases = phase_solution(summed_variables(form, 4), vals, r1, r2)
    sigmas = form_sigmas(vals, 0.1, form)
    muhats, nuhats = [], []
    for j in range(4):
        t = Fraction(int(rng.integers(0, D)), D)
        mu = character_gaussian_values(lattice, t, 0.25)
        ratio = character_gaussian_values(lattice, phases[j], sigmas[j])
        muhats.append(mu)
        nuhats.append(mu.times(ratio))
    return muhats, nuhats, sigmas, phases

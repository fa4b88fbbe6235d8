"""Verifiers for shift-identifiability of linear forms, with counterexamples.

Given the coefficients of two linear forms in independent group-valued
variables and two candidate tuples of component distributions, these
procedures decide whether the joint characteristic functions coincide and,
when the kernel conditions hold, certify that the components agree up to
explicit shifts.  The counterexample constructors reproduce the situations
where the conditions fail and the conclusion genuinely breaks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .distributions import (Distribution, FactorPlan, LinearFormSpec,
                            char_rows, factor_plan, factor_tables,
                            joint_block, joint_residuals, joint_table,
                            mirror_plan, read_factor, shifted_masses,
                            sweep_rows)
from .endomorphisms import Endo
from .errors import ConstructionError, DomainError, PreconditionError
from .funceq import _coeff_diff, kernel_conditions, summed_variables
from .groups import Element, Group, character_search
from .reporting import FLOORS, Measured, Phases

JOINT_TOL = 1e-8
SHIFT_TOL = 1e-8
TV_TOL = 1e-8
NONVANISHING_GUARD = 1e-9

VERDICT_SHIFT = "determined-up-to-shift"
VERDICT_UNIQUE = "unique"
VERDICT_MISMATCH = "mismatch"
VERDICT_PRECONDITIONS = "preconditions-violated"


@dataclass(frozen=True)
class IdentifiabilityReport:
    preconditions: dict
    joint_residual: float
    shifts: tuple[Element, ...] | None
    reconstruction_tv: tuple[float, ...] | None
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "preconditions": dict(sorted(self.preconditions.items())),
            "joint_residual": self.joint_residual,
            "shifts": (None if self.shifts is None
                       else [list(x.coords) for x in self.shifts]),
            "reconstruction_tv": (None if self.reconstruction_tv is None
                                  else list(self.reconstruction_tv)),
            "verdict": self.verdict,
        }


def recover_shift(mu: Distribution, nu: Distribution,
                  tol: float = SHIFT_TOL) -> Element | None:
    """The ``x`` with ``nu_hat = mu_hat * pair(x, .)`` everywhere, if one
    exists: ``groups.character_search`` of the one row pair over the whole
    group, so no logarithm branch is taken.  Ties cannot occur for
    nonvanishing ``mu_hat``."""
    if mu.group != nu.group:
        raise DomainError("shift recovery needs a common group")
    g = mu.group
    x = int(character_search(g, mu.char_array[None], nu.char_array[None],
                             tol)[0])
    return None if x < 0 else g.element_at(x)


def law_stack(dists: Sequence[Distribution]) -> tuple[np.ndarray, np.ndarray]:
    """``dists`` as one entry of a stack: ``(masses, chars)``, each a
    ``(1, len(dists), n)`` array."""
    return (np.stack([d.masses for d in dists])[None],
            np.stack(char_rows(dists), axis=1))


def _verify(summed: tuple[bool, ...], bs: Sequence[Endo], lhs, rhs,
            tol: float, *, shifted: bool,
            phases: Phases | None = None) -> list[IdentifiabilityReport]:
    """Hypotheses, joint laws, then each component up to a recovered shift
    (``shifted``) or outright, with the shift fixed at zero, for each of
    ``k`` entries.

    ``lhs`` and ``rhs`` are ``(masses, chars)`` pairs of ``(k, arity, n)``
    stacks, the laws of each entry's two sides (``law_stack``).  The joint
    residuals are one sweep; only the entries whose hypotheses hold and
    whose residual is not at least ``tol`` are searched for shifts, all in
    one ``character_search``.  ``phases`` receives the seconds of
    ``joint_residual_s`` and ``shift_recovery_s``.
    """
    n = len(summed)
    (M, C), (N, D) = lhs, rhs
    if len(bs) != n or M.shape[1:2] != (n,) or M.shape != N.shape:
        raise DomainError(f"takes {n} coefficients and {n}+{n} distributions")
    phases = Phases() if phases is None else phases
    pre, g = kernel_conditions(summed, bs), bs[0].group
    spec = LinearFormSpec.of(summed, bs)
    with phases.timed("joint_residual_s"):
        residuals = joint_residuals(spec, C, D)
    nonvanishing = np.minimum(np.abs(C).min(axis=(1, 2)),
                              np.abs(D).min(axis=(1, 2))) > NONVANISHING_GUARD
    hold = all(pre.values()) & nonvanishing
    search = np.flatnonzero(hold & ~(residuals >= tol))
    with phases.timed("shift_recovery_s"):
        xs = np.zeros((len(search), n), dtype=np.int64)
        if shifted and len(search):
            xs = character_search(g, C[search].reshape(-1, g.size),
                                  D[search].reshape(-1, g.size),
                                  SHIFT_TOL).reshape(-1, n)
        back = shifted_masses(g, M[search], np.maximum(xs, 0))
        tvs = 0.5 * np.abs(N[search] - back).sum(axis=2)
    # the position in ``search`` of each entry whose every component matched
    passed = ((xs >= 0) & ~(tvs >= TV_TOL)).all(axis=1)
    matched = {e: j for j, e in enumerate(search.tolist()) if passed[j]}
    reports = []
    for i, residual in enumerate(residuals.tolist()):
        j = matched.get(i)
        verdict = (VERDICT_PRECONDITIONS if not hold[i]
                   else VERDICT_MISMATCH if j is None
                   else VERDICT_SHIFT if shifted else VERDICT_UNIQUE)
        # uniqueness leaves no shift freedom, so no shifts are reported
        reports.append(IdentifiabilityReport(
            {**pre, "nonvanishing": bool(nonvanishing[i])},
            Measured(residual, FLOORS["joint_residual"](g)),
            None if j is None or not shifted else g.points_at(xs[j]),
            None if j is None else tuple(
                Measured(tv, FLOORS["reconstruction_tv"](g))
                for tv in tvs[j].tolist()),
            verdict))
    return reports


def verify_shifts(form: str, bs: Sequence[Endo], lhs, rhs, *,
                  tol: float = JOINT_TOL,
                  phases: Phases | None = None) -> list[IdentifiabilityReport]:
    """``verify_form_I`` or ``verify_form_II`` (``form``) of each entry of
    the stacks ``lhs`` and ``rhs`` (``_verify``)."""
    return _verify(summed_variables(form, 3), bs, lhs, rhs, tol,
                   shifted=True, phases=phases)


def verify_form_I(bs: Sequence[Endo], mus: Sequence[Distribution],
                  nus: Sequence[Distribution], *,
                  tol: float = JOINT_TOL) -> IdentifiabilityReport:
    """Three variables, ``L_1 = xi_1+xi_2+xi_3``: shifts are identifiable when
    all pairwise coefficient differences have trivial kernel."""
    return _verify_one(summed_variables("I", 3), bs, mus, nus, tol,
                       shifted=True)


def verify_form_II(bs: Sequence[Endo], mus: Sequence[Distribution],
                   nus: Sequence[Distribution], *,
                   tol: float = JOINT_TOL) -> IdentifiabilityReport:
    """Three variables, ``L_1 = xi_1+xi_2``: needs ``ker(b1-b2)`` and
    ``ker(b3)`` trivial."""
    return _verify_one(summed_variables("II", 3), bs, mus, nus, tol,
                       shifted=True)


def _verify_one(summed, bs, mus, nus, tol, *, shifted):
    """``_verify`` of the one entry ``(mus, nus)``."""
    n = len(summed)
    if not len(bs) == len(mus) == len(nus) == n:
        raise DomainError(f"takes {n} coefficients and {n}+{n} distributions")
    if any(d.group != bs[0].group for d in (*mus, *nus)):
        raise DomainError("distributions live on a different group")
    return _verify(summed, bs, law_stack(mus), law_stack(nus), tol,
                   shifted=shifted)[0]


def kotlarski_coeffs(group: Group) -> tuple[Endo, Endo, Endo]:
    """The repeated-measurement preset ``b = (0, 1, 1)`` for form II.

    With ``L_1 = xi_1 + xi_2`` and these coefficients, ``L_2 = xi_2 + xi_3``,
    the classical two-noisy-measurements design.
    """
    return (Endo.zero(group), Endo.identity(group), Endo.identity(group))


def consistent_shift_rows(bs: Sequence[Endo], form: str,
                          x1) -> tuple[np.ndarray, list]:
    """Shifts ``(x1, x2, x3)`` with ``sum a_j x_j = 0 = sum b_j x_j``, one
    row of a ``(k, 3)`` index array per index of ``x1``, and each row's
    PreconditionError or None.  Form I takes ``x2`` as the preimage of
    ``-(b1-b3) x1`` under ``b2-b3`` and ``x3 = -(x1+x2)``, form II
    ``x2 = -x1`` and ``x3`` as the preimage of ``-(b1-b2) x1`` under ``b3``.
    That coefficient must be bijective, which is exactly the verification
    precondition; where a row's target has none or several preimages, its
    ``x2`` and ``x3`` read -1."""
    g, x1 = bs[0].group, np.asarray(x1, dtype=np.int64)
    form_I = summed_variables(form, 3)[2]
    e, d = ((_coeff_diff(bs[1], bs[2]), _coeff_diff(bs[0], bs[2])) if form_I
            else (bs[2], _coeff_diff(bs[0], bs[1])))
    target = g.neg_idx(d.index_map[x1])
    y = e.inverse_map[target]
    rows = np.stack([x1, y, g.neg_idx(g.add_idx(x1, y))] if form_I
                    else [x1, g.neg_idx(x1), y], axis=1)
    rows[y < 0, 1:] = -1
    counts = np.bincount(e.index_map, minlength=g.size)
    return rows, [None if t < 0 else PreconditionError(
        f"{g.element_at(t)!r} has {counts[t]} preimages under a "
        f"coefficient that must be bijective")
        for t in np.where(y < 0, target, -1).tolist()]


def consistent_shifts(bs: Sequence[Endo], form: str,
                      x1: Element) -> tuple[Element, ...]:
    """``consistent_shift_rows`` of the one shift ``x1``, as elements."""
    g = bs[0].group
    rows, (error,) = consistent_shift_rows(bs, form, [g.index(x1)])
    if error is not None:
        raise error
    return g.points_at(rows[0])


def verify_pair_uniqueness(b1: Endo, b2: Endo, mus: Sequence[Distribution],
                           nus: Sequence[Distribution], *,
                           tol: float = JOINT_TOL) -> IdentifiabilityReport:
    """Two variables, ``L_1 = xi_1+xi_2``: equality of joints forces equality
    of the components outright (no shift freedom) when ``ker(b1-b2)`` is
    trivial."""
    return _verify_one(summed_variables("I", 2), (b1, b2), mus, nus, tol,
                       shifted=False)


# -- counterexamples ------------------------------------------------------------


def poisson_counterexample(bs: Sequence[Endo], a: float,
                           mu_rest: Distribution | None = None):
    """Distribution pairs with equal joints but components that are not shifts.

    Requires ``ker(b1-b2)`` nontrivial; with ``x0`` a nonzero kernel element
    the rates ``(2a, 2a)`` versus ``(a, 3a)`` on the ray of ``x0`` produce
    identical joint characteristic functions while the first two component
    pairs are not related by any shift.  Works with two or three variables;
    the third pair, when present, is ``mu_rest`` on both sides.
    """
    if len(bs) not in (2, 3):
        raise ConstructionError("construction needs 2 or 3 coefficients")
    if a <= 0:
        raise ConstructionError("rate a must be positive (a=0 degenerates)")
    g = bs[0].group
    kernel = _coeff_diff(bs[0], bs[1]).kernel()
    if len(kernel) < 2:
        raise ConstructionError("ker(b1-b2) is trivial; no counterexample here")
    if len(bs) == 3 and mu_rest is None:
        raise ConstructionError("three-variable construction needs mu_rest")
    x0 = next(x for x in kernel if x != g.zero)
    mus = [Distribution.poisson(g, 2 * a, x0), Distribution.poisson(g, 2 * a, x0)]
    nus = [Distribution.poisson(g, a, x0), Distribution.poisson(g, 3 * a, x0)]
    if len(bs) == 3:
        mus.append(mu_rest)
        nus.append(mu_rest)
    return tuple(mus), tuple(nus)


def _poisson_plan(bs: Sequence[Endo], pairs) -> FactorPlan:
    """The closed form's phase factor, then ``factor_plan(pairs)``.

    The phase factor reads the exact pairing phases of ``x0``, the first
    nonzero element of ``ker(b1-b2)``, at ``u`` and of ``x~ = b1 x0`` at
    ``v``; their sum, below twice the exponent, indexes ``_phase_table``.
    """
    g, x0 = bs[0].group, _coeff_diff(bs[0], bs[1]).kernel_idx()[1]
    phases = tuple(g.phase_idx(x, g.every) for x in (x0, bs[0].index_map[x0]))
    return (phases, *factor_plan(tuple(pairs)))


def _phase_table(g: Group, a: float) -> np.ndarray:
    """``E[k] = e^{-4a} exp(4a roots[k mod L])`` for ``k < 2L``, ``L`` the
    exponent: the closed form's first factor ``e^{-4a} exp(4a (x0,u)(x~,v))``
    at the phase sum ``k``, one ``exp`` of an exact root per phase."""
    return np.tile(np.exp(4 * a * g.roots) * np.exp(-4 * a), 2)


def poisson_closed_form_array(bs: Sequence[Endo], a: float,
                              mu_rest: Distribution | None = None) -> np.ndarray:
    """The closed-form joint value ``e^{-4a} exp(4a (x0,u)(x~,v)) mu_hat(u+b3~v)``.

    ``x~ = b1 x0 = b2 x0``; for the two-variable construction the trailing
    factor is absent.
    """
    g = bs[0].group
    g._require_table_capacity("the closed-form joint law")
    plan = _poisson_plan(bs, [(Endo.identity(g), b) for b in bs[2:]])
    rest = char_rows([mu_rest][:len(bs) - 2])  # none for two variables
    tables = [_phase_table(g, a), *factor_tables(g, plan[1:], rest)]
    return joint_table(plan, tables, g.size)


def poisson_pair_deviations(bs: Sequence[Endo], a: float,
                            mu_rest: Distribution | None,
                            mus: Sequence[Distribution],
                            nus: Sequence[Distribution]) -> tuple[float, float]:
    """``(joint residual, closed-form deviation)`` of a Poisson pair from
    ``poisson_counterexample(bs, a, mu_rest)`` under form I.

    ``mus`` and ``nus`` hold the first two factors of each side.  One
    row-blocked sweep: each block's reads serve both joint laws, and
    ``mu_rest``, the third factor of both and of the closed form, is read
    once and multiplied in last, as the dense tables do.  The deviation is
    the larger of the two sides'.  As in ``joint_residuals``, the sweep
    reads the mirror half if every table, the phase table too, allows it.
    """
    g = bs[0].group
    chars = [char_rows(d) for d in (mus, nus, [mu_rest][:len(bs) - 2])]
    phase_t = _phase_table(g, a)
    plan, cols = mirror_plan(
        g, _poisson_plan(bs, LinearFormSpec.form_I(bs).pairs),
        [c for cs in chars for c in cs], phase_t)
    lhs_t, rhs_t, rest_t = (factor_tables(g, p, c) for p, c
                            in zip((plan[1:3], plan[1:3], plan[3:]), chars))

    def deviations(rows, reads, bufs):
        x, y, z, tmp, mod = bufs
        lhs = joint_block(lhs_t, reads[1:3], x, tmp)
        rhs = joint_block(rhs_t, reads[1:3], y, tmp)
        closed = read_factor(phase_t, reads[0], z)
        for t, r in zip(rest_t, reads[3:]):
            rest = read_factor(t, r, tmp)
            for v in (lhs, rhs, closed):
                v *= rest
        residual = np.abs(np.subtract(lhs, rhs, out=tmp), out=mod).max()
        lhs -= closed
        rhs -= closed
        return residual, np.maximum(np.abs(lhs, out=mod).max(),
                                    np.abs(rhs, out=mod).max())

    residual, closed_dev = zip(*sweep_rows(
        plan, g.size, cols, [np.complex128] * 4 + [np.float64], deviations))
    return float(np.max(residual)), float(np.max(closed_dev))


def kernel_counterexample(bs: Sequence[Endo],
                          mu1: Distribution | None = None,
                          mu2: Distribution | None = None):
    """Equal joints under form II with ``ker(b3)`` nontrivial.

    The third components are supported inside ``ker(b3)``, where the adjoint
    image of the dual cannot see them; their characteristic functions equal 1
    along ``adj(b3)(Y)``, so the joints coincide although ``nu3`` is not a
    shift of ``mu3``.  The first two pairs are equal on both sides.
    """
    if len(bs) != 3:
        raise ConstructionError("construction needs three coefficients")
    g = bs[0].group
    kernel = bs[2].kernel()
    if len(kernel) < 2:
        raise ConstructionError("ker(b3) is trivial; no counterexample here")
    rest = [x for x in kernel if x != g.zero]
    mu3 = Distribution.from_pairs(
        g, {g.zero: 0.6, **{x: 0.4 / len(rest) for x in rest}})
    nu3 = Distribution.from_pairs(
        g, {g.zero: 0.75, **{x: 0.25 / len(rest) for x in rest}})
    if recover_shift(mu3, nu3) is not None:
        raise ConstructionError("kernel masses accidentally shift-related")
    if mu1 is None:
        mu1 = Distribution.from_pairs(
            g, {g.zero: 0.8, g.element_at(1 % g.size): 0.2})
    if mu2 is None:
        mu2 = Distribution.from_pairs(
            g, {g.zero: 0.7, g.element_at(1 % g.size): 0.3})
    return (mu1, mu2, mu3), (mu1, mu2, nu3)


# -- the planar Gaussian counterexample (exact rational quadratic forms) ----------


def _form_matrix(q: Sequence[Sequence[Fraction]],
                 b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Expand ``Q(u + b v)`` into a 4x4 symmetric form in ``(u1,u2,v1,v2)``."""
    # T maps (u, v) -> u + b v, a 2x4 block [I | b].
    T = [[Fraction(1), Fraction(0), b[0][0], b[0][1]],
         [Fraction(0), Fraction(1), b[1][0], b[1][1]]]
    return [[sum(T[i][r] * q[i][j] * T[j][c]
                 for i in range(2) for j in range(2)) for c in range(4)]
            for r in range(4)]


def _is_indefinite(d: Sequence[Sequence[Fraction]]) -> bool:
    """Exact indefiniteness of a symmetric 2x2 rational form."""
    det = d[0][0] * d[1][1] - d[0][1] * d[1][0]
    psd = d[0][0] >= 0 and d[1][1] >= 0 and det >= 0
    nsd = d[0][0] <= 0 and d[1][1] <= 0 and det >= 0
    return not (psd or nsd)


@dataclass(frozen=True)
class PlaneGaussianReport:
    mu_exponents: tuple
    nu_exponents: tuple
    coefficients: tuple
    lhs_total: tuple
    rhs_total: tuple
    identity_holds: bool
    difference_forms: tuple
    all_indefinite: bool
    ok: bool

    def to_json_dict(self) -> dict:
        """Matrices as nested lists of fraction strings."""
        def strs(v):
            return ([strs(x) for x in v] if isinstance(v, tuple)
                    else str(v) if isinstance(v, Fraction) else v)
        return {k: strs(v) for k, v in asdict(self).items()}


def plane_gaussian_counterexample() -> PlaneGaussianReport:
    """Exact certificate for the four-variable planar Gaussian example.

    On the plane, with coefficient matrices ``diag(j, -j)``, the common
    exponent ``4(y1^2+y2^2)`` on one side and the four split exponents on the
    other give identical joint quadratic forms, yet each per-component
    difference form is indefinite, so no Gaussian convolution relates the two
    sides in either direction.  Everything is checked in exact rationals.
    """
    F = Fraction
    diag = lambda p, q: ((F(p), F(0)), (F(0), F(q)))
    mu_q = tuple(diag(4, 4) for _ in range(4))
    nu_q = (diag(3, 5), diag(7, 1), diag(1, 7), diag(5, 3))
    b_mats = tuple(diag(j, -j) for j in (1, 2, 3, 4))

    def total(forms):
        ms = [_form_matrix(q, b) for q, b in zip(forms, b_mats)]
        return tuple(tuple(sum(m[r][c] for m in ms) for c in range(4))
                     for r in range(4))

    lhs = total(mu_q)
    rhs = total(nu_q)
    identity = lhs == rhs
    diffs = tuple(
        tuple(tuple(nu_q[j][r][c] - mu_q[j][r][c] for c in range(2))
              for r in range(2))
        for j in range(4))
    indefinite = all(_is_indefinite(d) for d in diffs)
    return PlaneGaussianReport(mu_q, nu_q, b_mats, lhs, rhs, identity,
                               diffs, indefinite, identity and indefinite)

"""The stacked finite-group verifier, entry by entry, against the same code
run as batches of one and against the dense oracles: the stacked draw,
the joint residuals, the shift search and the verdicts of a campaign's
entries."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupident import Endo, distributions, funceq, identify, solenoid
from groupident.cli import (find_shift_coeffs, main, parse_group,
                            run_gaussian_adversarial, run_gaussian_trial,
                            run_shift_adversarial, run_shift_trial,
                            verify_gaussian_entries)
from groupident.distributions import (LinearFormSpec, char_arrays,
                                      generators, joint_residuals,
                                      random_masses, shifted_masses)
from groupident.errors import (GenerationError, GroupIdentError,
                               WindowMarginError)
from groupident.funceq import FunctionTable, summed_variables
from groupident.groups import VALUE_BLOCK, row_blocks
from groupident.reporting import FLOORS, Phases
from groupident.solenoid import (make_lattice, synth_gaussian_instance,
                                 synth_gaussian_stack, verify_gaussian_form_I)
from oracles import (char_array_dense, joint_residual_dense,
                     product_defect_from_ones, random_dense,
                     recover_shift_dense)

# (group, form, coefficients or None for find_shift_coeffs, trials); the
# given coefficients violate the kernel conditions, as in an
# ``--expect-negative`` campaign, whose roundtrips compare mu with itself.
CASES = [("7", "I", None, 3), ("7", "II", None, 3), ("4x3", "II", None, 3),
         ("7x9", "I", None, 2), ("7x9", "II", None, 2), ("8x8", "II", None, 2),
         ("1021", "I", None, 1), ("1021", "II", None, 1),
         ("7", "I", (1, 1, 2), 3), ("6", "I", (1, 3, 2), 2)]


def case_id(case):
    group, form, coeffs, _ = case
    return f"{group}-{form}" + ("-negative" if coeffs else "")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_stacked_verifier_matches_batches_of_one_and_dense_oracles(case):
    group, form, coeffs, trials = case
    g = parse_group(group)
    negative = coeffs is not None
    bs = [Endo.scalar(g, c) for c in coeffs or find_shift_coeffs(g, form)]
    recipes = ((run_shift_trial, 7), (run_shift_adversarial, 17))
    kinds = [run(g, bs, form, 5, negative,
                 [np.random.default_rng([5, t, j]) for t in range(trials)])
             for run, j in recipes]
    # (seeds, shift row, recipe error, expected verdict)
    entries = [(seeds[t], shifts[t], errors[t], expected)
               for t in range(trials)
               for seeds, shifts, errors, expected in kinds]
    assert all(e[2] is None for e in entries)
    seeds = [s for e in entries for s in e[0]]
    masses, chars, errors = random_masses(g, seeds, 0.2)
    assert errors == [None] * len(seeds)
    mus = [random_dense(g, s, 0.2) for s in seeds]
    assert np.array_equal(masses, [d.masses for d in mus])
    M, C = (a.reshape(-1, 3, g.size) for a in (masses, chars))
    N = shifted_masses(g, M, [e[1] for e in entries])
    stacked = identify.verify_shifts(form, bs, (M, C), (N, char_arrays(g, N)))
    verify = getattr(identify, f"verify_form_{form}")
    summed = summed_variables(form, 3)
    spec = LinearFormSpec.of(summed, bs)
    floor = FLOORS["joint_residual"](g)
    for i, ((_, row, _, expected), got) in enumerate(zip(entries, stacked)):
        shifts = g.points_at(row)
        ms = mus[3 * i:3 * i + 3]
        ns = [m if x == g.zero else m.shift(x) for m, x in zip(ms, shifts)]
        one = verify(bs, ms, ns)
        assert got.verdict == one.verdict == expected, i
        assert got.preconditions == one.preconditions, i
        assert got.shifts == one.shifts, i
        assert abs(got.joint_residual - one.joint_residual) <= floor, i
        assert (abs(got.joint_residual - joint_residual_dense(spec, ms, ns))
                <= floor), i
        if got.verdict == identify.VERDICT_SHIFT:
            assert got.shifts == shifts == tuple(
                recover_shift_dense(m, n) for m, n in zip(ms, ns)), i
            assert np.allclose(got.reconstruction_tv, one.reconstruction_tv,
                               rtol=0, atol=FLOORS["reconstruction_tv"](g))
        else:
            assert got.reconstruction_tv is one.reconstruction_tv is None


@pytest.mark.parametrize("group", ["7", "4x3", "7x9", "8x8", "1021"])
def test_stacked_pair_uniqueness_matches_batches_of_one(group):
    g = parse_group(group)
    b1, b2 = Endo.scalar(g, 1), Endo.scalar(g, 2)
    masses, chars, _ = random_masses(g, [[9, i] for i in range(8)], 0.2)
    M, C = (a.reshape(-1, 2, g.size) for a in (masses, chars))
    # Entries 0 and 1 compare laws with themselves, 2 and 3 with those.
    N, D = np.concatenate([M[:2], M[:2]]), np.concatenate([C[:2], C[:2]])
    stacked = identify._verify(summed_variables("I", 2), (b1, b2), (M, C),
                               (N, D), identify.JOINT_TOL, shifted=False)
    floor = FLOORS["joint_residual"](g)
    for i, got in enumerate(stacked):
        mus = [random_dense(g, [9, 2 * i + j], 0.2) for j in range(2)]
        nus = [random_dense(g, [9, 2 * (i % 2) + j], 0.2) for j in range(2)]
        one = identify.verify_pair_uniqueness(b1, b2, mus, nus)
        assert got.verdict == one.verdict == (
            identify.VERDICT_UNIQUE if i < 2 else identify.VERDICT_MISMATCH)
        assert got.shifts is one.shifts is None
        assert abs(got.joint_residual - one.joint_residual) <= floor
        assert got.reconstruction_tv == one.reconstruction_tv


@pytest.mark.parametrize("group", ["7", "4x3", "7x9", "8x8", "1021"])
def test_stacked_draw_redraws_and_fails_row_by_row(group):
    """With the rejection threshold at the median of the first candidates'
    ``min |char|``, about half the rows redraw: each gives the dense
    draw's masses.  With one try those rows fail alone, each with its own
    GenerationError, and the others keep their masses."""
    g = parse_group(group)
    seeds = [[11, i] for i in range(12)]
    first = [random_dense(g, s, 0.2, 0.0, 1) for s in seeds]
    tol = np.median([np.min(np.abs(char_array_dense(d))) for d in first])
    first = [d.masses for d in first]
    masses, chars, errors = random_masses(g, seeds, 0.2,
                                          nonvanishing_tol=tol)
    assert errors == [None] * len(seeds)
    redrew = [not np.array_equal(m, f) for m, f in zip(masses, first)]
    assert 0 < sum(redrew) < len(seeds)
    for s, m, c in zip(seeds, masses, chars):
        want = random_dense(g, s, 0.2, tol)
        assert np.array_equal(m, want.masses)
        assert np.allclose(c, char_array_dense(want), rtol=0, atol=1e-13)
    once, _, errors = random_masses(g, seeds, 0.2, nonvanishing_tol=tol,
                                    max_tries=1)
    for m, f, err, again in zip(once, first, errors, redrew):
        if again:
            assert isinstance(err, GenerationError) and np.isnan(m).all()
            assert str(err) == "no nonvanishing distribution within 1 tries"
        else:
            assert err is None and np.array_equal(m, f)


@pytest.mark.parametrize("group", ["7", "4x3", "8x8"])
def test_redrawn_rows_continue_their_own_streams(group, monkeypatch):
    """Each row draws from its own generator, which a redraw carries on:
    after the draw it is where ``default_rng(seed)`` is after the row's
    candidates, and the row's masses come from its last candidate."""
    g = parse_group(group)
    seeds = [[11, i] for i in range(12)]
    tol = np.median([np.min(np.abs(char_array_dense(
        random_dense(g, s, 0.2, 0.0, 1)))) for s in seeds])
    built, real = [], distributions.generators
    monkeypatch.setattr(distributions, "generators",
                        lambda seeds: built.extend(real(seeds)) or built)
    masses, _, _ = random_masses(g, seeds, 0.2, nonvanishing_tol=tol)
    candidates = []
    for seed, m, rng in zip(seeds, masses, built, strict=True):
        ref = np.random.default_rng(seed)
        raws = []
        while ref.bit_generator.state != rng.bit_generator.state:
            raws.append(ref.random(g.size))
            assert len(raws) <= 1000, seed
        want = 0.8 * raws[-1] / raws[-1].sum()
        want[0] += 0.2
        assert np.array_equal(m, want), seed
        candidates.append(len(raws))
    assert 1 == min(candidates) < max(candidates)


@pytest.mark.parametrize("group, k", [("5x5", 40), ("13", 40), ("8x8", 6),
                                      ("1021", 2)])
def test_stacked_sweeps_build_small_blocks(group, k, monkeypatch):
    """A stack of ``k`` grids is swept in blocks of at most the pairs of
    one grid or ``VALUE_BLOCK``, whichever is more, and never more than
    ``JOINT_BLOCK``: no ``(k, n, n)`` array is built.  A conjugate-symmetric
    stack is swept over the ``k n (n + t) / 2`` pairs of the mirror half
    of each grid, ``t`` the number of ``v`` with ``2v = 0``; one finite
    entry changed breaks the symmetry, and the stack is swept over all
    ``k n^2`` pairs.  The residuals are those of each entry swept alone."""
    g = parse_group(group)
    bs = [Endo.scalar(g, c) for c in find_shift_coeffs(g, "II")]
    spec = LinearFormSpec.form_II(bs)
    _, chars, _ = random_masses(g, [[13, i] for i in range(6 * k)], 0.2)
    lhs, rhs = chars.reshape(2, k, 3, g.size)
    broken = lhs.copy()
    broken[k - 1, 1, 1] += 1e-3
    blocks, real = [], distributions.pair_index_blocks

    def recording(*args):
        for rows, reads, bufs in real(*args):
            blocks.append(bufs[0].size)
            yield rows, reads, bufs

    monkeypatch.setattr(distributions, "pair_index_blocks", recording)
    t = g.order_two_count() + 1
    for left, cols in ((lhs, (g.size + t) // 2), (broken, g.size)):
        blocks.clear()
        got = joint_residuals(spec, left, rhs)
        bound = min(distributions.JOINT_BLOCK, max(g.size * cols, VALUE_BLOCK))
        assert blocks and max(blocks) <= bound
        assert sum(blocks) == k * g.size * cols
        for e in range(k):
            assert joint_residuals(spec, left[e:e + 1],
                                   rhs[e:e + 1])[0] == got[e]


def test_mirror_plan_checks_every_row_block():
    """A stack of several row blocks halves the sweep only if each block
    is conjugate-symmetric: one entry changed in the last block, or a
    NaN there, makes it read every column."""
    g = parse_group("1021")
    bs = [Endo.scalar(g, c) for c in find_shift_coeffs(g, "I")]
    plan = distributions.factor_plan(LinearFormSpec.form_I(bs).pairs)
    _, chars, _ = random_masses(g, [[19, i] for i in range(300)], 0.2)
    stack = chars.reshape(100, 3, g.size)
    assert len(row_blocks(300, g.size)) > 1
    assert distributions.mirror_plan(g, plan, [stack])[1] == (g.size + 1) // 2
    for bad in (stack[-1, -1, 1] + 1e-3, np.nan):
        broken = stack.copy()
        broken[-1, -1, 1] = bad
        assert distributions.mirror_plan(g, plan, [stack, broken])[1] == g.size


@pytest.mark.parametrize("group, k", [("7x9", 7), ("1021", 3)])
def test_runs_of_entries_match_one_run(group, k, monkeypatch):
    """A stack swept in runs of entries (``TILE_BUDGET``), of one entry, of
    two, or of all of them, gives each entry's residual bit for bit."""
    g = parse_group(group)
    bs = [Endo.scalar(g, c) for c in find_shift_coeffs(g, "I")]
    spec = LinearFormSpec.form_I(bs)
    _, chars, _ = random_masses(g, [[17, i] for i in range(6 * k)], 0.2)
    lhs, rhs = chars.reshape(2, k, 3, g.size)
    whole = joint_residuals(spec, lhs, rhs)
    entry = 4 * (g.size << g.rank)  # two box factors (b1 = 0), two sides
    sides, real = [], distributions.factor_tables
    monkeypatch.setattr(distributions, "factor_tables",
                        lambda *a: sides.append(0) or real(*a))
    for budget, runs in ((entry - 1, k), (2 * entry, (k + 1) // 2),
                         (k * entry, 1)):
        monkeypatch.setattr(distributions, "TILE_BUDGET", budget)
        sides.clear()
        assert joint_residuals(spec, lhs, rhs).tolist() == whole.tolist()
        assert len(sides) == 2 * runs


def test_campaign_memory_does_not_grow_with_its_trials(tmp_path):
    """On a group of rank 8 a box factor's tile takes ``2^8 n`` values per
    entry, so a campaign's stack is swept in runs of entries: the traced
    peak of 40 trials stays within 1.25 times that of 8."""
    def peak(trials: int) -> int:
        argv = ["verify-shift", "--group", "2x2x2x2x2x2x2x2", "--form", "II",
                "--trials", str(trials), "--out", str(tmp_path / "r.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # builds the cached plans and group tables
    assert peak(40) <= 1.25 * peak(8)


# -- verify-gaussian campaigns as one stack -------------------------------

# (base, depth, coefficients): the coefficient sets of compare_bodies.
GAUSS_COEFFS = [("2,3,5", 2, "1,2,3,4"), ("2,3", 1, "1/2,1,3/2,2"),
                ("2,3", 1, "1,2,3,1/2"), ("2,3", 1, "1,2,4,3/2")]


def gaussian_entry_alone(lattice, cs, form, seed, t, kind, tol):
    """One campaign entry through the single-table API: its synthesis,
    ``verify_gaussian_form_*`` on it alone and its body entry, or the
    GroupIdentError one of them raises."""
    try:
        mus, nus, sigmas, _ = synth_gaussian_instance(
            lattice, cs, [seed, t, 1][:2 + kind], form)
        if kind:
            nus[0] = nus[0].map_values(lambda v: v * np.exp(
                -0.4 * (lattice.every / lattice.denominator) ** 4))
        report = getattr(solenoid, f"verify_gaussian_form_{form}")(
            cs, mus, nus, tol=tol)
    except WindowMarginError:
        raise
    except GroupIdentError as exc:
        return exc
    return (run_gaussian_adversarial(report) if kind
            else run_gaussian_trial(report, sigmas, tol))


def full_precision(entry) -> str:
    """An entry with every float at full precision, or its error."""
    if isinstance(entry, GroupIdentError):
        return f"{type(entry).__name__}: {entry}"
    return json.dumps(entry, sort_keys=True)


@settings(max_examples=30, deadline=None)
@given(radius=st.integers(7, 200), form=st.sampled_from(["I", "II"]),
       coeffs=st.sampled_from(GAUSS_COEFFS), seed=st.integers(0, 2 ** 40),
       trials=st.integers(1, 3))
def test_stacked_gaussian_campaign_matches_entries_alone(radius, form, coeffs,
                                                         seed, trials):
    """Every entry of a stacked campaign equals the single-table API on
    that entry alone, field for field at full precision, errors included;
    a margin error ends both."""
    base, depth, text = coeffs
    lattice = make_lattice([int(a) for a in base.split(",")], depth, radius)
    cs = [Fraction(c) for c in text.split(",")]
    try:
        alone = [gaussian_entry_alone(lattice, cs, form, seed, t, kind, 1e-8)
                 for t in range(trials) for kind in (0, 1)]
    except WindowMarginError:
        with pytest.raises(WindowMarginError):
            verify_gaussian_entries(lattice, cs, form, seed, range(trials),
                                    1e-8, Phases())
        return
    got = verify_gaussian_entries(lattice, cs, form, seed, range(trials),
                                  1e-8, Phases())
    assert [full_precision(e) for e in got] == [
        full_precision(e) for e in alone]


def test_one_bad_entry_fails_alone_with_its_first_error():
    """In one stack of eight entries, five are spoiled: a vanishing muhat,
    a vanishing muhat with a non-Hermitian ratio besides, an infinite first
    ratio with a non-Hermitian third ratio besides, a non-Hermitian third
    ratio, and a ratio that underflows to 0 at a symmetric pair of points,
    whose VanishingFactorError the stack raises for all.  Each gets the
    first error it raises alone; the others keep their clean reports."""
    lattice = make_lattice([2, 3, 5], 2, 60)
    cs = [Fraction(c) for c in (1, 2, 3, 4)]
    rngs = generators([[17, t] for t in range(8)])
    mus, nus, _, _ = synth_gaussian_stack(lattice, cs, rngs, "I")
    clean = verify_gaussian_form_I(cs, mus, nus)
    M = [t.values.copy() for t in mus]
    N = [t.values.copy() for t in nus]
    y = lattice.radius + 7  # the point 7/D, and -7/D at radius - 7
    M[2][1, 5] = 0
    M[0][3, 9] = 0
    N[1][3, y] *= np.exp(1e-3j)
    N[0][4, 20] = np.inf
    N[2][4, y] *= np.exp(1e-3j)
    N[2][5, y] *= np.exp(1e-3j)
    M[1][6, [y, 2 * lattice.radius - y]] = 2.0
    N[1][6, [y, 2 * lattice.radius - y]] = 5e-324
    spoiled = [[t.map_values(lambda _, v=v: v) for t, v in zip(ts, vs)]
               for ts, vs in ((mus, M), (nus, N))]
    got = verify_gaussian_form_I(cs, *spoiled)
    want = {1: "all tables must be nonvanishing",
            3: "all tables must be nonvanishing",
            4: "ratio table 1 is not a characteristic-function ratio",
            5: "ratio table 3 is not a characteristic-function ratio",
            6: "log-modulus of a vanishing table"}
    for i, entry in enumerate(got):
        alone = [[t.rows([i]) for t in ts] for ts in spoiled]
        if i in want:
            assert isinstance(entry, GroupIdentError), i
            assert str(entry) == want[i], i
            with pytest.raises(GroupIdentError, match=want[i]):
                verify_gaussian_form_I(cs, *([t.rows(0) for t in ts]
                                             for ts in alone))
        else:
            one, = verify_gaussian_form_I(cs, *alone)
            assert entry.verdict == solenoid.VERDICT_GAUSSIAN, i
            assert (full_precision(entry.to_json_dict())
                    == full_precision(clean[i].to_json_dict())
                    == full_precision(one.to_json_dict())), i


def gaussian_stack_on(lattice, cs, form, seed, entries, lo, hi):
    """Writable value stacks ``(M, N)`` of a valid Gaussian stack of
    ``entries`` entries, factor ``j`` in ``M[j]`` and ``N[j]``, cut to the
    window box ``lo <= m <= hi``, and the box's grid indices."""
    mus, nus, _, _ = synth_gaussian_stack(
        lattice, cs, generators([[seed, t] for t in range(entries)]), form)
    keep = (lattice.every >= lo) & (lattice.every <= hi)
    return ([t.values[:, keep].copy() for t in mus],
            [t.values[:, keep].copy() for t in nus], lattice.every[keep])


def stacked_and_alone(form, cs, lattice, idx, M, N):
    """Each entry's outcome from one verifier call on the stack, and from
    the verifier on that entry's tables alone, at full precision."""
    verify = getattr(solenoid, f"verify_gaussian_form_{form}")

    def shown(entry):
        return full_precision(entry if isinstance(entry, GroupIdentError)
                              else entry.to_json_dict())

    def tables(values):
        return [FunctionTable._at(lattice, idx.copy(), v) for v in values]

    stacked = [shown(e) for e in verify(cs, tables(M), tables(N))]
    alone = []
    for i in range(len(M[0])):
        try:
            alone.append(shown(verify(cs, tables([v[i] for v in M]),
                                      tables([v[i] for v in N]))))
        except GroupIdentError as exc:
            alone.append(shown(exc))
    return stacked, alone


@pytest.mark.parametrize("case", ["kernel condition", "box misses 0"])
@pytest.mark.parametrize("form", ["I", "II"])
def test_an_error_of_the_whole_stack_is_each_open_entry_error(monkeypatch,
                                                              form, case):
    """An error that depends on the coefficients or boxes alone is recorded
    on every open entry, from one pass of the verifier: coefficients that
    fail a kernel condition, and a window box that misses 0, where entry 1,
    with a vanishing muhat, has already left."""
    lattice = make_lattice([2, 3, 5], 2, 60)
    cs = [Fraction(c) for c in (1, 2, 3, 4)]
    lo = 5 if case == "box misses 0" else -lattice.radius
    M, N, idx = gaussian_stack_on(lattice, cs, form, 19, 4, lo, 60)
    if case == "kernel condition":
        cs, want = [Fraction(c) for c in (1, 1, 2, 3)], 4 * [
            "PreconditionError: kernel condition ker(b1-b2)=0 fails"]
    else:
        M[2][1, 3] = 0
        want = ["DomainError: Fraction(0, 1) is not in the table domain",
                "PreconditionError: all tables must be nonvanishing"] + 2 * [
            "DomainError: Fraction(0, 1) is not in the table domain"]
    calls = []
    verify = solenoid._verify_gaussian
    monkeypatch.setattr(solenoid, "_verify_gaussian",
                        lambda *args: calls.append(1) or verify(*args))
    stacked, alone = stacked_and_alone(form, cs, lattice, idx, M, N)
    assert stacked == alone == want
    assert len(calls) == 1 + len(alone)  # the stack, then each entry alone


@pytest.mark.parametrize("form,j", [("I", 0), ("I", 3), ("II", 1), ("II", 3)])
def test_a_zero_in_a_ratio_closes_that_entry_alone(form, j):
    """A subnormal nu over a mu above 1 at the pair ``y, -y = +-8/D``
    makes ratio ``j + 1`` of entry 2 vanish there; its value at 0 stays 1,
    and its capped Hermitian defect 0.  That entry alone reads the
    log-modulus error (in form II, before ``1/f4`` is taken at ``8/D``,
    where ``b4 = 4`` maps ``2/D``); the others keep the reports they have
    alone, and verify."""
    lattice = make_lattice([2, 3, 5], 2, 60)
    cs = [Fraction(c) for c in (1, 2, 3, 4)]
    R = lattice.radius
    M, N, idx = gaussian_stack_on(lattice, cs, form, 23, 4, -R, R)
    M[j][2, [R - 8, R + 8]] = 2.0
    N[j][2, [R - 8, R + 8]] = 5e-324
    stacked, alone = stacked_and_alone(form, cs, lattice, idx, M, N)
    assert stacked == alone
    assert stacked[2] == "VanishingFactorError: log-modulus of a vanishing table"
    assert all(json.loads(e)["verdict"] == solenoid.VERDICT_GAUSSIAN
               for i, e in enumerate(stacked) if i != 2)


@pytest.mark.parametrize("form", ["I", "II"])
def test_entries_on_a_box_not_symmetric_about_0_leave_alone(form):
    """On the box ``-20 <= m <= 40`` the Hermitian check reads no point
    above 20/D.  There, in form II, entry 1's fourth ratio is
    ``1.7e308 (1 + i)``, whose reciprocal is 0, so the right-hand side
    vanishes at 10/D; and entry 3's first ratio is inf/inf, NaN, which the
    Gaussian fit refuses.  Each entry reads what it reads alone, and no warning is
    raised."""
    lattice = make_lattice([2, 3, 5], 2, 60)
    cs = [Fraction(c) for c in (1, 2, 3, 4)]
    M, N, idx = gaussian_stack_on(lattice, cs, form, 29, 5, -20, 40)
    if form == "II":
        M[3][1, -1], N[3][1, -1] = 1.0, 1.7e308 * (1 + 1j)
    M[0][3, -1] = N[0][3, -1] = np.inf
    stacked, alone = stacked_and_alone(form, cs, lattice, idx, M, N)
    assert stacked == alone
    assert stacked[3] == ("VanishingFactorError: gaussian fit needs a "
                          "nonvanishing table")
    clean = [0, 2, 4]
    if form == "II":
        assert stacked[1] == ("VanishingFactorError: equation right-hand "
                              "side vanishes")
    else:
        clean.append(1)
    assert all(json.loads(stacked[i])["verdict"] == solenoid.VERDICT_GAUSSIAN
               for i in clean)


@pytest.mark.parametrize("lo,hi", [(-60, 60), (-20, 40)])
@pytest.mark.parametrize("form", ["I", "II"])
def test_non_finite_tables_keep_their_reports_with_the_product_from_ones(
        monkeypatch, form, lo, hi):
    """The product equation's defect starts from the first factor;
    started from 1, as ``product_defect_from_ones`` does, every verdict
    and ``equation_defect`` is the same on tables that hold inf or NaN, in
    mu or nu, at a point and at its negation, on a whole window and on a
    box not symmetric about 0."""
    lattice = make_lattice([2, 3], 1, 60)
    cs = [Fraction(c) for c in ("1/2", 1, "3/2", 2)]
    values = [np.inf, -np.inf, complex(np.inf, np.inf), complex(np.inf, -1),
              np.nan, complex(1e200, 1e200)]
    M, N, idx = gaussian_stack_on(lattice, cs, form, 31,
                                  1 + 2 * len(values), lo, hi)
    for k, v in enumerate(values):
        M[k % 4][1 + 2 * k, -1] = v
        N[(k + 1) % 4][2 + 2 * k, [-1, -1 - hi + lo]] = v
    stacked, alone = stacked_and_alone(form, cs, lattice, idx, M, N)
    assert stacked == alone
    monkeypatch.setattr(funceq, "_product_defect", product_defect_from_ones)
    assert stacked_and_alone(form, cs, lattice, idx, M, N) == (stacked, alone)


def test_gaussian_campaign_memory_does_not_grow_with_its_trials(tmp_path):
    """A campaign runs in runs of entries (``solenoid.RUN_VALUES``): the
    traced peak of 40 trials at radius 160 stays within 1.25 times that of
    8."""
    def peak(trials: int) -> int:
        argv = ["verify-gaussian", "--radius", "160", "--trials", str(trials),
                "--out", str(tmp_path / "r.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # builds the cached plans
    assert peak(40) <= 1.25 * peak(8)

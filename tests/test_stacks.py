"""The stacked finite-group verifier, entry by entry, against the same code
run as batches of one and against the dense oracles: the stacked draw,
the joint residuals, the shift search and the verdicts of a campaign's
entries."""

import numpy as np
import pytest

from groupident import Endo, distributions, identify
from groupident.cli import (find_shift_coeffs, parse_group,
                            run_shift_adversarial, run_shift_trial)
from groupident.distributions import (LinearFormSpec, char_arrays,
                                      joint_residuals, random_masses,
                                      shifted_masses)
from groupident.errors import GenerationError
from groupident.funceq import summed_variables
from groupident.groups import VALUE_BLOCK
from groupident.reporting import FLOORS
from oracles import (char_array_dense, joint_residual_dense, random_dense,
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
    entries = [run(g, bs, form, 5, t, negative) for t in range(trials)
               for run in (run_shift_trial, run_shift_adversarial)]
    seeds = [s for e in entries for s in e.seeds]
    masses, chars, errors = random_masses(g, seeds, 0.2)
    assert errors == [None] * len(seeds)
    mus = [random_dense(g, s, 0.2) for s in seeds]
    assert np.array_equal(masses, [d.masses for d in mus])
    M, C = (a.reshape(-1, 3, g.size) for a in (masses, chars))
    N = shifted_masses(g, M, [[g.index(x) for x in e.shifts]
                              for e in entries])
    stacked = identify.verify_shifts(form, bs, (M, C), (N, char_arrays(g, N)))
    verify = getattr(identify, f"verify_form_{form}")
    summed = summed_variables(form, 3)
    spec = LinearFormSpec(g, identify._first_form_coeffs(g, summed),
                          tuple(bs))
    floor = FLOORS["joint_residual"](g)
    for i, (entry, got) in enumerate(zip(entries, stacked)):
        ms = mus[3 * i:3 * i + 3]
        ns = [m if x == g.zero else m.shift(x)
              for m, x in zip(ms, entry.shifts)]
        one = verify(bs, ms, ns)
        assert got.verdict == one.verdict == entry.expected, i
        assert got.preconditions == one.preconditions, i
        assert got.shifts == one.shifts, i
        assert abs(got.joint_residual - one.joint_residual) <= floor, i
        assert (abs(got.joint_residual - joint_residual_dense(spec, ms, ns))
                <= floor), i
        if got.verdict == identify.VERDICT_SHIFT:
            assert got.shifts == entry.recovers == tuple(
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


@pytest.mark.parametrize("group, k", [("5x5", 40), ("13", 40), ("8x8", 6),
                                      ("1021", 2)])
def test_stacked_sweeps_build_small_blocks(group, k, monkeypatch):
    """A stack of ``k`` grids is swept in blocks of at most the pairs of
    one grid or ``VALUE_BLOCK``, whichever is more, and never more than
    ``JOINT_BLOCK``: no ``(k, n, n)`` array is built.  The residuals are
    those of each entry swept alone."""
    g = parse_group(group)
    bs = [Endo.scalar(g, c) for c in find_shift_coeffs(g, "II")]
    spec = LinearFormSpec.form_II(bs)
    _, chars, _ = random_masses(g, [[13, i] for i in range(6 * k)], 0.2)
    lhs, rhs = chars.reshape(2, k, 3, g.size)
    blocks, real = [], distributions.pair_index_blocks

    def recording(*args):
        for rows, reads, bufs in real(*args):
            blocks.append(bufs[0].size)
            yield rows, reads, bufs

    monkeypatch.setattr(distributions, "pair_index_blocks", recording)
    got = joint_residuals(spec, lhs, rhs)
    bound = min(distributions.JOINT_BLOCK, max(g.size ** 2, VALUE_BLOCK))
    assert blocks and max(blocks) <= bound
    assert sum(blocks) == k * g.size ** 2
    for e in range(k):
        assert joint_residuals(spec, lhs[e:e + 1], rhs[e:e + 1])[0] == got[e]

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupident import Distribution, Endo, Group, LinearFormSpec, joint_char_array
from groupident.distributions import generators, joint_char
from groupident.errors import DomainError


def test_degenerate_examples():
    g = Group([4])
    e0 = Distribution.degenerate(g, g.zero)
    assert list(e0.masses) == [1.0, 0.0, 0.0, 0.0]
    assert np.max(np.abs(e0.char_array - 1.0)) < 1e-15
    x = g.element([3])
    ex = Distribution.degenerate(g, x)
    assert np.max(np.abs(ex.char_array - g.pairing_matrix[g.index(x)])) < 1e-15


def test_char_fn_uniform_is_indicator():
    g = Group([6])
    hat = Distribution.uniform(g).char_array
    assert abs(hat[0] - 1.0) < 1e-12
    assert np.max(np.abs(hat[1:])) < 1e-12


def test_char_fn_convex_mix_on_z2():
    g = Group([2])
    mix = Distribution.from_pairs(g, {g.zero: 0.5, g.element([1]): 0.5})
    assert np.max(np.abs(mix.char_array - np.array([1.0, 0.0]))) < 1e-15


def test_convolution_identities():
    g = Group([5])
    mu = Distribution.random(g, 3, 0.2)
    e0 = Distribution.degenerate(g, g.zero)
    assert mu.convolve(e0).total_variation(mu) < 1e-15
    x, y = g.element([2]), g.element([4])
    exy = Distribution.degenerate(g, x).convolve(Distribution.degenerate(g, y))
    assert exy.total_variation(Distribution.degenerate(g, g.add(x, y))) < 1e-15


def test_convolution_direct_summation_oracle():
    g = Group([2, 3])
    mu = Distribution.random(g, 5, 0.2)
    nu = Distribution.uniform(g)
    got = mu.convolve(nu)
    # oracle: plain double loop over the definition
    masses = np.zeros(g.size)
    for i, z in enumerate(g.elements()):
        masses[i] = sum(mu.masses[g.index(x)] * nu.masses[g.index(g.sub(z, x))]
                        for x in g.elements())
    assert np.max(np.abs(got.masses - masses)) < 1e-14
    # uniform * anything = uniform
    assert got.total_variation(Distribution.uniform(g)) < 1e-12


def test_convolution_rejects_group_mismatch():
    with pytest.raises(DomainError):
        Distribution.uniform(Group([4])).convolve(Distribution.uniform(Group([5])))


@given(st.integers(2, 8), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_convolution_theorem(n, seed):
    g = Group([n])
    mu = Distribution.random(g, [seed, 0], 0.2)
    nu = Distribution.random(g, [seed, 1], 0.2)
    lhs = mu.convolve(nu).char_array
    assert np.max(np.abs(lhs - mu.char_array * nu.char_array)) < 1e-10


def test_pushforward_examples():
    g = Group([6])
    mu = Distribution.random(g, 11, 0.2)
    assert mu.pushforward(Endo.identity(g)).total_variation(mu) < 1e-15
    assert mu.pushforward(Endo.zero(g)).total_variation(
        Distribution.degenerate(g, g.zero)) < 1e-15
    # x2 on the uniform: counting oracle gives uniform mass on {0, 2, 4}
    pushed = Distribution.uniform(g).pushforward(Endo.scalar(g, 2))
    expected = np.zeros(6)
    for x in g.elements():
        expected[g.index(Endo.scalar(g, 2).apply(x))] += 1 / 6
    assert np.max(np.abs(pushed.masses - expected)) < 1e-15
    assert list(np.flatnonzero(pushed.masses > 0)) == [0, 2, 4]


def test_pushforward_adjoint_duality():
    for orders in ([6], [4, 2], [3, 3]):
        g = Group(orders)
        mu = Distribution.random(g, [13, g.size], 0.2)
        for e in (Endo.scalar(g, 2), Endo.identity(g), Endo.zero(g)):
            lhs = mu.pushforward(e).char_array
            rhs = mu.char_array[e.adjoint().index_map]
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_poisson_examples():
    g = Group([6])
    x0 = g.element([3])
    assert Distribution.poisson(g, 0.0, x0).total_variation(
        Distribution.degenerate(g, g.zero)) < 1e-14
    lam = 0.8
    hat = Distribution.poisson(g, lam, x0).char_array
    for y in g.elements():
        p = g.pair(x0, y)
        if abs(p - 1) < 1e-12:
            assert abs(hat[g.index(y)] - 1.0) < 1e-12
        elif abs(p + 1) < 1e-12:
            assert abs(hat[g.index(y)] - np.exp(-2 * lam)) < 1e-12


def test_poisson_closed_form_char():
    g = Group([5])
    x0 = g.element([2])
    lam = 1.3
    hat = Distribution.poisson(g, lam, x0).char_array
    expected = np.exp(lam * (g.pairing_matrix[g.index(x0)] - 1.0))
    assert np.max(np.abs(hat - expected)) < 1e-12


def test_poisson_semigroup():
    g = Group([7])
    x0 = g.element([3])
    a = Distribution.poisson(g, 0.4, x0)
    b = Distribution.poisson(g, 1.1, x0)
    c = Distribution.poisson(g, 1.5, x0)
    assert a.convolve(b).total_variation(c) < 1e-9


def test_hermitian_symmetry():
    g = Group([5, 2])
    mu = Distribution.random(g, 17, 0.2)
    hat = mu.char_array
    assert np.max(np.abs(hat[g.neg_index] - hat.conj())) < 1e-12


def test_nonvanishing_examples():
    g = Group([2])
    assert Distribution.degenerate(g, g.element([1])).nonvanishing(0.5)
    assert not Distribution.uniform(g).nonvanishing(1e-9)
    mix = Distribution.from_pairs(g, {g.zero: 0.9, g.element([1]): 0.1})
    assert mix.nonvanishing(0.05)
    assert abs(np.min(np.abs(mix.char_array)) - 0.8) < 1e-12


def test_random_dist_contract():
    g = Group([6])
    d1 = Distribution.random(g, 42, 0.1)
    d2 = Distribution.random(g, 42, 0.1)
    assert np.array_equal(d1.masses, d2.masses)
    assert abs(d1.masses.sum() - 1.0) < 1e-12
    for seed in range(100):
        assert Distribution.random(g, seed, 0.1).nonvanishing(0.05)
    with pytest.raises(DomainError):
        Distribution.random(g, 0, 1.5)


def test_random_dist_rejection_budget():
    from groupident.errors import GenerationError

    g = Group([6])
    # |char(0)| = 1 always, so a tolerance above 1 exhausts the budget
    with pytest.raises(GenerationError):
        Distribution.random(g, 0, 0.1, nonvanishing_tol=1.5, max_tries=10)


def test_joint_char_degenerate_at_zero_is_one():
    g = Group([5])
    bs = [Endo.scalar(g, c) for c in (1, 2, 3)]
    spec = LinearFormSpec.form_I(bs)
    dists = [Distribution.degenerate(g, g.zero)] * 3
    assert np.max(np.abs(joint_char_array(spec, dists) - 1.0)) < 1e-14


def test_joint_char_form_II_factorization():
    g = Group([5])
    bs = [Endo.scalar(g, c) for c in (0, 1, 2)]
    spec = LinearFormSpec.form_II(bs)
    dists = [Distribution.random(g, [21, j], 0.2) for j in range(3)]
    got = joint_char_array(spec, dists)
    add = g.add_table
    expected = np.ones((5, 5), dtype=complex)
    for j, (b, d) in enumerate(zip(bs, dists)):
        vb = b.adjoint().index_map
        if j < 2:
            expected *= d.char_array[add[np.arange(5)[:, None], vb[None, :]]]
        else:
            expected *= d.char_array[vb][None, :]
    assert np.max(np.abs(got - expected)) < 1e-14


def test_joint_char_exhaustive_tuple_oracle():
    # direct joint law of (L1, L2) by summation over all triples
    for form, orders in (("I", [2, 2]), ("II", [3]), ("I", [4])):
        g = Group(orders)
        cs = (1, 2, 3) if form == "I" else (0, 1, 1)
        bs = [Endo.scalar(g, c) for c in cs]
        spec = (LinearFormSpec.form_I(bs) if form == "I"
                else LinearFormSpec.form_II(bs))
        dists = [Distribution.random(g, [29, g.size, j], 0.2) for j in range(3)]
        joint = np.zeros((g.size, g.size))
        for xs in itertools.product(g.elements(), repeat=3):
            p = 1.0
            for d, x in zip(dists, xs):
                p *= d.masses[g.index(x)]
            l1 = g.zero
            l2 = g.zero
            for a, b, x in zip(spec.coeffs1, spec.coeffs2, xs):
                l1 = g.add(l1, a.apply(x))
                l2 = g.add(l2, b.apply(x))
            joint[g.index(l1), g.index(l2)] += p
        oracle = np.zeros((g.size, g.size), dtype=complex)
        P = g.pairing_matrix
        for i in range(g.size):
            for j in range(g.size):
                oracle += joint[i, j] * np.outer(P[i], P[j])
        got = joint_char_array(spec, dists)
        assert np.max(np.abs(got - oracle)) < 1e-9


def test_joint_char_table_on_product_group():
    g = Group([3])
    bs = [Endo.scalar(g, c) for c in (1, 2, 0)]
    dists = [Distribution.random(g, [31, j], 0.2) for j in range(3)]
    table = joint_char(LinearFormSpec.form_I(bs), dists)
    assert table.domain.orders == (3, 3)
    grid = joint_char_array(LinearFormSpec.form_I(bs), dists)
    for u in g.elements():
        for v in g.elements():
            point = table.domain.element(u.coords + v.coords)
            assert abs(table[point] - grid[g.index(u), g.index(v)]) < 1e-14


def test_linear_form_spec_validation():
    g = Group([5])
    with pytest.raises(DomainError):
        LinearFormSpec(g, (Endo.identity(g),), (Endo.identity(g), Endo.zero(g)))
    with pytest.raises(DomainError):
        LinearFormSpec(g, (Endo.identity(g),) * 5, (Endo.identity(g),) * 5)


def test_joint_char_arity_four():
    g = Group([3])
    bs = [Endo.scalar(g, c) for c in (0, 1, 2, 1)]
    dists = [Distribution.random(g, [37, j], 0.2) for j in range(4)]
    got = joint_char_array(LinearFormSpec.form_I(bs), dists)
    expected = np.ones((3, 3), dtype=complex)
    for u in g.elements():
        for v in g.elements():
            val = 1.0 + 0j
            for b, d in zip(bs, dists):
                arg = g.add(u, b.adjoint().apply(v))
                val *= d.char_array[g.index(arg)]
            expected[g.index(u), g.index(v)] = val
    assert np.max(np.abs(got - expected)) < 1e-12


def test_joint_char_capacity_gate():
    # Both dense (u, v) grids pass the dense-table gate: 1681 elements, a
    # 45 MB grid, are above it.
    from groupident import poisson_closed_form_array
    from groupident.errors import CapacityError
    from groupident.groups import TABLE_SIZE_LIMIT

    g = Group([41, 41])
    assert g.size > TABLE_SIZE_LIMIT
    bs = [Endo.scalar(g, c) for c in (1, 2, 3)]
    dists = [Distribution.degenerate(g, g.zero)] * 3
    with pytest.raises(CapacityError, match="the joint law needs"):
        joint_char_array(LinearFormSpec.form_I(bs), dists)
    with pytest.raises(CapacityError, match="the closed-form joint law"):
        poisson_closed_form_array(bs, 0.7, dists[2])


# Seeds of every shape numpy's SeedSequence takes, for ``generators``:
# ints of one to three 32-bit words, ``[seed, t, j]`` lists, nested lists,
# ``[]`` and numpy integer scalars.  A stack drawn from them mixes word
# counts, so its rows go through ``generators`` in several groups.
SEEDS = st.one_of(
    st.integers(0, 2**80),
    st.tuples(st.integers(0, 2**64), st.integers(0, 300),
              st.integers(0, 20)).map(list),
    st.recursive(st.integers(0, 2**70), lambda c: st.lists(c, max_size=4),
                 max_leaves=12),
    st.just([]),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32))
# Stacks of equal-length rows of one-word ints: ``generators`` reads each
# as one ``(k, m)`` array, ``m`` words a row.
ARRAY_STACKS = st.integers(0, 6).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, 2**32 - 1), min_size=m, max_size=m),
    max_size=6))


def assert_streams_match_default_rng(seeds, n, top):
    gens = generators(seeds)
    assert len(gens) == len(seeds)
    for seed, rng in zip(seeds, gens):
        ref = np.random.default_rng(seed)
        assert np.array_equal(rng.random(n), ref.random(n)), seed
        assert np.array_equal(rng.integers(0, top, n),
                              ref.integers(0, top, n)), seed


@given(st.one_of(st.lists(SEEDS, max_size=8), ARRAY_STACKS,
                 st.lists(st.integers(0, 2**32 - 1), max_size=8)),
       st.integers(1, 40), st.integers(1, 2**40))
@settings(max_examples=150, deadline=None)
def test_generators_match_default_rng(seeds, n, top):
    assert_streams_match_default_rng(seeds, n, top)


def test_generators_match_default_rng_on_a_stack_of_every_shape():
    seeds = [0, 2**32 - 1, 2**32, 2**80, [3, 1, 7], [2**40, 5, 17],
             [[1, [2]], 3], [], [[]], np.uint32(5), np.int64(2**40),
             list(range(9)), [[0, 1], [2, 3], [4, 5]], 12]
    assert_streams_match_default_rng(seeds, 16, 1000)
    assert_streams_match_default_rng(np.arange(24).reshape(4, 3, 2), 16, 7)
    assert generators([]) == []


@pytest.mark.parametrize("seed", [-1, [3, -1, 7], [[0], [-5]],
                                  np.int64(-2)])
def test_generators_reject_negative_seeds(seed):
    with pytest.raises(DomainError):
        generators([[1, 2, 3], seed])

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupident import Group
from groupident.errors import CapacityError, DomainError

SMALL_ORDERS = st.lists(st.integers(1, 6), min_size=1, max_size=3)


def test_make_group_examples():
    assert Group([4]).size == 4
    assert Group([2, 2]).size == 4
    assert Group([6, 6]).size == 36
    assert Group([1]).size == 1


def test_make_group_rejects_bad_orders():
    with pytest.raises(DomainError):
        Group([0])
    with pytest.raises(DomainError):
        Group([])
    with pytest.raises(CapacityError):
        Group([101], enumeration_bound=100)


def test_add_neg_examples():
    g = Group([4])
    assert g.add(g.element([3]), g.element([2])) == g.element([1])
    g22 = Group([2, 2])
    assert g22.add(g22.element([1, 0]), g22.element([1, 1])) == g22.element([0, 1])
    assert g22.neg(g22.zero) == g22.zero


def test_add_rejects_foreign_elements():
    g = Group([4])
    with pytest.raises(DomainError):
        g.add(g.element([1]), Group([2, 2]).element([1, 0]))


def test_pair_examples():
    g4 = Group([4])
    one = g4.element([1])
    assert abs(g4.pair(one, one) - 1j) < 1e-15
    assert g4.pair(g4.zero, one) == 1.0
    g2 = Group([2])
    assert abs(g2.pair(g2.element([1]), g2.element([1])) + 1.0) < 1e-15


def test_elements_enumeration():
    assert [x.coords for x in Group([2]).elements()] == [(0,), (1,)]
    assert len(Group([2, 2]).elements()) == 4
    assert [x.coords for x in Group([1]).elements()] == [(0,)]
    # lexicographic order by coordinates
    g = Group([2, 3])
    assert [x.coords for x in g.elements()] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_index_roundtrip():
    g = Group([4, 3, 2])
    for i, x in enumerate(g.elements()):
        assert g.index(x) == i
        assert g.element_at(i) == x


def test_order_two_count_examples():
    assert Group([5]).order_two_count() == 0
    assert Group([7]).order_two_count() == 0
    assert Group([12]).order_two_count() == 1
    assert Group([6, 6]).order_two_count() == 3


def test_order_two_count_brute_force_oracle():
    g = Group([6, 6])
    found = [x for x in g.elements() if g.add(x, x) == g.zero and x != g.zero]
    assert sorted(x.coords for x in found) == [(0, 3), (3, 0), (3, 3)]
    assert g.order_two_count() == len(found)


@given(SMALL_ORDERS)
@settings(max_examples=25, deadline=None)
def test_bilinearity_exact_phase(orders):
    g = Group(orders)
    L = g.exponent
    phases = g.phase_matrix
    add = g.add_table
    # phase(x+x', y) = phase(x, y) + phase(x', y) mod L, all triples at once
    lhs = phases[add]
    rhs = (phases[:, None, :] + phases[None, :, :]) % L
    assert np.array_equal(lhs, rhs)



@given(st.lists(st.integers(1, 40), min_size=1, max_size=3), st.data())
@settings(max_examples=50, deadline=None)
def test_phase_idx_is_additive_in_each_argument(orders, data):
    """``phase_idx`` is additive mod the exponent ``L`` in each argument,
    through ``add_idx``, on groups too large for the dense tables; the
    root-table certificate of the character table rests on this."""
    g = Group(orders)
    L = g.exponent
    n = data.draw(st.integers(1, 20))
    i, j, k = (np.array(data.draw(st.lists(st.integers(0, g.size - 1),
                                           min_size=n, max_size=n)))
               for _ in range(3))
    s = g.add_idx(i, j)
    assert np.array_equal(g.phase_idx(s, k),
                          (g.phase_idx(i, k) + g.phase_idx(j, k)) % L)
    assert np.array_equal(g.phase_idx(k, s),
                          (g.phase_idx(k, i) + g.phase_idx(k, j)) % L)

def test_bilinearity_float_deviation():
    for orders in ([5], [8], [4, 3], [2, 2, 2]):
        g = Group(orders)
        P = g.pairing_matrix
        add = g.add_table
        worst = 0.0
        for i in range(g.size):
            dev = np.max(np.abs(P[add[i]] - P[i][None, :] * P))
            worst = max(worst, float(dev))
        assert worst < 1e-12


def test_nondegeneracy_exhaustive():
    for orders in ([7], [4, 3], [2, 2], [6, 6]):
        g = Group(orders)
        for x in g.elements():
            if x == g.zero:
                continue
            assert any(abs(g.pair(x, y) - 1.0) > 1e-9 for y in g.elements())


def test_orthogonality():
    for orders in ([6], [4, 3], [2, 2, 2]):
        g = Group(orders)
        sums = g.pairing_matrix.sum(axis=1)
        assert abs(sums[0] - g.size) < 1e-9 * g.size
        assert np.max(np.abs(sums[1:])) < 1e-9 * g.size


def test_hermitian_pairing():
    g = Group([5, 4])
    for x in g.elements():
        row = g.pairing_matrix[g.index(x)]
        assert np.max(np.abs(row[g.neg_index] - row.conj())) < 1e-15


def test_unit_modulus():
    g = Group([9, 2])
    assert np.max(np.abs(np.abs(g.pairing_matrix) - 1.0)) < 1e-12


def test_exponent_is_lcm():
    assert Group([4, 6]).exponent == math.lcm(4, 6)


def test_dense_tables_are_capacity_gated():
    big = Group([2000])  # within the enumeration bound, beyond table limits
    with pytest.raises(CapacityError):
        big.pairing_matrix
    with pytest.raises(CapacityError):
        big.add_table

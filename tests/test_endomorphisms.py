import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupident import Endo, Group, annihilator, is_subgroup
from groupident.endomorphisms import (adjoint_pairs, adjoints,
                                      annihilator_idx, annihilator_masks,
                                      image_masks, index_maps, is_adjoint_pair,
                                      kernel_masks, subgroup_generators)
from groupident.errors import DomainError, InvalidEndomorphismError
from oracles import (adjoint_pair_oracle, annihilator_oracle, image_oracle,
                     index_map_oracle, is_adjoint_pair_sweep,
                     is_subgroup_oracle, kernel_oracle)


def test_make_endo_constraint_examples():
    g = Group([4, 2])
    ok = Endo(g, [[0, 2], [0, 0]])  # 2*2 = 0 mod 4
    assert ok.matrix == ((0, 2), (0, 0))
    with pytest.raises(InvalidEndomorphismError) as err:
        Endo(g, [[0, 1], [0, 0]])  # 1*2 = 2 != 0 mod 4
    assert "(0,1)" in str(err.value)
    assert Endo.identity(g).matrix == ((1, 0), (0, 1))


def test_entries_reduced():
    g = Group([4, 2])
    e = Endo(g, [[5, 0], [0, 3]])
    assert e.matrix == ((1, 0), (0, 1))


def test_apply_examples():
    g = Group([5])
    x = g.element([3])
    assert Endo.identity(g).apply(x) == x
    assert Endo.zero(g).apply(x) == g.zero
    assert Endo.scalar(g, 2).apply(x) == g.element([1])


def test_adjoint_homogeneous_is_transpose():
    g = Group([6, 6])
    e = Endo(g, [[1, 2], [3, 4]])
    assert e.adjoint().matrix == ((1, 3), (2, 4))
    assert Endo.identity(g).adjoint() == Endo.identity(g)


def test_adjoint_mixed_orders_example():
    g = Group([4, 2])
    e = Endo(g, [[0, 2], [0, 0]])
    adj = e.adjoint()
    assert adj.matrix == ((0, 0), (1, 0))
    # exhaustive pairing identity over all 8x8 pairs
    for x in g.elements():
        for y in g.elements():
            lhs = g.pair(e.apply(x), y)
            rhs = g.pair(x, adj.apply(y))
            assert abs(lhs - rhs) < 1e-12


def test_adjoint_identity_exact_phases():
    for orders in ([4, 2], [8, 4], [9, 3], [6, 4]):
        g = Group(orders)
        for e in _sample_endos(g):
            adj = e.adjoint()
            for x in g.elements():
                ex = e.apply(x)
                for y in g.elements():
                    assert g.pair_phase(ex, y) == g.pair_phase(x, adj.apply(y))


def test_double_adjoint():
    for orders in ([4, 2], [8, 2], [6, 4], [5]):
        g = Group(orders)
        for e in _sample_endos(g):
            assert e.adjoint().adjoint() == e


def _sample_endos(g):
    out = [Endo.identity(g), Endo.zero(g), Endo.scalar(g, 2),
           Endo.scalar(g, g.exponent - 1)]
    k = g.rank
    if k >= 2:
        # one valid off-diagonal entry per ordered factor pair
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                n_i, n_j = g.orders[i], g.orders[j]
                step = n_i // np.gcd(n_i, n_j)
                if step < n_i:
                    m = [[0] * k for _ in range(k)]
                    m[i][j] = step
                    out.append(Endo(g, m))
    return out


def test_kernel_examples():
    g = Group([6])
    assert Endo.identity(g).kernel() == [g.zero]
    assert len(Endo.zero(g).kernel()) == 6
    assert [x.coords for x in Endo.scalar(g, 2).kernel()] == [(0,), (3,)]


def test_kernel_brute_force_oracle():
    g = Group([6])
    e = Endo.scalar(g, 2)
    oracle = [x for x in g.elements() if e.apply(x) == g.zero]
    assert e.kernel() == oracle


def test_image_and_surjectivity():
    g = Group([6])
    assert Endo.identity(g).is_surjective()
    doubled = Endo.scalar(g, 2)
    assert [x.coords for x in doubled.image()] == [(0,), (2,), (4,)]
    assert not doubled.is_surjective()
    g5 = Group([5])
    assert Endo.scalar(g5, 2).is_surjective()


def test_annihilator_examples():
    g = Group([6])
    assert annihilator(g, [g.zero]) == list(g.elements())
    assert annihilator(g, list(g.elements())) == [g.zero]
    sub = [g.zero, g.element([3])]
    assert [y.coords for y in annihilator(g, sub)] == [(0,), (2,), (4,)]


def test_annihilator_brute_force_oracle():
    g = Group([6])
    sub = [g.zero, g.element([3])]
    oracle = [y for y in g.elements()
              if all(abs(g.pair(x, y) - 1.0) < 1e-9 for x in sub)]
    assert annihilator(g, sub) == oracle


def test_annihilator_rejects_non_subgroup():
    g = Group([6])
    with pytest.raises(DomainError):
        annihilator(g, [g.zero, g.element([1])])
    with pytest.raises(DomainError):
        annihilator(g, [g.element([2])])


def test_endo_subtraction():
    g = Group([5])
    e = Endo.scalar(g, 3)
    assert (e - e) == Endo.zero(g)
    assert (Endo.identity(g) - Endo.zero(g)) == Endo.identity(g)
    assert (Endo.scalar(g, 3) - Endo.scalar(g, 1)) == Endo.scalar(g, 2)
    with pytest.raises(DomainError):
        e - Endo.identity(Group([7]))


def test_image_of_adjoint_equals_annihilator_of_kernel():
    for orders in ([6], [4, 2], [9, 3], [12], [6, 4]):
        g = Group(orders)
        for e in _sample_endos(g):
            lhs = sorted(g.index(x) for x in e.adjoint().image())
            rhs = sorted(g.index(x) for x in annihilator(g, e.kernel()))
            assert lhs == rhs


def test_adjoint_surjective_iff_kernel_trivial():
    for orders in ([6], [4, 2], [8], [9, 3]):
        g = Group(orders)
        for e in _sample_endos(g):
            assert e.adjoint().is_surjective() == (len(e.kernel()) == 1)


def test_kernel_image_size_product():
    for orders in ([6], [4, 2], [12], [6, 6]):
        g = Group(orders)
        for e in _sample_endos(g):
            assert len(e.kernel()) * len(e.image()) == g.size


def test_adjoint_pair_of_different_groups_is_a_domain_error():
    z6 = Endo.identity(Group([6]))
    for other in (Group([2, 3]), Group([4])):
        with pytest.raises(DomainError):
            is_adjoint_pair(z6, Endo.identity(other))
        with pytest.raises(DomainError):
            is_adjoint_pair(Endo.identity(other), z6)


@pytest.mark.parametrize("idx", [[7], [6], [-1], [0, -1], [0.0], [0, 1.5],
                                 [[0]], [True], [None]],
                         ids=repr)
def test_annihilator_indices_outside_the_group_are_a_domain_error(idx):
    with pytest.raises(DomainError, match="integers in"):
        annihilator_idx(Group([6]), np.asarray(idx))


def test_annihilator_of_no_indices_is_not_a_subgroup():
    for idx in ([], np.array([], dtype=np.int64)):
        with pytest.raises(DomainError, match="must be a subgroup"):
            annihilator_idx(Group([6]), idx)
    assert annihilator_idx(Group([6]), [0, 3]).tolist() == [0, 2, 4]


# -- the stacked checks, row by row, against the per-element oracles --------

# Groups of rank 1-3, factors of order 1 included, of at most 24 elements.
ORDERS = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
    lambda o: math.prod(o) <= 24)


@st.composite
def matrix_stacks(draw, orders, count):
    """``count`` well-defined matrices: entry ``(i, j)`` is a multiple of
    ``n_i / gcd(n_i, n_j)`` below ``n_i``."""
    k = len(orders)
    return np.array([[[draw(st.integers(0, math.gcd(n, m) - 1))
                       * (n // math.gcd(n, m)) for m in orders]
                      for n in orders] for _ in range(count)],
                    dtype=np.int64).reshape(count, k, k)


def points(g, mask):
    return [x.coords for x in g.points_at(np.flatnonzero(mask))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_adjoint_checks_match_the_oracles(data):
    """The adjoints of random matrices and random well-defined "adjoints",
    whose pair and double-adjoint identities fail where they are wrong,
    and index maps moved at one point, which are not homomorphisms."""
    orders = tuple(data.draw(ORDERS))
    g = Group(orders)
    A = data.draw(matrix_stacks(orders, 3))
    wrong = data.draw(matrix_stacks(orders, 3))
    adj = adjoints(g, A)
    stack = np.concatenate([A, adj, wrong])
    maps = index_maps(g, stack)
    for m, M in zip(maps, stack):
        assert m.tolist() == index_map_oracle(orders, M.tolist())
    for b, rows in ((adj, maps[3:6]), (wrong, maps[6:])):
        want = [adjoint_pair_oracle(orders, a.tolist(), c.tolist())
                for a, c in zip(A, b)]
        assert adjoint_pairs(g, maps[:3], rows).tolist() == want
        assert adjoint_pairs(g, rows, maps[:3]).tolist() == want
        # The adjoint is unique and an involution.
        assert (adjoints(g, b) == A).all(axis=(1, 2)).tolist() == want
    assert adjoint_pairs(g, maps[:3], maps[3:6]).all()
    x = data.draw(st.integers(0, g.size - 1))
    moved = maps[3:6].copy()
    moved[:, x] = (moved[:, x] + 1) % g.size
    want = [is_adjoint_pair_sweep(SimpleNamespace(group=g, index_map=a),
                                  SimpleNamespace(group=g, index_map=b))
            for a, b in zip(maps[:3], moved)]
    assert adjoint_pairs(g, maps[:3], moved).tolist() == want
    assert adjoint_pairs(g, moved, maps[:3]).tolist() == want
    assert g.size == 1 or not any(want)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_kernels_images_and_annihilators_match_the_oracles(data):
    orders = tuple(data.draw(ORDERS))
    g = Group(orders)
    stack = data.draw(matrix_stacks(orders, 4))
    maps = index_maps(g, stack)
    kernels, images = kernel_masks(maps), image_masks(maps)
    annihilators = annihilator_masks(g, kernels)
    for M, kernel, image, ann in zip(stack.tolist(), kernels, images,
                                     annihilators):
        want = kernel_oracle(orders, M)
        assert points(g, kernel) == want
        assert points(g, image) == image_oracle(orders, M)
        assert points(g, ann) == annihilator_oracle(orders, want)
    # The images are subgroups too, and their annihilators are the kernels
    # of the adjoints.
    assert (annihilator_masks(g, images)
            == kernel_masks(index_maps(g, adjoints(g, stack)))).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_subgroup_check_matches_the_oracle(data):
    """Random masks, with and without 0, the empty set, kernels (subgroups)
    and the union of a kernel with one point outside it."""
    orders = tuple(data.draw(ORDERS))
    g = Group(orders)
    bits = st.lists(st.booleans(), min_size=g.size, max_size=g.size)
    masks = [data.draw(bits) for _ in range(4)] + [[False] * g.size]
    kernel = kernel_masks(index_maps(g, data.draw(matrix_stacks(orders, 1))))
    grown = kernel.copy()
    grown[0, data.draw(st.integers(0, g.size - 1))] = True
    member = np.concatenate([np.array(masks, dtype=bool).reshape(-1, g.size),
                             kernel, grown])
    got = subgroup_generators(g, member)[1]
    want = [is_subgroup_oracle(orders, points(g, row)) for row in member]
    assert got.tolist() == want
    assert want[-2]
    for row, ok in zip(member, want):
        assert is_subgroup(g, g.points_at(np.flatnonzero(row))) == ok
        if not ok:
            with pytest.raises(DomainError, match="must be a subgroup"):
                annihilator_idx(g, np.flatnonzero(row))

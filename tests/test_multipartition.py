"""Tests for partition statistics and capacity pruning.

The rank 8 fixtures are the five-factor example used throughout the
test suite: lam carries fundamental weights on nodes 2,3,4,5,7 and
gamma = (1,3,4,4,3,2,1,0).
"""

import pytest
from hypothesis import given, strategies as st

from hldecomp.hl_category import weight_of
from hldecomp.multipartition import (
    _nexts,
    capacities,
    col_counts,
    compute_K,
    enumerate_multipartitions,
    partitions_of,
    row_counts,
)
from hldecomp.root_system import enumerate_dominant_gammas

from conftest import all_multipartitions, shape_grid, words_on_nodes

RANK8_LAM = (0, 1, 1, 1, 1, 0, 1, 0)
RANK8_GAMMA = (1, 3, 4, 4, 3, 2, 1, 0)
MU_A = ((1,), (2, 1), (2, 2), (2, 2), (2, 1), (2,), (1,), ())
MU_B = ((1,), (2, 1), (2, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1), (1,), ())

partitions = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def _rows_of_length(mu, r):
    return sum(1 for p in mu if p == r)


def test_col_count_examples():
    assert col_counts((2, 1)) == (0, 2, 3, 3)
    assert col_counts((2, 2))[2] == 4
    assert col_counts(()) == (0,)
    assert col_counts((3, 1))[0] == 0


@given(partitions)
def test_col_count_monotone_and_saturating(mu):
    c = col_counts(mu)
    assert all(a <= b for a, b in zip(c, c[1:]))
    if mu:
        assert c[mu[0]:] == (sum(mu),) * (len(c) - mu[0])


@given(partitions)
def test_col_counts_vector_matches_definition(mu):
    c = col_counts(mu)
    assert len(c) == sum(mu) + 1
    for s in range(len(c)):
        assert c[s] == sum(min(p, s) for p in mu)
    # second differences count the rows of each length
    c += (c[-1],)
    for r in range(1, len(c) - 1):
        assert 2 * c[r] - c[r - 1] - c[r + 1] == _rows_of_length(mu, r)
    top = mu[0] if mu else 0
    assert row_counts(mu) == [_rows_of_length(mu, r) for r in range(1, top + 1)]


def test_row_mult_examples():
    # row multiplicities m_1..m_t of the largest part t
    assert row_counts((2, 1)) == [1, 1]
    assert row_counts((2, 2)) == [0, 2]
    assert row_counts((1, 1, 1)) == [3]
    assert row_counts(()) == []


@given(partitions)
def test_row_mult_identities(mu):
    m = row_counts(mu)
    assert sum(r * m_r for r, m_r in enumerate(m, start=1)) == sum(mu)
    assert sum(m) == len(mu)


def test_partitions_of_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for m, cnt in enumerate(expected):
        parts = partitions_of(m)
        assert len(parts) == cnt
        assert len(set(parts)) == cnt
        for mu in parts:
            # weakly decreasing positive parts
            assert all(a >= b for a, b in zip(mu, mu[1:]))
            assert all(p > 0 for p in mu)
            assert sum(mu) == m
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_capacities_examples():
    # node 5 of MU_A at depth 2, node 2 at depth 1
    assert capacities(RANK8_LAM[4], MU_A[3], MU_A[4], MU_A[5])[1] == 1
    assert capacities(RANK8_LAM[1], MU_A[0], MU_A[1], MU_A[2])[0] == 0
    # one capacity per depth up to the largest part, none without rows
    assert len(capacities(1, (1,), (3, 1), ())) == 3
    assert capacities(1, (), (), ()) == []


def test_compute_K_examples():
    assert compute_K(MU_A, RANK8_LAM) == 13
    assert compute_K(MU_B, RANK8_LAM) == 10
    assert compute_K(((),) * 8, RANK8_LAM) == 0
    # a component too many or too few is an error, as in build_polytope,
    # never dropped or padded
    for mp in (((1,), (1,), (5,)), ((1,),)):
        with pytest.raises(ValueError):
            compute_K(mp, (1, 1))


def test_unpruned_count_is_product_of_partition_numbers():
    # the unpruned reference the tests filter; with lam_i >= 2 gamma_i
    # every capacity is nonnegative, so the search keeps all of it
    gamma = (2, 3, 1)
    got = all_multipartitions(gamma)
    assert len(got) == len(partitions_of(2)) * len(partitions_of(3)) * len(partitions_of(1))
    assert len(set(got)) == len(got)
    for mp in got:
        assert tuple(sum(mu) for mu in mp) == gamma
    assert enumerate_multipartitions(gamma, (4, 6, 2)) == got


def test_rank8_pruned_survivors():
    got = enumerate_multipartitions(RANK8_GAMMA, RANK8_LAM)
    assert len(got) == 6
    assert MU_A in got
    assert MU_B in got
    assert sorted(compute_K(mp, RANK8_LAM) for mp in got) == [8, 10, 10, 11, 12, 13]


def _caps_ok_by_definition(mp, lam, occupied_only):
    # every P_{s,i} >= 0 for 1 <= s <= gamma_i, written out from
    # col(mu, s) = sum(min(p, s)); occupied_only skips depths with no
    # row of length s
    def col(mu, s):
        return sum(min(p, s) for p in mu)

    n = len(lam)
    for i in range(1, n + 1):
        mu = mp[i - 1]
        prev = mp[i - 2] if i >= 2 else ()
        nxt = mp[i] if i <= n - 1 else ()
        for s in range(1, sum(mu) + 1):
            if occupied_only and not any(p == s for p in mu):
                continue
            if lam[i - 1] - 2 * col(mu, s) + col(prev, s) + col(nxt, s) < 0:
                return False
    return True


def test_pruned_is_subset_with_nonnegative_capacities():
    # pruning during the search keeps exactly the unpruned
    # multipartitions whose capacities are all nonnegative, in order
    for lam, gamma in shape_grid():
        assert enumerate_multipartitions(gamma, lam) == \
            [mp for mp in all_multipartitions(gamma)
             if _caps_ok_by_definition(mp, lam, False)], \
            (lam, gamma)


def test_relaxed_mode_agrees_on_small_grid():
    # the relaxed rule, which checks only the depths that hold rows,
    # keeps the same list as the pruned search: a negative capacity at a
    # depth with no rows always comes with a negative capacity at some
    # occupied depth.  Between two occupied depths (or depth 0, where
    # P = lam_i >= 0) mu_i(s) is linear and the neighbours' counts are
    # concave, so P is concave there and smallest at an end, and past the
    # largest part P can only grow
    for lam, gamma in shape_grid():
        assert enumerate_multipartitions(gamma, lam) == \
            [mp for mp in all_multipartitions(gamma)
             if _caps_ok_by_definition(mp, lam, True)], \
            (lam, gamma)


def _reference_search(gamma, lam):
    # the node-by-node DFS the state search replaced: extend one
    # component at a time over partitions_of and drop a prefix as soon
    # as a capacity at its second-to-last node is negative
    lam = tuple(lam)
    n = len(lam)
    choices = [partitions_of(g) for g in gamma]
    out = []
    cur = []

    def caps_ok(i):
        caps = capacities(lam[i - 1], cur[i - 2] if i >= 2 else (), cur[i - 1],
                          cur[i] if i <= n - 1 else ())
        return all(cap >= 0 for cap in caps)

    def extend(i):
        for part in choices[i - 1]:
            cur.append(part)
            if i >= 2 and not caps_ok(i - 1):
                cur.pop()
                continue
            if i == n:
                if caps_ok(n):
                    out.append(tuple(cur))
            else:
                extend(i + 1)
            cur.pop()

    extend(1)
    return out


def test_state_search_matches_reference_search():
    # rank 4 shapes, then every dominant gamma of the rank 8 weight and
    # of a rank 10 word, where dead ends sit several nodes deep
    word = words_on_nodes(10, (1, 2, 4, 6, 8, 10))[0]
    cases = list(shape_grid(4, 1, 2))
    for lam in (RANK8_LAM, weight_of(word)):
        cases.extend((lam, gamma) for gamma in enumerate_dominant_gammas(lam))
    for lam, gamma in cases:
        assert enumerate_multipartitions(gamma, lam) == \
            _reference_search(gamma, lam), (lam, gamma)


def test_cached_successors_follow_the_weight():
    # the successor table is process-wide; a weight that differs at one
    # node must not read another weight's entries, in either order
    gamma = (2, 3, 3, 2)
    weights = [(1, 1, 1, 1), (1, 2, 1, 1)]
    by_definition = {
        lam: [mp for mp in all_multipartitions(gamma)
              if _caps_ok_by_definition(mp, lam, False)]
        for lam in weights}
    assert [len(by_definition[lam]) for lam in weights] == [2, 4]
    for order in (weights, weights[::-1]):
        _nexts.cache_clear()
        for lam in order:
            assert enumerate_multipartitions(gamma, lam) == by_definition[lam], lam


def test_input_validation():
    with pytest.raises(ValueError):
        enumerate_multipartitions((1, 1), (1,))
    with pytest.raises(ValueError):
        enumerate_multipartitions((-1,), (1,))


def test_gamma_zero_is_the_empty_multipartition():
    assert enumerate_multipartitions((0, 0), (1, 1)) == [((), ())]

"""Tests for partition statistics and capacity pruning.

The rank 8 fixtures are the five-factor example used throughout the
test suite: lam carries fundamental weights on nodes 2,3,4,5,7 and
gamma = (1,3,4,4,3,2,1,0).
"""

import random
import re

import pytest
from hypothesis import given, strategies as st

from hldecomp import multipartition
from hldecomp.hl_category import DrinfeldWord, consecutive_pairs, weight_of
from hldecomp.multipartition import (
    _search_table,
    _successors,
    capacities,
    col_counts,
    compute_K,
    enumerate_multipartitions,
    partitions_of,
    row_counts,
)
from hldecomp.polytope_count import build_polytope, count_by_grade, count_by_grade_ie
from hldecomp.root_system import enumerate_dominant_gammas, is_dominant, weight_minus_gamma

from conftest import all_multipartitions, live_paths, shape_grid, word_grid, words_on_nodes

RANK8_LAM = (0, 1, 1, 1, 1, 0, 1, 0)
RANK8_GAMMA = (1, 3, 4, 4, 3, 2, 1, 0)
MU_A = ((1,), (2, 1), (2, 2), (2, 2), (2, 1), (2,), (1,), ())
MU_B = ((1,), (2, 1), (2, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1), (1,), ())
RANK8_PAIRS = ((2, 3), (3, 4), (4, 5), (5, 7))

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
    # with the word's pairs only the two polytopes that hold points stay
    assert enumerate_multipartitions(RANK8_GAMMA, RANK8_LAM, RANK8_PAIRS) == \
        [mp for mp in got if mp in (MU_A, MU_B)]


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


def _unmeetable_by_definition(mp, lam, pairs):
    # some pair (a, b) whose nodes all have a row of length 1 and
    # P_1 = lam_t - 2 l(mu_t) + l(mu_{t-1}) + l(mu_{t+1}) = 0
    parts = ((),) + tuple(mp) + ((),)

    def dead(t):
        return (1 in parts[t]
                and lam[t - 1] - 2 * len(parts[t]) + len(parts[t - 1]) + len(parts[t + 1]) == 0)

    return any(all(dead(t) for t in range(a, b + 1)) for a, b in pairs)


def test_cached_successors_follow_the_weight():
    # the search table is process-wide, one per weight and pair set; a
    # weight that differs at one node must not read another weight's
    # entries, and neither must a pair set on the same weight, in either
    # order
    gamma = (2, 3, 3, 2)
    weights = [(1, 1, 1, 1), (1, 2, 1, 1)]
    by_definition = {
        lam: [mp for mp in all_multipartitions(gamma)
              if _caps_ok_by_definition(mp, lam, False)]
        for lam in weights}
    assert [len(by_definition[lam]) for lam in weights] == [2, 4]
    for order in (weights, weights[::-1]):
        _search_table.cache_clear()
        for lam in order:
            assert enumerate_multipartitions(gamma, lam) == by_definition[lam], lam
    lam = weights[0]
    pair_sets = [(), ((1, 2),), ((2, 3),)]
    with_pairs = {pairs: [mp for mp in by_definition[lam]
                          if not _unmeetable_by_definition(mp, lam, pairs)]
                  for pairs in pair_sets}
    assert [len(with_pairs[pairs]) for pairs in pair_sets] == [2, 1, 0]
    for order in (pair_sets, pair_sets[::-1]):
        _search_table.cache_clear()
        for pairs in order:
            assert enumerate_multipartitions(gamma, lam, pairs) == with_pairs[pairs], pairs


def test_pair_search_matches_the_definition_on_word_grid():
    # every gamma of every word up to rank 6: the search with the word's
    # pairs lists exactly the capacity survivors with no unmeetable
    # pair, in order, and drops some of them
    dropped = 0
    for word in word_grid(6, 6):
        lam = weight_of(word)
        pairs = consecutive_pairs(word)
        for gamma in enumerate_dominant_gammas(lam):
            got = enumerate_multipartitions(gamma, lam, pairs)
            assert got == [mp for mp in enumerate_multipartitions(gamma, lam)
                           if not _unmeetable_by_definition(mp, lam, pairs)], (word, gamma)
            dropped += len(enumerate_multipartitions(gamma, lam)) - len(got)
    assert dropped > 0


def test_pair_search_keeps_exactly_the_nonempty_polytopes():
    # the fact that leaves no empty polytope to count: on every gamma of
    # every word up to rank 6, each multipartition the search keeps has
    # a point at level bound |gamma|, and each capacity survivor it
    # drops has none by the inclusion-exclusion recount
    kept = dropped = 0
    for word in word_grid(6, 6):
        lam = weight_of(word)
        pairs = consecutive_pairs(word)
        for gamma in enumerate_dominant_gammas(lam):
            got = enumerate_multipartitions(gamma, lam, pairs)
            for mp in enumerate_multipartitions(gamma, lam):
                spec = build_polytope(mp, lam, pairs)
                if mp in got:
                    assert count_by_grade(spec, sum(gamma)), (word, gamma, mp)
                    kept += 1
                else:
                    assert not count_by_grade_ie(spec, sum(gamma)), (word, gamma, mp)
                    dropped += 1
    assert kept and dropped


def test_pair_search_matches_the_definition_on_random_intervals():
    # any set of node intervals, overlapping and nested ones included,
    # not only a word's chain of consecutive pairs
    rng = random.Random(20261021)
    dropped = overlapping = 0
    for lam, gamma in shape_grid(4, 2, 2):
        n = len(lam)
        if n < 2:
            continue
        pairs = []
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(1, n - 1)
            pairs.append((a, rng.randint(a + 1, n)))
        overlapping += any(a2 < b1 and a1 < b2 for (a1, b1), (a2, b2)
                           in zip(sorted(pairs), sorted(pairs)[1:]))
        got = enumerate_multipartitions(gamma, lam, pairs)
        assert got == [mp for mp in enumerate_multipartitions(gamma, lam)
                       if not _unmeetable_by_definition(mp, lam, pairs)], (lam, gamma, pairs)
        dropped += len(enumerate_multipartitions(gamma, lam)) - len(got)
    assert dropped > 0 and overlapping > 0


def _per_gamma_search(gamma, lam, pairs=()):
    # the search the shared table replaced: one live_paths walk per
    # gamma over the states (mu_i, run), whose dead-end memo is local to
    # the call and knows only this gamma's sizes
    n = len(lam)
    g_next = tuple(gamma[1:]) + (0,)
    opens = [tuple(p for p in pairs if p[0] == i) for i in range(1, n + 1)]
    ends = [tuple(p for p in pairs if p[1] == i) for i in range(1, n + 1)]
    paths = live_paths(
        n, ((), ()), [(mu, ()) for mu in partitions_of(gamma[0])],
        lambda i, prev, cur: _successors(lam[i - 1], prev[0], cur, g_next[i - 1],
                                         opens[i - 1], ends[i - 1]))
    return [tuple(mu for mu, _ in path) for path in paths]


def test_shared_table_matches_the_per_gamma_search_on_word_grid():
    # every gamma of every word up to rank 6, shuffled with the words
    # interleaved, so that each gamma reads entries that other gammas and
    # other words' calls left in the table, with and without the pairs
    rng = random.Random(20261022)
    jobs = [(weight_of(word), gamma, pairs)
            for word in word_grid(6, 6)
            for gamma in enumerate_dominant_gammas(weight_of(word))
            for pairs in ((), consecutive_pairs(word))]
    rng.shuffle(jobs)
    _search_table.cache_clear()
    kept = 0
    for lam, gamma, pairs in jobs:
        got = enumerate_multipartitions(gamma, lam, pairs)
        assert got == _per_gamma_search(gamma, lam, pairs), (lam, gamma, pairs)
        kept += len(got)
    assert kept > len(jobs)


def test_shared_table_matches_the_per_gamma_search_on_random_intervals():
    # any set of node intervals, in a shuffled order of the shape grid,
    # whose gammas need not leave lam - gamma dominant: those list nothing
    rng = random.Random(20261023)
    jobs = []
    for lam, gamma in shape_grid(4, 2, 2):
        n = len(lam)
        pairs = []
        for _ in range(rng.randint(0, 3) if n > 1 else 0):
            a = rng.randint(1, n - 1)
            pairs.append((a, rng.randint(a + 1, n)))
        jobs.append((lam, gamma, tuple(sorted(set(pairs)))))
    rng.shuffle(jobs)
    _search_table.cache_clear()
    nondominant = 0
    for lam, gamma, pairs in jobs:
        got = enumerate_multipartitions(gamma, lam, pairs)
        assert got == _per_gamma_search(gamma, lam, pairs), (lam, gamma, pairs)
        nondominant += not is_dominant(weight_minus_gamma(lam, gamma))
    assert nondominant > 0


def test_one_gamma_fills_a_small_part_of_the_table(monkeypatch):
    # the table is filled lazily: one gamma of the rank 16 word, whose
    # whole-word table calls _successors once for each of tens of
    # thousands of entries, fills only what its own walk asks for
    word = DrinfeldWord(16, [(1, 0), (3, 4), (5, 0), (7, 4), (9, 0), (11, 4),
                             (13, 0), (15, 4), (16, 1)])
    lam, pairs = weight_of(word), consecutive_pairs(word)
    gamma = (0, 0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 4, 4, 3, 2, 0)
    expected = _per_gamma_search(gamma, lam, pairs)
    calls = []

    def counted(*args):
        calls.append(args)
        return _successors(*args)

    monkeypatch.setattr(multipartition, "_successors", counted)
    _search_table.cache_clear()
    assert enumerate_multipartitions(gamma, lam, pairs) == expected
    assert expected and len(calls) < 5000, len(calls)


def test_input_validation():
    with pytest.raises(ValueError):
        enumerate_multipartitions((1, 1), (1,))
    with pytest.raises(ValueError):
        enumerate_multipartitions((-1,), (1,))
    # rank 0 is refused by check_weight, before any search
    with pytest.raises(ValueError, match="rank must be a positive integer, got 0"):
        enumerate_multipartitions((), ())


@pytest.mark.parametrize("pairs, message", [
    # a boolean or fractional node is refused, not read as 1, and so is a
    # pair that is not a sequence or not of length two
    ([(True, 2)], "pair must hold integers, got (True, 2)"),
    ([(1.0, 2)], "pair must hold integers, got (1.0, 2)"),
    ([1], "pair must be a sequence of integers, got 1"),
    ([(1, 2, 3)], "pair must be a pair, got (1, 2, 3)"),
    (1, "pairs must be a sequence of node pairs, got 1"),
    # a reversed pair, a node 0 and a node past n are misread pairs, not
    # vacuous ones, and a pair spans two distinct nodes
    ([(2, 1)], "pair (2, 1) is not two nodes 1 <= a < b <= 2"),
    ([(0, 1)], "pair (0, 1) is not two nodes 1 <= a < b <= 2"),
    ([(1, 5)], "pair (1, 5) is not two nodes 1 <= a < b <= 2"),
    ([(1, 1)], "pair (1, 1) is not two nodes 1 <= a < b <= 2"),
])
@pytest.mark.parametrize("take_pairs", [
    pytest.param(lambda pairs: enumerate_multipartitions((1, 1), (1, 1), pairs), id="search"),
    pytest.param(lambda pairs: build_polytope(((1,), (1,)), (1, 1), pairs), id="polytope"),
])
def test_malformed_pairs_are_refused_by_name(take_pairs, pairs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        take_pairs(pairs)


def test_gamma_zero_is_the_empty_multipartition():
    assert enumerate_multipartitions((0, 0), (1, 1)) == [((), ())]

"""Tests for the lattice point counting layer.

The rank 8 running example is checked shape by shape, multiplicity is
compared on a word grid with the inclusion-exclusion recount summed over
the same pruned polytopes, and the level histograms of count_by_grade
and of the inclusion-exclusion recount are checked on random node
tables against a brute force reference, the Gaussian binomials of
count_by_grade against the group DP of the recount.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from hldecomp.hl_category import DrinfeldWord, consecutive_pairs, weight_of
from hldecomp.multipartition import compute_K, enumerate_multipartitions, node_terms
from hldecomp.polytope_count import (
    PolytopeSpec,
    QPolynomial,
    build_polytope,
    count_by_grade,
    _gaussian,
    _group_poly,
    count_by_grade_ie,
    multiplicity,
)
from hldecomp.root_system import enumerate_dominant_gammas

from conftest import all_multipartitions, shape_grid, word_grid, words_on_nodes

RANK8_WORD = DrinfeldWord(8, [(2, 0), (3, 3), (4, 0), (5, 3), (7, -1)])
RANK8_GAMMA = (1, 3, 4, 4, 3, 2, 1, 0)
MU_A = ((1,), (2, 1), (2, 2), (2, 2), (2, 1), (2,), (1,), ())
MU_B = ((1,), (2, 1), (2, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1), (1,), ())


# ---------------------------------------------------------------- QPolynomial

def test_qpolynomial_validation():
    with pytest.raises(ValueError):
        QPolynomial({-1: 2})
    with pytest.raises(ValueError):
        QPolynomial({3: -1})


@pytest.mark.parametrize("coeffs", [{1: 2.5}, {1: 2.0}, {1: True}, {True: 1},
                                    {1.0: 1}, {"1": 1}, {1: "2"}, {0: None}])
def test_qpolynomial_refuses_non_integers(coeffs):
    # a fractional or boolean value is refused, never truncated to an int
    with pytest.raises(TypeError):
        QPolynomial(coeffs)


def test_qpolynomial_from_json_parses_grades_only():
    assert QPolynomial.from_json({"1": 2, "0": 1}) == QPolynomial({0: 1, 1: 2})
    for bad in ({"1": 2.5}, {"1": True}, {"1": "2"}):
        with pytest.raises(TypeError):
            QPolynomial.from_json(bad)
    with pytest.raises(ValueError):
        QPolynomial.from_json({"1.5": 1})


def test_qpolynomial_drops_zeros_and_accumulates():
    assert QPolynomial({0: 1, 2: 0}).coeffs == {0: 1}
    assert QPolynomial().coeffs == {}
    assert not QPolynomial({})
    # a sum keeps every grade once, with the coefficients added
    assert (QPolynomial({1: 1}) + QPolynomial({0: 1, 1: 2})).coeffs == {0: 1, 1: 3}


def test_qpolynomial_arithmetic():
    p = QPolynomial({4: 1}) + QPolynomial({4: 1, 5: 1})
    assert p == QPolynomial({4: 2, 5: 1})
    assert p[4] == 2 and p[5] == 1 and p[17] == 0
    assert p.at_one() == 3
    assert p.support() == [4, 5]
    assert bool(p)


@pytest.mark.parametrize("grade", [2.7, "2", True, 2.0])
def test_qpolynomial_lookup_refuses_non_integer_grades(grade):
    # a lookup reads a grade as strictly as the constructor does, so a
    # fraction, a string or a bool never reads some integer grade
    with pytest.raises(TypeError):
        QPolynomial({1: 3, 2: 5})[grade]


def test_qpolynomial_rendering():
    p = QPolynomial({4: 2, 5: 1})
    assert p.plain() == "2q^4 + q^5"
    assert p.latex() == "2q^{4}+q^{5}"
    assert QPolynomial({0: 1}).plain() == "1"
    assert QPolynomial().plain() == "0"
    assert QPolynomial().latex() == "0"
    assert QPolynomial({1: 1, 2: 3}).plain() == "q + 3q^2"
    assert QPolynomial({1: 1, 2: 3}).latex() == "q+3q^{2}"


@given(st.dictionaries(st.integers(0, 30), st.integers(1, 50), max_size=6))
def test_qpolynomial_json_round_trip(coeffs):
    p = QPolynomial(coeffs)
    assert QPolynomial.from_json(p.to_json()) == p
    assert p.at_one() == sum(coeffs.values())


# ---------------------------------------------------- rank 8 running example

def test_rank8_shape_a_polytope():
    lam = weight_of(RANK8_WORD)
    pairs = consecutive_pairs(RANK8_WORD)
    assert pairs == ((2, 3), (3, 4), (4, 5), (5, 7))
    spec = build_polytope(MU_A, lam, pairs)
    # every adjacency constraint is vacuous: each range hits a node
    # without a length 1 row
    assert spec.pairs == ()
    positive = [(i, g) for i, node in enumerate(spec.nodes, start=1) for g in node if g[2] > 0]
    assert positive == [(5, (2, 1, 1))]
    assert sum(size for node in spec.nodes for _, size, _ in node) == 11
    assert spec.K == compute_K(MU_A, lam) == 13
    assert count_by_grade(spec, 18) == QPolynomial({4: 1, 5: 1})


def test_rank8_shape_b_polytope():
    lam = weight_of(RANK8_WORD)
    pairs = consecutive_pairs(RANK8_WORD)
    spec = build_polytope(MU_B, lam, pairs)
    assert spec.pairs == pairs
    assert spec.K == compute_K(MU_B, lam) == 10
    assert count_by_grade(spec, 18) == QPolynomial({4: 1})
    assert count_by_grade_ie(spec, 18) == QPolynomial({4: 1})


def test_rank8_multiplicity():
    poly = multiplicity(RANK8_WORD, RANK8_GAMMA)
    assert poly == QPolynomial({4: 2, 5: 1})
    assert poly.plain() == "2q^4 + q^5"
    # grades are bounded by the height minus the smallest K value
    lam = weight_of(RANK8_WORD)
    min_k = min(compute_K(mu, lam) for mu in
                enumerate_multipartitions(RANK8_GAMMA, lam))
    assert max(poly.support()) <= sum(RANK8_GAMMA) - min_k


# ------------------------------------------------------------- multiplicity

def test_multiplicity_small_cases():
    w = DrinfeldWord(2, [(1, 0), (2, 3)])
    assert multiplicity(w, (0, 0)) == QPolynomial({0: 1})
    assert not multiplicity(w, (1, 1))


def test_multiplicity_validation():
    w = DrinfeldWord(2, [(1, 0), (2, 3)])
    with pytest.raises(ValueError):
        multiplicity(w, (1, 1, 0))


def _multiplicity_ie(word, gamma):
    # multiplicity with count_by_grade_ie in place of count_by_grade
    lam = weight_of(word)
    pairs = consecutive_pairs(word)
    total = QPolynomial()
    for parts in enumerate_multipartitions(gamma, lam):
        spec = build_polytope(parts, lam, pairs)
        total = total + count_by_grade_ie(spec, sum(gamma))
    return total


def test_strategies_agree_on_word_grid():
    for word in word_grid(3, 2):
        for gamma in enumerate_dominant_gammas(weight_of(word)):
            assert multiplicity(word, gamma) == _multiplicity_ie(word, gamma)


def test_each_kept_polytope_matches_inclusion_exclusion():
    # per polytope, not summed: empty polytopes (most of them) must
    # count zero, and nodes outside every pair carry no constraint
    cases = [(word, gamma) for word in word_grid(4, 3)
             for gamma in enumerate_dominant_gammas(weight_of(word))]
    cases.append((RANK8_WORD, RANK8_GAMMA))
    empty = nonempty = outside = 0
    for word, gamma in cases:
        lam = weight_of(word)
        pairs = consecutive_pairs(word)
        paired = {t for a, b in pairs for t in range(a, b + 1)}
        outside += len(paired) < len(lam)
        for parts in enumerate_multipartitions(gamma, lam):
            spec = build_polytope(parts, lam, pairs)
            # the K build_polytope sums as it reads the node terms
            assert spec.K == compute_K(parts, lam), (word, gamma, parts)
            nodes, emitted, _ = _polytope_by_definition(parts, lam, pairs)
            assert (spec.nodes, spec.pairs) == (nodes, emitted), (word, gamma, parts)
            got = count_by_grade(spec, sum(gamma))
            assert got == count_by_grade_ie(spec, sum(gamma)), (word, gamma, parts)
            empty += not got
            nonempty += bool(got)
    assert empty and nonempty and outside


def test_strategies_agree_on_rank8_example():
    assert _multiplicity_ie(RANK8_WORD, RANK8_GAMMA) == QPolynomial({4: 2, 5: 1})


# ------------------------------------------------------------ count_by_grade

def _points(weights, max_level):
    # every point of the variable box with level <= max_level, as
    # (point, level); no cap or pair constraint is applied
    if not weights:
        yield (), 0
        return
    *rest, w = weights
    for point, level in _points(rest, max_level):
        for v in range((max_level - level) // w + 1):
            yield point + (v,), level + v * w


def _brute_levels(nodes, pairs, max_level):
    # direct enumeration over the variables of a node table, small
    # inputs only: caps are checked per group, and a pair (a, b) asks
    # for a positive top length 1 variable (the last one of a nonempty
    # depth 1 group) on some node a <= t <= b
    groups = [(i, r, size, cap) for i, node in enumerate(nodes, start=1)
              for r, size, cap in node]
    weights = [d for _, _, size, _ in groups for d in range(1, size + 1)]
    group_of = [g for g, (_, _, size, _) in enumerate(groups) for _ in range(size)]
    top = {}
    start = 0
    for i, r, size, _ in groups:
        if r == 1 and size:
            top[i] = start + size - 1
        start += size
    hist = [0] * (max_level + 1)
    for point, level in _points(weights, max_level):
        used = [0] * len(groups)
        for v, g in zip(point, group_of):
            used[g] += v
        if any(u > cap for u, (_, _, _, cap) in zip(used, groups)):
            continue
        if any(not any(point[top[t]] for t in range(a, b + 1) if t in top)
               for a, b in pairs):
            continue
        hist[level] += 1
    return hist


def _random_node_tables(rng, count=1000):
    # one to three nodes, each with or without a depth 1 group and with
    # zero to two deeper ones; sizes 0..3 (an empty group too) and caps
    # -1..3 in half the tables, 0..3 in the rest, so that not most of
    # them are empty; cap-0 depth 1 groups leave some ranges unmeetable.
    # Node ranges are drawn at random, overlapping and repeated ones
    # included
    for _ in range(count):
        n = rng.randint(1, 3)
        least_cap = rng.choice((-1, 0))
        nodes = []
        for _ in range(n):
            depths = sorted(rng.sample(range(1, 4), rng.randint(0, 2)))
            if rng.random() < 0.7 and 1 not in depths:
                depths.insert(0, 1)
            nodes.append(tuple((r, rng.randint(0, 3), rng.randint(least_cap, 3))
                               for r in depths))
        pairs = []
        for _ in range(rng.randint(0, 3)):
            a = rng.randint(1, n)
            pairs.append((a, rng.randint(a, n)))
        max_level = rng.randint(0, 6)
        yield tuple(nodes), tuple(pairs), max_level


def _level_cases(seed):
    # random node tables, each with its brute force level histogram read
    # as grades at height max_level + K (K shifts the level bound)
    rng = random.Random(seed)
    for nodes, pairs, max_level in _random_node_tables(rng):
        K = rng.randint(-2, 2)
        expected = QPolynomial({max_level - lvl: c
                                for lvl, c in enumerate(_brute_levels(nodes, pairs, max_level))
                                if c})
        yield nodes, pairs, max_level, K, expected


def test_count_levels_matches_brute_force():
    # the level histogram of count_by_grade
    empty = 0
    for nodes, pairs, max_level, K, expected in _level_cases(20261019):
        spec = PolytopeSpec(nodes, pairs, K)
        assert count_by_grade(spec, max_level + K) == expected, (nodes, pairs, max_level)
        empty += not expected
    assert empty


def test_count_levels_matches_inclusion_exclusion():
    # the inclusion-exclusion recount on the same kind of tables, and
    # the two counters agree on each
    empty = 0
    for nodes, pairs, max_level, K, expected in _level_cases(20261020):
        spec = PolytopeSpec(nodes, pairs, K)
        got = count_by_grade_ie(spec, max_level + K)
        assert got == expected, (nodes, pairs, max_level)
        assert got == count_by_grade(spec, max_level + K)
        empty += not expected
    assert empty


def test_count_levels_edge_cases():
    # a negative level bound gives zero, not an error
    one = PolytopeSpec((((1, 1, 2),),), ())
    assert not count_by_grade(one, -1)
    assert not count_by_grade_ie(one, -1)
    # one weight 1 variable of cap 2 below level bound 3
    assert count_by_grade(one, 3) == count_by_grade_ie(one, 3) == QPolynomial({3: 1, 2: 1, 1: 1})
    # a range whose nodes have no top length 1 variable is never met
    unmet = PolytopeSpec((((2, 1, 2),), ((1, 0, 2),)), ((1, 2),))
    assert count_by_grade(unmet, 3) == count_by_grade_ie(unmet, 3) == QPolynomial()
    bare = PolytopeSpec(((),), ((1, 1),))
    assert count_by_grade(bare, 0) == count_by_grade_ie(bare, 0) == QPolynomial()
    # no node at all holds the one empty point
    assert count_by_grade(PolytopeSpec((), ()), 1) == QPolynomial({1: 1})
    assert count_by_grade_ie(PolytopeSpec((), ()), 1) == QPolynomial({1: 1})
    # a negative capacity rejects every point, zero included
    negative = PolytopeSpec((((1, 1, -1),),), ())
    assert count_by_grade(negative, 2) == count_by_grade_ie(negative, 2) == QPolynomial()


def test_gaussian_is_the_group_polynomial():
    # [m + c choose m]_q against the recount's group DP, and at q = 1
    # the number of multisets of at most c weights from 1..m
    for m in range(7):
        for c in range(-1, 7):
            gauss = _gaussian(m, c)
            top = max(m * c, 0)
            assert list(gauss) + [0] * (top + 1 - len(gauss)) == \
                _group_poly(m, c, set(), top), (m, c)
            assert sum(gauss) == (math.comb(m + c, m) if c >= 0 else 0), (m, c)


# ----------------------------------------------------------- edge behavior

def test_count_by_grade_degenerate_cases():
    spec = build_polytope(((1,), ()), (3, 1), ())
    # height below K gives an empty polynomial
    shifted = PolytopeSpec(spec.nodes, spec.pairs, K=3)
    assert not count_by_grade(shifted, 0)
    assert not count_by_grade_ie(shifted, 0)
    assert spec.K == -1
    assert count_by_grade(spec, 0) == QPolynomial({0: 1, 1: 1})
    # a sized group with negative capacity admits no point at all
    bad = build_polytope(((1,), ()), (1, 1), ())
    assert bad.nodes == (((1, 1, -1),), ())
    assert not count_by_grade(bad, 18)
    assert not count_by_grade_ie(bad, 18)
    # so does an empty group with negative capacity, in both counters
    empty = PolytopeSpec((((1, 0, -1),), ((1, 1, 1),)), ())
    assert count_by_grade(empty, 2) == count_by_grade_ie(empty, 2) == QPolynomial()


@pytest.mark.parametrize("pairs", [((1, 2),), ((0, 1),), ((2, 1),), ((0, 0),)])
def test_polytope_spec_rejects_pairs_outside_its_nodes(pairs):
    # the two counters would read such a pair differently: on one node at
    # height 2, ((1, 2),) counts {2: 1, 1: 1} by count_by_grade (the range
    # never closes) and {1: 1} by count_by_grade_ie (node 1 is banned)
    with pytest.raises(ValueError, match="node range"):
        PolytopeSpec((((1, 1, 1),),), pairs)


def _polytope_by_definition(parts, lam, pairs):
    # node groups, emitted pairs and whether some capacity is negative,
    # written out from the definitions: at each node one group (r, size,
    # cap) per depth 1 <= r <= |mu_i| with a row of length r, its cap
    # from col(mu, s) = sum(min(p, s)), and each pair whose nodes all
    # have a length 1 row
    def col(mu, s):
        return sum(min(p, s) for p in mu)

    n = len(lam)
    nodes = []
    negative = False
    for i in range(1, n + 1):
        mu = parts[i - 1]
        prev = parts[i - 2] if i >= 2 else ()
        nxt = parts[i] if i <= n - 1 else ()
        groups = []
        for r in range(1, sum(mu) + 1):
            size = sum(1 for p in mu if p == r)
            cap = lam[i - 1] - 2 * col(mu, r) + col(prev, r) + col(nxt, r)
            if size:
                groups.append((r, size, cap))
            negative = negative or cap < 0
        nodes.append(tuple(groups))
    emitted = tuple((a, b) for a, b in pairs
                    if all(1 in parts[t - 1] for t in range(a, b + 1)))
    return tuple(nodes), emitted, negative


def _definition_cases():
    # shape_grid with every node pair, and the rank 8 gamma with its
    # word's pairs
    cases = [(lam, gamma, tuple(itertools.combinations(range(1, len(lam) + 1), 2)))
             for lam, gamma in shape_grid()]
    cases.append((weight_of(RANK8_WORD), RANK8_GAMMA, consecutive_pairs(RANK8_WORD)))
    return cases


def test_build_polytope_matches_definition():
    for lam, gamma, pairs in _definition_cases():
        for parts in all_multipartitions(gamma):
            nodes, emitted, negative = _polytope_by_definition(parts, lam, pairs)
            spec = build_polytope(parts, lam, pairs)
            assert (spec.nodes, spec.pairs) == (nodes, emitted), (parts, lam)
            assert spec.K == _K_by_definition(parts, lam), (parts, lam)
            if negative:
                # a negative capacity, occupied depth or not, empties the
                # polytope at every level bound
                level_zero = PolytopeSpec(spec.nodes, spec.pairs)
                assert not count_by_grade(level_zero, sum(gamma)), (parts, lam)
                assert not count_by_grade_ie(level_zero, sum(gamma)), (parts, lam)


def test_count_by_grade_matches_the_recount_at_every_level_bound():
    # count_by_grade against the inclusion-exclusion recount on every
    # multipartition of the definition cases, at every level bound from
    # 0 to |gamma|.  The recount at level bound |gamma| holds every
    # point up to it: at K = 0 a point of level L has grade |gamma| - L,
    # and the recount at a smaller bound keeps the points of level <=
    # bound
    counted = 0
    for lam, gamma, pairs in _definition_cases():
        height = sum(gamma)
        for parts in all_multipartitions(gamma):
            spec = build_polytope(parts, lam, pairs)
            spec = PolytopeSpec(spec.nodes, spec.pairs)
            levels = {height - p: c for p, c in count_by_grade_ie(spec, height).coeffs.items()}
            for bound in range(height + 1):
                expected = QPolynomial({bound - lvl: c for lvl, c in levels.items()
                                        if lvl <= bound})
                assert count_by_grade(spec, bound) == expected, (parts, lam, bound)
                counted += bool(expected)
    assert counted


def test_build_polytope_validation():
    with pytest.raises(ValueError):
        build_polytope(((1,),), (1, 1), ())
    # a reversed pair, a node 0 and a node past n are misread pairs,
    # not vacuous ones, and a pair spans two distinct nodes
    for pair in ((2, 1), (0, 1), (1, 5), (1, 1)):
        with pytest.raises(ValueError):
            build_polytope(((1,), (1,)), (1, 1), [pair])


def _K_by_definition(parts, lam):
    # sum over nodes of sum_j (2 j mu_i^j - mu_{i+1}(mu_i^j)) - lam_i d(mu_i)
    n = len(lam)
    total = 0
    for i in range(n):
        nxt = parts[i + 1] if i < n - 1 else ()
        total += sum(2 * j * part - sum(min(p, part) for p in nxt)
                     for j, part in enumerate(parts[i], start=1))
        total -= lam[i] * len(parts[i])
    return total


def _multiplicity_by_definition(word, gamma):
    # every multipartition with no negative capacity, its polytope and K
    # written out from the definitions, recounted by inclusion-exclusion
    lam = weight_of(word)
    pairs = consecutive_pairs(word)
    total = QPolynomial()
    for parts in all_multipartitions(gamma):
        nodes, emitted, negative = _polytope_by_definition(parts, lam, pairs)
        if not negative:
            spec = PolytopeSpec(nodes, emitted, K=_K_by_definition(parts, lam))
            total = total + count_by_grade_ie(spec, sum(gamma))
    return total


def test_cached_node_terms_follow_the_weight():
    # node_terms is process-wide; a weight that differs at one node must
    # not read another weight's entries, in either order.  The two words
    # have weights (1,1,1,1) and (1,0,1,1)
    gamma = (2, 3, 3, 2)
    weights = [(1, 1, 1, 1), (1, 2, 1, 1)]
    words = [words_on_nodes(4, nodes)[0] for nodes in ((1, 2, 3, 4), (1, 3, 4))]
    gammas = [(1, 1, 1, 1), (1, 2, 2, 1), gamma]
    expected = {(word, g): _multiplicity_by_definition(word, g)
                for word in words for g in gammas}
    assert sum(1 for poly in expected.values() if poly) == 3
    for order in (1, -1):
        node_terms.cache_clear()
        for lam in weights[::order]:
            for parts in all_multipartitions(gamma):
                nodes, _, _ = _polytope_by_definition(parts, lam, ())
                assert build_polytope(parts, lam).nodes == nodes, (parts, lam)
                assert compute_K(parts, lam) == _K_by_definition(parts, lam), (parts, lam)
        node_terms.cache_clear()
        for word in words[::order]:
            for g in gammas:
                assert multiplicity(word, g) == expected[word, g], (word, g)

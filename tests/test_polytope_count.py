"""Tests for the lattice point counting layer.

The rank 8 running example is checked shape by shape, multiplicity is
compared on a word grid with the inclusion-exclusion recount summed over
the same pruned polytopes, and the DFS in count_levels is checked
against a brute force reference and, on random tables, against the
inclusion-exclusion recount.
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
    count_by_grade_ie,
    count_levels,
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
    assert spec.pair_sets == ()
    positive = [g for g in spec.groups if g[2] > 0]
    assert positive == [((2, 5), 1, 1)]
    assert sum(size for _, size, _ in spec.groups) == 11
    K = compute_K(MU_A, lam)
    assert K == 13
    assert count_by_grade(spec, 18, K) == QPolynomial({4: 1, 5: 1})


def test_rank8_shape_b_polytope():
    lam = weight_of(RANK8_WORD)
    pairs = consecutive_pairs(RANK8_WORD)
    spec = build_polytope(MU_B, lam, pairs)
    assert spec.pair_sets == ((1, 4), (4, 7), (7, 11), (11, 13, 14))
    K = compute_K(MU_B, lam)
    assert K == 10
    assert count_by_grade(spec, 18, K) == QPolynomial({4: 1})
    assert count_by_grade_ie(spec, 18, K) == QPolynomial({4: 1})


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
        total = total + count_by_grade_ie(spec, sum(gamma), compute_K(parts, lam))
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
            K = compute_K(parts, lam)
            got = count_by_grade(spec, sum(gamma), K)
            assert got == count_by_grade_ie(spec, sum(gamma), K), (word, gamma, parts)
            empty += not got
            nonempty += bool(got)
    assert empty and nonempty and outside


def test_strategies_agree_on_rank8_example():
    assert _multiplicity_ie(RANK8_WORD, RANK8_GAMMA) == QPolynomial({4: 2, 5: 1})


# -------------------------------------------------------------- count_levels

def _brute_levels(sizes, caps, pair_sets, max_level):
    # direct enumeration over the variable box, small inputs only
    weights = []
    group_of = []
    for g, m in enumerate(sizes):
        for d in range(1, m + 1):
            weights.append(d)
            group_of.append(g)
    hist = [0] * (max_level + 1)
    for point in itertools.product(range(max_level + 1), repeat=len(weights)):
        level = sum(v * w for v, w in zip(point, weights))
        if level > max_level:
            continue
        used = [0] * len(sizes)
        for v, g in zip(point, group_of):
            used[g] += v
        if any(u > c for u, c in zip(used, caps)):
            continue
        if any(all(point[v] == 0 for v in s) for s in pair_sets):
            continue
        hist[level] += 1
    return hist


def _random_tables(rng, count=200):
    for _ in range(count):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        caps = [rng.randint(-1, 4) for _ in sizes]
        nvars = sum(sizes)
        pair_sets = []
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, min(3, nvars))
            pair_sets.append(sorted(rng.sample(range(nvars), k)))
        yield sizes, caps, pair_sets, rng.randint(0, 8)


def test_count_levels_matches_brute_force():
    rng = random.Random(7)
    for _ in range(120):
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        caps = [rng.randint(0, 3) for _ in sizes]
        nvars = sum(sizes)
        pair_sets = []
        if rng.random() < 0.6:
            k = rng.randint(1, min(2, nvars))
            pair_sets.append(sorted(rng.sample(range(nvars), k)))
        max_level = rng.randint(0, 4)
        got = count_levels(sizes, caps, pair_sets, max_level)
        assert got == _brute_levels(sizes, caps, pair_sets, max_level)


def test_count_levels_edge_cases():
    with pytest.raises(ValueError):
        count_levels([1], [1], [], -1)
    # an empty constraint can never be satisfied
    assert count_levels([2], [2], [[]], 3) == [0, 0, 0, 0]
    assert count_levels([], [], [[]], 0) == [0]
    assert count_levels([], [], [], 1) == [1, 0]
    # negative capacity rejects every assignment, including zero
    assert count_levels([1], [-1], [], 2) == [0, 0, 0]
    assert count_levels([1], [2], [], 3) == [1, 1, 1, 0]


def test_count_levels_rules_out_constraints_without_usable_variable():
    # tables on which the no-usable-variable rule fires, or nearly does;
    # variable indices: group 0 = 0, 1, 2 (weights 1..3), group 1 = 3, 4
    cases = [
        # every variable of the constraint heavier than max_level
        ([3, 2], [2, 2], [[2]], 2),
        ([3, 2], [2, 2], [[1, 2, 4]], 1),
        ([3, 2], [2, 2], [[0, 3]], 0),
        # zero and negative caps
        ([3, 2], [0, 2], [[0, 1]], 4),
        ([3, 2], [-1, 3], [[0, 2]], 4),
        ([3, 2], [2, 0], [[3], [0]], 4),
        ([3, 2], [2, -2], [[3, 4]], 4),
        # repeated indices
        ([3, 2], [2, 2], [[2, 2, 2]], 2),
        ([3, 2], [2, 2], [[1, 1], [3, 3]], 3),
        ([3, 2], [0, 2], [[0, 0, 4, 4]], 3),
        # one usable variable among unusable ones
        ([3, 2], [0, 1], [[0, 1, 3, 4], [2, 3]], 3),
        ([3, 2], [2, 0], [[2, 3, 4, 0]], 1),
        # usable variables in both constraints, yet empty: the rule is
        # not exact, so the walk must still find no point
        ([3, 2], [1, 1], [[2, 4], [1, 3]], 2),
        # a second constraint hopeless while the first is usable
        ([3, 2], [2, 2], [[0, 3], [2, 4]], 1),
    ]
    empty = 0
    for sizes, caps, pair_sets, max_level in cases:
        got = count_levels(sizes, caps, pair_sets, max_level)
        assert got == _brute_levels(sizes, caps, pair_sets, max_level), \
            (sizes, caps, pair_sets, max_level)
        empty += not any(got)
    assert empty == 10


def test_count_levels_rejects_tables_it_would_misread():
    with pytest.raises(ValueError):
        count_levels([1, 1], [2], [], 2)
    with pytest.raises(ValueError):
        count_levels([1], [2, 2], [], 2)
    # an index from the end would silently read the last variable
    with pytest.raises(ValueError):
        count_levels([1, 1], [2, 2], [[-1]], 2)
    with pytest.raises(ValueError):
        count_levels([1, 1], [2, 2], [[2]], 2)
    # checked in every constraint, also after a hopeless one
    with pytest.raises(ValueError):
        count_levels([1, 1], [0, 0], [[0], [5]], 2)
    with pytest.raises(ValueError):
        count_levels([1, 1], [2, 2], [[0.5]], 2)
    # a negative size would make the group ends go backwards
    with pytest.raises(ValueError):
        count_levels([2, -1, 1], [2, 2, 2], [[0]], 2)


def test_count_levels_matches_inclusion_exclusion():
    rng = random.Random(20260822)
    for sizes, caps, pair_sets, max_level in _random_tables(rng):
        groups = [((1, g + 1), size, cap) for g, (size, cap) in enumerate(zip(sizes, caps))]
        spec = PolytopeSpec(groups, pair_sets)
        assert count_by_grade(spec, max_level, 0) == count_by_grade_ie(spec, max_level, 0), \
            (sizes, caps, pair_sets, max_level)


# ----------------------------------------------------------- edge behavior

def test_count_by_grade_degenerate_cases():
    spec = build_polytope(((1,), ()), (3, 1), ())
    # height below K gives an empty polynomial
    assert not count_by_grade(spec, 0, 3)
    assert not count_by_grade_ie(spec, 0, 3)
    assert count_by_grade(spec, 1, 0) == QPolynomial({0: 1, 1: 1})
    # a sized group with negative capacity admits no point at all
    bad = build_polytope(((1,), ()), (1, 1), ())
    assert bad.groups == (((1, 1), 1, -1),)
    assert not count_by_grade(bad, 18, 0)
    assert not count_by_grade_ie(bad, 18, 0)


def _polytope_by_definition(parts, lam, pairs):
    # groups, pair sets and whether some capacity is negative, written
    # out from the definitions: one group per depth
    # 1 <= r <= |mu_i| with a row of length r, its cap from
    # col(mu, s) = sum(min(p, s)), and one pair set per pair whose nodes
    # all have a length 1 row
    def col(mu, s):
        return sum(min(p, s) for p in mu)

    n = len(lam)
    groups = []
    start_of = {}
    flat = 0
    negative = False
    for i in range(1, n + 1):
        mu = parts[i - 1]
        prev = parts[i - 2] if i >= 2 else ()
        nxt = parts[i] if i <= n - 1 else ()
        for r in range(1, sum(mu) + 1):
            size = sum(1 for p in mu if p == r)
            cap = lam[i - 1] - 2 * col(mu, r) + col(prev, r) + col(nxt, r)
            if size:
                start_of[(r, i)] = flat
                groups.append(((r, i), size, cap))
                flat += size
            negative = negative or cap < 0
    pair_sets = []
    for a, b in pairs:
        nodes = range(a, b + 1)
        if all((1, t) in start_of for t in nodes):
            pair_sets.append(tuple(start_of[(1, t)] + parts[t - 1].count(1) - 1
                                   for t in nodes))
    return tuple(groups), tuple(pair_sets), negative


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
            groups, pair_sets, negative = _polytope_by_definition(parts, lam, pairs)
            spec = build_polytope(parts, lam, pairs)
            assert (spec.groups, spec.pair_sets) == (groups, pair_sets), (parts, lam)
            if negative:
                # a negative capacity, occupied depth or not, empties the
                # polytope at every level bound
                assert not count_by_grade(spec, sum(gamma), 0), (parts, lam)
                assert not count_by_grade_ie(spec, sum(gamma), 0), (parts, lam)


def _floor_by_definition(spec):
    # the largest, over the pair sets, of the least weight d of a
    # variable whose group cap is at least 1, read from spec.groups
    weight_cap = [(d, cap) for _, size, cap in spec.groups for d in range(1, size + 1)]
    return max((min((weight_cap[v][0] for v in varset if weight_cap[v][1] >= 1),
                    default=math.inf)
                for varset in spec.pair_sets), default=0)


def test_build_polytope_floor_matches_definition():
    # the floor bounds the level of every admissible point from below,
    # so no point lies under it, and count_by_grade, which skips the
    # walk below it, counts every level bound exactly.  The recount at
    # level bound |gamma| holds every point up to it: at K = 0 a point
    # of level L has grade |gamma| - L, and the recount at a smaller
    # bound keeps the points of level <= bound
    skipped = counted = 0
    for lam, gamma, pairs in _definition_cases():
        height = sum(gamma)
        for parts in all_multipartitions(gamma):
            spec = build_polytope(parts, lam, pairs)
            assert spec.floor == _floor_by_definition(spec), (parts, lam)
            levels = {height - p: c for p, c in count_by_grade_ie(spec, height, 0).coeffs.items()}
            assert min(levels, default=math.inf) >= spec.floor, (parts, lam)
            for bound in range(height + 1):
                expected = QPolynomial({bound - lvl: c for lvl, c in levels.items()
                                        if lvl <= bound})
                assert count_by_grade(spec, bound, 0) == expected, (parts, lam, bound)
                skipped += bound < spec.floor
                counted += bool(expected)
    assert skipped and counted


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
        groups, pair_sets, negative = _polytope_by_definition(parts, lam, pairs)
        if not negative:
            total = total + count_by_grade_ie(PolytopeSpec(groups, pair_sets), sum(gamma),
                                              _K_by_definition(parts, lam))
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
                groups, _, _ = _polytope_by_definition(parts, lam, ())
                assert build_polytope(parts, lam).groups == groups, (parts, lam)
                assert compute_K(parts, lam) == _K_by_definition(parts, lam), (parts, lam)
        node_terms.cache_clear()
        for word in words[::order]:
            for g in gammas:
                assert multiplicity(word, g) == expected[word, g], (word, g)

"""Tests for the type A root and weight helpers."""

import itertools
import re
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

from hldecomp.functional_oracle import (conditions, dim_V, grade_window,
                                        oracle_decomposition, oracle_multiplicity)
from hldecomp.hl_category import weight_of, xi_from_weight
from hldecomp.multipartition import compute_K, enumerate_multipartitions
from hldecomp.polytope_count import build_polytope
from hldecomp.root_system import (
    check_node_pairs,
    check_rank,
    check_weight,
    check_weight_of_its_rank,
    dominant_gamma_bounds,
    e_gamma,
    enumerate_dominant_gammas,
    gamma_domain,
    gamma_height,
    is_dominant,
    pairing,
    positive_roots,
    weight_minus_gamma,
    weyl_dim,
)
from hldecomp.weyl_characters import weight_multiplicities

from conftest import live_paths, word_grid, words_on_nodes


def test_check_rank():
    assert check_rank(1) == 1
    assert check_rank(8) == 8
    for bad in (0, -3, True, False, "2", 1.5):
        with pytest.raises(ValueError):
            check_rank(bad)


def test_positive_roots_small():
    assert positive_roots(1) == [(1, 1)]
    assert positive_roots(2) == [(1, 1), (1, 2), (2, 2)]
    for n in range(1, 8):
        roots = positive_roots(n)
        assert len(roots) == n * (n + 1) // 2
        assert all(1 <= i <= j <= n for i, j in roots)


def test_pairing_on_fundamental_weights():
    for n in range(1, 6):
        for i in range(1, n + 1):
            w = tuple(int(k == i) for k in range(1, n + 1))
            for a, b in positive_roots(n):
                assert pairing(w, (a, b)) == (1 if a <= i <= b else 0)


def test_pairing_rejects_bad_roots():
    with pytest.raises(ValueError):
        pairing((1, 1), (1, 3))
    with pytest.raises(ValueError):
        pairing((1, 1), (0, 1))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.data())
def test_pairing_is_additive_over_the_interval(lam, data):
    n = len(lam)
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(i, n))
    assert pairing(lam, (i, j)) == sum(pairing(lam, (t, t)) for t in range(i, j + 1))


def test_weyl_dim_of_fundamentals_is_binomial():
    for n in range(1, 9):
        for i in range(1, n + 1):
            omega = tuple(int(k == i) for k in range(1, n + 1))
            assert weyl_dim(n, omega) == comb(n + 1, i)


def test_weyl_dim_known_values():
    assert weyl_dim(1, (0,)) == 1
    assert weyl_dim(1, (1,)) == 2
    assert weyl_dim(1, (2,)) == 3
    assert weyl_dim(2, (1, 1)) == 8
    assert weyl_dim(3, (1, 0, 1)) == 15
    assert weyl_dim(3, (1, 1, 1)) == 64


def _weyl_dim_by_definition(n, mu):
    # product over the positive roots (i, j) of
    # (<mu, (i, j)> + j - i + 1) / (j - i + 1)
    return prod(Fraction(pairing(mu, (i, j)) + j - i + 1, j - i + 1)
                for i, j in positive_roots(n))


def test_weyl_dim_matches_the_product_over_roots():
    small = [mu for n in range(1, 4) for mu in itertools.product(range(4), repeat=n)]
    # every lam - gamma of the rank 12 benchmark weight, the 400 weights
    # of its nonzero entries among them
    lam = weight_of(words_on_nodes(12, (1, 3, 5, 7, 9, 11, 12))[0])
    rank12 = [weight_minus_gamma(lam, g) for g in enumerate_dominant_gammas(lam)]
    assert len(small) == 84 and len(rank12) == 634
    for mu in small + rank12:
        assert weyl_dim(len(mu), mu) == _weyl_dim_by_definition(len(mu), mu), mu


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(2, (1, -1))
    with pytest.raises(ValueError):
        weyl_dim(2, (1,))


def _full_oracle(n, lam):
    # xi = 1 on every root of lam's rank, so only the weight can be at fault
    xi = dict.fromkeys(positive_roots(len(lam)), 1) if lam else {}
    return oracle_decomposition(lam=lam, mode="full", xi=xi)


_WEIGHT_RULES = {
    "check_weight": check_weight,
    "check_weight_of_its_rank": lambda n, lam: check_weight_of_its_rank(lam),
    "weyl_dim": weyl_dim,
    "weight_multiplicities": weight_multiplicities,
    "enumerate_dominant_gammas": lambda n, lam: enumerate_dominant_gammas(lam),
    # a given gamma whose own check passes, so only the weight can be at fault
    "gamma_domain": lambda n, lam: gamma_domain(lam, [(0,) * len(lam)]),
    "oracle_decomposition": _full_oracle,
    # the dual entry points check lam in `conditions`, before a pole
    # table is built from it (one once refused (-2,) for a pole depth
    # nobody gave, or answered an empty window or a zero polynomial)
    "conditions": lambda n, lam: conditions(lam, (1,) * len(lam), {}),
    "dim_V": lambda n, lam: dim_V(lam, (1,) * len(lam), 0, {}),
    "grade_window": lambda n, lam: grade_window(lam, (1,) * len(lam), {}),
    "oracle_multiplicity": lambda n, lam: oracle_multiplicity(lam, (1,) * len(lam), {}),
    "xi_from_weight": lambda n, lam: xi_from_weight(lam),
    # the lattice entry points, on one box per node (one refused nothing:
    # compute_K(((1,),), (1.5,)) returned 0.5, the search with that
    # weight listed nothing and build_polytope built a spec)
    "enumerate_multipartitions": lambda n, lam: enumerate_multipartitions((1,) * len(lam), lam),
    "build_polytope": lambda n, lam: build_polytope(((1,),) * len(lam), lam),
    "compute_K": lambda n, lam: compute_K(((1,),) * len(lam), lam),
}
_BAD_WEIGHTS = [
    (2, (7, -5), "weight must be dominant, got (7, -5)"),
    (1, (-2,), "weight must be dominant, got (-2,)"),
    (0, (), "rank must be a positive integer, got 0"),
    (2, (1, 1, 1), "weight has rank 3, expected 2"),
    # a fractional or boolean entry is refused, not truncated
    (2, (1.5, 0), "weight must hold integers, got (1.5, 0)"),
    (2, (True, 0), "weight must hold integers, got (True, 0)"),
    (1, (1.5,), "weight must hold integers, got (1.5,)"),
]


@pytest.mark.parametrize("name, n, lam, message", [
    pytest.param(name, n, lam, message, id="%s-%r" % (name, lam))
    for n, lam, message in _BAD_WEIGHTS for name in _WEIGHT_RULES
    # the others read the rank off lam, so no rank can disagree with it
    if len(lam) == n or name in ("check_weight", "weyl_dim", "weight_multiplicities")
])
def test_each_bad_weight_gets_the_message_of_check_weight(name, n, lam, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _WEIGHT_RULES[name](n, lam)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: check_weight_of_its_rank(5), id="check_weight_of_its_rank"),
    pytest.param(lambda: xi_from_weight(5), id="xi_from_weight"),
    pytest.param(lambda: enumerate_dominant_gammas(5), id="enumerate_dominant_gammas"),
    pytest.param(lambda: gamma_domain(5, None), id="gamma_domain"),
    pytest.param(lambda: dim_V(5, (1,), 0, {}), id="dim_V"),
    pytest.param(lambda: grade_window(5, (1,), {}), id="grade_window"),
    pytest.param(lambda: oracle_multiplicity(5, (1,), {}), id="oracle_multiplicity"),
    pytest.param(lambda: enumerate_multipartitions((1,), 5), id="enumerate_multipartitions"),
    pytest.param(lambda: build_polytope(((1,),), 5), id="build_polytope"),
    pytest.param(lambda: compute_K(((1,),), 5), id="compute_K"),
])
def test_a_weight_that_is_no_sequence_is_refused_by_name(call):
    # these read the rank off the weight, which must be refused before
    # its length is taken (each raised a TypeError that named no input)
    message = "weight must be a sequence of integers, got 5"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_check_weight_returns_a_tuple():
    assert check_weight(3, [1, 0, 2]) == (1, 0, 2)
    assert check_weight_of_its_rank([1, 0, 2]) == (1, 0, 2)


def test_checked_node_pairs_are_checked_again_only_at_another_rank():
    # the tuple check_node_pairs returns passes again at its own rank
    # without a second check, but not at a smaller rank, and an equal
    # tuple that it did not return is checked in full: (1.0, 5) equals
    # (1, 5) and must still be refused
    checked = check_node_pairs(5, [(1, 5), (2, 3)])
    assert checked == ((1, 5), (2, 3))
    assert check_node_pairs(5, checked) is checked
    message = "pair (1, 5) is not two nodes 1 <= a < b <= 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_node_pairs(3, checked)
    with pytest.raises(ValueError, match=re.escape("pair must hold integers, got (1.0, 5)")):
        check_node_pairs(5, ((1.0, 5),))
    assert check_node_pairs(6, checked) == checked


def test_weight_minus_simple_roots():
    # subtracting alpha_i shifts by a Cartan matrix row
    lam = (3, 3, 3)
    assert weight_minus_gamma(lam, (0, 0, 0)) == lam
    assert weight_minus_gamma(lam, (1, 0, 0)) == (1, 4, 3)
    assert weight_minus_gamma(lam, (0, 1, 0)) == (4, 1, 4)
    assert weight_minus_gamma(lam, (0, 0, 1)) == (3, 4, 1)
    with pytest.raises(ValueError):
        weight_minus_gamma(lam, (1, 0))


@given(st.integers(1, 5), st.data())
def test_weight_minus_gamma_is_additive(n, data):
    lam = tuple(data.draw(st.integers(0, 4)) for _ in range(n))
    g1 = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    g2 = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    both = tuple(a + b for a, b in zip(g1, g2))
    stepwise = weight_minus_gamma(weight_minus_gamma(lam, g1), g2)
    assert weight_minus_gamma(lam, both) == stepwise


def test_heights():
    assert gamma_height((1, 3, 4)) == 8
    assert e_gamma((1, 3, 4)) == 3 + 12
    assert e_gamma((2,)) == 0


def test_live_paths_corners():
    def succ(i, prev, cur):
        return [cur] if cur else []
    # n = 1: the last node's successors decide alone, in firsts order
    assert live_paths(1, 0, [2, 0, 1], succ) == [(2,), (1,)]
    assert live_paths(3, 0, [], succ) == []
    # a last node that rejects everything leaves no path
    assert live_paths(3, 0, [1, 2], lambda i, prev, cur: [0, 1, 2] if i < 3 else ()) == []


_ALPHABET = range(3)


@given(st.integers(1, 4), st.data())
def test_live_paths_matches_filtered_product(n, data):
    # a drawn successor table over a 3-letter alphabet, start -1; the
    # reference keeps the product's sequences that follow the table and
    # orders them by the position of each choice
    start = -1
    choice_lists = st.lists(st.sampled_from(_ALPHABET), unique=True)
    firsts = data.draw(choice_lists)
    keys = [(1, start, cur) for cur in _ALPHABET]
    keys += itertools.product(range(2, n + 1), _ALPHABET, _ALPHABET)
    table = dict(zip(keys, data.draw(st.lists(choice_lists, min_size=len(keys),
                                              max_size=len(keys)))))
    calls = []

    def successors(i, prev, cur):
        calls.append((i, prev, cur))
        return table[i, prev, cur]

    def choices(path):
        steps = [(i, path[i - 2] if i > 1 else start, path[i - 1]) for i in range(1, n + 1)]
        if path[0] not in firsts or not table[steps[-1]]:
            return None
        pos = [firsts.index(path[0])]
        for key, nxt in zip(steps, path[1:]):
            if nxt not in table[key]:
                return None
            pos.append(table[key].index(nxt))
        return pos

    keep = {path: choices(path) for path in itertools.product(_ALPHABET, repeat=n)}
    expected = sorted((path for path, pos in keep.items() if pos is not None), key=keep.get)
    assert live_paths(n, start, firsts, successors) == expected
    assert len(calls) == len(set(calls))


def _dominant_gammas_by_box(lam, slack=0):
    n = len(lam)
    box = [b + slack for b in dominant_gamma_bounds(lam)]
    out = []
    for gamma in itertools.product(*[range(b + 1) for b in box]):
        if is_dominant(weight_minus_gamma(lam, gamma)):
            out.append(gamma)
    return sorted(out, key=lambda g: (sum(g), g))


def test_enumerate_dominant_gammas_matches_box_search():
    # every lam in {0,1,2}^n for n <= 4, and the weights of the words of
    # rank <= 6 with <= 3 factors, against the full box of bounds
    weights = [lam for n in range(1, 5) for lam in itertools.product(range(3), repeat=n)]
    weights += sorted({weight_of(word) for word in word_grid(6, 3)})
    for lam in weights:
        assert enumerate_dominant_gammas(lam) == _dominant_gammas_by_box(lam), lam
    # the rank 12 benchmark weight is too big for the box; check the
    # list's own properties instead
    lam = (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1)
    gammas = enumerate_dominant_gammas(lam)
    assert len(gammas) == len(set(gammas)) == 634
    assert all(is_dominant(weight_minus_gamma(lam, gamma)) for gamma in gammas)
    assert gammas == sorted(gammas, key=lambda g: (sum(g), g))


def test_dominant_gamma_bounds_dominate():
    # widen the box; nothing dominant may appear outside the bounds
    for lam in [(2,), (2, 2), (1, 1, 1), (0, 2, 0)]:
        bounds = dominant_gamma_bounds(lam)
        for gamma in _dominant_gammas_by_box(lam, slack=2):
            assert all(g <= b for g, b in zip(gamma, bounds))


def test_enumerate_dominant_gammas_corners():
    assert enumerate_dominant_gammas((0, 0)) == [(0, 0)]
    gs = enumerate_dominant_gammas((1, 1))
    assert gs[0] == (0, 0)
    assert (1, 1) in gs
    heights = [sum(g) for g in gs]
    assert heights == sorted(heights)
    with pytest.raises(ValueError):
        enumerate_dominant_gammas((1, -1))


def test_enumerate_dominant_gammas_rejects_empty_weight():
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        enumerate_dominant_gammas(())


def test_enumerate_dominant_gammas_all_results_dominant():
    for lam in [(3, 0, 2), (0, 1, 1, 1)]:
        for gamma in enumerate_dominant_gammas(lam):
            assert is_dominant(weight_minus_gamma(lam, gamma))

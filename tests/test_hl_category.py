"""Tests for height functions, words and their translations."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from hldecomp.functional_oracle import oracle_decomposition
from hldecomp.hl_category import (
    DrinfeldWord,
    FlatEdgeInJ,
    InvalidWord,
    check_depths,
    check_height_function,
    check_interval,
    consecutive_pairs,
    is_normalized,
    marked_vertices,
    normalize_xi,
    pi_from_interval,
    pi_to_height_interval,
    validate_word,
    weight_of,
    xi_from_weight,
)
from hldecomp.root_system import check_gamma, check_weight, pairing, positive_roots

from conftest import word_grid


def test_check_height_function():
    assert check_height_function([0, 1, 0]) == (0, 1, 0)
    with pytest.raises(ValueError):
        check_height_function([0, 2])
    with pytest.raises(ValueError):
        check_height_function([])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: DrinfeldWord(3, [(1, 0.9), (2, 3.7)]),
                 "word factor must hold integers, got (1, 0.9)", id="word"),
    pytest.param(lambda: DrinfeldWord(3, [(True, 0)]),
                 "word factor must hold integers, got (True, 0)", id="word-bool"),
    pytest.param(lambda: validate_word([(1, 0), (3, 4.0)]),
                 "word factor must hold integers, got (3, 4.0)", id="validate_word"),
    pytest.param(lambda: check_height_function([0.5, 1.9, 2.2]),
                 "height function must hold integers, got (0.5, 1.9, 2.2)", id="kappa"),
    pytest.param(lambda: pi_from_interval([0, 1.5, 0], (1, 3)),
                 "height function must hold integers, got (0, 1.5, 0)", id="pi_from_interval"),
    pytest.param(lambda: check_interval((1.5, 2), 3),
                 "interval must hold integers, got (1.5, 2)", id="interval"),
    pytest.param(lambda: marked_vertices((0, 1, 2), (1, False)),
                 "interval must hold integers, got (1, False)", id="interval-bool"),
])
def test_non_integer_inputs_are_refused(call, message):
    # int() would truncate each of these into a different valid input
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: check_interval((1, 2, 3), 3),
                 "interval must be a pair, got (1, 2, 3)", id="interval"),
    pytest.param(lambda: check_interval((1,), 3),
                 "interval must be a pair, got (1,)", id="interval-one"),
    pytest.param(lambda: DrinfeldWord(3, [(1, 0, 3)]),
                 "word factor must be a pair, got (1, 0, 3)", id="word"),
    pytest.param(lambda: DrinfeldWord(3, [(1, 0), (3,)]),
                 "word factor must be a pair, got (3,)", id="word-one"),
    pytest.param(lambda: validate_word([(1, 0, 3)]),
                 "word factor must be a pair, got (1, 0, 3)", id="validate_word"),
    pytest.param(lambda: validate_word([(1,)]),
                 "word factor must be a pair, got (1,)", id="validate_word-one"),
    pytest.param(lambda: pairing((1, 1), (1, 2, 3)),
                 "root must be a pair, got (1, 2, 3)", id="pairing"),
    pytest.param(lambda: pairing((1, 1), (1,)),
                 "root must be a pair, got (1,)", id="pairing-one"),
])
def test_pairs_of_the_wrong_length_are_refused(call, message):
    # unpacked unchecked, these raised "too many (or not enough) values
    # to unpack", which names no input
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: DrinfeldWord(3, [1, 2]),
                 "word factor must be a sequence of integers, got 1", id="word"),
    pytest.param(lambda: check_interval(3, 3),
                 "interval must be a sequence of integers, got 3", id="interval"),
    pytest.param(lambda: check_weight(2, 5),
                 "weight must be a sequence of integers, got 5", id="weight"),
    pytest.param(lambda: check_gamma((1, 1), 3),
                 "gamma must be a sequence of integers, got 3", id="gamma"),
])
def test_non_iterable_inputs_are_refused(call, message):
    # tuple() of these raised "'int' object is not iterable", which names
    # no input
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_marked_vertices_monotone():
    # monotone slope: one sink at the bottom, one source at the top
    assert marked_vertices((0, 1, 2), (1, 3)) == ((1,), (3,))
    assert marked_vertices((2, 1, 0), (1, 3)) == ((3,), (1,))


def test_marked_vertices_valley():
    assert marked_vertices((2, 1, 2), (1, 3)) == ((2,), (1, 3))


def test_marked_vertices_single_node():
    # a one-node interval is a sink regardless of its neighbours
    assert marked_vertices((0, 1, 0), (2, 2)) == ((2,), ())


def test_marked_vertices_flat_edge():
    with pytest.raises(FlatEdgeInJ):
        marked_vertices((5, 5), (1, 2))
    # the flat edge only matters inside the interval
    assert marked_vertices((5, 5, 4), (2, 3)) == ((3,), (2,))


def _marked_by_definition(kappa, lo, hi):
    """Sinks and sources straight from the definition: a node of J whose
    neighbours inside J all lie strictly above it is a strict local
    minimum (a sink), one whose neighbours all lie strictly below it a
    strict local maximum (a source), and a single-node interval is a
    sink.  None if kappa has a flat edge inside J."""
    if any(kappa[t - 1] == kappa[t] for t in range(lo, hi)):
        return None
    if lo == hi:
        return (lo,), ()
    sinks, sources = [], []
    for i in range(lo, hi + 1):
        around = [kappa[j - 1] for j in (i - 1, i + 1) if lo <= j <= hi]
        if min(around) > kappa[i - 1]:
            sinks.append(i)
        if max(around) < kappa[i - 1]:
            sources.append(i)
    return tuple(sinks), tuple(sources)


def test_marked_vertices_match_definition():
    # every height function with values in -2..2 on up to five nodes,
    # restricted to every interval
    checked = 0
    for n in range(1, 6):
        for kappa in itertools.product(range(-2, 3), repeat=n):
            if any(abs(a - b) > 1 for a, b in zip(kappa, kappa[1:])):
                continue
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    want = _marked_by_definition(kappa, lo, hi)
                    if want is None:
                        with pytest.raises(FlatEdgeInJ):
                            marked_vertices(kappa, (lo, hi))
                    else:
                        assert marked_vertices(kappa, (lo, hi)) == want, (kappa, lo, hi)
                    checked += 1
    assert checked > 1000


def test_marked_vertices_interval_range():
    with pytest.raises(ValueError):
        marked_vertices((0, 1, 0), (0, 2))
    with pytest.raises(ValueError):
        marked_vertices((0, 1, 0), (2, 4))
    with pytest.raises(ValueError):
        marked_vertices((0, 1, 0), (3, 2))


def test_validate_word():
    assert validate_word([(1, 0), (3, 4)]) == []
    assert validate_word([(1, 4), (2, 1), (3, 4)]) == []
    problems = validate_word([(1, 0), (2, 1)])
    assert len(problems) == 1 and "exponent step" in problems[0]
    problems = validate_word([(1, 0), (2, 3), (3, 6)])
    assert any("alternate" in p for p in problems)
    problems = validate_word([(2, 0), (2, 3)])
    assert any("strictly increasing" in p for p in problems)


def test_word_construction():
    w = DrinfeldWord(3, [(1, 0), (3, 4)])
    assert w.nodes() == (1, 3)
    assert w == DrinfeldWord(3, [(1, 0), (3, 4)])
    assert w != DrinfeldWord(4, [(1, 0), (3, 4)])
    assert len({w, DrinfeldWord(3, [(1, 0), (3, 4)])}) == 1
    with pytest.raises(InvalidWord):
        DrinfeldWord(3, [(1, 0), (2, 1)])
    with pytest.raises(InvalidWord):
        DrinfeldWord(3, [])
    with pytest.raises(InvalidWord):
        DrinfeldWord(3, [(4, 0)])


def test_weight_and_pairs():
    w = DrinfeldWord(8, [(2, 0), (5, 5)])
    assert weight_of(w) == (0, 1, 0, 0, 1, 0, 0, 0)
    assert consecutive_pairs(w) == ((2, 5),)
    rank8 = DrinfeldWord(8, [(2, 0), (3, 3), (4, 0), (5, 3), (7, -1)])
    assert weight_of(rank8) == (0, 1, 1, 1, 1, 0, 1, 0)
    assert consecutive_pairs(rank8) == ((2, 3), (3, 4), (4, 5), (5, 7))


def test_pi_from_interval_examples():
    assert pi_from_interval((0, 1, 2), (1, 3)) == DrinfeldWord(3, [(1, 0), (3, 4)])
    assert pi_from_interval((2, 1, 2), (1, 3)) == \
        DrinfeldWord(3, [(1, 4), (2, 1), (3, 4)])
    assert pi_from_interval((0, 1, 0), (2, 2)) == DrinfeldWord(3, [(2, 1)])
    with pytest.raises(FlatEdgeInJ):
        pi_from_interval((5, 5), (1, 2))
    with pytest.raises(ValueError):
        pi_from_interval((0, 2, 1), (1, 3))


def test_single_factor_round_trip():
    w = DrinfeldWord(4, [(2, 5)])
    kappa, J = pi_to_height_interval(w)
    assert kappa == (5, 5, 5, 5)
    assert J == (2, 2)
    assert pi_from_interval(kappa, J) == w


@pytest.mark.parametrize("pi, kappa", [
    # a rising single segment continues past both ends
    ("2:0,4:4", (-1, 0, 1, 2, 3, 4, 5)),
    # left of J the first segment continues, right of J the last one
    ("3:0,4:3,6:-1", (-2, -1, 0, 1, 0, -1, -2)),
    ("4:0,5:-3", (1, 0, -1, -2, -3, -4, -5)),
])
def test_pi_to_height_interval_outside_the_interval(pi, kappa):
    factors = [tuple(int(v) for v in tok.split(":")) for tok in pi.split(",")]
    word = DrinfeldWord(7, factors)
    assert pi_to_height_interval(word) == (kappa, (factors[0][0], factors[-1][0]))


def test_unreachable_marked_values_raise():
    # construction validates words, so build one that bypasses it: the
    # marked values -2 (source at 1) and 0 (sink at 2) differ by 2 over
    # one edge
    bad = object.__new__(DrinfeldWord)
    bad.n = 2
    bad.factors = ((1, 0), (2, 0))
    with pytest.raises(ArithmeticError):
        pi_to_height_interval(bad)


def test_round_trip_on_word_grid():
    for word in word_grid(6, 3, starts=(-2, 0, 3)):
        kappa, J = pi_to_height_interval(word)
        assert J == (word.nodes()[0], word.nodes()[-1])
        assert pi_from_interval(kappa, J) == word


def test_alternating_heights_give_valid_words():
    # every strictly alternating height function restricts to a word on
    # every interval: construction must never raise
    for n in range(2, 6):
        for steps in itertools.product((-1, 1), repeat=n - 1):
            kappa = [0]
            for s in steps:
                kappa.append(kappa[-1] + s)
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    word = pi_from_interval(kappa, (lo, hi))
                    assert validate_word(word.factors) == []


def test_xi_from_weight():
    assert xi_from_weight((1, 1)) == {(1, 1): 1, (2, 2): 1, (1, 2): 1}
    assert xi_from_weight((0, 0)) == {(1, 1): 0, (2, 2): 0, (1, 2): 0}
    assert xi_from_weight((7, 5)) == {(1, 1): 4, (2, 2): 3, (1, 2): 6}


@given(st.lists(st.integers(0, 6), min_size=1, max_size=6))
def test_xi_from_weight_is_normalized(lam):
    xi = xi_from_weight(lam)
    assert set(xi) == set(positive_roots(len(lam)))
    assert is_normalized(len(lam), xi)


def test_normalize_xi():
    xi = {(1, 1): 5, (2, 2): 5, (1, 2): 1}
    out = normalize_xi(2, xi)
    assert out == {(1, 1): 1, (2, 2): 1, (1, 2): 1}
    assert normalize_xi(2, out) == out
    assert all(out[r] <= xi[r] for r in xi)
    assert not is_normalized(2, xi)
    with pytest.raises(ValueError):
        normalize_xi(2, {(1, 1): 1})


@pytest.mark.parametrize("xi, message", [
    ({(1, 1): 1}, "missing roots 1-2, 2-2"),
    ({(1, 1): 1, (1, 2): 1, (2, 2): 1, (3, 3): 1, (2, 1): 0},
     "roots 2-1, 3-3 out of range for rank 2"),
    ({(1, 1): 1, (1, 2): -2, (2, 2): -1},
     "pole depths must be nonnegative, got 1-2:-2, 2-2:-1"),
    ({(1, 1): 1.5, (1, 2): 1, (2, 2): True},
     "pole depths must be integers, got 1-1:1.5, 2-2:True"),
])
def test_normalize_xi_names_each_bad_root(xi, message):
    # is_normalized and full-mode oracle_decomposition take the same message
    with pytest.raises(ValueError, match=re.escape(message)):
        normalize_xi(2, xi)
    with pytest.raises(ValueError, match=re.escape(message)):
        is_normalized(2, xi)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_decomposition(lam=(2, 2), mode="full", xi=xi)


@pytest.mark.parametrize("key, message", [
    ((1,), "root must be a pair, got (1,)"),
    ((1, 2, 3), "root must be a pair, got (1, 2, 3)"),
    ("a", "root must hold integers, got ('a',)"),
])
def test_normalize_xi_refuses_a_key_that_is_not_a_pair(key, message):
    # next to the three roots of rank 2, the key is named in a
    # ValueError, not lost in a TypeError from formatting it as a root
    xi = {(1, 1): 1, (1, 2): 1, (2, 2): 1, key: 1}
    for call in (lambda: check_depths(2, xi), lambda: normalize_xi(2, xi),
                 lambda: oracle_decomposition(lam=(2, 2), mode="full", xi=xi)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_check_depths():
    # a partial map is fine: pair mode gives depths on some roots only
    check_depths(2, {})
    check_depths(3, {(1, 3): 0, (2, 2): 4})
    for depths, message in (
            ({(0, 1): 1}, "roots 0-1 out of range for rank 2"),
            ({(2, 3): 1, (2, 1): 1}, "roots 2-1, 2-3 out of range for rank 2"),
            ({(1, 2): 1.0}, "pole depths must be integers, got 1-2:1.0"),
            ({(1, 2): False}, "pole depths must be integers, got 1-2:False"),
            ({(1, 2): -1, (1, 1): 2}, "pole depths must be nonnegative, got 1-2:-1")):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_depths(2, depths)

"""Tests for decomposition assembly, serialization and rendering."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hldecomp.decomposition import (
    GradedDecomposition,
    crosscheck,
    from_json_dict,
    graded_decomposition,
    report,
    to_json_dict,
    to_json_text,
    total_dimension,
)
from hldecomp.functional_oracle import oracle_decomposition
from hldecomp.hl_category import DrinfeldWord, weight_of
from hldecomp.polytope_count import QPolynomial
from hldecomp.root_system import weyl_dim

from conftest import word_grid

WORD3 = DrinfeldWord(3, [(1, 0), (2, 3), (3, 0)])


def test_single_factor_word():
    dec = graded_decomposition(DrinfeldWord(2, [(1, 0)]))
    assert dec.lam == (1, 0)
    assert dec.entries == {(0, 0): QPolynomial({0: 1})}
    assert total_dimension(dec) == weyl_dim(2, (1, 0)) == 3


def test_adjoint_weight_word():
    dec = graded_decomposition(DrinfeldWord(2, [(1, 0), (2, 3)]))
    assert dec.entries == {(0, 0): QPolynomial({0: 1})}
    assert sorted(dec.domain) == [(0, 0), (1, 1)]
    assert total_dimension(dec) == 8


def test_three_factor_word():
    dec = graded_decomposition(WORD3)
    assert dec.entries == {(0, 0, 0): QPolynomial({0: 1}),
                           (1, 1, 1): QPolynomial({1: 1})}
    # 64 + 1 * 6: the extra constituent is V(omega_2)
    assert total_dimension(dec) == 70
    ok, mismatches = crosscheck(WORD3)
    assert ok and mismatches == []


def test_gamma_restriction():
    dec = graded_decomposition(WORD3, gammas=[(1, 1, 1)])
    assert dec.domain == [(1, 1, 1)]
    assert dec.entries == {(1, 1, 1): QPolynomial({1: 1})}


def test_total_dimension_bound_on_word_grid():
    for word in word_grid(3, 2):
        dec = graded_decomposition(word)
        zero = (0,) * word.n
        total = total_dimension(dec)
        floor = weyl_dim(word.n, weight_of(word))
        assert dec.entries[zero] == QPolynomial({0: 1})
        assert total >= floor
        trivial = dec.entries == {zero: QPolynomial({0: 1})}
        assert (total == floor) == trivial


def test_ordered_gammas():
    entries = {(2, 0, 0): QPolynomial({0: 1}), (1, 1, 1): QPolynomial({1: 1}),
               (0, 0, 0): QPolynomial({0: 1}), (1, 1, 0): QPolynomial({2: 1})}
    dec = GradedDecomposition(3, (2, 2, 2), entries, list(entries))
    assert dec.ordered_gammas() == \
        [(0, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1)]


def test_zero_polynomials_dropped():
    dec = GradedDecomposition(2, (1, 1), {(1, 1): QPolynomial()}, [(1, 1)])
    assert dec.entries == {}


def test_json_round_trip_full():
    dec = graded_decomposition(WORD3)
    back = from_json_dict(json.loads(to_json_text(dec)))
    assert back == dec
    assert back.word == WORD3
    assert sorted(back.domain) == sorted(dec.domain)


def test_json_round_trip_restricted():
    dec = graded_decomposition(WORD3, gammas=[(1, 1, 1)])
    back = from_json_dict(json.loads(to_json_text(dec)))
    assert back == dec
    assert back.domain == [(1, 1, 1)]


def test_json_round_trip_with_xi():
    xi = {(1, 1): 2, (2, 2): 2, (1, 2): 2}
    dec = oracle_decomposition(lam=(2, 0), mode="full", xi=xi)
    back = from_json_dict(json.loads(to_json_text(dec)))
    assert back == dec
    # equality ignores xi, so compare it on its own
    assert back.xi == xi


def test_json_entry_fields():
    data = to_json_dict(graded_decomposition(WORD3))
    assert data["n"] == 3
    assert data["pi"] == [[1, 0], [2, 3], [3, 0]]
    assert data["weight"] == [1, 1, 1]
    got = [(e["gamma"], e["mu_weight"], e["dim"], e["poly"])
           for e in data["entries"]]
    assert got == [([0, 0, 0], [1, 1, 1], 64, {"0": 1}),
                   ([1, 1, 1], [0, 1, 0], 6, {"1": 1})]


def test_report_plain():
    text = report(graded_decomposition(WORD3))
    assert "pi: 1:0 2:3 3:0" in text
    assert "checked 4 dominant gamma, 2 nonzero" in text
    assert "[1, 1, 1]  [0, 1, 0]            6          q" in text


def test_report_latex_and_json():
    rank8 = DrinfeldWord(8, [(2, 0), (3, 3), (4, 0), (5, 3), (7, -1)])
    small = graded_decomposition(
        rank8, gammas=[(0,) * 8, (1, 3, 4, 4, 3, 2, 1, 0)])
    latex = report(small, format="latex")
    assert "$2q^{4}+q^{5}$" in latex
    assert latex.startswith("% pi: 2:0 3:3 4:0 5:3 7:-1")
    assert "\\begin{tabular}" in latex
    plain = report(small)
    assert "2q^4 + q^5" in plain
    assert report(small, format="json") == to_json_text(small)
    with pytest.raises(ValueError):
        report(small, format="weird")


def test_crosscheck_on_word_grid():
    for word in word_grid(3, 2):
        ok, mismatches = crosscheck(word)
        assert ok, mismatches


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from(word_grid(5, 3)))
def test_crosscheck_on_drawn_words(word):
    ok, mismatches = crosscheck(word)
    assert ok, mismatches


@pytest.mark.slow
def test_crosscheck_on_rank4_and_rank5_grids():
    words = ([w for w in word_grid(4, 4) if w.n == 4]
             + [w for w in word_grid(5, 3) if w.n == 5])
    assert len(words) == 26 + 45
    for word in words:
        ok, mismatches = crosscheck(word)
        assert ok, (word, mismatches)

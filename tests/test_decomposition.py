"""Tests for decomposition assembly, serialization and rendering."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from hldecomp.decomposition import (
    GradedDecomposition,
    crosscheck,
    graded_decomposition,
    report,
    to_json_dict,
    to_json_text,
    total_dimension,
)
from hldecomp import decomposition, functional_oracle
from hldecomp.cli import _cache_load
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


@pytest.mark.parametrize("compute", [
    lambda gammas: graded_decomposition(WORD3, gammas=gammas),
    lambda gammas: oracle_decomposition(mode="pair", word=WORD3, gammas=gammas),
    lambda gammas: oracle_decomposition(
        lam=(1, 1, 1), mode="full", gammas=gammas,
        xi={(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i <= j}),
], ids=["lattice", "pair", "full"])
def test_non_dominant_gammas_are_refused_before_any_is_computed(monkeypatch, compute):
    # weight (1, 1, 1) minus (0, 0, 1) is (1, 2, -1), and minus (2, 0, 0)
    # is (-3, 3, 1); only (0, 0, 0) is dominant
    calls = []
    for module, name in ((decomposition, "multiplicity"),
                         (functional_oracle, "oracle_multiplicity")):
        monkeypatch.setattr(module, name, lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=re.escape("gamma (0, 0, 1)")):
        compute([(0, 0, 0), (0, 0, 1), (2, 0, 0)])
    assert calls == []


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


def _read_back(tmp_path, data, dec):
    """data, stored as a cache entry, read back for the job of dec, or None
    if the entry is not exactly what that job would write."""
    (tmp_path / "entry.json").write_text(json.dumps(data))
    job = GradedDecomposition(dec.n, dec.lam, {}, dec.domain, word=dec.word, xi=dec.xi)
    return _cache_load(str(tmp_path), "entry", job)


def test_json_round_trip_full(tmp_path):
    dec = graded_decomposition(WORD3)
    back = _read_back(tmp_path, json.loads(to_json_text(dec)), dec)
    assert back == dec
    assert back.word == WORD3
    assert sorted(back.domain) == sorted(dec.domain)


def test_json_round_trip_restricted(tmp_path):
    dec = graded_decomposition(WORD3, gammas=[(1, 1, 1)])
    back = _read_back(tmp_path, json.loads(to_json_text(dec)), dec)
    assert back == dec
    assert back.domain == [(1, 1, 1)]


def test_json_round_trip_with_xi(tmp_path):
    xi = {(1, 1): 2, (2, 2): 2, (1, 2): 2}
    dec = oracle_decomposition(lam=(2, 0), mode="full", xi=xi)
    data = json.loads(to_json_text(dec))
    back = _read_back(tmp_path, data, dec)
    assert back == dec
    assert back.xi == xi
    # an entry that differs only in xi is not read back
    assert _read_back(tmp_path, {**data, "xi": None}, dec) is None
    assert _read_back(tmp_path, {**data, "xi": [[1, 1, 2], [1, 2, 1], [2, 2, 2]]}, dec) is None


@pytest.mark.parametrize("edit", [
    lambda ents: ents.append(dict(ents[0])),
    lambda ents: ents[0].update(poly={"1_0": 7}),
    lambda ents: ents[0].update(poly={" 0": 1}),
    lambda ents: ents[0].update(dim=ents[0]["dim"] + 1),
    lambda ents: ents[-1].update(mu_weight=ents[0]["mu_weight"]),
    lambda ents: ents.append({**ents[0], "gamma": [5, 5, 5]}),
])
def test_json_that_does_not_round_trip_is_rejected(tmp_path, capsys, edit):
    dec = graded_decomposition(WORD3)
    data = to_json_dict(dec)
    assert _read_back(tmp_path, data, dec) == dec
    edit(data["entries"])
    assert _read_back(tmp_path, data, dec) is None
    assert "does not match the job in entries" in capsys.readouterr().err


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


@pytest.mark.slow
def test_crosscheck_on_rank6_grid():
    # every rank 6 word with at most 3 factors; the dual side peels its
    # rows condition by condition, which makes this grid affordable
    words = [w for w in word_grid(6, 3) if w.n == 6]
    assert len(words) == 76
    failed = [(word, mismatches) for word in words
              for ok, mismatches in [crosscheck(word)] if not ok]
    assert not failed

"""A classical reference for the q = 1 decompositions, by
inclusion-exclusion over a word's consecutive pairs.

Write e_k for the character of V(omega_k), with e_0 = e_{n+1} = 1, and
let the word's nodes be i_1 < ... < i_k.  Then the ungraded character
of the word's module is

    sum over S in {1..k-1} of (-1)^|S| prod_a e_{i_a - [a in S] + [a-1 in S]},

each pair a in S moving one step from node i_a to node i_{a+1}; for
two factors this is e_i e_j - e_{i-1} e_{j+1}, an exchange relation of
the kind Hernandez-Leclerc use for the level-one category.  Products
are expanded by tensor_decompose (Racah-Speiser), so the reference
reads no multipartition, polytope or relation row.  The S = {} term
alone is the count without pair constraints; the others check what the
pair constraints remove.
"""

from functools import lru_cache
from itertools import combinations

import pytest

from hldecomp.decomposition import graded_decomposition
from hldecomp.hl_category import weight_of
from hldecomp.root_system import weight_minus_gamma
from hldecomp.weyl_characters import tensor_decompose

from conftest import word_grid, words_on_nodes


@lru_cache(maxsize=None)
def _product(n, nodes):
    # prod_k e_k over the sorted tuple nodes, as {highest weight: mult};
    # nodes 0 and n + 1 stand for the trivial character
    if not nodes:
        return {(0,) * n: 1}
    *rest, k = nodes
    head = _product(n, tuple(rest))
    if not 1 <= k <= n:
        return head
    omega = tuple(int(t == k) for t in range(1, n + 1))
    out = {}
    for top, c in head.items():
        for w, m in tensor_decompose(n, top, omega).items():
            out[w] = out.get(w, 0) + c * m
    return out


def exchange_character(word):
    """The inclusion-exclusion sum as {highest weight: multiplicity}."""
    n = word.n
    nodes = word.nodes()
    total = {}
    for size in range(len(nodes)):
        for S in combinations(range(len(nodes) - 1), size):
            moved = sorted(i - (a in S) + (a - 1 in S) for a, i in enumerate(nodes))
            for w, c in _product(n, tuple(moved)).items():
                total[w] = total.get(w, 0) + (-1) ** size * c
    return {w: c for w, c in total.items() if c}


def lattice_character(word):
    """at_one() of graded_decomposition, keyed by lam - gamma."""
    dec = graded_decomposition(word)
    lam = weight_of(word)
    return {weight_minus_gamma(lam, g): p.at_one() for g, p in dec.entries.items()}


def _mismatches(words):
    return [word for word in words if exchange_character(word) != lattice_character(word)]


def test_exchange_relation_for_two_factors():
    # e_1 e_2 - e_0 e_3 on rank 2: V(1,1) + V(0,0), less the trivial one
    word = words_on_nodes(2, (1, 2))[0]
    assert exchange_character(word) == {(1, 1): 1}
    assert lattice_character(word) == {(1, 1): 1}


def test_exchange_reference_on_word_grid():
    words = word_grid(7, 7)
    assert len(words) == 466
    assert _mismatches(words) == []


def test_exchange_reference_on_rank8_words():
    words = words_on_nodes(8, (2, 3, 4, 5, 7))
    assert len(words) == 2
    assert _mismatches(words) == []


@pytest.mark.slow
def test_exchange_reference_on_rank12_benchmark_words():
    words = words_on_nodes(12, (1, 3, 5, 7, 9, 11, 12))
    assert len(words) == 2
    assert _mismatches(words) == []

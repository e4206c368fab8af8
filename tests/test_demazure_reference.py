"""A Demazure character reference for the graded decompositions.

Through Brito-Chari-Moura, the graded limit of a prime module of
quantum affine sl_{n+1} with weight lam is the level-two Demazure
module of affine sl_{n+1} of that weight, and the level-one Demazure
modules are the local Weyl modules (Chari-Loktev, Fourier-Littelmann),
whose graded characters the lattice count gives with no pair
constraint.  One routine serves both levels; it reads no
multipartition, polytope or relation row.

An affine weight is (finite part in fundamental coordinates, degree).
For i >= 1, alpha_i has finite part 2 w_i - w_{i-1} - w_{i+1} and
degree 0; alpha_0 = delta - theta has finite part -(w_1 + w_n) (-2 w_1
when n = 1) and degree 1.  At level l the pairing <mu, alpha_i^v> is
mu_i for i >= 1 and l - sum(mu) for i = 0.  From (lam, 0), each
negative pairing is reflected away until the weight is dominant; the
Demazure operators of the recorded reflections, applied in reverse
order to that dominant end, give the character, and straightening
each term's finite part (the finite D_{w0}) gives the decomposition
into simple sl_{n+1} modules V(lam - gamma), graded by the degree less
the degree at gamma = 0.
"""

from functools import lru_cache
from itertools import product

import pytest

from hldecomp.decomposition import graded_decomposition
from hldecomp.functional_oracle import oracle_decomposition
from hldecomp.hl_category import weight_of, xi_from_weight
from hldecomp.multipartition import enumerate_multipartitions
from hldecomp.polytope_count import QPolynomial, build_polytope, count_by_grade
from hldecomp.root_system import enumerate_dominant_gammas
from hldecomp.weyl_characters import straighten

from conftest import word_grid

# every weight in {0,1,2}^n with n <= 3
SMALL_WEIGHTS = [lam for n in (1, 2, 3) for lam in product(range(3), repeat=n)]


def _simple_roots(n):
    # (finite part, degree) of alpha_0, alpha_1, ..., alpha_n
    theta = [0] * n
    theta[0] += 1
    theta[-1] += 1
    roots = [(tuple(-c for c in theta), 1)]
    for i in range(n):
        fin = [0] * n
        fin[i] = 2
        if i > 0:
            fin[i - 1] = -1
        if i + 1 < n:
            fin[i + 1] = -1
        roots.append((tuple(fin), 0))
    return roots


def _gamma(lam, top):
    # simple root coordinates of lam - top, by the inverse Cartan matrix
    # (C^-1)_ij = min(i, j) (n + 1 - max(i, j)) / (n + 1)
    n = len(lam)
    diff = [a - b for a, b in zip(lam, top)]
    gamma = []
    for i in range(1, n + 1):
        num = sum(min(i, j) * (n + 1 - max(i, j)) * v for j, v in enumerate(diff, start=1))
        q, r = divmod(num, n + 1)
        if r:
            raise ArithmeticError("%r - %r is not in the root lattice" % (lam, top))
        gamma.append(q)
    return tuple(gamma)


@lru_cache(maxsize=None)
def demazure_decomposition(lam, level):
    """{gamma: QPolynomial} of the level `level` Demazure module of
    weight lam, zero entries dropped."""
    n = len(lam)
    roots = _simple_roots(n)

    def pairing(mu, i):
        return mu[i - 1] if i else level - sum(mu)

    mu, degree = tuple(lam), 0
    steps = []
    while (i := next((i for i in range(n + 1) if pairing(mu, i) < 0), None)) is not None:
        m = pairing(mu, i)
        fin, deg = roots[i]
        mu, degree = tuple(a - m * b for a, b in zip(mu, fin)), degree - m * deg
        steps.append(i)
    char = {(mu, degree): 1}
    for i in reversed(steps):
        # D_i e^mu with m = <mu, alpha_i^v>: sum_{k=0..m} e^{mu - k alpha_i}
        # for m >= 0, 0 for m = -1, -sum_{k=1..-m-1} e^{mu + k alpha_i}
        # for m <= -2
        fin, deg = roots[i]
        out = {}
        for (mu, degree), c in char.items():
            m = pairing(mu, i)
            ks, sign = (range(m + 1), c) if m >= 0 else (range(-1, m, -1), -c)
            for k in ks:
                key = (tuple(a - k * b for a, b in zip(mu, fin)), degree - k * deg)
                out[key] = out.get(key, 0) + sign
        char = {key: c for key, c in out.items() if c}
    by_gamma = {}
    for (mu, degree), c in char.items():
        hit = straighten(mu)
        if hit:
            sign, top = hit
            grades = by_gamma.setdefault(_gamma(lam, top), {})
            grades[degree] = grades.get(degree, 0) + sign * c
    (base, one), = by_gamma[(0,) * n].items()
    if one != 1:
        raise ArithmeticError("V(lam) has multiplicity %r" % one)
    entries = {gamma: QPolynomial({degree - base: c for degree, c in grades.items() if c})
               for gamma, grades in by_gamma.items()}
    return {gamma: poly for gamma, poly in entries.items() if poly}


def _pair_free_count(lam):
    # the lattice count without pair constraints, summed as multiplicity
    # sums it: the local Weyl module W(lam)
    out = {}
    for gamma in enumerate_dominant_gammas(lam):
        total = QPolynomial()
        for parts in enumerate_multipartitions(gamma, lam):
            total = total + count_by_grade(build_polytope(parts, lam, ()), sum(gamma))
        if total:
            out[gamma] = total
    return out


def _check_level_two(words):
    mismatches = [word for word in words
                  if demazure_decomposition(weight_of(word), 2)
                  != graded_decomposition(word).entries]
    assert not mismatches, mismatches


def _check_level_two_against_the_oracle(weights):
    # the graded limit's xi tuple, xi_alpha = ceil(lam(h_alpha) / 2), in
    # the dual realization's full mode
    mismatches = [lam for lam in weights
                  if demazure_decomposition(lam, 2)
                  != oracle_decomposition(lam=lam, xi=xi_from_weight(lam)).entries]
    assert not mismatches, mismatches


def test_demazure_examples():
    # level one: W(w_1) of sl_2 is V(w_1); W(2 w_1) is V(2 w_1) + q V(0),
    # the fusion square of the vector representation
    assert demazure_decomposition((1,), 1) == {(0,): QPolynomial({0: 1})}
    assert demazure_decomposition((2,), 1) == {(0,): QPolynomial({0: 1}),
                                               (1,): QPolynomial({1: 1})}
    # a dominant affine weight is its own Demazure module
    assert demazure_decomposition((2,), 2) == {(0,): QPolynomial({0: 1})}


def test_level_two_matches_the_lattice_on_word_grid():
    _check_level_two(word_grid(6, 6))


@pytest.mark.slow
def test_level_two_matches_the_lattice_on_rank7_grid():
    _check_level_two(word_grid(7, 7))


def test_level_two_matches_the_full_mode_oracle():
    _check_level_two_against_the_oracle([lam for lam in SMALL_WEIGHTS if lam != (2, 2, 2)])


@pytest.mark.slow
def test_level_two_matches_the_full_mode_oracle_at_222():
    _check_level_two_against_the_oracle([(2, 2, 2)])


def test_level_one_matches_the_pair_free_count():
    mismatches = [lam for lam in SMALL_WEIGHTS
                  if demazure_decomposition(lam, 1) != _pair_free_count(lam)]
    assert not mismatches, mismatches

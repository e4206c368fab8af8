"""Acceptance gate: one test and one printed verdict per criterion.

Run with -s to see the verdict lines.  Every check is exact integer
arithmetic; the stated wall clock budgets are asserted as part of the
criterion.
"""

import itertools
import time

from hldecomp.decomposition import graded_decomposition, total_dimension
from hldecomp.functional_oracle import (
    conditions,
    constraint_rows,
    dim_V,
    grade_window,
    oracle_decomposition,
    oracle_multiplicity,
    orbit_basis,
)
from hldecomp.hl_category import (
    DrinfeldWord,
    consecutive_pairs,
    pi_from_interval,
    pi_to_height_interval,
    weight_of,
)
from hldecomp.multipartition import compute_K, enumerate_multipartitions
from hldecomp.polytope_count import (
    QPolynomial,
    build_polytope,
    count_by_grade,
    multiplicity,
)
from hldecomp.root_system import (
    e_gamma,
    enumerate_dominant_gammas,
    gamma_height,
    positive_roots,
    weight_minus_gamma,
    weyl_dim,
)
from hldecomp.weyl_characters import tensor_power_multiplicity

from conftest import all_multipartitions, word_grid

RANK8_WORD = DrinfeldWord(8, [(2, 0), (3, 3), (4, 0), (5, 3), (7, -1)])
RANK8_GAMMA = (1, 3, 4, 4, 3, 2, 1, 0)
RANK8_SURVIVORS = {
    ((1,), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1), (2,), (1,), ()),
    ((1,), (2, 1), (2, 1, 1), (2, 1, 1), (2, 1), (2,), (1,), ()),
    ((1,), (2, 1), (2, 2), (2, 2), (2, 1), (2,), (1,), ()),
    ((1,), (2, 1), (2, 2), (2, 1, 1), (1, 1, 1), (1, 1), (1,), ()),
    ((1,), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1), (1, 1), (1,), ()),
    ((1,), (2, 1), (2, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1), (1,), ()),
}
MU_A = ((1,), (2, 1), (2, 2), (2, 2), (2, 1), (2,), (1,), ())
MU_B = ((1,), (2, 1), (2, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1), (1,), ())

X58_LAM = (7, 5)
X58_GAMMA = (2, 1)
X58_XI = {(1, 1): 2, (2, 2): 2, (1, 2): 2}
F1 = {((-2, -2), (0,)): 1, ((-1, -1), (-2,)): 1, ((-1, -2), (-1,)): -1}
F2 = {((-1, -2), (0,)): 1, ((-1, -1), (-1,)): -2}


def _verdict(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("criterion %s: %s%s" % (tag, status, suffix))
    assert ok, "criterion %s failed %s" % (tag, suffix)


def test_criterion_1_rank8_worked_example():
    t0 = time.perf_counter()
    lam = weight_of(RANK8_WORD)
    pairs = consecutive_pairs(RANK8_WORD)
    poly = multiplicity(RANK8_WORD, RANK8_GAMMA)
    survivors = set(enumerate_multipartitions(RANK8_GAMMA, lam))
    nonzero = {}
    for mu in survivors:
        spec = build_polytope(mu, lam, pairs)
        cnt = count_by_grade(spec, sum(RANK8_GAMMA))
        if cnt:
            nonzero[mu] = cnt
    elapsed = time.perf_counter() - t0
    ok = (poly == QPolynomial({4: 2, 5: 1})
          and survivors == RANK8_SURVIVORS
          and set(nonzero) == {MU_A, MU_B}
          and compute_K(MU_A, lam) == 13
          and compute_K(MU_B, lam) == 10
          and elapsed < 5.0)
    _verdict("1", ok, "poly %s, %d shapes, %.2fs" %
             (poly.plain(), len(survivors), elapsed))


def test_criterion_2_rank2_oracle_example():
    t0 = time.perf_counter()
    dims = {p: dim_V(X58_LAM, X58_GAMMA, p, X58_XI) for p in range(8)}
    window = grade_window(X58_LAM, X58_GAMMA, X58_XI)
    bounds, conds = conditions(X58_LAM, X58_GAMMA, X58_XI)
    residuals = []
    for grade, func in ((3, F1), (2, F2)):
        degree = -grade - gamma_height(X58_GAMMA) + e_gamma(X58_GAMMA)
        orbits = orbit_basis(X58_GAMMA, bounds, degree)
        vec = [func.get(orb, 0) for orb in orbits]
        rows = constraint_rows(orbits, conds)
        residuals.extend(sum(c * vec[o] for o, c in row.items())
                         for row in rows.values())
    elapsed = time.perf_counter() - t0
    ok = (dims == {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0}
          and window == range(1, 6)
          and residuals and all(r == 0 for r in residuals)
          and elapsed < 5.0)
    _verdict("2", ok, "dims %s, %d residuals all zero, %.2fs" %
             ({p: d for p, d in dims.items() if d}, len(residuals), elapsed))


def test_criterion_3_two_fundamental_words_stay_simple():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(2, 7):
        zero = (0,) * n
        for i1 in range(1, n + 1):
            for i2 in range(i1 + 1, n + 1):
                gap = i2 - i1 + 2
                for factors in ([(i1, 0), (i2, gap)], [(i1, gap), (i2, 0)]):
                    word = DrinfeldWord(n, factors)
                    dec = graded_decomposition(word)
                    ok = ok and dec.entries == {zero: QPolynomial({0: 1})}
                    ok = ok and total_dimension(dec) == \
                        weyl_dim(n, weight_of(word))
                    checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict("3", ok, "%d words, %.2fs" % (checked, elapsed))


def test_criterion_4_polytope_agrees_with_oracle():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for word in word_grid(3, 3, starts=(0, 3)):
        lam = weight_of(word)
        depths = {pair: 1 for pair in consecutive_pairs(word)}
        for gamma in enumerate_dominant_gammas(lam):
            a = multiplicity(word, gamma)
            b = oracle_multiplicity(lam, gamma, depths)
            ok = ok and a == b
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _verdict("4", ok, "%d word/gamma pairs, %.2fs" % (checked, elapsed))


def test_criterion_5_constant_xi_one_is_classical():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in (1, 2, 3):
        xi = {root: 1 for root in positive_roots(n)}
        zero = (0,) * n
        for lam in itertools.product(range(3), repeat=n):
            dec = oracle_decomposition(lam=lam, mode="full", xi=xi)
            ok = ok and dec.entries == {zero: QPolynomial({0: 1})}
            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict("5", ok, "%d weights, %.2fs" % (checked, elapsed))


def test_criterion_6_square_of_the_vector_representation():
    t0 = time.perf_counter()
    lam = (2, 0)
    xi = {root: 2 for root in positive_roots(2)}
    dec = oracle_decomposition(lam=lam, mode="full", xi=xi)
    domain = sorted(tuple(g) for g in dec.domain)
    ok = (dec.entries == {(0, 0): QPolynomial({0: 1}),
                          (1, 0): QPolynomial({1: 1})}
          and domain == [(0, 0), (1, 0)])
    for gamma in domain:
        nu = weight_minus_gamma(lam, gamma)
        got = dec.entries.get(gamma, QPolynomial()).at_one()
        ok = ok and got == tensor_power_multiplicity(2, (1, 0), 2, nu)
    elapsed = time.perf_counter() - t0
    _verdict("6", ok, "entries %s, %.2fs" %
             ({g: p.plain() for g, p in sorted(dec.entries.items())}, elapsed))


def test_criterion_7_structural_suite():
    t0 = time.perf_counter()
    ok = True
    # gamma = 0 always contributes exactly 1, and coefficients stay
    # nonnegative
    for word in word_grid(3, 3, starts=(0, 3)):
        dec = graded_decomposition(word)
        zero = (0,) * word.n
        ok = ok and dec.entries[zero] == QPolynomial({0: 1})
        ok = ok and all(c >= 0 for poly in dec.entries.values()
                        for c in poly.coeffs.values())
    # word <-> (kappa, J) round trip
    for word in word_grid(6, 3, starts=(-2, 0, 3)):
        kappa, J = pi_to_height_interval(word)
        ok = ok and pi_from_interval(kappa, J) == word
    # pruning soundness: pruned and unpruned totals agree
    for word in word_grid(3, 3, starts=(0, 3)):
        lam = weight_of(word)
        pairs = consecutive_pairs(word)
        for gamma in enumerate_dominant_gammas(lam):
            height = sum(gamma)
            total = QPolynomial()
            for mu in all_multipartitions(gamma):
                spec = build_polytope(mu, lam, pairs)
                total = total + count_by_grade(spec, height)
            ok = ok and total == multiplicity(word, gamma)
    elapsed = time.perf_counter() - t0
    _verdict("7", ok, "%.2fs" % elapsed)

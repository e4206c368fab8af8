"""Tests for the dual functional realization.

The rank 2 example with lam = (7, 5), gamma = 2 alpha_1 + alpha_2 and
constant xi = 2 is pinned down completely: monomial windows, orbit
bases, two explicit admissible functions, and the graded dimensions.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hldecomp import functional_oracle
from hldecomp.functional_oracle import (
    _PRIME,
    _corank_mod_p,
    _rows_to_matrix,
    constraint_rows,
    derive_intervals,
    dim_V,
    exact_corank,
    grade_window,
    integer_rank,
    oracle_decomposition,
    oracle_multiplicity,
    orbit_basis,
    variable_bounds,
)
from hldecomp.hl_category import DrinfeldWord
from hldecomp.polytope_count import QPolynomial, multiplicity
from hldecomp.root_system import (e_gamma, enumerate_dominant_gammas,
                                  gamma_height, positive_roots)

X58_LAM = (7, 5)
X58_GAMMA = (2, 1)
X58_XI = {(1, 1): 2, (2, 2): 2, (1, 2): 2}

# two admissible functions in orbit coordinates, found by hand: F1 is
# the orbit expansion of
#   x11^-2 x12^-2 x21^-2 (x21^2 + x11 x12 - x12 x21 - x11 x21)
# at grade 3 and F2 of
#   x11^-2 x12^-2 x21^-2 (x12 x21^2 + x11 x21^2 - 2 x11 x12 x21)
# at grade 2
F1 = {((-2, -2), (0,)): 1, ((-1, -1), (-2,)): 1, ((-1, -2), (-1,)): -1}
F2 = {((-1, -2), (0,)): 1, ((-1, -1), (-1,)): -2}


def _orbits_at(grade):
    degree = -grade - gamma_height(X58_GAMMA) + e_gamma(X58_GAMMA)
    bounds = variable_bounds(X58_LAM, X58_GAMMA, "full", X58_XI)
    return orbit_basis(X58_GAMMA, bounds, degree)


# ------------------------------------------------------------------ windows

def test_variable_bounds():
    assert variable_bounds(X58_LAM, X58_GAMMA, "full", X58_XI) == \
        {1: (-2, -1), 2: (-2, 0)}
    assert variable_bounds((1, 1), (1, 1), "pair") == \
        {1: (-1, -1), 2: (-1, -1)}
    assert variable_bounds((1, 1), (0, 0), "pair") == {}
    with pytest.raises(ValueError):
        variable_bounds((1, 1), (1, 1), "sideways")


def test_grade_window():
    assert grade_window(X58_LAM, X58_GAMMA, "full", X58_XI) == range(1, 6)
    # gamma = 0 leaves exactly the constant grade
    assert grade_window((3, 3), (0, 0), "pair") == range(0, 1)
    # an empty monomial window empties the grade window
    assert grade_window((1, 0), (1, 0), "pair") == range(0, 0)


def test_orbit_basis_structure():
    orbits = _orbits_at(3)
    assert orbits == [((-2, -2), (0,)), ((-1, -2), (-1,)), ((-1, -1), (-2,))]
    assert _orbits_at(2) == [((-1, -2), (0,)), ((-1, -1), (-1,))]
    for orb in orbits:
        for ms in orb:
            assert list(ms) == sorted(ms, reverse=True)
        assert sum(sum(ms) for ms in orb) == -4
    # degree out of reach of the windows
    assert _orbits_at(0) == []


# ------------------------------------------- explicit admissible functions

def test_known_functions_satisfy_all_constraints():
    for grade, func in ((3, F1), (2, F2)):
        orbits = _orbits_at(grade)
        assert set(func) <= set(orbits)
        rows = constraint_rows(X58_LAM, X58_GAMMA, "full", orbits, X58_XI)
        assert rows
        vec = [func.get(orb, 0) for orb in orbits]
        for key, row in rows.items():
            residual = sum(c * vec[o] for o, c in row.items())
            assert residual == 0, (key, residual)


def test_constraint_rows_reference_valid_orbits():
    orbits = _orbits_at(3)
    rows = constraint_rows(X58_LAM, X58_GAMMA, "full", orbits, X58_XI)
    for row in rows.values():
        assert all(0 <= o < len(orbits) for o in row)


def test_rank2_graded_dimensions():
    dims = {p: dim_V(X58_LAM, X58_GAMMA, p, "full", xi=X58_XI)
            for p in range(8)}
    assert dims == {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0}
    assert oracle_multiplicity(X58_LAM, X58_GAMMA, "full", xi=X58_XI) == \
        QPolynomial({2: 1, 3: 1})
    with pytest.raises(ValueError):
        dim_V(X58_LAM, X58_GAMMA, -1, "full", xi=X58_XI)


def test_gamma_zero_dimension():
    assert dim_V((3, 1), (0, 0), 0, "pair") == 1
    assert oracle_multiplicity((3, 1), (0, 0), "pair") == QPolynomial({0: 1})


def test_evaluation_module_has_trivial_socle():
    # constant xi = 1: the graded limit collapses to V(lam)
    xi = {(1, 1): 1, (2, 2): 1, (1, 2): 1}
    assert not oracle_multiplicity((1, 0), (1, 0), "full", xi=xi)
    assert not oracle_multiplicity((1, 1), (1, 1), "full", xi=xi)


# ---------------------------------------------------------------- intervals

def test_derive_intervals():
    assert derive_intervals(X58_LAM, X58_GAMMA, "full", X58_XI) == [(1, 2, 2)]
    assert derive_intervals((1, 1), (1, 1), "pair", pairs=((1, 2),)) == \
        [(1, 2, 1)]
    # a node without variables makes the specialization vacuous
    assert derive_intervals((1, 1), (1, 0), "pair", pairs=((1, 2),)) == []
    xi3 = {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i <= j}
    assert derive_intervals((1, 1, 1), (1, 1, 1), "full", xi3) == \
        [(1, 2, 1), (1, 3, 1), (2, 3, 1)]
    with pytest.raises(ValueError):
        derive_intervals((1, 1), (1, 1), "sideways")


# ------------------------------------------------------------ linear algebra

def _rank_fractions(mat):
    mat = [[Fraction(v) for v in row] for row in mat]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_integer_rank_examples():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0


def test_integer_rank_matches_rational_rank():
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(1, 5)
        k = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        want = _rank_fractions(mat)
        assert integer_rank(mat) == want
        shuffled = [row[:] for row in mat]
        rng.shuffle(shuffled)
        assert integer_rank(shuffled) == want


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_modular_corank_matches_exact_on_small_matrices(mat):
    # entries are far below the modulus, so no minor can vanish mod p
    # without vanishing exactly
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    exact = 3 - integer_rank([row for row in mat if any(row)])
    assert _corank_mod_p(rows, 3) == exact


def test_modular_corank_certifies_oracle_dimensions():
    for grade in (2, 3):
        orbits = _orbits_at(grade)
        rows = constraint_rows(X58_LAM, X58_GAMMA, "full", orbits, X58_XI)
        mod = _corank_mod_p(sorted(rows.values(), key=len), len(orbits))
        exact = len(orbits) - integer_rank(_rows_to_matrix(rows, len(orbits)))
        assert mod == exact == 1


# entries mostly small, with a few that vanish mod p or have kernel
# entries too large to reconstruct, so both certificate outcomes occur
_ENTRIES = st.one_of(st.integers(-4, 4),
                     st.sampled_from([_PRIME, -2 * _PRIME, 100003, -100003]))


@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.dictionaries(st.integers(0, k - 1), _ENTRIES, max_size=3),
             max_size=6))))
def test_exact_corank_matches_bareiss(case):
    ncols, rows = case
    mat = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert exact_corank(dict(enumerate(rows)), ncols) == \
        ncols - integer_rank(mat)


def _count_fallbacks(monkeypatch):
    calls = []

    def counted(mat):
        calls.append(mat)
        return integer_rank(mat)

    monkeypatch.setattr(functional_oracle, "integer_rank", counted)
    return calls


@pytest.mark.parametrize("row, ncols, want", [
    # the only entry vanishes mod p: the modular rank drops to 0
    ({0: _PRIME}, 1, 0),
    # kernel vector (100003, 1): its lift mod p is a wrong small fraction
    ({0: 1, 1: -100003}, 2, 1),
])
def test_exact_corank_falls_back_to_bareiss(monkeypatch, row, ncols, want):
    calls = _count_fallbacks(monkeypatch)
    assert exact_corank({"row": row}, ncols) == want
    assert len(calls) == 1


def _tensor_square_grades(lam):
    xi = {root: 2 for root in positive_roots(len(lam))}
    for gamma in enumerate_dominant_gammas(lam):
        for grade in grade_window(lam, gamma, "full", xi):
            yield lam, gamma, xi, grade


@pytest.mark.parametrize("lam, gamma, xi, grade", [
    *((X58_LAM, X58_GAMMA, X58_XI, grade) for grade in range(1, 6)),
    *_tensor_square_grades((2, 2)),
    *_tensor_square_grades((4, 0)),
])
def test_dim_V_matches_bareiss_corank(monkeypatch, lam, gamma, xi, grade):
    bounds = variable_bounds(lam, gamma, "full", xi)
    degree = -grade - gamma_height(gamma) + e_gamma(gamma)
    orbits = orbit_basis(gamma, bounds, degree)
    rows = constraint_rows(lam, gamma, "full", orbits, xi)
    want = len(orbits) - integer_rank(_rows_to_matrix(rows, len(orbits)))
    calls = _count_fallbacks(monkeypatch)
    assert dim_V(lam, gamma, grade, "full", xi=xi) == want
    # these kernels lift, so the certificate alone proves every corank
    assert calls == []


# ------------------------------------------------------------ decompositions

def test_oracle_decomposition_validation():
    with pytest.raises(ValueError):
        oracle_decomposition(mode="pair")
    with pytest.raises(ValueError):
        oracle_decomposition(mode="full", lam=(1, 0))
    with pytest.raises(ValueError):
        oracle_decomposition(mode="sideways", lam=(1, 0))
    with pytest.raises(ValueError):
        oracle_decomposition(mode="full", lam=(1, 0),
                             xi={(1, 1): 5, (2, 2): 5, (1, 2): 1})


def test_oracle_decomposition_pair_mode():
    word = DrinfeldWord(2, [(1, 0), (2, 3)])
    dec = oracle_decomposition(mode="pair", word=word)
    assert dec.lam == (1, 1)
    assert dec.entries == {(0, 0): QPolynomial({0: 1})}
    for gamma in dec.domain:
        assert dec.entries.get(tuple(gamma), QPolynomial()) == \
            multiplicity(word, gamma)


def test_oracle_decomposition_full_mode():
    dec = oracle_decomposition(lam=X58_LAM, mode="full", xi=X58_XI,
                               gammas=[(0, 0), X58_GAMMA])
    assert dec.entries[X58_GAMMA] == QPolynomial({2: 1, 3: 1})
    assert dec.entries[(0, 0)] == QPolynomial({0: 1})
    xi2 = {(1, 1): 2, (2, 2): 2, (1, 2): 2}
    kr = oracle_decomposition(lam=(2, 0), mode="full", xi=xi2)
    assert kr.entries == {(0, 0): QPolynomial({0: 1}),
                          (1, 0): QPolynomial({1: 1})}

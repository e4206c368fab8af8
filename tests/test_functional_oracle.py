"""Tests for the dual functional realization.

The rank 2 example with lam = (7, 5), gamma = 2 alpha_1 + alpha_2 and
constant xi = 2 is pinned down completely: monomial windows, orbit
bases, two explicit admissible functions, and the graded dimensions.
"""

import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from hldecomp import functional_oracle
from hldecomp.functional_oracle import (
    _PRIME,
    _echelon_mod_p,
    _node_multisets,
    _peel,
    _rows_to_matrix,
    conditions,
    constraint_rows,
    dim_V,
    exact_corank,
    grade_window,
    integer_rank,
    oracle_decomposition,
    oracle_multiplicity,
    orbit_basis,
)
from hldecomp.hl_category import DrinfeldWord, consecutive_pairs, weight_of
from hldecomp.polytope_count import QPolynomial, multiplicity
from hldecomp.root_system import (e_gamma, enumerate_dominant_gammas,
                                  gamma_height, positive_roots)

from conftest import shape_grid, word_grid

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


X58_BOUNDS, X58_CONDS = conditions(X58_LAM, X58_GAMMA, X58_XI)


def _orbits_at(grade):
    degree = -grade - gamma_height(X58_GAMMA) + e_gamma(X58_GAMMA)
    return orbit_basis(X58_GAMMA, X58_BOUNDS, degree)


# ------------------------------------------------------------------ windows

def test_conditions_windows():
    # the join bound 2 hi_1 + hi_2 + 1 lies above every z-exponent the
    # windows allow; the pole bound is -lam_1, the interval bound -v_{1,2}
    assert conditions(X58_LAM, X58_GAMMA, X58_XI) == (
        {1: (-2, -1), 2: (-2, 0)},
        [(("join", 1, 2), ((1, 2), (2, 1)), -1),
         (("pole", 1, 2), ((1, 2),), -7),
         (("interval", 1, 2), ((1, 1), (2, 1)), -2)])
    assert conditions((1, 1), (1, 1), {(1, 2): 1})[0] == \
        {1: (-1, -1), 2: (-1, -1)}
    assert conditions((1, 1), (0, 0), {(1, 2): 1}) == ({}, [])
    # without (1, 1) in the map, lo_1 = -lam_1
    assert conditions(X58_LAM, X58_GAMMA, {(1, 2): 2, (2, 2): 2})[0] == \
        {1: (-7, -1), 2: (-2, 0)}


def test_grade_window():
    assert grade_window(X58_LAM, X58_GAMMA, X58_XI) == range(1, 6)
    # gamma = 0 leaves exactly the constant grade
    assert grade_window((3, 3), (0, 0), {}) == range(0, 1)
    # an empty monomial window empties the grade window
    assert grade_window((1, 0), (1, 0), {}) == range(0, 0)
    # the older (mode, xi) call form, which perfbench's tests use
    assert grade_window(X58_LAM, X58_GAMMA, "full", X58_XI) == range(1, 6)
    assert grade_window((1, 0), (1, 0), "pair") == range(0, 0)


def test_gamma_is_checked_per_grade():
    for gamma, message in (((0, 0, 1), "gamma has rank 3, expected 2"),
                           ((0, 0, 0), "gamma has rank 3, expected 2"),
                           ((1,), "gamma has rank 1, expected 2"),
                           ((-1, 0), "gamma must be nonnegative")):
        with pytest.raises(ValueError, match=re.escape(message)):
            grade_window((1, 1), gamma, {})
        with pytest.raises(ValueError, match=re.escape(message)):
            grade_window((1, 1), gamma, "full", {})
        with pytest.raises(ValueError, match=re.escape(message)):
            dim_V((1, 1), gamma, 0, {})


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


def _multisets_by_product(r, lo, hi):
    """Weakly decreasing r-tuples over lo..hi, from the full product:
    decreasing lexicographic order, grouped by sum in order of first
    appearance."""
    tuples = sorted((t for t in product(range(lo, hi + 1), repeat=r)
                     if list(t) == sorted(t, reverse=True)), reverse=True)
    out = {}
    for t in tuples:
        out.setdefault(sum(t), []).append(t)
    return out


def test_node_multisets_match_filtered_product():
    for r in range(4):
        for lo in range(-3, 2):
            for hi in range(lo - 2, 3):
                got = _node_multisets(r, lo, hi)
                want = _multisets_by_product(r, lo, hi)
                assert got == want and list(got) == list(want), (r, lo, hi)
    assert _node_multisets(0, 1, -1) == {0: [()]}
    assert _node_multisets(2, 1, 0) == {}


def _orbits_by_product(gamma, bounds, degree):
    """orbit_basis from the product of every node's multisets, sorted."""
    tables = [_multisets_by_product(r, *bounds[i]) if r else {0: [()]}
              for i, r in enumerate(gamma, start=1)]
    flat = [[ms for msets in table.values() for ms in msets] for table in tables]
    return sorted(orb for orb in product(*flat)
                  if sum(sum(ms) for ms in orb) == degree)


def test_orbit_basis_with_a_node_without_variables():
    # node 2 carries no variable, so its entry is the empty tuple
    lam, gamma = (2, 1, 2), (1, 0, 1)
    bounds, _ = conditions(lam, gamma, {})
    assert bounds == {1: (-2, -2), 3: (-2, -2)}
    assert orbit_basis(gamma, bounds, -4) == [((-2,), (), (-2,))]
    bounds = {1: (-2, 1), 3: (-1, 2)}
    lengths = []
    for degree in range(-10, 8):
        got = orbit_basis((2, 0, 3), bounds, degree)
        assert got == _orbits_by_product((2, 0, 3), bounds, degree), degree
        assert all(orb[1] == () for orb in got)
        lengths.append(len(got))
    assert lengths[0] == 0 and max(lengths) > 5


def test_orbit_basis_empty_window():
    # lo > hi at node 1: no monomial fits, at any degree
    bounds, _ = conditions((1, 0), (1, 0), {})
    assert bounds == {1: (-1, -2)}
    for degree in range(-4, 4):
        assert orbit_basis((1, 0), bounds, degree) == []
    # one empty window empties the basis, whatever the other nodes allow
    for degree in range(-6, 6):
        assert orbit_basis((2, 1), {1: (-2, 1), 2: (0, -1)}, degree) == []


# ------------------------------------------- explicit admissible functions

def test_known_functions_satisfy_all_constraints():
    for grade, func in ((3, F1), (2, F2)):
        orbits = _orbits_at(grade)
        assert set(func) <= set(orbits)
        rows = constraint_rows(orbits, X58_CONDS)
        assert rows
        vec = [func.get(orb, 0) for orb in orbits]
        for key, row in rows.items():
            residual = sum(c * vec[o] for o, c in row.items())
            assert residual == 0, (key, residual)


def test_constraint_rows_reference_valid_orbits():
    orbits = _orbits_at(3)
    rows = constraint_rows(orbits, X58_CONDS)
    for row in rows.values():
        assert all(0 <= o < len(orbits) for o in row)


def _distinct_perms(ms):
    return sorted(set(permutations(ms)))


def _desc(seq):
    return tuple(sorted(seq, reverse=True))


def _reference_rows(lam, gamma, orbits, depths):
    """constraint_rows by its definition: walk every distinct permutation
    of each touched node's multiset and add 1 to the row of its
    signature.  The joins, poles and intervals are read off gamma, lam
    and depths here, independently of `conditions`."""
    n = len(lam)
    r = (0,) + tuple(gamma) + (0,)
    rows = {}

    def add(cond, key, orbit_idx):
        row = rows.setdefault((cond, key), {})
        row[orbit_idx] = row.get(orbit_idx, 0) + 1

    for i in range(1, n + 1):
        if r[i] < 2:
            continue
        for nb in (i - 1, i + 1):
            if not 1 <= nb <= n or r[nb] == 0:
                continue
            cond = ("join", i, nb)
            for o, orb in enumerate(orbits):
                others = tuple(orb[t] for t in range(n) if t + 1 not in (i, nb))
                for pi in _distinct_perms(orb[i - 1]):
                    for pn in _distinct_perms(orb[nb - 1]):
                        w = pi[0] + pi[1] + pn[0]
                        add(cond, (w, (_desc(pi[2:]), _desc(pn[1:])), others), o)

    for i in range(1, n + 1):
        for depth in range(2, r[i] + 1):
            cond = ("pole", i, depth)
            for o, orb in enumerate(orbits):
                others = tuple(orb[t] for t in range(n) if t + 1 != i)
                for pi in _distinct_perms(orb[i - 1]):
                    z = sum(pi[:depth])
                    if z + lam[i - 1] < 0:
                        add(cond, (z, (_desc(pi[depth:]),), others), o)

    for (a, b), v in depths.items():
        if a == b or 0 in gamma[a - 1:b]:
            continue
        cond = ("interval", a, b)
        for o, orb in enumerate(orbits):
            others = tuple(orb[t] for t in range(n) if not a <= t + 1 <= b)
            for picks in product(*[_distinct_perms(orb[t - 1])
                                   for t in range(a, b + 1)]):
                z = sum(p[0] for p in picks)
                if z + v < 0:
                    add(cond, (z, tuple(_desc(p[1:]) for p in picks), others), o)

    return rows


def _row_cases():
    """(lam, gamma, depths): shape grids with constant xi = 1 and xi = 2
    (gamma up to 3 on ranks 1 and 2, so pole depth 3 occurs, and up to 2
    on rank 3), and every dominant gamma of word_grid(3, 3) with depth 1
    on the word's consecutive pairs."""
    for lam, gamma in sorted(set(shape_grid(2, 2, 3)) | set(shape_grid(3, 2, 2))):
        for v in (1, 2):
            yield lam, gamma, {root: v for root in positive_roots(len(lam))}
    for word in word_grid(3, 3):
        lam = weight_of(word)
        depths = {pair: 1 for pair in consecutive_pairs(word)}
        for gamma in enumerate_dominant_gammas(lam):
            yield lam, tuple(gamma), depths


def test_constraint_rows_match_permutation_walk():
    grades = 0
    for lam, gamma, depths in _row_cases():
        bounds, conds = conditions(lam, gamma, depths)
        for grade in grade_window(lam, gamma, depths):
            degree = -grade - gamma_height(gamma) + e_gamma(gamma)
            orbits = orbit_basis(gamma, bounds, degree)
            got = constraint_rows(orbits, conds)
            assert got == _reference_rows(lam, gamma, orbits, depths), \
                (lam, gamma, depths, grade)
            grades += 1
    assert grades > 3000


def test_rank2_graded_dimensions():
    dims = {p: dim_V(X58_LAM, X58_GAMMA, p, X58_XI) for p in range(8)}
    assert dims == {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0}
    assert oracle_multiplicity(X58_LAM, X58_GAMMA, X58_XI) == \
        QPolynomial({2: 1, 3: 1})
    with pytest.raises(ValueError):
        dim_V(X58_LAM, X58_GAMMA, -1, X58_XI)


def test_gamma_zero_dimension():
    assert dim_V((3, 1), (0, 0), 0, {}) == 1
    assert oracle_multiplicity((3, 1), (0, 0), {}) == QPolynomial({0: 1})


def test_evaluation_module_has_trivial_socle():
    # constant xi = 1: the graded limit collapses to V(lam)
    xi = {(1, 1): 1, (2, 2): 1, (1, 2): 1}
    assert not oracle_multiplicity((1, 0), (1, 0), xi)
    assert not oracle_multiplicity((1, 1), (1, 1), xi)


# ---------------------------------------------------------------- intervals

def test_conditions_on_rank_3():
    # r = (2, 2, 1): joins from the two nodes with r_i >= 2, poles of
    # depth 2 on both, and intervals (1, 3) and (2, 3); (1, 1) only
    # narrows the window of node 1, and nodes 2 and 3 keep lo = -lam_i
    depths = {(1, 1): 1, (1, 3): 2, (2, 3): 1}
    assert conditions((2, 1, 2), (2, 2, 1), depths) == (
        {1: (-1, 0), 2: (-1, 1), 3: (-2, 0)},
        [(("join", 1, 2), ((1, 2), (2, 1)), 2),
         (("join", 2, 1), ((2, 2), (1, 1)), 3),
         (("join", 2, 3), ((2, 2), (3, 1)), 3),
         (("pole", 1, 2), ((1, 2),), -2),
         (("pole", 2, 2), ((2, 2),), -1),
         (("interval", 1, 3), ((1, 1), (2, 1), (3, 1)), -2),
         (("interval", 2, 3), ((2, 1), (3, 1)), -1)])


def test_conditions_intervals():
    def intervals(lam, gamma, depths):
        return [c for c in conditions(lam, gamma, depths)[1] if c[0][0] == "interval"]

    assert intervals((1, 1), (1, 1), {(1, 2): 1}) == \
        [(("interval", 1, 2), ((1, 1), (2, 1)), -1)]
    # a node without variables makes the specialization vacuous
    assert intervals((1, 1), (1, 0), {(1, 2): 1}) == []
    xi3 = {(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3) if i <= j}
    assert intervals((1, 1, 1), (1, 1, 1), xi3) == [
        (("interval", 1, 2), ((1, 1), (2, 1)), -1),
        (("interval", 1, 3), ((1, 1), (2, 1), (3, 1)), -1),
        (("interval", 2, 3), ((2, 1), (3, 1)), -1)]
    # a root a < b left out of the map gives no interval
    del xi3[(1, 3)]
    assert [c[0] for c in intervals((1, 1, 1), (1, 1, 1), xi3)] == \
        [("interval", 1, 2), ("interval", 2, 3)]


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
    assert 3 - len(_echelon_mod_p(rows, 3)) == exact


def test_modular_corank_certifies_oracle_dimensions():
    for grade in (2, 3):
        orbits = _orbits_at(grade)
        rows = constraint_rows(orbits, X58_CONDS)
        echelon = _echelon_mod_p(sorted(rows.values(), key=len), len(orbits))
        mod = len(orbits) - len(echelon)
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
    # one entry, which vanishes mod p: peeling forces the column exactly,
    # before any modular step, so nothing falls back
    ({0: _PRIME}, 1, 0),
    # kernel vector (100003, 1): its lift mod p is a wrong small fraction
    ({0: 1, 1: -100003}, 2, 1),
    # two entries, both vanishing mod p: the modular rank drops to 0
    ({0: _PRIME, 1: 2 * _PRIME}, 2, 1),
])
def test_exact_corank_falls_back_to_bareiss(monkeypatch, row, ncols, want):
    calls = _count_fallbacks(monkeypatch)
    assert exact_corank({"row": row}, ncols) == want
    assert len(calls) == (0 if len(row) == 1 else 1)


def _singleton_chain(cols, coeffs):
    """Rows {c0: a0}, {c0: a1, c1: b1}, {c1: a2, c2: b2}, ...: peeling
    the first forces each next column in turn."""
    rows = [{cols[0]: coeffs[0][0]}]
    for k in range(1, len(cols)):
        rows.append({cols[k - 1]: coeffs[k][0], cols[k]: coeffs[k][1]})
    return rows


_NONZERO = st.one_of(st.integers(-4, 4).filter(bool),
                     st.sampled_from([_PRIME, -2 * _PRIME, 100003]))


@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.dictionaries(st.integers(0, k - 1), _ENTRIES, max_size=4),
             max_size=8),
    st.lists(st.integers(0, k - 1), unique=True, max_size=k),
    st.lists(st.tuples(_NONZERO, _NONZERO), min_size=k, max_size=k),
    st.randoms(use_true_random=False))))
def test_peeling_keeps_exact_corank(case):
    # random rows (with empty rows, zero entries, multiples of p and
    # columns no row touches) plus a cascading chain of singleton rows
    ncols, rows, chain, coeffs, rnd = case
    if chain:
        rows = rows + _singleton_chain(chain, coeffs)
    rnd.shuffle(rows)
    mat = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert exact_corank(dict(enumerate(rows)), ncols) == \
        ncols - integer_rank(mat)


def test_peeling_leaves_a_positive_corank_remainder(monkeypatch):
    # {0: 2} forces column 0, which leaves x_1 = x_2 on columns 1..3
    # (column 3 is touched by no row): corank 2, proved by the lifted
    # kernel of the remainder padded with a zero on column 0
    rows = {"a": {0: 2}, "b": {0: 5, 1: 1, 2: -1}}
    assert _peel(rows, 4) == ({1: {0: 1, 1: -1}}, 3)
    calls = _count_fallbacks(monkeypatch)
    assert exact_corank(rows, 4) == 2
    assert calls == []


def _tensor_square_grades(lam):
    xi = {root: 2 for root in positive_roots(len(lam))}
    for gamma in enumerate_dominant_gammas(lam):
        for grade in grade_window(lam, gamma, xi):
            yield lam, gamma, xi, grade


@pytest.mark.parametrize("lam, gamma, xi, grade", [
    *((X58_LAM, X58_GAMMA, X58_XI, grade) for grade in range(1, 6)),
    *_tensor_square_grades((2, 2)),
    *_tensor_square_grades((4, 0)),
])
def test_dim_V_matches_bareiss_corank(monkeypatch, lam, gamma, xi, grade):
    bounds, conds = conditions(lam, gamma, xi)
    degree = -grade - gamma_height(gamma) + e_gamma(gamma)
    orbits = orbit_basis(gamma, bounds, degree)
    rows = constraint_rows(orbits, conds)
    want = len(orbits) - integer_rank(_rows_to_matrix(rows, len(orbits)))
    calls = _count_fallbacks(monkeypatch)
    assert dim_V(lam, gamma, grade, xi) == want
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
    # a negative pole depth would be read as xi = 0
    with pytest.raises(ValueError):
        oracle_decomposition(lam=(2,), mode="full", xi={(1, 1): -1})
    with pytest.raises(ValueError):
        oracle_decomposition(lam=(5, 5), mode="full",
                             xi={(1, 1): 1, (2, 2): 1, (1, 2): -1})
    # the other mode's inputs would be named in the result unused
    word = DrinfeldWord(2, [(1, 0), (2, 3)])
    xi7 = {(1, 1): 7, (2, 2): 7, (1, 2): 7}
    with pytest.raises(ValueError):
        oracle_decomposition(lam=(1, 1), mode="full", xi=xi7, word=word)
    with pytest.raises(ValueError):
        oracle_decomposition(mode="pair", word=word, lam=(5, 5))
    with pytest.raises(ValueError):
        oracle_decomposition(mode="pair", word=word, xi=xi7)
    # gammas of the wrong rank or with a negative coordinate, in both
    # modes, fail as they do in the lattice count
    xi1 = {(1, 1): 1, (2, 2): 1, (1, 2): 1}
    for gamma, message in (((0, 0, 0), "gamma has rank 3, expected 2"),
                           ((1,), "gamma has rank 1, expected 2"),
                           ((-1, 0), "gamma must be nonnegative")):
        with pytest.raises(ValueError, match=re.escape(message)):
            multiplicity(word, gamma)
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_decomposition(lam=(1, 1), mode="full", xi=xi1, gammas=[gamma])
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_decomposition(mode="pair", word=word, gammas=[gamma])
    # a weight that is not dominant, though no gamma needs enumerating
    with pytest.raises(ValueError, match="dominant"):
        oracle_decomposition(lam=(-1, 0), mode="full", xi=xi1, gammas=[(0, 0)])


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

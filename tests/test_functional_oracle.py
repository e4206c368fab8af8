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
from hypothesis import example, given, strategies as st

from hldecomp import functional_oracle
from hldecomp.decomposition import graded_decomposition
from hldecomp.functional_oracle import (
    _PRIME,
    _corank,
    _echelon_mod_p,
    _lift_kernel,
    _peel,
    _pole_table,
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
                                  gamma_height, pairing, positive_roots)

from conftest import full_tables, multisets_by_product, shape_grid, word_grid

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
    return orbit_basis(full_tables(X58_GAMMA, X58_BOUNDS), degree)


# ------------------------------------------------------------------ windows

def test_conditions_windows():
    # the join bound 2 hi_1 + hi_2 + 1 lies above every z-exponent the
    # windows allow; the pole bound is -lam_1, the interval bound -v_{1,2}
    assert conditions(X58_LAM, X58_GAMMA, X58_XI) == (
        {1: (-2, -1), 2: (-2, 0)},
        [(("interval", 1, 2), ((1, 1), (2, 1)), -2),
         (("pole", 1, 2), ((1, 2),), -7),
         (("join", 1, 2), ((1, 2), (2, 1)), -1)])
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
                           ((-1, 0), "gamma must be nonnegative"),
                           ((0.5, 0), "gamma must hold integers, got (0.5, 0)"),
                           ((0, True), "gamma must hold integers, got (0, True)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            grade_window((1, 1), gamma, {})
        with pytest.raises(ValueError, match=re.escape(message)):
            grade_window((1, 1), gamma, "full", {})
        with pytest.raises(ValueError, match=re.escape(message)):
            dim_V((1, 1), gamma, 0, {})
    # rank 0 is no rank at all, though gamma agrees with lam
    for call in (lambda: dim_V((), (), 0, {}), lambda: grade_window((), (), {})):
        with pytest.raises(ValueError, match="rank must be a positive integer, got 0"):
            call()


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


def test_pole_table_without_rows_matches_filtered_product():
    # with lam_i = -r lo, the least z-exponent depth * lo of every pole
    # condition reaches its bound r lo, so no multiset is forced; lo <= 0
    # on every window that conditions makes
    for r in range(4):
        for lo in range(-3, 1):
            for hi in range(lo - 2, 3):
                table, rows_left = _pole_table(r, lo, hi, -r * lo)
                want = multisets_by_product(r, lo, hi)
                assert table == {d: tuple(group) for d, group in want.items()}
                assert list(table) == list(want) and not rows_left, (r, lo, hi)
    assert _pole_table(0, 0, -1, 0) == ({0: ((),)}, False)
    assert _pole_table(2, 0, -1, 0) == ({}, False)


def _orbits_by_product(gamma, bounds, degree):
    """orbit_basis from the product of every node's multisets, sorted."""
    flat = [[ms for msets in table.values() for ms in msets]
            for table in full_tables(gamma, bounds)]
    return sorted(orb for orb in product(*flat)
                  if sum(sum(ms) for ms in orb) == degree)


def test_orbit_basis_with_a_node_without_variables():
    # node 2 carries no variable, so its entry is the empty tuple
    lam, gamma = (2, 1, 2), (1, 0, 1)
    bounds, _ = conditions(lam, gamma, {})
    assert bounds == {1: (-2, -2), 3: (-2, -2)}
    assert orbit_basis(full_tables(gamma, bounds), -4) == [((-2,), (), (-2,))]
    bounds = {1: (-2, 1), 3: (-1, 2)}
    lengths = []
    tables = full_tables((2, 0, 3), bounds)
    for degree in range(-10, 8):
        got = orbit_basis(tables, degree)
        assert got == _orbits_by_product((2, 0, 3), bounds, degree), degree
        assert all(orb[1] == () for orb in got)
        lengths.append(len(got))
    assert lengths[0] == 0 and max(lengths) > 5
    # every shape of shape_grid(3, 2, 2) and the rank-4 shapes of
    # shape_grid(4, 2, 1), windows from xi = 1 and xi = 2, at every
    # degree from one below the degree window to one above it
    shapes = shape_grid(3, 2, 2) + [(lam, gamma) for lam, gamma in shape_grid(4, 2, 1)
                                    if len(lam) == 4]
    cases = 0
    for lam, gamma in shapes:
        for v in (1, 2):
            bounds, _ = conditions(lam, gamma, dict.fromkeys(positive_roots(len(lam)), v))
            lo = sum(gamma[i - 1] * a for i, (a, _) in bounds.items())
            hi = sum(gamma[i - 1] * b for i, (_, b) in bounds.items())
            tables = full_tables(gamma, bounds)
            for degree in range(lo - 1, hi + 2):
                assert orbit_basis(tables, degree) == \
                    _orbits_by_product(gamma, bounds, degree), (lam, gamma, v, degree)
                cases += 1
    assert cases == 11525


def test_orbit_basis_empty_window():
    # lo > hi at node 1: no monomial fits, at any degree
    bounds, _ = conditions((1, 0), (1, 0), {})
    assert bounds == {1: (-1, -2)}
    for degree in range(-4, 4):
        assert orbit_basis(full_tables((1, 0), bounds), degree) == []
    # one empty window empties the basis, whatever the other nodes allow
    for degree in range(-6, 6):
        assert orbit_basis(full_tables((2, 1), {1: (-2, 1), 2: (0, -1)}), degree) == []


# ------------------------------------------- explicit admissible functions

def test_known_functions_satisfy_all_constraints():
    for grade, func in ((3, F1), (2, F2)):
        orbits = _orbits_at(grade)
        assert set(func) <= set(orbits)
        rows = constraint_rows(dict(enumerate(orbits)), X58_CONDS)
        assert rows
        vec = [func.get(orb, 0) for orb in orbits]
        for key, row in rows.items():
            residual = sum(c * vec[o] for o, c in row.items())
            assert residual == 0, (key, residual)


def test_constraint_rows_reference_valid_orbits():
    orbits = _orbits_at(3)
    rows = constraint_rows(dict(enumerate(orbits)), X58_CONDS)
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
        tables = full_tables(gamma, bounds)
        for grade in grade_window(lam, gamma, depths):
            degree = -grade - gamma_height(gamma) + e_gamma(gamma)
            orbits = orbit_basis(tables, degree)
            got = constraint_rows(dict(enumerate(orbits)), conds)
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


@pytest.mark.parametrize("grade", [1.0, True, "1"])
def test_dim_V_refuses_a_grade_that_is_not_an_int(grade):
    with pytest.raises(ValueError, match=re.escape(
            "grade must be an integer, got %r" % (grade,))):
        dim_V((1, 1), (1, 1), grade, {})


def test_depth_map_is_checked_below_oracle_decomposition():
    # conditions checks the map, so every entry point below
    # oracle_decomposition refuses a bad one, not only normalize_xi
    for call, message in (
            (lambda: oracle_multiplicity((1, 1), (1, 1), {(1, 2): -1}),
             "pole depths must be nonnegative, got 1-2:-1"),
            (lambda: grade_window((1, 1), (1, 1), {(1, 2): 1.5}),
             "pole depths must be integers, got 1-2:1.5"),
            (lambda: dim_V((1, 1), (1, 1), 1, {(1, 3): 1}),
             "roots 1-3 out of range for rank 2"),
            (lambda: conditions((1, 1), (1, 1), {(1,): 1}),
             "root must be a pair, got (1,)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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
        [(("interval", 1, 3), ((1, 1), (2, 1), (3, 1)), -2),
         (("interval", 2, 3), ((2, 1), (3, 1)), -1),
         (("pole", 1, 2), ((1, 2),), -2),
         (("pole", 2, 2), ((2, 2),), -1),
         (("join", 1, 2), ((1, 2), (2, 1)), 2),
         (("join", 2, 1), ((2, 2), (1, 1)), 3),
         (("join", 2, 3), ((2, 2), (3, 1)), 3)])


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


@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.dictionaries(st.integers(0, k - 1), st.integers(-4, 4), max_size=4),
             max_size=10))))
def test_echelon_mod_p_is_reduced(case):
    # entries up to 4 on at most 6 columns keep every minor below p, so
    # the rank mod p is the rank over Q
    ncols, rows = case
    echelon = _echelon_mod_p(rows, ncols)
    for lead, row in echelon.items():
        assert row[lead] == 1 and min(row) == lead
        assert all(0 < v < _PRIME for v in row.values())
        assert not any(c in echelon for c in row if c != lead)
    mat = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert len(echelon) == integer_rank(mat)
    # unit rows complete the echelon, and the row after them is never read
    rest = iter(rows + [{c: 1} for c in range(ncols)] + [{0: 1}])
    assert sorted(_echelon_mod_p(rest, ncols)) == list(range(ncols))
    assert next(rest, None) is not None
    kernel = _lift_kernel(echelon, range(ncols))
    if kernel is not None:
        assert len(kernel) == ncols - len(echelon)
        for vec in kernel:
            for row in rows:
                assert sum(v * vec.get(c, 0) for c, v in row.items()) % _PRIME == 0


def test_modular_corank_certifies_oracle_dimensions():
    for grade in (2, 3):
        orbits = _orbits_at(grade)
        rows = constraint_rows(dict(enumerate(orbits)), X58_CONDS)
        echelon = _echelon_mod_p(sorted(rows.values(), key=len), len(orbits))
        mod = len(orbits) - len(echelon)
        exact = len(orbits) - integer_rank(_rows_to_matrix(rows, range(len(orbits))))
        assert mod == exact == 1


# entries mostly small, with a few that vanish mod p or have kernel
# entries too large to reconstruct, so both certificate outcomes occur
_ENTRIES = st.one_of(st.integers(-4, 4),
                     st.sampled_from([_PRIME, -2 * _PRIME, 100003, -100003]))

# the last fallback case of test_exact_corank_falls_back_to_bareiss as
# (ncols, rows): peeling forces columns 0 and 1, and the row left has
# no lifted kernel, so Bareiss reads the surviving ids 2, 3, 4.  Each
# property test below runs it on every run, whatever the draw
_FALLBACK_ON_LATE_IDS = (5, [{0: 1}, {1: 2}, {0: 1, 1: 1, 3: 1, 4: -100003}])


@example(_FALLBACK_ON_LATE_IDS)
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


@pytest.mark.parametrize("rows, ncols, want, fallbacks", [
    # one entry, which vanishes mod p: peeling forces the column exactly,
    # before any modular step, so nothing falls back
    ({"row": {0: _PRIME}}, 1, 0, 0),
    # kernel vector (100003, 1): its lift mod p is a wrong small fraction
    ({"row": {0: 1, 1: -100003}}, 2, 1, 1),
    # two entries, both vanishing mod p: the modular rank drops to 0
    ({"row": {0: _PRIME, 1: 2 * _PRIME}}, 2, 1, 1),
    # peeling forces columns 0 and 1, and the row left, x_3 = 100003 x_4,
    # has no lift either: the fallback's matrix must read the surviving
    # ids 2, 3, 4, not the first three columns
    ({"a": {0: 1}, "b": {1: 2}, "c": {0: 1, 1: 1, 3: 1, 4: -100003}}, 5, 2, 1),
])
def test_exact_corank_falls_back_to_bareiss(monkeypatch, rows, ncols, want, fallbacks):
    calls = _count_fallbacks(monkeypatch)
    assert exact_corank(rows, ncols) == want
    assert len(calls) == fallbacks


@pytest.mark.parametrize("rows, column", [
    # would be read as column 1
    ({0: {-1: 1, 0: 1}}, -1),
    # would raise a bare IndexError
    ({0: {0: 1, 5: -1}}, 5),
    ({0: {0: 1, 1.0: 1}}, 1.0),
])
def test_exact_corank_refuses_a_column_out_of_range(rows, column):
    with pytest.raises(ValueError, match=re.escape(
            "row 0 has column %r outside range(2)" % (column,))):
        exact_corank(rows, 2)


def test_exact_corank_leaves_its_rows_as_they_were():
    # exact_corank hands _peel copies of the rows without their zero
    # entries, and _peel prunes those: here every column is forced, one
    # after another, and "d" keeps an entry 0
    rows = {"a": {0: 2}, "b": {0: 5, 1: 1, 2: -1}, "c": {1: 3},
            "d": {2: 0, 3: 1}, "e": {1: 1, 3: 4}}
    before = {key: dict(row) for key, row in rows.items()}
    assert exact_corank(rows, 5) == 1
    assert rows == before


def _singleton_chain(cols, coeffs):
    """Rows {c0: a0}, {c0: a1, c1: b1}, {c1: a2, c2: b2}, ...: peeling
    the first forces each next column in turn."""
    rows = [{cols[0]: coeffs[0][0]}]
    for k in range(1, len(cols)):
        rows.append({cols[k - 1]: coeffs[k][0], cols[k]: coeffs[k][1]})
    return rows


_NONZERO = st.one_of(st.integers(-4, 4).filter(bool),
                     st.sampled_from([_PRIME, -2 * _PRIME, 100003]))


@example((*_FALLBACK_ON_LATE_IDS, [], [(1, 1)] * 5, random.Random(0)))
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
    # _peel prunes the rows it is handed, so it gets copies; the row
    # left keeps its orbit ids
    copies = {key: dict(row) for key, row in rows.items()}
    assert _peel(4, [lambda _: copies]) == ({1: {1: 1, 2: -1}}, [1, 2, 3])
    calls = _count_fallbacks(monkeypatch)
    assert exact_corank(rows, 4) == 2
    assert calls == []


def _checked_peel(ncols, builds):
    """_peel's result, whose surviving columns are checked against the
    ones a last batch that builds no row is handed (never called once
    every column is forced)."""
    seen = [[]]

    def record(free):
        seen.append(list(free))
        return {}

    out = _peel(ncols, [*builds, record])
    assert out[1] == seen[-1]
    return out


def _restricted(batch):
    """The batch builder for full rows: each row on the free columns,
    without its zero entries, as a copy that `_peel` may prune."""
    return lambda free: {k: {c: v for c, v in row.items() if v and c in free}
                         for k, row in enumerate(batch)}


@example((*_FALLBACK_ON_LATE_IDS, [], [(1, 1)] * 5, random.Random(0)))
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.dictionaries(st.integers(0, k - 1), _ENTRIES, max_size=4),
             max_size=8),
    st.lists(st.integers(0, k - 1), unique=True, max_size=k),
    st.lists(st.tuples(_NONZERO, _NONZERO), min_size=k, max_size=k),
    st.randoms(use_true_random=False))))
def test_peeling_in_batches_matches_peeling_at_once(case):
    # the rows of test_peeling_keeps_exact_corank, cut into random
    # batches (some empty); every batch after the first is built only on
    # the columns left free by the batches before it
    ncols, rows, chain, coeffs, rnd = case
    if chain:
        rows = rows + _singleton_chain(chain, coeffs)
    rnd.shuffle(rows)
    cuts = sorted(rnd.choices(range(len(rows) + 1), k=rnd.randint(0, 4)))
    batches = [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]
    at_once = _checked_peel(ncols, [_restricted(rows)])
    batched = _checked_peel(ncols, [_restricted(b) for b in batches])
    # the same rows left, at the same positions, on the same surviving
    # columns
    assert batched == at_once
    mat = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert _corank(*batched) == exact_corank(dict(enumerate(rows)), ncols) == \
        ncols - integer_rank(mat)


def _all_grades(lam, gammas, depths):
    for gamma in gammas:
        for grade in grade_window(lam, gamma, depths):
            degree = -grade - gamma_height(gamma) + e_gamma(gamma)
            yield gamma, grade, degree


def _pair_mode(word):
    lam = weight_of(word)
    return lam, enumerate_dominant_gammas(lam), {p: 1 for p in consecutive_pairs(word)}


def _constant_xi(lam, depth):
    return lam, enumerate_dominant_gammas(lam), dict.fromkeys(positive_roots(len(lam)), depth)


def _tensor_square(lam):
    return _constant_xi(lam, 2)


@pytest.mark.parametrize("lam, gammas, depths", [
    (X58_LAM, [X58_GAMMA], X58_XI),
    _tensor_square((2, 2)),
    _tensor_square((4, 0)),
    # 3 of its 6 node tables keep pole rows, so dim_V builds those
    # nodes' pole conditions on the filtered orbits
    _constant_xi((3, 3), 3),
    *(_pair_mode(word) for word in word_grid(4, 3)),
])
def test_dim_V_matches_the_one_batch_corank(lam, gammas, depths):
    # dim_V filters each node's multisets by its own pole conditions,
    # builds and peels its rows one condition at a time, each on the
    # orbits still free, and skips the conditions that can have no row;
    # exact_corank takes every row of every condition at once on the
    # full basis
    for gamma, grade, degree in _all_grades(lam, gammas, depths):
        bounds, conds = conditions(lam, gamma, depths)
        orbits = orbit_basis(full_tables(gamma, bounds), degree)
        want = exact_corank(constraint_rows(dict(enumerate(orbits)), conds), len(orbits))
        assert dim_V(lam, gamma, grade, depths) == want, (gamma, grade)


def _least_z(bounds, cond):
    """The least z-exponent the windows allow under a condition: the sum
    of k lo_t over its heads (t, k)."""
    return sum(k * bounds[t][0] for t, k in cond[1])


def _filtered(lam, gamma, bounds):
    """Each node's `_pole_table`: its filtered multisets and whether any
    pole row is left."""
    return [_pole_table(r, *bounds.get(i, (0, 0)), lam[i - 1])
            for i, r in enumerate(gamma, start=1)]


def test_grades_forced_early_build_no_join_rows(monkeypatch):
    lam, gammas, xi = _tensor_square((4, 4))
    calls = []

    def recorded(orbits, conds):
        calls.append((list(orbits.values()), list(conds)))
        return constraint_rows(orbits, conds)

    def free_after(orbits, conds):
        return _peel(len(orbits), [lambda _: constraint_rows(dict(enumerate(orbits)), conds)])[1]

    monkeypatch.setattr(functional_oracle, "constraint_rows", recorded)
    forced_early = without_conditions = all_skipped = emptied = pairs = skipped = 0
    full = kept_total = live_poles = 0
    kinds = set()
    for gamma, grade, degree in _all_grades(lam, gammas, xi):
        bounds, conds = conditions(lam, gamma, xi)
        orbits = orbit_basis(full_tables(gamma, bounds), degree)
        filters = _filtered(lam, gamma, bounds)
        kept = orbit_basis([table for table, _ in filters], degree)
        early = [c for c in conds if c[0][0] != "join"]
        forced = bool(orbits) and free_after(orbits, early) == []
        joins = any(c[0][0] == "join" for c in conds)
        # the conditions dim_V may build: no pole condition of a node
        # whose filter leaves no row, none whose least z-exponent
        # reaches its bound
        live = [c for c in conds if _least_z(bounds, c) < c[2]
                and (c[0][0] != "pole" or filters[c[0][1] - 1][1])]
        calls.clear()
        dim = dim_V(lam, gamma, grade, xi)
        # one condition per call, in the order of conditions, each on
        # filtered orbits only (any row of the filters' small systems is
        # built by the _filtered call above, before calls is cleared)
        assert all(len(conds_) == 1 for _, conds_ in calls), (gamma, grade)
        assert all(set(orbs) <= set(kept) for orbs, _ in calls), (gamma, grade)
        made = [cond for _, conds_ in calls for cond in conds_]
        assert made == live[:len(made)], (gamma, grade)
        if not kept:
            assert made == [] and dim == 0
        elif len(made) < len(live):
            # the rest is left out only once the last call forced every orbit
            assert free_after(kept, made) == [] != free_after(kept, made[:-1])
            assert dim == 0
        built = [cond[0][0] for cond in made]
        # join rows are built exactly when some orbit is still free
        # after the interval and pole rows
        assert ("join" in built) == (bool(orbits) and joins and not forced), (gamma, grade)
        # rows are built on a grade with filtered orbits unless every
        # condition it has is skipped
        assert bool(built) == bool(kept and live)
        forced_early += forced
        without_conditions += bool(orbits) and not conds
        all_skipped += bool(kept and conds) and not live
        emptied += bool(orbits) and not kept
        full += len(orbits)
        kept_total += len(kept)
        if orbits:
            pairs += len(conds)
            skipped += len(conds) - len(live)
            live_poles += sum(c[0][0] == "pole" for c in live)
            kinds.update(c[0][0::2] for c in conds if c not in live)
        if forced:
            assert dim == 0
    assert forced_early == 29
    assert without_conditions == 3
    assert all_skipped == 2
    assert emptied == 16
    # the node filters drop 1,416 of the 5,352 orbits
    assert (full, kept_total) == (5352, 3936)
    # 56.3% of the (grade, condition) pairs are skipped, and they are
    # every pole condition: a depth-2 pole has least z-exponent
    # 2 lo_i = -4 = -lam_i, and no node's filter leaves a pole row
    assert (skipped, pairs) == (316, 561)
    assert kinds == {("pole", 2), ("pole", 3), ("pole", 4)}
    assert live_poles == 0


def test_pole_tables_of_lam_3_3_keep_rows():
    # the node tables of (3, 3) with xi = 3 that keep pole rows are the
    # ones test_dim_V_matches_the_one_batch_corank runs through
    lam, gammas, xi = _constant_xi((3, 3), 3)
    keys = {(r, *bounds[i], lam[i - 1])
            for gamma in gammas
            for bounds in [conditions(lam, gamma, xi)[0]]
            for i, r in enumerate(gamma, start=1) if i in bounds}
    assert len(keys) == 6
    assert sorted(k for k in keys if _pole_table(*k)[1]) == \
        [(2, -3, -1, 3), (2, -3, 0, 3), (3, -3, 1, 3)]


def test_pole_table_depends_on_lam():
    # one window, three bounds -lam_i: the cache must not serve one for
    # another.  No pole row is left, and the survivors are the multisets
    # whose k lowest exponents, the least z-exponent of the depth-k
    # pole, sum to at least -lam_i for k = 2 and 3
    every = [ms for group in multisets_by_product(3, -2, 0).values() for ms in group]
    assert len(every) == 10
    for lam_i, size in ((2, 4), (3, 6), (4, 8)):
        table, rows_left = _pole_table(3, -2, 0, lam_i)
        kept = [ms for group in table.values() for ms in group]
        assert len(kept) == size and not rows_left
        assert kept == [ms for ms in every
                        if ms[1] + ms[2] >= -lam_i and sum(ms) >= -lam_i]
        assert all(sum(ms) == d for d, group in table.items() for ms in group)
        assert all(table.values())


def test_pole_filter_matches_the_grade_pole_peel():
    # every grade of shape_grid(3, 2, 2) with constant xi = 1 and xi = 2
    # and with the local Weyl xi_alpha = lam(h_alpha), then of (3, 3)
    # with xi = 3: the filtered basis is the full basis less the orbits
    # that peeling the grade's pole rows forces, and a pole row of node
    # i is left on the grade only if node i's filter leaves one
    cases = [(lam, gamma, depths)
             for lam, gamma in shape_grid(3, 2, 2)
             for roots in [positive_roots(len(lam))]
             for depths in (dict.fromkeys(roots, 1), dict.fromkeys(roots, 2),
                            {root: pairing(lam, root) for root in roots})]
    lam, gammas, xi = _constant_xi((3, 3), 3)
    cases += [(lam, gamma, xi) for gamma in gammas]
    grades = dropped = with_rows = 0
    for lam, gamma, depths in cases:
        bounds, conds = conditions(lam, gamma, depths)
        filters = _filtered(lam, gamma, bounds)
        tables = [table for table, _ in filters]
        every = full_tables(gamma, bounds)
        poles = [c for c in conds if c[0][0] == "pole"]
        for _, _, degree in _all_grades(lam, [gamma], depths):
            orbits = orbit_basis(every, degree)
            rows = constraint_rows(dict(enumerate(orbits)), poles)
            left, free = _peel(len(orbits), [lambda _: rows])
            kept = orbit_basis(tables, degree)
            assert kept == [orbits[o] for o in free], (lam, gamma, degree)
            labels = list(rows)
            assert all(filters[labels[r][0][1] - 1][1] for r in left)
            grades += 1
            dropped += len(orbits) - len(kept)
            with_rows += bool(left)
    # shape_grid gives 4,570 grades and 8,367 dropped orbits, and no
    # pole row left (lam_i <= 2); all 24 grades left with one are of (3, 3)
    assert (grades, dropped, with_rows) == (4631, 9019, 24)


def test_skipped_conditions_have_no_rows():
    # every grade of shape_grid(3, 2, 2) with constant xi = 1 and xi = 2
    # and with the local Weyl xi_alpha = lam(h_alpha): no signature of a
    # condition whose least z-exponent reaches its bound falls below it
    skipped = 0
    for lam, gamma in shape_grid(3, 2, 2):
        roots = positive_roots(len(lam))
        for depths in (dict.fromkeys(roots, 1), dict.fromkeys(roots, 2),
                       {root: pairing(lam, root) for root in roots}):
            bounds, conds = conditions(lam, gamma, depths)
            dead = [c for c in conds if _least_z(bounds, c) >= c[2]]
            tables = full_tables(gamma, bounds)
            for _, _, degree in _all_grades(lam, [gamma], depths):
                orbits = orbit_basis(tables, degree)
                for cond in dead:
                    assert constraint_rows(dict(enumerate(orbits)), [cond]) == {}, (lam, gamma, cond)
                skipped += len(dead) * bool(orbits)
    assert skipped == 8041


def _tensor_square_grades(lam):
    lam, gammas, xi = _tensor_square(lam)
    for gamma, grade, _ in _all_grades(lam, gammas, xi):
        yield lam, gamma, xi, grade


@pytest.mark.parametrize("lam, gamma, xi, grade", [
    *((X58_LAM, X58_GAMMA, X58_XI, grade) for grade in range(1, 6)),
    *_tensor_square_grades((2, 2)),
    *_tensor_square_grades((4, 0)),
])
def test_dim_V_matches_bareiss_corank(monkeypatch, lam, gamma, xi, grade):
    bounds, conds = conditions(lam, gamma, xi)
    degree = -grade - gamma_height(gamma) + e_gamma(gamma)
    orbits = orbit_basis(full_tables(gamma, bounds), degree)
    rows = constraint_rows(dict(enumerate(orbits)), conds)
    want = len(orbits) - integer_rank(_rows_to_matrix(rows, range(len(orbits))))
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
    # gammas of the wrong rank, with a negative coordinate or with a
    # non-integer one, in both modes, fail as they do in the lattice count
    xi1 = {(1, 1): 1, (2, 2): 1, (1, 2): 1}
    for gamma, message in (((0, 0, 0), "gamma has rank 3, expected 2"),
                           ((1,), "gamma has rank 1, expected 2"),
                           ((-1, 0), "gamma must be nonnegative"),
                           ((0.0, 0.0), "gamma must hold integers, got (0.0, 0.0)"),
                           ((0.5, 0), "gamma must hold integers, got (0.5, 0)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            multiplicity(word, gamma)
        with pytest.raises(ValueError, match=re.escape(message)):
            graded_decomposition(word, gammas=[gamma])
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_decomposition(lam=(1, 1), mode="full", xi=xi1, gammas=[gamma])
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_decomposition(mode="pair", word=word, gammas=[gamma])
    # a weight that is not dominant, though no gamma needs enumerating
    with pytest.raises(ValueError, match="dominant"):
        oracle_decomposition(lam=(-1, 0), mode="full", xi=xi1, gammas=[(0, 0)])


def test_repeated_gamma_is_refused():
    # it would be computed twice and listed twice in the domain
    word = DrinfeldWord(2, [(1, 0), (2, 3)])
    xi1 = {(1, 1): 1, (2, 2): 1, (1, 2): 1}
    for call in (lambda: graded_decomposition(word, gammas=[(1, 1), (1, 1)]),
                 lambda: oracle_decomposition(mode="pair", word=word,
                                              gammas=[(0, 0), (1, 1), [1, 1]]),
                 lambda: oracle_decomposition(lam=(1, 1), mode="full", xi=xi1,
                                              gammas=[(1, 1), (1, 1)])):
        with pytest.raises(ValueError, match=re.escape("gamma (1, 1) given twice")):
            call()


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

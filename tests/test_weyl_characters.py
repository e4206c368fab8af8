"""Tests for character tables and tensor product decomposition."""

import itertools
import re

import pytest

from hldecomp import weyl_characters
from hldecomp.root_system import weyl_dim
from hldecomp.weyl_characters import (
    straighten,
    tensor_decompose,
    tensor_power_multiplicity,
    weight_multiplicities,
)


def _cartan_row(i, n):
    row = [0] * n
    row[i - 1] = 2
    if i > 1:
        row[i - 2] = -1
    if i < n:
        row[i] = -1
    return row


def _reflect(w, i, n):
    # simple reflection s_i in fundamental weight coordinates
    row = _cartan_row(i, n)
    return tuple(x - w[i - 1] * r for x, r in zip(w, row))


def test_vector_representation():
    table = weight_multiplicities(2, (1, 0))
    assert table == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


def test_adjoint_representation():
    table = weight_multiplicities(2, (1, 1))
    assert table[(0, 0)] == 2
    assert sum(table.values()) == 8
    assert all(c == 1 for w, c in table.items() if w != (0, 0))


def test_weight_multiplicities_validation():
    with pytest.raises(ValueError):
        weight_multiplicities(2, (1, -1))
    with pytest.raises(ValueError):
        weight_multiplicities(2, (1, 0, 0))


def test_dimension_check():
    for n in (1, 2, 3):
        for mu in itertools.product(range(3), repeat=n):
            assert sum(weight_multiplicities(n, mu).values()) == weyl_dim(n, mu)


def test_weyl_group_invariance():
    for n, mu in ((2, (3, 1)), (3, (1, 0, 2))):
        table = weight_multiplicities(n, mu)
        for w, c in table.items():
            for i in range(1, n + 1):
                assert table[_reflect(w, i, n)] == c


def test_tensor_decompose_rank2():
    assert tensor_decompose(2, (1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}
    assert tensor_decompose(2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    assert tensor_decompose(2, (2, 1), (0, 0)) == {(2, 1): 1}


def test_tensor_decompose_conserves_dimension():
    for n, mu, nu in ((2, (1, 1), (2, 0)), (3, (1, 0, 1), (0, 1, 0))):
        dec = tensor_decompose(n, mu, nu)
        total = sum(c * weyl_dim(n, w) for w, c in dec.items())
        assert total == weyl_dim(n, mu) * weyl_dim(n, nu)


def _character_product(a, b):
    # pointwise product of two characters, written here so the identity
    # below does not go through straighten
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            out[w] = out.get(w, 0) + c1 * c2
    return out


def _assert_character_identity(n, entries):
    for mu, nu in itertools.product(itertools.product(entries, repeat=n), repeat=2):
        lhs = _character_product(weight_multiplicities(n, mu), weight_multiplicities(n, nu))
        rhs = {}
        for top, c in tensor_decompose(n, mu, nu).items():
            assert c > 0
            for w, m in weight_multiplicities(n, top).items():
                rhs[w] = rhs.get(w, 0) + c * m
        assert lhs == rhs, (mu, nu)


def test_character_identity():
    # chi(mu) chi(nu) = sum over constituents of c chi(top)
    for n in (1, 2):
        _assert_character_identity(n, range(3))
    _assert_character_identity(3, range(2))


@pytest.mark.slow
def test_character_identity_rank3():
    _assert_character_identity(3, range(3))


def _regular(y):
    # no positive root alpha_i + ... + alpha_j pairs to zero with y
    return all(sum(y[i:j + 1]) for i in range(len(y)) for j in range(i, len(y)))


def test_straighten_properties():
    for n in (1, 2, 3):
        for x in itertools.product(range(-5, 6), repeat=n):
            got = straighten(x)
            if min(x) >= 0:
                assert got == (1, x)
            if not _regular([c + 1 for c in x]):
                assert got is None, x
                continue
            sign, top = got
            assert sign in (1, -1) and min(top) >= 0
            for i in range(1, n + 1):
                # dot action: s_i . x = s_i(x + rho) - rho
                dot = tuple(c - 1 for c in _reflect(tuple(c + 1 for c in x), i, n))
                assert straighten(dot) == (-sign, top), (x, i)


@pytest.mark.parametrize("table", [{(0, 1): -1}, {(-2, 1): 1}])
def test_tensor_decompose_rejects_non_characters(monkeypatch, table):
    # a table that is not W-invariant straightens to a negative total
    monkeypatch.setattr(weyl_characters, "weight_multiplicities", lambda n, mu: table)
    with pytest.raises(ArithmeticError):
        tensor_decompose(2, (0, 0), (0, 0))


def test_tensor_power_multiplicity():
    assert tensor_power_multiplicity(2, (1, 0), 2, (0, 1)) == 1
    assert tensor_power_multiplicity(2, (1, 0), 2, (2, 0)) == 1
    assert tensor_power_multiplicity(2, (1, 0), 2, (1, 0)) == 0
    # power 1 is the module itself
    assert tensor_power_multiplicity(2, (1, 1), 1, (1, 1)) == 1
    assert tensor_power_multiplicity(2, (1, 1), 1, (0, 0)) == 0
    # cube of the vector representation
    assert tensor_power_multiplicity(2, (1, 0), 3, (3, 0)) == 1
    assert tensor_power_multiplicity(2, (1, 0), 3, (1, 1)) == 2
    assert tensor_power_multiplicity(2, (1, 0), 3, (0, 0)) == 1
    # a power that is not an int of at least 1 is refused by name: 1.5
    # would reach range() and True would be read as 1
    for power in (0, 1.5, True):
        with pytest.raises(ValueError, match=re.escape(
                "power must be a positive integer, got %r" % (power,))):
            tensor_power_multiplicity(2, (1, 0), power, (1, 0))
    # both weights go through check_weight
    for nu in ((5,), (0, 1, 7), (-1, 2)):
        with pytest.raises(ValueError):
            tensor_power_multiplicity(2, (1, 0), 2, nu)
    with pytest.raises(ValueError):
        tensor_power_multiplicity(2, (1, -1), 1, (1, -1))

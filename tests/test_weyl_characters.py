"""Tests for character tables and tensor product peeling."""

import itertools

import pytest

from hldecomp.root_system import weyl_dim
from hldecomp.weyl_characters import (
    _peel,
    character_convolve,
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


def test_peel_rejects_non_characters():
    with pytest.raises(ArithmeticError):
        _peel(2, {(0, 1): -1})
    with pytest.raises(ArithmeticError):
        _peel(2, {(1, 0): 1, (0, 0): 5})


def test_convolve_is_symmetric():
    a = weight_multiplicities(2, (2, 0))
    b = weight_multiplicities(2, (0, 1))
    assert character_convolve(a, b) == character_convolve(b, a)


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
    with pytest.raises(ValueError):
        tensor_power_multiplicity(2, (1, 0), 0, (0, 0))

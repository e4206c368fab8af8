"""Characters of simple sl(n+1) modules and tensor product decomposition.

Weight multiplicities come from counting Gelfand-Tsetlin patterns, so
everything stays in exact integer arithmetic.  Tensor products are
decomposed greedily: convolve the two characters, then repeatedly strip
the character of the highest weight that maximizes a strictly concave
linear functional.  Concavity makes that weight a genuine highest
weight of the remainder, so the loop terminates with the full list of
constituents.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .root_system import check_rank, is_dominant


@lru_cache(maxsize=None)
def _eps_weights(row):
    """Epsilon-coordinate weights of all patterns under the given row.

    Returns ((weight, count), ...) where weight has one entry per row
    index; the k-th entry of a pattern's weight is the sum of row k
    minus the sum of row k+1, counted from the bottom.
    """
    if len(row) == 1:
        return (((row[0],), 1),)
    total = sum(row)
    acc = {}
    for nxt in _interleavings(row):
        s = sum(nxt)
        for w, c in _eps_weights(nxt):
            key = w + (total - s,)
            acc[key] = acc.get(key, 0) + c
    return tuple(sorted(acc.items()))


def _interleavings(row):
    # rows s with row[t] >= s[t] >= row[t+1]; such s are automatically
    # weakly decreasing
    ranges = [range(row[t + 1], row[t] + 1) for t in range(len(row) - 1)]
    return product(*ranges)


def weight_multiplicities(n: int, mu) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the simple module V(mu).

    Keys are weights in the fundamental weight basis, values the
    multiplicities; together they enumerate a basis of V(mu).
    """
    check_rank(n)
    mu = tuple(mu)
    if len(mu) != n or not is_dominant(mu):
        raise ValueError("need a dominant weight of rank %d, got %r" % (n, mu))
    top = tuple(sum(mu[j:]) for j in range(n)) + (0,)
    out = {}
    for w, c in _eps_weights(top):
        nu = tuple(w[t] - w[t + 1] for t in range(n))
        out[nu] = out.get(nu, 0) + c
    return out


def character_convolve(a: dict, b: dict) -> dict:
    """Pointwise product of two characters given as weight -> count."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            out[w] = out.get(w, 0) + c1 * c2
    return out


def _concave_key(n):
    # f(w) = sum_i i (n + 1 - i) w_i; strictly concave across the nodes,
    # so f(alpha_i) = 2 for every simple root and the f-maximal weight of
    # a character is always a highest weight
    coeff = [i * (n + 1 - i) for i in range(1, n + 1)]
    return lambda w: sum(c * x for c, x in zip(coeff, w))


def _peel(n: int, weights: dict) -> dict[tuple[int, ...], int]:
    """Decompose a character into irreducible highest weights greedily."""
    key = _concave_key(n)
    rest = {w: c for w, c in weights.items() if c}
    out = {}
    while rest:
        top = max(rest, key=lambda w: (key(w), w))
        mult = rest[top]
        if mult < 0 or not is_dominant(top):
            raise ArithmeticError("input is not a genuine character, stuck at %r" % (top,))
        out[top] = mult
        for w, c in weight_multiplicities(n, top).items():
            left = rest.get(w, 0) - mult * c
            if left:
                rest[w] = left
            else:
                rest.pop(w, None)
    return out


def tensor_decompose(n: int, mu, nu) -> dict[tuple[int, ...], int]:
    """Multiplicities of the simple constituents of V(mu) (x) V(nu)."""
    prod = character_convolve(weight_multiplicities(n, mu),
                              weight_multiplicities(n, nu))
    return _peel(n, prod)


def tensor_power_multiplicity(n: int, mu, power: int, nu) -> int:
    """Multiplicity of V(nu) inside V(mu) tensored with itself power times."""
    if power < 1:
        raise ValueError("power must be at least 1")
    mu = tuple(mu)
    acc = {mu: 1}
    for _ in range(power - 1):
        nxt = {}
        for eta, mult in acc.items():
            for w, c in tensor_decompose(n, eta, mu).items():
                nxt[w] = nxt.get(w, 0) + mult * c
        acc = nxt
    return acc.get(tuple(nu), 0)


"""Characters of simple sl(n+1) modules and tensor product decomposition.

Weight multiplicities come from counting Gelfand-Tsetlin patterns, so
everything stays in exact integer arithmetic.  Tensor products are
decomposed by the Brauer-Klimyk formula (the Racah-Speiser algorithm,
Humphreys, Introduction to Lie Algebras and Representation Theory,
section 24): the character of one factor is read once, and each of its
weights, shifted by the other factor's highest weight, is straightened
under the dot action to a signed highest weight.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .root_system import check_weight


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
    mu = check_weight(n, mu)
    top = tuple(sum(mu[j:]) for j in range(n)) + (0,)
    out = {}
    for w, c in _eps_weights(top):
        nu = tuple(w[t] - w[t + 1] for t in range(n))
        out[nu] = out.get(nu, 0) + c
    return out


def straighten(weight):
    """Move weight to the dominant chamber under the dot action.

    Reflects y = weight + rho by a simple reflection s_i while some
    fundamental coordinate y_i is negative; each step raises y in the
    dominance order inside a finite Weyl group orbit, so the loop ends.
    Returns (sign, y - rho) with sign (-1)^steps, or None when
    weight + rho lies on a wall, where the alternating sum cancels.
    """
    y = [c + 1 for c in weight]
    sign = 1
    while (c := min(y)) < 0:
        i = y.index(c)
        # s_i y = y - y_i alpha_i, and alpha_i is row i of the Cartan matrix
        y[i] = -c
        if i > 0:
            y[i - 1] += c
        if i + 1 < len(y):
            y[i + 1] += c
        sign = -sign
    if 0 in y:
        return None
    return sign, tuple(c - 1 for c in y)


def tensor_decompose(n: int, mu, nu) -> dict[tuple[int, ...], int]:
    """Multiplicities of the simple constituents of V(mu) (x) V(nu).

    Brauer-Klimyk: each weight w of V(nu), with multiplicity c, adds
    sign * c at the dominant weight straighten(mu + w).
    """
    mu = check_weight(n, mu)
    out = {}
    for w, c in weight_multiplicities(n, nu).items():
        hit = straighten([a + b for a, b in zip(mu, w)])
        if hit:
            sign, top = hit
            out[top] = out.get(top, 0) + sign * c
    if any(c < 0 for c in out.values()):
        raise ArithmeticError("not a genuine character: %r" % (out,))
    return {w: c for w, c in out.items() if c}


def tensor_power_multiplicity(n: int, mu, power: int, nu) -> int:
    """Multiplicity of V(nu) inside V(mu) tensored with itself power
    times; power must be an int of at least 1 (a bool is refused)."""
    mu = check_weight(n, mu)
    nu = check_weight(n, nu)
    if type(power) is not int or power < 1:
        raise ValueError("power must be a positive integer, got %r" % (power,))
    acc = {mu: 1}
    for _ in range(power - 1):
        nxt = {}
        for eta, mult in acc.items():
            for w, c in tensor_decompose(n, eta, mu).items():
                nxt[w] = nxt.get(w, 0) + mult * c
        acc = nxt
    return acc.get(nu, 0)


"""Root and weight combinatorics for sl(n+1).

Weights are tuples of length n in the fundamental weight basis, root
lattice elements are tuples of length n in the simple root basis.
Positive roots are encoded as intervals (i, j) with 1 <= i <= j <= n,
meaning alpha_i + alpha_{i+1} + ... + alpha_j.
"""

from __future__ import annotations


def check_rank(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("rank must be a positive integer, got %r" % (n,))
    return n


def positive_roots(n: int) -> list[tuple[int, int]]:
    """All positive roots as intervals (i, j), ordered lexicographically."""
    check_rank(n)
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def pairing(lam, root) -> int:
    """Evaluate the weight lam on the coroot of the interval root (i, j).

    For alpha = alpha_i + ... + alpha_j this is lam_i + ... + lam_j.
    """
    i, j = root
    if not 1 <= i <= j <= len(lam):
        raise ValueError("root %r out of range for rank %d" % (root, len(lam)))
    return sum(lam[i - 1 : j])


def is_dominant(weight) -> bool:
    return all(c >= 0 for c in weight)


def check_gamma(lam, gamma) -> tuple[int, ...]:
    """gamma as a tuple, checked to be a nonnegative root lattice
    element of the same rank as lam."""
    gamma = tuple(gamma)
    if len(gamma) != len(lam):
        raise ValueError("gamma has rank %d, expected %d" % (len(gamma), len(lam)))
    if any(g < 0 for g in gamma):
        raise ValueError("gamma must be nonnegative, got %r" % (gamma,))
    return gamma


def fundamental_weight(n: int, i: int) -> tuple[int, ...]:
    check_rank(n)
    if not 1 <= i <= n:
        raise ValueError("node %d out of range for rank %d" % (i, n))
    return tuple(1 if k == i else 0 for k in range(1, n + 1))


def weight_minus_gamma(lam, gamma) -> tuple[int, ...]:
    """Coordinates of lam - gamma in the fundamental weight basis.

    lam is given in the fundamental weight basis, gamma in the simple
    root basis.  Since alpha_i = 2 omega_i - omega_{i-1} - omega_{i+1},
    the i-th coordinate is lam_i - 2 gamma_i + gamma_{i-1} + gamma_{i+1}
    with gamma_0 = gamma_{n+1} = 0.
    """
    n = len(lam)
    if len(gamma) != n:
        raise ValueError("weight and root coordinates have different ranks")
    g = (0,) + tuple(gamma) + (0,)
    return tuple(lam[i] - 2 * g[i + 1] + g[i] + g[i + 2] for i in range(n))


def gamma_height(gamma) -> int:
    """Sum of the simple root coordinates."""
    return sum(gamma)


def e_gamma(gamma) -> int:
    """The quadratic statistic sum_i gamma_i * gamma_{i+1}."""
    return sum(gamma[i] * gamma[i + 1] for i in range(len(gamma) - 1))


def dominant_gamma_bounds(lam) -> tuple[int, ...]:
    """Entrywise upper bounds for gamma with lam - gamma dominant.

    gamma_i is at most the value of lam on the i-th fundamental coweight,
    sum_j min(i,j) * (n+1-max(i,j)) * lam_j / (n+1).
    """
    n = len(lam)
    out = []
    for i in range(1, n + 1):
        num = sum(min(i, j) * (n + 1 - max(i, j)) * lam[j - 1] for j in range(1, n + 1))
        out.append(num // (n + 1))
    return tuple(out)


def enumerate_dominant_gammas(lam) -> list[tuple[int, ...]]:
    """All gamma in the positive root lattice with lam - gamma dominant.

    Sorted by height, then lexicographically.  The search runs node by
    node and prunes with the dominance condition at node i as soon as
    gamma_{i+1} is fixed, so large ranks with small lam stay cheap.
    """
    lam = tuple(lam)
    n = check_rank(len(lam))
    if not is_dominant(lam):
        raise ValueError("need a dominant weight, got %r" % (lam,))
    bounds = dominant_gamma_bounds(lam)
    found = []
    prefix = []

    def extend(i):
        for c in range(bounds[i - 1] + 1):
            prefix.append(c)
            ok = True
            if i >= 2:
                left = prefix[i - 3] if i >= 3 else 0
                ok = lam[i - 2] - 2 * prefix[i - 2] + left + c >= 0
            if ok:
                if i == n:
                    left = prefix[n - 2] if n >= 2 else 0
                    if lam[n - 1] - 2 * c + left >= 0:
                        found.append(tuple(prefix))
                else:
                    extend(i + 1)
            prefix.pop()

    extend(1)
    found.sort(key=lambda g: (sum(g), g))
    return found


def weyl_dim(n: int, mu) -> int:
    """Dimension of the simple sl(n+1) module with highest weight mu.

    Product over positive roots (i, j) of (mu_{i..j} + j - i + 1) / (j - i + 1).
    """
    check_rank(n)
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError("weight has rank %d, expected %d" % (len(mu), n))
    if not is_dominant(mu):
        raise ValueError("dimension needs a dominant weight, got %r" % (mu,))
    num = 1
    den = 1
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            num *= sum(mu[i - 1 : j]) + j - i + 1
            den *= j - i + 1
    if num % den:
        raise ArithmeticError("Weyl dimension formula gave %d/%d" % (num, den))
    return num // den

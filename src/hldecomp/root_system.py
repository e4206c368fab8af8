"""Root and weight combinatorics for sl(n+1).

Weights are tuples of length n in the fundamental weight basis, root
lattice elements are tuples of length n in the simple root basis.
Positive roots are encoded as intervals (i, j) with 1 <= i <= j <= n,
meaning alpha_i + alpha_{i+1} + ... + alpha_j.

`live_paths` is the one memoised walk over node-local states (i,
x_{i-1}, x_i) in the package: `enumerate_dominant_gammas` lists the
gammas with lam - gamma dominant through it,
`multipartition.enumerate_multipartitions` the pruned multipartitions,
and `functional_oracle.orbit_basis` the running degree sums of the dual
orbit basis.
"""

from __future__ import annotations


def check_rank(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("rank must be a positive integer, got %r" % (n,))
    return n


def check_ints(what: str, values) -> tuple[int, ...]:
    """values as a tuple, refused unless every entry is an int (bools
    are refused too), so a fractional entry is an error, never
    truncated, and refused if it is not iterable at all.  what names
    the input in the message."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError("%s must be a sequence of integers, got %r"
                         % (what, values)) from None
    if not all(type(v) is int for v in values):
        raise ValueError("%s must hold integers, got %r" % (what, values))
    return values


def check_pair(what: str, values) -> tuple[int, int]:
    """values as a pair of ints, refused as `check_ints` refuses them,
    and also unless there are exactly two, so that no caller unpacks a
    tuple of the wrong length."""
    values = check_ints(what, values)
    if len(values) != 2:
        raise ValueError("%s must be a pair, got %r" % (what, values))
    return values


def check_node_pairs(n: int, pairs) -> tuple[tuple[int, int], ...]:
    """pairs as a tuple of node pairs (a, b), each refused by
    `check_pair` or unless 1 <= a < b <= n: a reversed pair, a node 0
    and a node past n are misread pairs, and a pair spans two distinct
    nodes."""
    try:
        pairs = tuple(pairs)
    except TypeError:
        raise ValueError("pairs must be a sequence of node pairs, got %r"
                         % (pairs,)) from None
    pairs = tuple(check_pair("pair", pair) for pair in pairs)
    for a, b in pairs:
        if not 1 <= a < b <= n:
            raise ValueError("pair %r is not two nodes 1 <= a < b <= %d" % ((a, b), n))
    return pairs


def positive_roots(n: int) -> list[tuple[int, int]]:
    """All positive roots as intervals (i, j), ordered lexicographically."""
    check_rank(n)
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def pairing(lam, root) -> int:
    """Evaluate the weight lam on the coroot of the interval root (i, j).

    For alpha = alpha_i + ... + alpha_j this is lam_i + ... + lam_j.
    """
    i, j = check_pair("root", root)
    if not 1 <= i <= j <= len(lam):
        raise ValueError("root %r out of range for rank %d" % (root, len(lam)))
    return sum(lam[i - 1 : j])


def is_dominant(weight) -> bool:
    return all(c >= 0 for c in weight)


def check_weight(n: int, lam) -> tuple[int, ...]:
    """lam as a tuple, checked to be a dominant integral weight of rank
    n."""
    check_rank(n)
    lam = check_ints("weight", lam)
    if len(lam) != n:
        raise ValueError("weight has rank %d, expected %d" % (len(lam), n))
    if not is_dominant(lam):
        raise ValueError("weight must be dominant, got %r" % (lam,))
    return lam


def check_gamma(lam, gamma) -> tuple[int, ...]:
    """gamma as a tuple, checked to be a nonnegative root lattice
    element of the same rank as lam, with integer entries; rank 0 is
    refused by `check_rank`."""
    gamma = check_ints("gamma", gamma)
    if len(gamma) != len(lam):
        raise ValueError("gamma has rank %d, expected %d" % (len(gamma), len(lam)))
    check_rank(len(gamma))
    if any(g < 0 for g in gamma):
        raise ValueError("gamma must be nonnegative, got %r" % (gamma,))
    return gamma


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


def live_paths(n: int, start, firsts, successors) -> list[tuple]:
    """Every sequence (x_1, ..., x_n) with x_1 in firsts and x_{i+1} in
    successors(i, x_{i-1}, x_i) for i < n, where x_0 = start and
    successors(n, x_{n-1}, x_n) must be nonempty.

    Sequences come in choice order: by x_1 in firsts order, then by
    each x_{i+1} in the order successors lists it.  The walk runs over
    the states (i, x_{i-1}, x_i), and a dict local to the call keeps,
    per state, the successors that have a completion.  The first phase
    fills that memo depth first from each x_1; the second reads the
    sequences off it.  So no state without a completion is entered, and
    the work grows with the number of states and the output, not with
    the product of the choices.  successors is called once per state
    reached and its values must be hashable.
    """
    live = {}  # (i, x_{i-1}, x_i) -> successors with a completion

    def live_nexts(i, prev, cur):
        key = (i, prev, cur)
        out = live.get(key)
        if out is None:
            succ = successors(i, prev, cur)
            if i < n:
                succ = [nxt for nxt in succ if live_nexts(i + 1, cur, nxt)]
            out = live[key] = tuple(succ)
        return out

    found = []
    path = []

    def extend(i, prev, cur):
        path.append(cur)
        if i == n:
            found.append(tuple(path))
        else:
            for nxt in live[i, prev, cur]:
                extend(i + 1, cur, nxt)
        path.pop()

    for first in firsts:
        if live_nexts(1, start, first):
            extend(1, start, first)
    return found


def enumerate_dominant_gammas(lam) -> list[tuple[int, ...]]:
    """All gamma in the positive root lattice with lam - gamma dominant.

    Sorted by height, then lexicographically.  The dominance condition
    at node i reads only gamma_{i-1}, gamma_i and gamma_{i+1}: it asks
    gamma_{i+1} >= 2 gamma_i - gamma_{i-1} - lam_i.  So `live_paths`
    walks the gammas with successors running from that floor (at least
    0) up to the `dominant_gamma_bounds` entry of gamma_{i+1}, where
    gamma_{n+1} = 0 makes the last node a check.
    """
    lam = check_ints("weight", lam)
    check_weight(len(lam), lam)
    bounds = dominant_gamma_bounds(lam) + (0,)  # gamma_{n+1} = 0
    found = live_paths(
        len(lam), 0, range(bounds[0] + 1),
        lambda i, prev, cur: range(max(0, 2 * cur - prev - lam[i - 1]), bounds[i] + 1))
    found.sort(key=lambda g: (sum(g), g))
    return found


def gamma_domain(lam, gammas=None) -> list[tuple[int, ...]]:
    """The gammas a decomposition of lam covers: every gamma with lam -
    gamma dominant when gammas is None, else the given ones, all checked
    (`check_gamma`, lam - gamma dominant, and none given twice) before
    any is computed.  lam is checked by `check_weight` either way."""
    lam = check_ints("weight", lam)
    check_weight(len(lam), lam)
    if gammas is None:
        return enumerate_dominant_gammas(lam)
    domain = [check_gamma(lam, gamma) for gamma in gammas]
    seen = set()
    for gamma in domain:
        if not is_dominant(weight_minus_gamma(lam, gamma)):
            raise ValueError("weight - gamma is not dominant for gamma %r" % (gamma,))
        if gamma in seen:
            raise ValueError("gamma %r given twice" % (gamma,))
        seen.add(gamma)
    return domain


def weyl_dim(n: int, mu) -> int:
    """Dimension of the simple sl(n+1) module with highest weight mu.

    Product over positive roots (i, j) of (mu_{i..j} + j - i + 1) / (j - i + 1).
    With s_k = mu_1 + ... + mu_k + k (s_0 = 0), the factor of (i, j) is
    (s_j - s_{i-1}) / (j - i + 1), so each root reads one difference of
    prefix sums.
    """
    mu = check_weight(n, mu)
    s = [0]
    for c in mu:
        s.append(s[-1] + c + 1)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n + 1):
            num *= s[j] - s[i]
            den *= j - i
    if num % den:
        raise ArithmeticError("Weyl dimension formula gave %d/%d" % (num, den))
    return num // den

"""Partitions, multipartitions and the box statistics attached to them.

A partition is a weakly decreasing tuple of positive integers, a
multipartition is a tuple of n partitions with |mu_i| = gamma_i.  The
statistics below control the polytope attached to a multipartition: the
capacities P_{s,i} and the base grade shift K.

The search and the polytopes read these statistics from one cached
column-count vector per partition, c[s] = boxes in the first s columns
for s = 0..|mu|, which stays at |mu| past its end.  Its first
difference c[s] - c[s-1] counts the rows of length >= s and its second
difference the rows of length exactly s, so the capacities that decide
pruning, the group caps and row multiplicities of the polytope, and K
are all table lookups.  Capacities are listed only up to the largest
part t of mu: past t, mu(s) stays put while the neighbours' counts can
only grow, so no smaller capacity and no row lies beyond it.
"""

from __future__ import annotations

from functools import lru_cache


def check_partition(mu) -> tuple[int, ...]:
    parts = tuple(mu)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError("parts must be weakly decreasing, got %r" % (parts,))
    if parts and parts[-1] <= 0:
        raise ValueError("parts must be positive, got %r" % (parts,))
    return parts


@lru_cache(maxsize=None)
def col_counts(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Column-count vector (c[0], ..., c[|mu|]) of the partition tuple mu.

    c[s] is the number of boxes in the first s columns, sum of
    min(part, s); it equals |mu| for every s >= the largest part.
    """
    out = [0]
    for s in range(1, sum(mu) + 1):
        out.append(out[-1] + sum(1 for p in mu if p >= s))
    return tuple(out)


def row_mult(mu, r: int) -> int:
    """Number of rows of length exactly r."""
    return sum(1 for p in mu if p == r)


@lru_cache(maxsize=None)
def _partitions_bounded(m: int, maxpart: int) -> tuple[tuple[int, ...], ...]:
    if m == 0:
        return ((),)
    out = []
    for first in range(min(m, maxpart), 0, -1):
        for rest in _partitions_bounded(m - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(m: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of m, largest first part first."""
    if m < 0:
        raise ValueError("cannot partition %d" % m)
    return _partitions_bounded(m, m)


def capacities(lam_i: int, mu_prev, mu, mu_next) -> list[int]:
    """Capacities [P_1, ..., P_t] at one node, t the largest part of mu.

    P_s = lam_i - 2 mu(s) + mu_prev(s) + mu_next(s), where mu(s) counts
    the boxes in the first s columns; pass () for a missing neighbour.
    P_s >= P_t for every s > t (see the module docstring).  The
    partitions must be tuples.
    """
    own = col_counts(mu)
    left = col_counts(mu_prev)
    right = col_counts(mu_next)
    nl = len(left) - 1
    nr = len(right) - 1
    return [lam_i - 2 * own[s] + left[s if s < nl else nl] + right[s if s < nr else nr]
            for s in range(1, mu[0] + 1 if mu else 1)]


def row_counts(mu) -> list[int]:
    """[m_1, ..., m_t], m_s the number of rows of length exactly s and t
    the largest part of the tuple mu.

    Read from the column counts as (c[s] - c[s-1]) - (c[s+1] - c[s]).
    """
    c = col_counts(mu)
    c += (c[-1],)
    return [2 * c[s] - c[s - 1] - c[s + 1] for s in range(1, mu[0] + 1 if mu else 1)]


def compute_K(mp, lam) -> int:
    """Base grade of a multipartition.

    Sum over nodes of  sum_j (2 j mu_i^j - mu_{i+1}(mu_i^j)) - lam_i d(mu_i),
    with d the number of rows and mu_{n+1} empty.
    """
    n = len(lam)
    total = 0
    for i in range(1, n + 1):
        mu = mp[i - 1]
        nxt = col_counts(tuple(mp[i])) if i <= n - 1 else (0,)
        top = len(nxt) - 1
        for j, part in enumerate(mu, start=1):
            total += 2 * j * part - nxt[part if part < top else top]
        total -= lam[i - 1] * len(mu)
    return total


def enumerate_multipartitions(gamma, lam, prune: bool = True):
    """All multipartitions mu with |mu_i| = gamma_i, optionally pruned.

    With prune on, a multipartition survives only if every capacity
    P_{s,i} for 1 <= s <= gamma_i is nonnegative.  This is the only
    place where the sign of a capacity decides a result.  Pruning
    happens during the node-by-node search: the capacities at node i
    only involve mu_{i-1}, mu_i, mu_{i+1}, so they are checked as soon
    as the next component is chosen.
    """
    lam = tuple(lam)
    gamma = tuple(gamma)
    n = len(lam)
    if len(gamma) != n:
        raise ValueError("gamma and lam have different ranks")
    if any(g < 0 for g in gamma):
        raise ValueError("gamma must be nonnegative, got %r" % (gamma,))
    choices = [partitions_of(g) for g in gamma]
    out = []
    cur = []

    def caps_ok(i):
        # capacities at node i; callable once cur holds mu_1 .. mu_{i+1}
        caps = capacities(lam[i - 1], cur[i - 2] if i >= 2 else (), cur[i - 1],
                          cur[i] if i <= n - 1 else ())
        for cap in caps:
            if cap < 0:
                return False
        return True

    def extend(i):
        for part in choices[i - 1]:
            cur.append(part)
            if prune and i >= 2 and not caps_ok(i - 1):
                cur.pop()
                continue
            if i == n:
                if not prune or caps_ok(n):
                    out.append(tuple(cur))
            else:
                extend(i + 1)
            cur.pop()

    if n:
        extend(1)
    return out

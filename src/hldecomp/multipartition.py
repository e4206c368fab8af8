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

Every capacity at node i reads only (lam_i, mu_{i-1}, mu_i, mu_{i+1}),
so the pruned search is a walk over node-local states: a call to
`root_system.live_paths`, the walk that also lists the dominant gammas.
_successors(lam_i, mu_{i-1}, (mu_i, run), gamma_{i+1}, ...) lists the
choices of mu_{i+1} that keep every capacity at node i nonnegative.
P_s >= 0 is a lower bound need_s on mu_{i+1}(s) read off mu_{i-1} and
mu_i alone (`_needs`, the one place that writes P_s), so each call
computes one threshold vector and compares every candidate's column
counts with it; `capacities` subtracts the same vector from mu_{i+1}'s
counts.

The search also drops the multipartitions whose polytope a pair
constraint (a, b) rules out.  Node t has a dead top when mu_t has a row
of length 1 and P_{1,t} = lam_t - 2 l(mu_t) + l(mu_{t-1}) + l(mu_{t+1})
is 0, l counting parts: its top length 1 variable can never be
positive.  polytope_count.build_polytope emits (a, b) only when every
node of a..b has a row of length 1, so the constraint can never be met
exactly when every node of a..b has a dead top, and a node without a
row of length 1 makes every pair through it vacuous.  The walk's states
are (mu_i, run), run holding the open pairs whose nodes before node i
all had a dead top.  Choosing mu_{i+1} decides node i: with a dead top
the choice is dropped when a pair of run ends at i, and otherwise run
gains the pairs that open at i; with any other top run empties.  The
successor table _successors, cached for the life of the process, is
keyed by every input it reads: (lam_i, mu_{i-1}, (mu_i, run),
gamma_{i+1}) and the pairs that open and end at node i, so its entries
never go stale across weights or pair sets.  Within one search, the
walk's dead-end memo keeps the successors of each state that have a
completion, so no prefix without one is entered.
The polytope groups and K are lists and sums of node terms over the
same four inputs, read from the one process-wide table node_terms,
which is keyed by all four; node_entries lists one entry per node, and
polytope_count.build_polytope and compute_K read both from it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import ge

from .root_system import check_gamma, check_ints, check_node_pairs, check_weight, live_paths


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


def _needs(lam_i: int, mu_prev, mu) -> list[int]:
    """Thresholds [need_0, need_1, ..., need_t] at the node of mu, t its
    largest part: P_s >= 0 asks mu_next(s) >= need_s = 2 mu(s) - lam_i -
    mu_prev(s), and need_0 = 0 lines up with c[0] of a column-count
    vector.  Pass () for a missing neighbour.
    """
    own = col_counts(mu)
    left = col_counts(mu_prev)
    nl = len(left) - 1
    return [0] + [2 * own[s] - lam_i - left[s if s < nl else nl]
                  for s in range(1, mu[0] + 1 if mu else 1)]


def capacities(lam_i: int, mu_prev, mu, mu_next) -> list[int]:
    """Capacities [P_1, ..., P_t] at one node, t the largest part of mu.

    P_s = lam_i - 2 mu(s) + mu_prev(s) + mu_next(s), where mu(s) counts
    the boxes in the first s columns: mu_next(s) less the threshold
    need_s of `_needs`.  Pass () for a missing neighbour.  P_s >= P_t
    for every s > t (see the module docstring).  The partitions must be
    tuples.
    """
    need = _needs(lam_i, mu_prev, mu)
    right = col_counts(mu_next)
    nr = len(right) - 1
    return [right[s if s < nr else nr] - need[s] for s in range(1, len(need))]


def row_counts(mu) -> list[int]:
    """[m_1, ..., m_t], m_s the number of rows of length exactly s and t
    the largest part of the tuple mu.

    Read from the column counts as (c[s] - c[s-1]) - (c[s+1] - c[s]).
    """
    c = col_counts(mu)
    c += (c[-1],)
    return [2 * c[s] - c[s - 1] - c[s + 1] for s in range(1, mu[0] + 1 if mu else 1)]


@lru_cache(maxsize=None)
def node_terms(lam_i: int, mu_prev, mu, mu_next):
    """(groups, K term) of one node, cached for the life of the process.

    groups holds (r, m_r, P_r) for the depths r that hold rows of mu,
    depth 1 first; depths past the largest part hold none, and their
    capacities are at least the one at that part.  The K term is
    sum_j (2 j mu^j - mu_next(mu^j)) - lam_i d(mu), d the number of
    rows.  Pass () for a missing neighbour; the partitions must be
    tuples.
    """
    caps = capacities(lam_i, mu_prev, mu, mu_next)
    groups = tuple((r, size, cap)
                   for r, (size, cap) in enumerate(zip(row_counts(mu), caps), start=1)
                   if size)
    nxt = col_counts(mu_next)
    top = len(nxt) - 1
    k_term = (sum(2 * j * part - nxt[part if part < top else top]
                  for j, part in enumerate(mu, start=1))
              - lam_i * len(mu))
    return groups, k_term


def node_entries(mp, lam):
    """The node_terms entries of the nodes of the multipartition mp, in
    node order.  Raises ValueError on a weight that `check_weight`
    refuses and on a multipartition with the wrong number of
    components."""
    lam = check_ints("weight", lam)
    check_weight(len(lam), lam)
    if len(mp) != len(lam):
        raise ValueError("multipartition has %d components, expected %d" % (len(mp), len(lam)))
    parts = ((),) + tuple(map(tuple, mp)) + ((),)
    return list(map(node_terms, lam, parts, parts[1:], parts[2:]))


def compute_K(mp, lam) -> int:
    """Base grade of a multipartition: the sum of its node_terms K terms.

    build_polytope sums the same terms as it reads the groups and keeps
    the total as spec.K; this is the stand-alone reading."""
    return sum(k_term for _, k_term in node_entries(mp, lam))


@lru_cache(maxsize=None)
def _successors(lam_i: int, mu_prev, state, g_next: int, opens, ends):
    """The states (mu_next, run) that follow state = (mu, run) at the
    node of mu; opens and ends are the pairs that open and end at this
    node.  Cached for the life of the process.

    mu_next runs over the partitions of g_next in partitions_of order
    that keep every capacity at the node nonnegative.  P_s >= 0 asks
    mu_next(s) >= need_s, so each call reads the threshold vector of
    `_needs` once and keeps the candidates whose column counts reach it
    at every s.  Every candidate has mu_next(s) = g_next for s >=
    g_next, so the thresholds past g_next pass or fail all candidates
    at once.  This is the only place where the sign of a capacity
    decides a result; `capacities` reads the same thresholds for
    node_terms.  With g_next = 0 the last node passes or fails.

    mu_next also decides the node: its top is dead when mu has a row of
    length 1 and P_1 = 0, that is when mu_next has need_1 parts.  A
    dead top drops mu_next when a pair of run ends here, and otherwise
    adds opens to run (none of run ends here then); any other top
    empties run, as it meets or voids every open pair.
    """
    mu, run = state
    need = _needs(lam_i, mu_prev, mu)
    if max(need[g_next + 1:], default=0) > g_next:
        return ()
    dead_len = need[1] if 1 in mu else -1
    closes = any(pair in run for pair in ends)
    return tuple((nxt, run + opens if len(nxt) == dead_len else ())
                 for nxt in partitions_of(g_next)
                 if all(map(ge, col_counts(nxt), need))
                 and not (closes and len(nxt) == dead_len))


def enumerate_multipartitions(gamma, lam, pairs=()):
    """The multipartitions mu with |mu_i| = gamma_i whose capacities
    P_{s,i}, 1 <= s <= gamma_i, are all nonnegative, and whose polytope
    no pair constraint rules out.

    pairs: node ranges (a, b), 1 <= a < b <= n, as build_polytope takes
    them, checked by `check_node_pairs`; any set of ranges, overlapping
    ones included.  A multipartition is dropped when every node of some
    pair has a dead top (module docstring): no node of the pair can then
    have the positive top length 1 variable its constraint asks for, so
    the polytope holds no point.  With no pairs that drops nothing.
    They come in lexicographic partitions_of order; lam is checked by
    `check_weight`.  The capacities at node i involve only mu_{i-1},
    mu_i, mu_{i+1}, so `live_paths` walks the states (mu_i, run) with
    successors _successors(lam_i, mu_{i-1}, (mu_i, run), gamma_{i+1},
    ...), where
    gamma_{n+1} = 0 makes the last node a check; run is stripped from
    the listed paths.
    """
    lam = check_ints("weight", lam)
    check_weight(len(lam), lam)
    gamma = check_gamma(lam, gamma)
    pairs = check_node_pairs(len(lam), pairs)
    g_next = gamma[1:] + (0,)
    nodes = range(1, len(lam) + 1)
    opens = [tuple(p for p in pairs if p[0] == i) for i in nodes]
    ends = [tuple(p for p in pairs if p[1] == i) for i in nodes]
    paths = live_paths(
        len(lam), ((), ()), [(mu, ()) for mu in partitions_of(gamma[0])],
        lambda i, prev, cur: _successors(lam[i - 1], prev[0], cur, g_next[i - 1],
                                         opens[i - 1], ends[i - 1]))
    return [tuple(mu for mu, _ in path) for path in paths]

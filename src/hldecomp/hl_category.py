"""Height functions, sink/source data and prime words of level one.

A height function kappa on the nodes 1..n changes by at most 1 along
each edge.  Restricted to an interval J without flat edges it produces
marked vertices: sinks are strict local minima, sources strict local
maxima, and a single-node interval counts as a sink.  The associated
word lists a factor (i, kappa(i)) for every sink and (i, kappa(i) + 2)
for every source; such factor lists are exactly the words with strictly
increasing nodes, exponent steps of size +-(i_{j+1} - i_j + 2), and
strictly alternating step signs.
"""

from __future__ import annotations

from bisect import bisect_right

from .root_system import check_rank, pairing, positive_roots


class InvalidWord(ValueError):
    """Factor list that does not define a prime level-one module."""


class FlatEdgeInJ(ValueError):
    """The height function has a flat edge inside the chosen interval."""


def check_height_function(kappa) -> tuple[int, ...]:
    kappa = tuple(int(v) for v in kappa)
    check_rank(len(kappa))
    for t, (a, b) in enumerate(zip(kappa, kappa[1:]), start=1):
        if abs(a - b) > 1:
            raise ValueError(
                "height function jumps by %d between nodes %d and %d" % (b - a, t, t + 1)
            )
    return kappa


def check_interval(J, n: int) -> tuple[int, int]:
    lo, hi = J
    if not 1 <= lo <= hi <= n:
        raise ValueError("interval %r out of range for rank %d" % (J, n))
    return (int(lo), int(hi))


def marked_vertices(kappa, J):
    """Sinks and sources of kappa restricted to the interval J.

    Returns (sinks, sources) as increasing tuples of nodes.  Each node
    of J is compared with its neighbours inside J only: a node whose
    neighbours are all higher is a sink, one whose neighbours are all
    lower a source.  A single-node interval has no neighbours in J, so
    its node is a sink.  A flat edge inside J raises FlatEdgeInJ.
    """
    kappa = check_height_function(kappa)
    lo, hi = check_interval(J, len(kappa))
    for t in range(lo, hi):
        if kappa[t - 1] == kappa[t]:
            raise FlatEdgeInJ(
                "kappa is flat on the edge (%d, %d) inside %r" % (t, t + 1, (lo, hi))
            )
    sinks = []
    sources = []
    for i in range(lo, hi + 1):
        around = [kappa[j - 1] for j in (i - 1, i + 1) if lo <= j <= hi]
        if all(v > kappa[i - 1] for v in around):
            sinks.append(i)
        elif all(v < kappa[i - 1] for v in around):
            sources.append(i)
    return tuple(sinks), tuple(sources)


def validate_word(factors) -> list[str]:
    """Human-readable violations of the prime level-one word conditions.

    Empty list means the factor list is a valid word.  Checked: nodes
    strictly increase, consecutive exponent steps are +-(i' - i + 2),
    and the step signs strictly alternate.
    """
    problems = []
    factors = [(int(i), int(m)) for i, m in factors]
    signs = []
    for idx, ((i1, m1), (i2, m2)) in enumerate(zip(factors, factors[1:]), start=1):
        if i2 <= i1:
            problems.append("nodes not strictly increasing at factor %d: %d then %d" % (idx, i1, i2))
            signs.append(None)
            continue
        gap = i2 - i1 + 2
        diff = m2 - m1
        if diff == gap:
            signs.append(1)
        elif diff == -gap:
            signs.append(-1)
        else:
            signs.append(None)
            problems.append(
                "exponent step %d between nodes %d and %d, need +-%d" % (diff, i1, i2, gap)
            )
    for idx in range(len(signs) - 1):
        if signs[idx] is not None and signs[idx] == signs[idx + 1]:
            problems.append("steps %d and %d have the same sign, signs must alternate" % (idx + 1, idx + 2))
    return problems


class DrinfeldWord:
    """A prime level-one word: factors (i_j, m_j) with i_1 < ... < i_k."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors):
        check_rank(n)
        factors = tuple((int(i), int(m)) for i, m in factors)
        if not factors:
            raise InvalidWord("a word needs at least one factor")
        if any(not 1 <= i <= n for i, _ in factors):
            raise InvalidWord("factor nodes %r out of range for rank %d"
                              % (sorted({i for i, _ in factors}), n))
        problems = validate_word(factors)
        if problems:
            raise InvalidWord("; ".join(problems))
        self.n = n
        self.factors = factors

    def nodes(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.factors)

    def __eq__(self, other):
        return (isinstance(other, DrinfeldWord)
                and self.n == other.n and self.factors == other.factors)

    def __hash__(self):
        return hash((self.n, self.factors))

    def __repr__(self):
        return "DrinfeldWord(%d, %r)" % (self.n, list(self.factors))


def weight_of(word: DrinfeldWord) -> tuple[int, ...]:
    """Highest weight of the word's module: one omega_i per factor node."""
    lam = [0] * word.n
    for i, _ in word.factors:
        lam[i - 1] += 1
    return tuple(lam)


def consecutive_pairs(word: DrinfeldWord) -> tuple[tuple[int, int], ...]:
    """Node intervals (i_j, i_{j+1}) spanned by consecutive factors."""
    nodes = word.nodes()
    return tuple(zip(nodes, nodes[1:]))


def pi_from_interval(kappa, J) -> DrinfeldWord:
    """Word attached to a height function and interval.

    Sinks contribute (i, kappa(i)), sources (i, kappa(i) + 2).
    """
    kappa = check_height_function(kappa)
    sinks, sources = marked_vertices(kappa, J)
    factors = sorted(
        [(i, kappa[i - 1]) for i in sinks] + [(i, kappa[i - 1] + 2) for i in sources]
    )
    return DrinfeldWord(len(kappa), factors)


def pi_to_height_interval(word: DrinfeldWord):
    """A height function and interval reproducing the word.

    Inverse of pi_from_interval up to the free choice of kappa off the
    interval.  Marked nodes get kappa(i) = m_j for sinks and m_j - 2 for
    sources.  Each node t then follows the segment of slope +-1 between
    the consecutive marked nodes around it; a node left of the interval
    follows the first segment and a node right of it the last, and a
    single factor gives one segment of slope 0.
    """
    facs = word.factors
    # the exponent rises sink -> source, so a rising first step (or a
    # single factor) means the first marked node is a sink
    first_is_sink = len(facs) == 1 or facs[1][1] > facs[0][1]
    points = [(i, m if (idx % 2 == 0) == first_is_sink else m - 2)
              for idx, (i, m) in enumerate(facs)]
    segments = []
    for (a, va), (b, vb) in zip(points, points[1:]):
        if abs(vb - va) != b - a:
            raise ArithmeticError("marked values %d at node %d and %d at node %d "
                                  "not reachable with slope +-1" % (va, a, vb, b))
        segments.append((a, va, (vb - va) // (b - a)))
    segments = segments or [(*points[0], 0)]
    starts = [a for a, _, _ in segments]
    kappa = []
    for t in range(1, word.n + 1):
        a, va, slope = segments[max(bisect_right(starts, t) - 1, 0)]
        kappa.append(va + slope * (t - a))
    return tuple(kappa), (points[0][0], points[-1][0])


def xi_from_weight(lam) -> dict[tuple[int, int], int]:
    """The xi-tuple of a graded limit: xi_alpha = ceil(lam(h_alpha) / 2)."""
    n = len(lam)
    return {root: -(-pairing(lam, root) // 2) for root in positive_roots(n)}


def normalize_xi(n: int, xi) -> dict[tuple[int, int], int]:
    """Lower each xi_alpha to the minimum over roots containing alpha.

    xi must give a nonnegative pole depth on every positive root of rank
    n and on nothing else; ValueError names the roots that are missing,
    out of range or negative.  The result satisfies xi_beta <= xi_alpha
    whenever the interval of beta contains the interval of alpha, and
    the map is idempotent.
    """
    roots = positive_roots(n)
    missing = [r for r in roots if r not in xi]
    if missing:
        raise ValueError("missing roots %s" % ", ".join("%d-%d" % r for r in missing))
    extra = sorted(set(xi).difference(roots))
    if extra:
        raise ValueError("roots %s out of range for rank %d"
                         % (", ".join("%d-%d" % r for r in extra), n))
    negative = [r for r in roots if xi[r] < 0]
    if negative:
        raise ValueError("pole depths must be nonnegative, got %s"
                         % ", ".join("%d-%d:%d" % (i, j, xi[i, j]) for i, j in negative))
    out = {}
    for (i, j) in roots:
        out[(i, j)] = min(xi[(a, b)] for (a, b) in roots if a <= i and j <= b)
    return out


def is_normalized(n: int, xi) -> bool:
    return dict(xi) == normalize_xi(n, xi)

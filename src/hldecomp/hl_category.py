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

    Returns (sinks, sources) as increasing tuples of nodes.  Sinks are
    strict local minima and sources strict local maxima, where boundary
    nodes only see their neighbour inside J and a single-node interval
    is a sink.  A flat edge inside J raises FlatEdgeInJ.
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
        left_higher = i > lo and kappa[i - 2] > kappa[i - 1]
        left_lower = i > lo and kappa[i - 2] < kappa[i - 1]
        right_higher = i < hi and kappa[i] > kappa[i - 1]
        right_lower = i < hi and kappa[i] < kappa[i - 1]
        if lo == hi:
            sinks.append(i)
        elif not left_lower and not right_lower and (left_higher or right_higher):
            sinks.append(i)
        elif not left_higher and not right_higher and (left_lower or right_lower):
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
    interval: marked nodes get kappa(i) = m_j for sinks and m_j - 2 for
    sources, kappa interpolates with slope +-1 in between, and outside
    the interval it continues the boundary slope (constant for a single
    factor).
    """
    facs = word.factors
    n = word.n
    marked = [i for i, _ in facs]
    lo, hi = marked[0], marked[-1]
    if len(facs) == 1:
        first_is_sink = True
    else:
        # the exponent rises sink -> source, so a rising first step
        # means the first marked node is a sink
        first_is_sink = facs[1][1] > facs[0][1]
    values = {}
    for idx, (i, m) in enumerate(facs):
        is_sink = (idx % 2 == 0) == first_is_sink
        values[i] = m if is_sink else m - 2
    kappa = [0] * n
    kappa[lo - 1] = values[lo]
    for a, b in zip(marked, marked[1:]):
        va, vb = values[a], values[b]
        if abs(vb - va) != b - a:
            raise ArithmeticError("marked values %d at node %d and %d at node %d "
                                  "not reachable with slope +-1" % (va, a, vb, b))
        step = 1 if vb > va else -1
        for t in range(a + 1, b + 1):
            kappa[t - 1] = va + step * (t - a)
    if len(facs) >= 2:
        left_step = 1 if values[marked[1]] > values[marked[0]] else -1
        right_step = 1 if values[marked[-1]] > values[marked[-2]] else -1
    else:
        left_step = right_step = 0
    for t in range(lo - 1, 0, -1):
        kappa[t - 1] = kappa[t] - left_step
    for t in range(hi + 1, n + 1):
        kappa[t - 1] = kappa[t - 2] + right_step
    return tuple(kappa), (lo, hi)


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

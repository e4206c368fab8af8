"""Graded multiplicities as lattice point counts.

Each multipartition mu of shape gamma carries a polytope: variables
C_{d,r,i} grouped by node i and row length r (d runs over the m_{i,r}
rows of that length), subject to

  * C >= 0 and sum_d C_{d,r,i} <= P_{r,i} for every depth 1 <= r <= r_i,
  * for every pair of consecutive word nodes (a, b), at least one of
    the top variables C_{m_{t,1},1,t} with a <= t <= b is positive.

The grade of a lattice point with level sum_{d,r,i} d * C_{d,r,i} is
p = (|gamma| - K(mu)) - level, and the multiplicity polynomial of gamma
is the sum over multipartitions of the grade histograms.

The level polynomial of one group, m variables of weights 1..m whose
sum is at most P, is the Gaussian binomial [m + P choose m]_q (Andrews,
The Theory of Partitions, Thm 3.1), and a pair constraint reads only
the top variable of each node in its range.  So count_by_grade
multiplies per-node polynomials along the nodes, each split by whether
the node's top variable is zero or positive and cached per node groups,
keeping the products apart by the last node whose top variable is
positive (a transfer matrix, Stanley, EC1 4.7).

Most multipartitions that survive the capacity pruning carry a
polytope with no lattice point, for one node-local reason: every node
of some pair constraint has a top length 1 variable of cap 0.
multiplicity hands the word's pairs to enumerate_multipartitions, whose
search drops exactly those multipartitions, so only polytopes that can
hold a point are built and counted; no empty polytope is left for a
separate test to skip.  build_polytope also sums K(mu) from the node
terms it reads, so multiplicity needs no second pass over the nodes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import multipartition as mpart
from .hl_category import consecutive_pairs, weight_of
from .root_system import check_gamma, check_node_pairs


class QPolynomial:
    """Polynomial in q with nonnegative integer coefficients.

    Stored sparsely as {grade: coefficient}; zeros are never kept.
    Grades and coefficients must be ints (bools are refused), and so
    must a grade that is looked up, so a fractional or boolean value is
    an error, never truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        for p, c in (coeffs or {}).items():
            if type(p) is not int or type(c) is not int:
                raise TypeError("grade %r and coefficient %r must be integers" % (p, c))
            if p < 0:
                raise ValueError("negative grade %d" % p)
            if c < 0:
                raise ValueError("negative coefficient %d at grade %d" % (c, p))
            if c:
                data[p] = c
        self.coeffs = data

    def __eq__(self, other):
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return QPolynomial(out)

    def __getitem__(self, p):
        if type(p) is not int:
            raise TypeError("grade %r must be an integer" % (p,))
        return self.coeffs.get(p, 0)

    def at_one(self) -> int:
        """Value at q = 1, the ungraded multiplicity."""
        return sum(self.coeffs.values())

    def support(self):
        return sorted(self.coeffs)

    def __repr__(self):
        return "QPolynomial(%r)" % (self.coeffs,)

    def _format(self, power_fmt, sep) -> str:
        """Terms in increasing grade joined by sep; q^p with p >= 2 is
        written power_fmt % p."""
        if not self.coeffs:
            return "0"
        terms = []
        for p in sorted(self.coeffs):
            c = self.coeffs[p]
            if p == 0:
                terms.append(str(c))
                continue
            power = "q" if p == 1 else power_fmt % p
            terms.append(power if c == 1 else "%d%s" % (c, power))
        return sep.join(terms)

    def plain(self) -> str:
        return self._format("q^%d", " + ")

    def latex(self) -> str:
        return self._format("q^{%d}", "+")

    def to_json(self) -> dict:
        return {str(p): self.coeffs[p] for p in sorted(self.coeffs)}

    @classmethod
    def from_json(cls, data) -> "QPolynomial":
        return cls({int(p): c for p, c in data.items()})


class PolytopeSpec:
    """Counting data for one multipartition.

    nodes: node i's groups at nodes[i - 1], as node_terms lists them:
    (r, size, cap) for the depths r that hold rows, depth 1 first.  A
    group's variables C_d, d = 1..size, have level weights d and sum to
    at most cap; the node's top length 1 variable is C_size of its depth
    1 group.  The groups are tuples, as count_by_grade caches their
    polynomials.  pairs: the node ranges (a, b) of the pair
    constraints, each asking that the top length 1 variable of some
    node a <= t <= b be positive (a node without one cannot satisfy
    it).  K: the base grade of the multipartition, summed by
    build_polytope from the node terms it reads (compute_K gives the
    same value).  Raises ValueError on a pair outside 1 <= a <= b <=
    len(nodes), which the two counters would read differently.
    A group cap may be negative when the multipartition was not
    pruned; the counters then return zero.  For lam >= 0 this covers
    the depths without rows too: a negative capacity there always
    comes with one at an occupied depth, since P_{s,i} is concave
    between occupied depths, P_{0,i} = lam_i and P_{s,i} only grows
    past the largest part.
    """

    __slots__ = ("nodes", "pairs", "K")

    def __init__(self, nodes, pairs, K=0):
        self.nodes = tuple(nodes)
        self.pairs = tuple(pairs)
        n = len(self.nodes)
        for a, b in self.pairs:
            if not 1 <= a <= b <= n:
                raise ValueError("pair %r is not a node range 1 <= a <= b <= %d"
                                 % ((a, b), n))
        self.K = K


def build_polytope(parts, lam, pairs=()) -> PolytopeSpec:
    """Polytope of one multipartition.

    parts: tuple of partitions, component i holding gamma_i boxes.
    pairs: node intervals (a, b) of consecutive word factors, two ints
    with 1 <= a < b <= n.  The pair constraint for (a, b) is emitted as
    that range only when every node in it has a row of length 1,
    otherwise the underlying relation is vacuous and the constraint is
    dropped.  Each node's groups and K term come from one entry of the
    process-wide table mpart.node_terms, read through mpart.node_entries;
    the K terms add up to spec.K.

    Raises ValueError on a weight or a number of components that
    mpart.node_entries refuses, and on a pair that `check_node_pairs`
    refuses.
    """
    nodes, k_terms = zip(*mpart.node_entries(parts, lam))
    emitted = [(a, b) for a, b in check_node_pairs(len(nodes), pairs)
               if all(node and node[0][0] == 1 for node in nodes[a - 1:b])]
    return PolytopeSpec(nodes, emitted, sum(k_terms))


@lru_cache(maxsize=None)
def _gaussian(m, cap):
    """Coefficients of the Gaussian binomial [m + cap choose m]_q: the
    level polynomial of m variables of weights 1..m with sum at most
    cap.  () (zero) for cap < 0, which also covers an empty group."""
    if cap < 0:
        return ()
    if m == 0:
        return (1,)
    # q-Pascal: G(m, c) = G(m - 1, c) + q^m G(m, c - 1)
    out = list(_gaussian(m - 1, cap)) + [0] * cap
    for j, c in enumerate(_gaussian(m, cap - 1), start=m):
        out[j] += c
    return tuple(out)


def _product(polys):
    # full product of coefficient sequences; () when one is zero
    out = [1]
    for p in polys:
        if not p:
            return ()
        out = _convolve_truncated(out, p, len(out) + len(p) - 2)
    return tuple(out)


@lru_cache(maxsize=None)
def _node_polys(groups):
    """Level polynomials of one node's node_terms groups, split by its
    top length 1 variable C_{m_1} of cap P_1: (top zero, top positive)
    = (G(m_1 - 1, P_1), q^{m_1} G(m_1, P_1 - 1)) times the Gaussians of
    the deeper groups.  A node without a top variable (no depth 1
    group, or an empty one), or whose top variable cannot be positive
    (P_1 <= 0), has one polynomial and no branch: (whole,).
    """
    gaussians = [_gaussian(size, cap) for _, size, cap in groups]
    r, m1, p1 = groups[0] if groups else (0, 0, 0)
    if r != 1 or not m1 or p1 < 1:
        return (_product(gaussians),)
    rest = gaussians[1:]
    return (_product([_gaussian(m1 - 1, p1)] + rest),
            _product([(0,) * m1 + _gaussian(m1, p1 - 1)] + rest))


def count_by_grade(spec: PolytopeSpec, height: int) -> QPolynomial:
    """Grade polynomial of one polytope.

    height is |gamma|; a point of level L contributes to grade
    p = (height - spec.K) - L, so the histogram is read off in reverse.
    A negative level bound gives zero.  Otherwise the node polynomials
    are multiplied along the nodes, truncated at the level bound, and
    the products are kept apart by the last node whose top length 1
    variable is positive (0 before any): a top zero step keeps that
    state, a top positive step sets it to the node.  At node b every
    constraint (a, b) drops the states below a.
    """
    max_level = height - spec.K
    if max_level < 0:
        return QPolynomial()
    close = {}  # node b -> the largest a of a constraint (a, b)
    for a, b in spec.pairs:
        close[b] = max(close.get(b, 0), a)
    # state -> level histogram
    states = {0: [1] + [0] * max_level}
    for i, groups in enumerate(spec.nodes, start=1):
        zero, *positive = _node_polys(groups)
        # a top zero polynomial 1 (a lone length 1 row, say) leaves every
        # product as it is
        nxt = states if zero == (1,) else {
            s: _convolve_truncated(h, zero, max_level) for s, h in states.items()}
        if positive:
            nxt[i] = _convolve_truncated(list(map(sum, zip(*states.values()))),
                                         positive[0], max_level)
        lo = close.get(i, 0)
        states = {s: h for s, h in nxt.items() if s >= lo}
    hist = map(sum, zip(*states.values()))
    return QPolynomial({max_level - lvl: c for lvl, c in enumerate(hist) if c})


def count_by_grade_ie(spec: PolytopeSpec, height: int) -> QPolynomial:
    """Independent recount of count_by_grade by inclusion-exclusion.

    A pair constraint fails exactly when the top length 1 variables of
    its nodes all vanish, so summing (-1)^|S| over subsets S of
    constraints with those variables of every node in their ranges
    pinned to zero counts the admissible points.  Each term is a
    product of per-group level polynomials from the _group_poly DP, not
    the Gaussians count_by_grade reads; used as a cross check, not for
    speed.
    """
    max_level = height - spec.K
    if max_level < 0:
        return QPolynomial()
    groups = [(i, group) for i, node in enumerate(spec.nodes, start=1) for group in node]
    acc = [0] * (max_level + 1)
    for k in range(len(spec.pairs) + 1):
        sign = -1 if k % 2 else 1
        for S in combinations(spec.pairs, k):
            banned = {t for a, b in S for t in range(a, b + 1)}
            term = [1] + [0] * max_level
            for i, (r, size, cap) in groups:
                top = {size} if r == 1 and i in banned else set()
                term = _convolve_truncated(
                    term, _group_poly(size, cap, top, max_level), max_level)
                if not any(term):
                    break
            for lvl, cnt in enumerate(term):
                acc[lvl] += sign * cnt
    if any(c < 0 for c in acc):
        raise ArithmeticError("inclusion-exclusion went negative: %s" % (acc,))
    return QPolynomial({max_level - lvl: c for lvl, c in enumerate(acc) if c})


def _group_poly(size, cap, banned, max_level):
    # level histogram of one group: C_d >= 0 for d = 1..size with the
    # banned weights pinned to zero, sum C <= cap, level sum d*C_d
    if cap < 0:
        return [0] * (max_level + 1)
    states = {(0, 0): 1}  # (used, level) -> count
    for d in range(1, size + 1):
        if d in banned:
            continue
        nxt = {}
        for (used, lvl), cnt in states.items():
            c = 0
            while used + c <= cap and lvl + c * d <= max_level:
                key = (used + c, lvl + c * d)
                nxt[key] = nxt.get(key, 0) + cnt
                c += 1
        states = nxt
    out = [0] * (max_level + 1)
    for (_, lvl), cnt in states.items():
        out[lvl] += cnt
    return out


def _convolve_truncated(a, b, max_level):
    out = [0] * (max_level + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j > max_level:
                break
            if y:
                out[i + j] += x * y
    return out


def multiplicity(word, gamma) -> QPolynomial:
    """Graded multiplicity polynomial of V(wt(word) - gamma).

    Sums the grade histograms of the polytopes of the multipartitions
    of shape gamma that enumerate_multipartitions lists with the word's
    consecutive pairs, each shifted by the K that build_polytope keeps
    on its spec.  Besides those with a negative capacity, the search
    drops those whose polytope a pair constraint rules out, whose
    histograms would be zero.  The word checked its pairs when it was
    built; the search and build_polytope take that tuple without
    checking it again.
    """
    lam = weight_of(word)
    gamma = check_gamma(lam, gamma)
    pairs = consecutive_pairs(word)
    height = sum(gamma)
    total = {}
    for parts in mpart.enumerate_multipartitions(gamma, lam, pairs):
        spec = build_polytope(parts, lam, pairs)
        poly = count_by_grade(spec, height)
        for p, c in poly.coeffs.items():
            total[p] = total.get(p, 0) + c
    return QPolynomial(total)

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

Most of these polytopes hold no lattice point, and build_polytope
decides that where it emits the pair constraints: an admissible point
sets some variable of every constraint to at least 1, so its level is
at least the least weight of a variable with cap >= 1 in each
constraint.  The largest of these is the polytope's level floor, and
count_by_grade returns zero from one comparison when the level bound
lies below it.  The floor is a lower bound, not the least level of a
point, so it only ever skips polytopes that are empty for that bound.
"""

from __future__ import annotations

import math
from itertools import combinations

from . import multipartition as mpart
from .hl_category import consecutive_pairs, weight_of
from .root_system import check_gamma


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

    groups: ((r, i), size, cap) triples for the depths r of node i that
    hold rows, in (i, r) order, as node_terms lists them; flat
    variables enumerate each group as d = 1..size.  pair_sets: flat
    index sets of the emitted pair constraints.  floor: a lower bound
    on the level of every admissible point, math.inf when there is no
    such point; count_by_grade returns zero below it without walking.
    The default 0 claims nothing, so a hand-built spec is always
    counted.
    A group cap may be negative when the multipartition was not
    pruned; the counters then return zero.  For lam >= 0 this covers
    the depths without rows too: a negative capacity there always
    comes with one at an occupied depth, since P_{s,i} is concave
    between occupied depths, P_{0,i} = lam_i and P_{s,i} only grows
    past the largest part.
    """

    __slots__ = ("groups", "pair_sets", "floor")

    def __init__(self, groups, pair_sets, floor=0):
        self.groups = tuple(groups)
        self.pair_sets = tuple(map(tuple, pair_sets))
        self.floor = floor


def build_polytope(parts, lam, pairs=()) -> PolytopeSpec:
    """Polytope of one multipartition.

    parts: tuple of partitions, component i holding gamma_i boxes.
    pairs: node intervals (a, b) of consecutive word factors, two ints
    with 1 <= a < b <= n.  The pair constraint for (a, b) reads the top
    length 1 row variable C_{m_{t,1},1,t} of each node a <= t <= b; it
    is emitted only when every node in the range has a row of length 1,
    otherwise the underlying relation is vacuous and the constraint is
    dropped.  Each node's groups come from the process-wide table
    mpart.node_terms, in depth order, so its depth 1 group comes first.

    The spec's floor is the largest, over the emitted constraints, of
    the least weight m_{t,1} of a top variable with cap P_{1,t} >= 1
    (math.inf when a constraint has none), and 0 with no constraint.
    Raises ValueError on a multipartition with the wrong number of
    components or a pair outside 1 <= a < b <= n.
    """
    n = len(lam)
    if len(parts) != n:
        raise ValueError("multipartition has %d components, expected %d" % (len(parts), n))
    parts = ((),) + tuple(map(tuple, parts)) + ((),)
    groups = []
    top = [None] * (n + 1)  # node -> flat index of its top length 1 row variable
    least = [0] * (n + 1)   # node -> weight of that variable if its cap is >= 1, else inf
    flat = 0
    for i, lam_i, prev, mu, nxt in zip(range(1, n + 1), lam, parts, parts[1:], parts[2:]):
        node, _ = mpart.node_terms(lam_i, prev, mu, nxt)
        if node and node[0][0] == 1:
            _, m1, p1 = node[0]
            top[i] = flat + m1 - 1
            least[i] = m1 if p1 >= 1 else math.inf
        for r, size, cap in node:
            groups.append(((r, i), size, cap))
            flat += size
    pair_sets = []
    floor = 0
    for a, b in pairs:
        if not 1 <= a < b <= n:
            raise ValueError("pair %r is not two nodes 1 <= a < b <= %d" % ((a, b), n))
        span = top[a:b + 1]
        if None not in span:
            pair_sets.append(tuple(span))
            floor = max(floor, min(least[a:b + 1]))
    return PolytopeSpec(groups, pair_sets, floor)


def count_levels(sizes, caps, pair_sets, max_level):
    """Histogram over levels of the admissible lattice points.

    Variables come in groups: group g has sizes[g] variables with level
    weights 1 .. sizes[g] and group sum capped by caps[g].  Each entry
    of pair_sets is a collection of flat variable indices of which at
    least one must be positive.  A point's level is the weighted sum of
    its entries; only levels <= max_level are admissible.  Returns a
    list h with h[L] = number of points of level L.

    The walk visits every table it is given; polytopes that are empty
    below their level floor never reach it from count_by_grade (see
    build_polytope).  An empty constraint gives the zero histogram.
    Raises ValueError when caps and sizes differ in length, a size is
    negative, or a pair index is not an integer in 0 .. nvars - 1.
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    if len(caps) != len(sizes):
        raise ValueError("%d caps for %d groups" % (len(caps), len(sizes)))
    if any(m < 0 for m in sizes):
        raise ValueError("negative group size in %r" % (sizes,))
    nvars = sum(sizes)
    for varset in pair_sets:
        for v in varset:
            if not (isinstance(v, int) and 0 <= v < nvars):
                raise ValueError("pair index %r outside 0..%d" % (v, nvars - 1))
    if not all(pair_sets):
        return [0] * (max_level + 1)

    weights = [d for m in sizes for d in range(1, m + 1)]
    group_of = [g for g, m in enumerate(sizes) for _ in range(m)]

    npairs = len(pair_sets)
    member = [[] for _ in range(nvars)]   # var -> constraints containing it
    deadline = [[] for _ in range(nvars)]  # var -> constraints it closes
    for c, varset in enumerate(pair_sets):
        varset = sorted(set(varset))
        for v in varset:
            member[v].append(c)
        deadline[varset[-1]].append(c)

    hist = [0] * (max_level + 1)
    sat = [0] * npairs
    caps_left = list(caps)

    def walk(v, level):
        if v == nvars:
            hist[level] += 1
            return
        g = group_of[v]
        w = weights[v]
        top = min(caps_left[g], (max_level - level) // w)
        for val in range(top + 1):
            if val == 1:
                for c in member[v]:
                    sat[c] += 1
            ok = True
            for c in deadline[v]:
                if not sat[c]:
                    ok = False
                    break
            if ok:
                caps_left[g] -= val
                walk(v + 1, level + val * w)
                caps_left[g] += val
        if top >= 1:
            for c in member[v]:
                sat[c] -= 1

    walk(0, 0)
    return hist


def count_by_grade(spec: PolytopeSpec, height: int, K: int) -> QPolynomial:
    """Grade polynomial of one polytope.

    height is |gamma|; a point of level L contributes to grade
    p = (height - K) - L, so the histogram is read off in reverse.  A
    level bound height - K below spec.floor (negative ones included,
    as the floor is at least 0) gives zero before any table is built.
    """
    max_level = height - K
    if max_level < spec.floor:
        return QPolynomial()
    sizes = [size for _, size, _ in spec.groups]
    caps = [cap for _, _, cap in spec.groups]
    hist = count_levels(sizes, caps, spec.pair_sets, max_level)
    return QPolynomial({max_level - lvl: cnt for lvl, cnt in enumerate(hist) if cnt})


def count_by_grade_ie(spec: PolytopeSpec, height: int, K: int) -> QPolynomial:
    """Independent recount of count_by_grade by inclusion-exclusion.

    A pair constraint fails exactly when all its variables vanish, so
    summing (-1)^|S| over subsets S of constraints with their variable
    union pinned to zero counts the admissible points.  Each term is a
    product of per-group level generating polynomials; used to cross
    check the DFS in count_levels, not for speed.
    """
    max_level = height - K
    if max_level < 0:
        return QPolynomial()
    owner = []
    for g, (_, size, _) in enumerate(spec.groups):
        owner.extend((g, d) for d in range(1, size + 1))
    npairs = len(spec.pair_sets)
    acc = [0] * (max_level + 1)
    for k in range(npairs + 1):
        sign = -1 if k % 2 else 1
        for S in combinations(range(npairs), k):
            banned = [set() for _ in spec.groups]
            for c in S:
                for v in spec.pair_sets[c]:
                    g, d = owner[v]
                    banned[g].add(d)
            term = [1] + [0] * max_level
            for g, (_, size, cap) in enumerate(spec.groups):
                term = _convolve_truncated(
                    term, _group_poly(size, cap, banned[g], max_level), max_level)
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

    Sums the grade histograms of the polytopes of all multipartitions of
    shape gamma that survive the capacity pruning.
    """
    lam = weight_of(word)
    gamma = check_gamma(lam, gamma)
    pairs = consecutive_pairs(word)
    height = sum(gamma)
    total = {}
    for parts in mpart.enumerate_multipartitions(gamma, lam):
        spec = build_polytope(parts, lam, pairs)
        poly = count_by_grade(spec, height, mpart.compute_K(parts, lam))
        for p, c in poly.coeffs.items():
            total[p] = total.get(p, 0) + c
    return QPolynomial(total)

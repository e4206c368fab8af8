"""Dual realization of graded multiplicities as spaces of Laurent polynomials.

For gamma = sum_i r_i alpha_i attach variables x_{i,1}, ..., x_{i,r_i}
to node i.  The multiplicity of grade p at gamma equals the dimension
of the space of Laurent polynomials f that are symmetric in each node's
variables, homogeneous of total degree -p - |gamma| + e_gamma, where
e_gamma = sum_i r_i r_{i+1}, of degree at most r_{i-1} + r_{i+1} - 2 in
each variable of node i, and that satisfy a list of specialization
conditions.  Each condition sets the first k variables of some nodes
equal to one variable z and asks that every monomial of the result with
z-exponent below a bound cancel.  The list has three kinds, read from a
map `depths` of pole depths v_{a,b} on the positive roots (a, b) that
carry one (every root for an xi tuple; for the prime module of a
level-one word, its consecutive word node pairs, each of depth 1):

  * join vanishing: f vanishes under x_{i,1} = x_{i,2} = x_{j,1} for
    every edge (i, j) of the diagram (all monomials cancel),
  * pole depth: z^{lam_i} f|_{x_{i,1}=...=x_{i,r}=z} has no pole at
    z = 0, for every node i and 2 <= r <= r_i (the r = 1 case is the
    monomial window below),
  * interval vanishing: z^{v_{a,b}} f|_{x_{a,1}=x_{a+1,1}=...=x_{b,1}=z}
    has no pole at z = 0, for every root a < b in the map whose nodes
    all carry a variable.

Symmetry reduces everything to the orbit basis: one spanning function
per family of per-node exponent multisets inside the window
[lo_i, hi_i], lo_i = -min(lam_i, v_{i,i}) (-lam_i if (i, i) is not in
the map), hi_i = r_{i-1} + r_{i+1} - 2.  `conditions` decides the
windows and the one list of conditions; `constraint_rows` turns every
condition into integer linear relations on orbit coefficients in the
same loop.  A relation row is indexed by a signature that depends only
on the specialized head of each touched node's exponents and on the
multiset of the rest, so the rows are counted once per distinct
(head, rest) split, each split weighted by its number of permutations,
not once per permutation.

The dimension is the exact corank of the relation matrix, found in the
following steps (`exact_corank`):

  0. Peeling: a row with one nonzero entry forces its column to 0 over
     Q, so that column is dropped from every row, repeatedly, until no
     such row is left (the first step of structured Gaussian
     elimination, LaMacchia-Odlyzko 1990).  The corank is that of the
     remaining rows on the remaining columns, and is 0 if every column
     is forced; steps 1-3 run on the remainder.
  1. A sparse echelon over GF(p), p = 2^31 - 1.  The rank mod p is at
     most the rank over Q, so a full echelon proves the corank is 0.
  2. Otherwise, with k free columns, the corank over Q is at most k.
     Back substitution reads one kernel vector mod p off each free
     column, equal to 1 there and 0 on the other free columns.  Each
     entry is lifted to a fraction by rational reconstruction and the
     vector scaled to integers.  If every remaining row annihilates
     every lifted vector in exact integer arithmetic, those k vectors,
     padded with zeros on the forced columns, lie in the rational
     kernel of the original rows, and they are independent because
     each is nonzero on its own free column and zero on the others; so
     the corank is at least k, hence exactly k.
  3. If a lift or an exact check fails, the corank is recomputed by
     fraction-free (Bareiss) elimination, `integer_rank`.

No corank is returned on the strength of the modular computation alone.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import factorial, isqrt, lcm

from .hl_category import consecutive_pairs, is_normalized, weight_of
from .polytope_count import QPolynomial
from .root_system import check_gamma, e_gamma, gamma_domain, gamma_height


def conditions(lam, gamma, depths):
    """Monomial windows and specialization conditions, as (bounds, conds).

    depths maps each positive root (a, b) that carries a condition to
    its pole depth.  bounds maps each node i carrying a variable to its
    exponent window (lo_i, hi_i), lo_i = -min(lam_i, depths[(i, i)]), or
    -lam_i when (i, i) is not in the map.

    conds lists every condition as (label, heads, bound): heads holds the
    (node, k) pairs whose first k variables are set to z, and every
    monomial of the specialized expression with z-exponent below bound
    must cancel.  In order:

      * ("join", i, nb) for each edge with r_i >= 2 and r_nb >= 1, heads
        (i, 2), (nb, 1); its bound exceeds every z-exponent the windows
        allow, so all signatures cancel;
      * ("pole", i, depth) for 2 <= depth <= r_i, head (i, depth), bound
        -lam_i;
      * ("interval", a, b) for the roots a < b of the map in sorted
        order, heads (t, 1) for a <= t <= b, bound -depths[(a, b)].
        Roots containing a node without variables have no meaningful
        specialization and are skipped.
    """
    r = (0,) + tuple(gamma) + (0,)
    bounds = {i: (-min(li, depths.get((i, i), li)), r[i - 1] + r[i + 1] - 2)
              for i, li in enumerate(lam, start=1) if r[i]}
    conds = [(("join", i, nb), ((i, 2), (nb, 1)),
              2 * bounds[i][1] + bounds[nb][1] + 1)
             for i in bounds if r[i] >= 2 for nb in (i - 1, i + 1) if nb in bounds]
    conds += [(("pole", i, depth), ((i, depth),), -lam[i - 1])
              for i in bounds for depth in range(2, r[i] + 1)]
    conds += [(("interval", a, b), tuple((t, 1) for t in range(a, b + 1)), -v)
              for (a, b), v in sorted(depths.items())
              if a < b and all(r[t] >= 1 for t in range(a, b + 1))]
    return bounds, conds


def _node_multisets(r, lo, hi):
    """Weakly decreasing r-tuples of exponents in [lo, hi], grouped by
    total degree, each group in decreasing lexicographic order.  An
    empty window (lo > hi) gives {} when r > 0, and r = 0 gives
    {0: [()]} for any window."""
    out = {}
    for ms in combinations_with_replacement(range(hi, lo - 1, -1), r):
        out.setdefault(sum(ms), []).append(ms)
    return out


def orbit_basis(gamma, bounds, degree):
    """Families of per-node exponent multisets of the given total degree.

    Each orbit is a tuple with one weakly decreasing exponent tuple per
    node and represents the sum of the distinct monomials in its
    symmetric group orbit.  A node without variables is not in bounds
    and takes the window (0, 0), whose only tuple is the empty one; a
    node whose window is empty (lo > hi) leaves no orbit at all.
    """
    n = len(gamma)
    tables = [_node_multisets(r, *bounds.get(i, (0, 0)))
              for i, r in enumerate(gamma, start=1)]
    if not all(tables):
        return []
    sufmin = [0] * (n + 1)
    sufmax = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        sufmin[i] = sufmin[i + 1] + min(tables[i])
        sufmax[i] = sufmax[i + 1] + max(tables[i])
    out = []
    cur = []

    def rec(i, need):
        if i == n:
            out.append(tuple(cur))
            return
        for d, msets in tables[i].items():
            rest = need - d
            if sufmin[i + 1] <= rest <= sufmax[i + 1]:
                for ms in msets:
                    cur.append(ms)
                    rec(i + 1, rest)
                    cur.pop()

    rec(0, degree)
    out.sort()
    return out


def _perms(seq) -> int:
    """Number of distinct orderings of a multiset."""
    out = factorial(len(seq))
    for m in Counter(seq).values():
        out //= factorial(m)
    return out


@lru_cache(maxsize=None)
def _splits(ms, k):
    """Distinct (head, rest) splits of a weakly decreasing multiset.

    One triple (sum of head, (rest,), count) per distinct k-element
    sub-multiset head; rest is the weakly decreasing remainder, wrapped
    so the rests of several nodes join by tuple addition, and count the
    number of distinct permutations of ms whose first k entries are an
    ordering of head, perms(head) * perms(rest).
    """
    out = []
    for head in sorted(set(combinations(ms, k))):
        rest = list(ms)
        for v in head:
            rest.remove(v)
        out.append((sum(head), (tuple(rest),), _perms(head) * _perms(rest)))
    return tuple(out)


# the pick of no node: z-exponent 0, no rests, one permutation
_SEED = ((0, (), 1),)


def constraint_rows(orbits, conds):
    """Linear relations on orbit coefficients, one row per forbidden
    monomial signature of a specialized expression.

    An orbit is the sum of the distinct permutations of its exponents at
    every node, and a signature depends only on the z-exponent of the
    specialized heads, the multiset of the rest at each head node and
    the exponents of the untouched nodes.  So each distinct (head, rest)
    split is visited once and adds the number of permutations that give
    it, multiplied across the head nodes of the condition.

    conds: the (label, heads, bound) conditions, as `conditions` returns
    them.  Returns rows as dicts mapping orbit index to integer
    coefficient, keyed by (label, signature).
    """
    n = len(orbits[0]) if orbits else 0
    # each (head, rest) split of an orbit gives its own signature, so an
    # orbit meets each row at most once and its coefficient is assigned
    rows = {}
    # conditions on the same nodes share the untouched exponents
    others_by_keep = {}
    for label, heads, bound in conds:
        touched = {t for t, _ in heads}
        keep = tuple([t for t in range(n) if t + 1 not in touched])
        others = others_by_keep.get(keep)
        if others is None:
            others = others_by_keep[keep] = [tuple([orb[t] for t in keep])
                                             for orb in orbits]
        # the first leading node's cached splits serve as the picks as
        # they are, and the last node's are looped over in place, so only
        # the middle nodes of an interval build lists of partial picks
        # (a fresh list per orbit for every leading node made row
        # building about a third slower on a rank-5 word)
        *lead, (last, k_last) = heads
        first, middle = lead[:1], lead[1:]
        for o, orb in enumerate(orbits):
            picks = _SEED
            for t, k in first:
                picks = _splits(orb[t - 1], k)
            for t, k in middle:
                splits = _splits(orb[t - 1], k)
                picks = [(z + zt, rests + rest, c * ct)
                         for z, rests, c in picks for zt, rest, ct in splits]
            splits = _splits(orb[last - 1], k_last)
            oth = others[o]
            for z, rests, c in picks:
                for zt, rest, ct in splits:
                    zt += z
                    if zt < bound:
                        rows.setdefault((label, (zt, rests + rest, oth)), {})[o] = c * ct
    return rows


_PRIME = (1 << 31) - 1
# numerators and denominators up to _BOUND determine a fraction uniquely
# from its residue mod _PRIME, since 2 * _BOUND**2 < _PRIME
_BOUND = isqrt(_PRIME // 2)


def _echelon_mod_p(rows, ncols) -> dict[int, dict[int, int]]:
    """Row echelon form of sparse integer rows over GF(_PRIME).

    Maps each pivot column to its row, scaled so the pivot entry is 1
    and with no entries left of the pivot.  Stops as soon as the
    echelon is full.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            v %= _PRIME
            if v:
                r[c] = v
        while r:
            lead = min(r)
            piv = echelon.get(lead)
            if piv is None:
                inv = pow(r[lead], _PRIME - 2, _PRIME)
                echelon[lead] = {c: (v * inv) % _PRIME for c, v in r.items()}
                break
            coef = r[lead]
            for c, v in piv.items():
                nv = (r.get(c, 0) - coef * v) % _PRIME
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        if len(echelon) == ncols:
            break
    return echelon


def _rational_mod_p(a):
    """(num, den) with num = a * den mod _PRIME, den > 0 and |num|,
    den <= _BOUND, or None if the Euclidean remainders find none."""
    r0, r1 = _PRIME, a % _PRIME
    t0, t1 = 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= _BOUND:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift_kernel(echelon, ncols):
    """Integer candidates for a kernel basis, read off an echelon mod _PRIME.

    Back substitution gives one kernel vector mod _PRIME per free column,
    1 on that column and 0 on the other free columns.  Each entry is
    lifted by rational reconstruction and the vector is scaled to
    integers, which keeps its zero pattern on the free columns.  Returns
    None if some entry has no lift.  The vectors are not yet checked.
    """
    leads = sorted(echelon, reverse=True)
    kernel = []
    for free in range(ncols):
        if free in echelon:
            continue
        vec = {free: 1}
        for lead in leads:
            if lead > free:
                # its row meets only columns right of free, all zero here
                continue
            s = sum(v * vec[c] for c, v in echelon[lead].items() if c in vec)
            if s % _PRIME:
                vec[lead] = -s % _PRIME
        fracs = {}
        for c, a in vec.items():
            frac = _rational_mod_p(a)
            if frac is None:
                return None
            fracs[c] = frac
        scale = lcm(*(den for _, den in fracs.values()))
        kernel.append({c: num * (scale // den) for c, (num, den) in fracs.items()})
    return kernel


def _peel(rows, ncols):
    """Rows and columns left once singleton rows are peeled.

    A row with one nonzero entry c x_j = 0 forces x_j = 0 over Q, so
    column j is dropped from every row and the step repeats until no
    row has exactly one entry left.  Returns (rows over the surviving
    columns, renumbered in order and keyed by their position in rows;
    number of surviving columns).  Every row left has at least two
    entries, and columns no row touches survive.
    """
    rows = list(rows.values())
    live = [0] * len(rows)
    on_col = [[] for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            if v:
                on_col[c].append(r)
                live[r] += 1
    forced = [False] * ncols
    queue = [r for r, k in enumerate(live) if k == 1]
    while queue:
        r = queue.pop()
        if live[r] != 1:
            continue
        col = next(c for c, v in rows[r].items() if v and not forced[c])
        forced[col] = True
        for other in on_col[col]:
            live[other] -= 1
            if live[other] == 1:
                queue.append(other)
    new_col = {}
    for c in range(ncols):
        if not forced[c]:
            new_col[c] = len(new_col)
    left = {r: {new_col[c]: v for c, v in rows[r].items() if v and not forced[c]}
            for r, k in enumerate(live) if k}
    return left, len(new_col)


def exact_corank(rows, ncols) -> int:
    """Exact corank of integer relation rows over Q.

    rows maps condition keys to sparse rows (column -> integer), as
    `constraint_rows` returns them.  Step 0 peels singleton rows
    (`_peel`): each forces its column to 0 exactly, so the corank is
    that of the remaining rows on the remaining columns, and a kernel
    vector of the remainder, padded with zeros on the forced columns,
    satisfies the original rows.  On the remainder, a full echelon mod
    p proves the corank is 0; if every column is forced, the empty
    echelon is already full.  Otherwise, with k free columns, the
    corank is at most k; the k lifted kernel vectors are independent
    (each is nonzero on its own free column and zero on the other free
    columns), so once every row annihilates every one of them exactly,
    the corank is at least k and therefore k.  If a lift or a check
    fails, the corank comes from `integer_rank`.
    """
    rows, ncols = _peel(rows, ncols)
    echelon = _echelon_mod_p(sorted(rows.values(), key=len), ncols)
    if len(echelon) == ncols:
        return 0
    kernel = _lift_kernel(echelon, ncols)
    if kernel is not None and all(
            sum(c * vec.get(o, 0) for o, c in row.items()) == 0
            for row in rows.values() for vec in kernel):
        return len(kernel)
    return ncols - integer_rank(_rows_to_matrix(rows, ncols))


def integer_rank(mat) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    mat = [list(row) for row in mat if any(row)]
    if not mat:
        return 0
    m, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for rr in range(row, m):
            if mat[rr][col]:
                piv = rr
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        pv = mat[row][col]
        for rr in range(row + 1, m):
            v = mat[rr][col]
            for cc in range(col + 1, ncols):
                mat[rr][cc] = (pv * mat[rr][cc] - v * mat[row][cc]) // prev
            mat[rr][col] = 0
        prev = pv
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def _rows_to_matrix(rows, norbits):
    seen = set()
    mat = []
    for row in rows.values():
        vec = [0] * norbits
        for o, c in row.items():
            vec[o] = c
        key = tuple(vec)
        if any(vec) and key not in seen:
            seen.add(key)
            mat.append(vec)
    return mat


def dim_V(lam, gamma, p: int, depths) -> int:
    """Dimension of the space of admissible functions at grade p."""
    if p < 0:
        raise ValueError("grade must be nonnegative")
    gamma = check_gamma(lam, gamma)
    degree = -p - gamma_height(gamma) + e_gamma(gamma)
    bounds, conds = conditions(lam, gamma, depths)
    orbits = orbit_basis(gamma, bounds, degree)
    if not orbits:
        return 0
    rows = constraint_rows(orbits, conds)
    return exact_corank(rows, len(orbits))


def grade_window(lam, gamma, depths, *legacy) -> range:
    """Grades p whose degree fits inside the monomial windows.

    The degree -p - |gamma| + e_gamma of an orbit lies between the sums
    of r_i lo_i and of r_i hi_i over the nodes with variables, so p runs
    between the two matching bounds, clipped at 0; gamma = 0 leaves only
    p = 0, and an empty window at some node no grade at all.  A mode
    string before the map, as perfbench's tests still pass, is skipped.
    """
    if isinstance(depths, str):
        depths = legacy[0] if legacy else {}
    gamma = check_gamma(lam, gamma)
    bounds, _ = conditions(lam, gamma, depths)
    lo_total = 0
    hi_total = 0
    for i, (lo, hi) in bounds.items():
        if lo > hi:
            return range(0, 0)
        lo_total += gamma[i - 1] * lo
        hi_total += gamma[i - 1] * hi
    base = -gamma_height(gamma) + e_gamma(gamma)
    return range(max(0, base - hi_total), max(0, base - lo_total + 1))


def oracle_multiplicity(lam, gamma, depths) -> QPolynomial:
    """Graded multiplicity of V(lam - gamma) from the dual realization."""
    coeffs = {}
    for p in grade_window(lam, gamma, depths):
        d = dim_V(lam, gamma, p, depths)
        if d:
            coeffs[p] = d
    return QPolynomial(coeffs)


def oracle_decomposition(lam=None, mode: str = "full", xi=None, word=None,
                         gammas=None):
    """Full graded decomposition through the dual realization.

    Pair mode takes a word (lam and the interval data are derived from
    it); full mode takes a dominant lam and a normalized xi tuple, checked
    by `gamma_domain` and `normalize_xi`.  Inputs of the other mode are
    refused with ValueError, since the result would name them though
    they played no part.  Returns a GradedDecomposition over the
    dominant gammas (or the given ones).
    """
    from .decomposition import GradedDecomposition

    if mode == "pair":
        if word is None:
            raise ValueError("pair mode needs a word")
        if lam is not None or xi is not None:
            raise ValueError("pair mode takes a word, not lam or xi")
        lam = weight_of(word)
        depths = {pair: 1 for pair in consecutive_pairs(word)}
    elif mode == "full":
        if lam is None or xi is None:
            raise ValueError("full mode needs lam and xi")
        if word is not None:
            raise ValueError("full mode takes lam and xi, not a word")
        lam = tuple(lam)
        if not is_normalized(len(lam), xi):
            raise ValueError("xi tuple is not normalized")
        depths = xi
    else:
        raise ValueError("unknown mode %r" % (mode,))
    domain = gamma_domain(lam, gammas)
    entries = {gamma: oracle_multiplicity(lam, gamma, depths) for gamma in domain}
    return GradedDecomposition(len(lam), lam, entries, domain, word=word,
                               xi=dict(xi) if xi else None)

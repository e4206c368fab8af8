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
following steps (`exact_corank` for given rows, `dim_V` for a grade):

  0. Peeling: a row with one nonzero entry forces its column to 0 over
     Q, so that column is dropped from every row, repeatedly, until no
     such row is left (the first step of structured Gaussian
     elimination, LaMacchia-Odlyzko 1990).  The forced set does not
     depend on the order in which rows are peeled.  The corank is that
     of the remaining rows on the remaining columns, and is 0 if every
     column is forced; steps 1-3 run on the remainder.  `dim_V` first
     peels each node's own pole conditions, which are those of the
     one-node problem of its r_i variables, once per window and lam_i,
     on the node's multisets alone (`_pole_table`): their rows on a
     grade repeat that small system once per choice of the other
     nodes, so a multiset it forces is 0 in every orbit holding it, and
     the orbit basis is walked over the surviving multisets only.  A
     node whose small system peels to no row needs no pole condition
     on the grade.  The other rows are then built one condition at a
     time, in the order `conditions` lists them (interval, pole, join),
     and peeled after each.  A forced orbit is 0 in every kernel
     vector, so each condition's rows are built only on the orbits
     still free, and once every orbit is forced no further row is
     built.  A condition whose least z-exponent, sum k lo_t over its
     heads (t, k), reaches its bound has no row and is skipped.  A
     row's columns are orbit ids from the moment it is built to the
     last step: each condition's rows are built on the map from the
     free ids to their orbits, and the peel prunes them in place, with
     no copy and no renumbering.  One column-to-row index carries over
     from condition to condition; forcing a column deletes it from the
     rows that index lists, so each row's entries are the ones still
     live.  The surviving ids stay in increasing order, so steps 1-3
     read them as they are.
  1. A sparse reduced echelon over GF(p), p = 2^31 - 1 (Gauss-Jordan
     form, the step after peeling in structured elimination): each
     pivot row has a leading 1 and no entry on another pivot column,
     so an incoming row is reduced in one pass over its own entries on
     pivot columns, and a redundant row costs at most one step per
     entry.  The rank mod p is at most the rank over Q, so a full
     echelon proves the corank is 0.
  2. Otherwise, with k free columns, the corank over Q is at most k.
     The reduced echelon gives one kernel vector mod p per free column
     f without back substitution: 1 on f, 0 on the other free columns
     and -row[f] on the pivot column of each row that holds f.  Each
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
from itertools import combinations, combinations_with_replacement, product
from math import factorial, isqrt, lcm

from .hl_category import check_depths, consecutive_pairs, is_normalized, weight_of
from .polytope_count import QPolynomial
from .root_system import (check_gamma, check_ints, check_weight_of_its_rank, e_gamma,
                          gamma_domain, gamma_height)


def conditions(lam, gamma, depths):
    """Monomial windows and specialization conditions, as (bounds, conds).

    lam is checked by `check_weight`, and depths, which maps each
    positive root (a, b) that carries a condition to its pole depth, by
    `check_depths`.  bounds maps each node i carrying a variable to its
    exponent window (lo_i, hi_i), lo_i = -min(lam_i, depths[(i, i)]), or
    -lam_i when (i, i) is not in the map.

    conds lists every condition as (label, heads, bound): heads holds the
    (node, k) pairs whose first k variables are set to z, and every
    monomial of the specialized expression with z-exponent below bound
    must cancel.  In order, which is the order `dim_V` builds them in,
    so that the join conditions, which build the most rows, run on the
    fewest free orbits:

      * ("interval", a, b) for the roots a < b of the map in sorted
        order, heads (t, 1) for a <= t <= b, bound -depths[(a, b)].
        Roots containing a node without variables have no meaningful
        specialization and are skipped;
      * ("pole", i, depth) for 2 <= depth <= r_i, head (i, depth), bound
        -lam_i.  With i = 1 these are the whole list of the one-node
        problem (lam_i,), (r_i,), {(1, 1): -lo_i}, which `_pole_table`
        builds for each node;
      * ("join", i, nb) for each edge with r_i >= 2 and r_nb >= 1, heads
        (i, 2), (nb, 1); its bound exceeds every z-exponent the windows
        allow, so all signatures cancel.
    """
    lam = check_weight_of_its_rank(lam)
    check_depths(len(lam), depths)
    r = (0,) + tuple(gamma) + (0,)
    bounds = {i: (-min(li, depths.get((i, i), li)), r[i - 1] + r[i + 1] - 2)
              for i, li in enumerate(lam, start=1) if r[i]}
    conds = [(("interval", a, b), tuple((t, 1) for t in range(a, b + 1)), -v)
             for (a, b), v in sorted(depths.items())
             if a < b and all(r[t] >= 1 for t in range(a, b + 1))]
    conds += [(("pole", i, depth), ((i, depth),), -lam[i - 1])
              for i in bounds for depth in range(2, r[i] + 1)]
    conds += [(("join", i, nb), ((i, 2), (nb, 1)),
               2 * bounds[i][1] + bounds[nb][1] + 1)
              for i in bounds if r[i] >= 2 for nb in (i - 1, i + 1) if nb in bounds]
    return bounds, conds


@lru_cache(maxsize=None)
def _pole_table(r, lo, hi, lam_i):
    """A node's multisets left free by its own pole conditions, as
    (table, rows_left).

    A node's pole conditions touch it alone, so they are the conditions
    of the one-node problem: weight (lam_i,), gamma (r,) and pole depth
    -lo on its one root, which keeps the window's lo and has no interval
    or join condition.  A condition with no row builds none.  On a
    grade their rows are the rows they have on the one-node orbits of
    the window [lo, hi], once for each choice of the other nodes'
    multisets, and no row mixes two degrees.  So `_peel` of that small
    system forces the same multisets as peeling the grade's pole rows of
    the node does, in every orbit that holds them.  table maps each
    degree to its surviving multisets as a tuple in decreasing
    lexicographic order, leaving out degrees with none; rows_left tells
    whether any pole row survives the peel, so that a grade still needs
    the node's pole conditions.  The rows are built by
    `constraint_rows`, once per window and lam_i.
    """
    # product of one iterable wraps each multiset as a one-node orbit (ms,)
    orbits = dict(enumerate(product(combinations_with_replacement(range(hi, lo - 1, -1), r))))
    conds = conditions((lam_i,), (r,), {(1, 1): -lo})[1]
    left, free = _peel(len(orbits), [lambda _: constraint_rows(orbits, conds)])
    table = {}
    for o in free:
        (ms,) = orbits[o]
        table.setdefault(sum(ms), []).append(ms)
    # every caller shares the cached table, so its groups are frozen
    return {d: tuple(group) for d, group in table.items()}, bool(left)


def orbit_basis(tables, degree):
    """Families of per-node exponent multisets of the given total degree.

    Each orbit is a tuple with one weakly decreasing exponent tuple per
    node and represents the sum of the distinct monomials in its
    symmetric group orbit.  tables holds one map from degree to
    multisets per node, as `_pole_table` builds them; a node without
    variables has the one multiset (), of degree 0.  One backward pass
    over the tables gives, for each node, the degree sums that the nodes
    after it can still add, each (node, sum) expanded once.  The walk
    then runs forward over the degree still owed, rest = degree - d_1 -
    ... - d_i, and takes a degree d of node i only when rest - d is such
    a sum; so every path it extends is completed, the last node takes
    exactly the rest, and a node whose table is empty leaves no path.
    Each path gives the product of the nodes' multisets at its degrees.
    """
    reach = [{0}]  # reach[i]: the degree sums of the nodes after node i
    for table in reversed(tables[1:]):
        reach.insert(0, {d + s for d in table for s in reach[0]})
    paths = [((), degree)]  # (the degree groups chosen, the degree owed)
    for table, later in zip(tables, reach):
        paths = [(groups + (group,), rest - d) for groups, rest in paths
                 for d, group in table.items() if rest - d in later]
    out = [orbit for groups, _ in paths for orbit in product(*groups)]
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

    orbits maps each orbit id to its orbit, and conds holds the (label,
    heads, bound) conditions, as `conditions` returns them.  Returns
    rows as dicts mapping orbit id to a nonzero integer coefficient,
    keyed by (label, signature); any map of orbits serves, so the rows
    on the free orbits of a grade carry those orbits' own ids.
    """
    n = len(next(iter(orbits.values()), ()))
    # each (head, rest) split of an orbit gives its own signature, so an
    # orbit meets each row at most once and its coefficient is assigned
    rows = {}
    for label, heads, bound in conds:
        touched = {t for t, _ in heads}
        keep = [t for t in range(n) if t + 1 not in touched]
        # the first leading node's cached splits serve as the picks as
        # they are, and the last node's are looped over in place, so only
        # the middle nodes of an interval build lists of partial picks
        # (a fresh list per orbit for every leading node made row
        # building about a third slower on a rank-5 word)
        *lead, (last, k_last) = heads
        first, middle = lead[:1], lead[1:]
        for o, orb in orbits.items():
            picks = _SEED
            for t, k in first:
                picks = _splits(orb[t - 1], k)
            for t, k in middle:
                splits = _splits(orb[t - 1], k)
                picks = [(z + zt, rests + rest, c * ct)
                         for z, rests, c in picks for zt, rest, ct in splits]
            splits = _splits(orb[last - 1], k_last)
            oth = tuple([orb[t] for t in keep])
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
    """Reduced row echelon form of sparse integer rows over GF(_PRIME).

    Maps each pivot column to its row, scaled so the pivot entry is 1,
    with no entries left of the pivot and none on any other pivot
    column.  An incoming row is reduced in one pass over its entries on
    pivot columns; since no pivot row has an entry on another pivot
    column, that pass brings in none, so a redundant row costs at most
    one step per entry.  A new pivot's column is then cleared from the
    pivot rows that hold it, found through an index from each column to
    the rows holding it.  The pivot columns are the leading columns of
    the row space, whatever the row order.  Stops as soon as the
    echelon is full.
    """
    echelon: dict[int, dict[int, int]] = {}
    # holders[c]: the pivot columns whose rows have held column c; an
    # entry cancelled since stays listed and is skipped when c is cleared
    holders: dict[int, set[int]] = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            v %= _PRIME
            if v:
                r[c] = v
        # no pivot row holds another pivot column, so this list is final
        for lead in [c for c in r if c in echelon]:
            coef = r[lead]
            for c, v in echelon[lead].items():
                nv = (r.get(c, 0) - coef * v) % _PRIME
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        if not r:
            continue
        lead = min(r)
        inv = pow(r[lead], _PRIME - 2, _PRIME)
        new = {c: (v * inv) % _PRIME for c, v in r.items()}
        for c in new:
            if c != lead:
                holders.setdefault(c, set()).add(lead)
        for held in holders.pop(lead, ()):
            piv = echelon[held]
            coef = piv.get(lead)
            if coef:
                for c, v in new.items():
                    nv = (piv.get(c, 0) - coef * v) % _PRIME
                    if nv:
                        piv[c] = nv
                        holders[c].add(held)
                    else:
                        piv.pop(c, None)
        echelon[lead] = new
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


def _lift_kernel(echelon, free):
    """Integer candidates for a kernel basis, read off a reduced echelon
    mod _PRIME of rows on the column ids free.

    The kernel vector mod _PRIME of free column f is 1 on f, 0 on the
    other free columns and -row[f] on the pivot column of each row that
    holds f.  Each entry is lifted by rational reconstruction and the
    vector is scaled to integers, which keeps its zero pattern on the
    free columns.  Returns None if some entry has no lift.  The vectors
    are not yet checked.
    """
    vecs = {f: {f: 1} for f in free if f not in echelon}
    for lead, row in echelon.items():
        for c, v in row.items():
            if c != lead:
                vecs[c][lead] = -v % _PRIME
    kernel = []
    for vec in vecs.values():
        fracs = {}
        for c, a in vec.items():
            frac = _rational_mod_p(a)
            if frac is None:
                return None
            fracs[c] = frac
        scale = lcm(*(den for _, den in fracs.values()))
        kernel.append({c: num * (scale // den) for c, (num, den) in fracs.items()})
    return kernel


def _peel(ncols, builds):
    """Rows and columns left once singleton rows are peeled.

    builds holds functions that build rows, called in turn, each once
    the rows built before it are peeled: each gets the list of columns
    in range(ncols) not yet forced, in increasing order, and returns a
    dict of rows on those columns, with no zero entry.  A row with one
    entry c x_j = 0 forces x_j = 0 over Q, so column j is dropped from
    every row and the step repeats until no row has exactly one entry
    left.  A forced column is zero in every kernel vector, so no later
    row needs an entry on it, and once every column is forced no
    further function is called.  The rows are pruned in place: forcing
    a column deletes it from the rows that hold it, so a caller whose
    rows must stay as they were hands over copies.  Returns (the rows
    left, keyed by their position among all rows built, on the columns
    they had; the surviving columns in increasing order).  Every row
    left has at least two entries, and columns no row touches survive.
    """
    rows = []
    # on_col[c]: the rows built with column c, or None once c is forced
    on_col = [[] for _ in range(ncols)]
    free = list(range(ncols))
    for build in builds:
        if not free:
            break
        # every new row is queued, and the loop below peels the singletons
        queue = list(build(free).values())
        rows += queue
        for row in queue:
            for c in row:
                on_col[c].append(row)
        while queue:
            row = queue.pop()
            if len(row) != 1:
                continue
            (col,) = row
            for other in on_col[col]:
                del other[col]
                if len(other) == 1:
                    queue.append(other)
            on_col[col] = None
        free = [c for c in free if on_col[c] is not None]
    return {r: row for r, row in enumerate(rows) if row}, free


def _corank(rows, free) -> int:
    """Exact corank over Q of rows that `_peel` has left on the column
    ids free, by the steps after peeling that `exact_corank` describes;
    the echelon is full at len(free) pivots."""
    ncols = len(free)
    echelon = _echelon_mod_p(sorted(rows.values(), key=len), ncols)
    if len(echelon) == ncols:
        return 0
    kernel = _lift_kernel(echelon, free)
    if kernel is not None and all(
            sum(c * vec.get(o, 0) for o, c in row.items()) == 0
            for row in rows.values() for vec in kernel):
        return len(kernel)
    return ncols - integer_rank(_rows_to_matrix(rows, free))


def exact_corank(rows, ncols) -> int:
    """Exact corank of integer relation rows over Q.

    rows maps condition keys to sparse rows (column -> integer), as
    `constraint_rows` returns them; a column outside range(ncols) is
    refused with ValueError.  The rows are the caller's, so `_peel` gets
    a copy of each without its zero entries, and the rows are not
    changed.  Step 0 peels singleton rows (`_peel`): each forces its
    column to 0 exactly, so the corank is that of the remaining rows on
    the remaining columns, and a kernel vector of the remainder, padded
    with zeros on the forced columns, satisfies the original rows.  On
    the remainder, a full echelon mod p proves the corank is 0; if every
    column is forced, the empty echelon is already full.  Otherwise,
    with k free columns, the corank is at most k; the k lifted kernel
    vectors are independent (each is nonzero on its own free column and
    zero on the other free columns), so once every row annihilates every
    one of them exactly, the corank is at least k and therefore k.  If a lift or a check
    fails, the corank comes from `integer_rank`.
    """
    copies = {}
    for key, row in rows.items():
        for c in row:
            if type(c) is not int or not 0 <= c < ncols:
                raise ValueError("row %r has column %r outside range(%d)"
                                 % (key, c, ncols))
        copies[key] = {c: v for c, v in row.items() if v}
    return _corank(*_peel(ncols, [lambda _: copies]))


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


def _rows_to_matrix(rows, free):
    """Dense integer matrix of sparse rows on the column ids free, in
    that order, for `integer_rank`, which drops its zero rows."""
    return [[row.get(c, 0) for c in free] for row in rows.values()]


def dim_V(lam, gamma, p: int, depths) -> int:
    """Dimension of the space of admissible functions at grade p: the
    corank of the relation rows on the grade's orbits, which each node's
    own pole conditions filter first (`_pole_table`), built on orbit ids
    and peeled in place one condition at a time, skipping the
    conditions that can have no row (step 0 of the module docstring).
    A grade without orbits peels to no row and no column, of corank
    0."""
    if type(p) is not int:
        raise ValueError("grade must be an integer, got %r" % (p,))
    if p < 0:
        raise ValueError("grade must be nonnegative")
    lam = check_ints("weight", lam)
    gamma = check_gamma(lam, gamma)
    degree = -p - gamma_height(gamma) + e_gamma(gamma)
    bounds, conds = conditions(lam, gamma, depths)
    filters = [_pole_table(r, *bounds.get(i, (0, 0)), lam[i - 1])
               for i, r in enumerate(gamma, start=1)]
    orbits = orbit_basis([table for table, _ in filters], degree)
    # a node whose filter leaves no pole row needs no pole condition, and
    # no z-exponent of a condition falls below sum k lo_t over its heads
    return _corank(*_peel(len(orbits), [
        lambda free, cond=cond: constraint_rows({o: orbits[o] for o in free}, [cond])
        for cond in conds
        if (cond[0][0] != "pole" or filters[cond[0][1] - 1][1])
        and sum(k * bounds[t][0] for t, k in cond[1]) < cond[2]]))


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
    lam = check_ints("weight", lam)
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

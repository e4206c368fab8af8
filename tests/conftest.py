"""Shared word and weight grids for the cross validation tests."""

from itertools import combinations, product

from hldecomp.hl_category import DrinfeldWord
from hldecomp.multipartition import partitions_of
from hldecomp.root_system import live_successors, read_live_paths


def sign_patterns(k):
    """Alternating step sign sequences for a word with k factors."""
    if k <= 1:
        return [()]
    out = []
    for first in (1, -1):
        pat = [first]
        while len(pat) < k - 1:
            pat.append(-pat[-1])
        out.append(tuple(pat))
    return out


def words_on_nodes(n, nodes, starts=(0,)):
    out = []
    for start in starts:
        for pat in sign_patterns(len(nodes)):
            facs = [(nodes[0], start)]
            for idx in range(1, len(nodes)):
                gap = nodes[idx] - nodes[idx - 1] + 2
                facs.append((nodes[idx], facs[-1][1] + pat[idx - 1] * gap))
            out.append(DrinfeldWord(n, facs))
    return out


def word_grid(n_max, k_max, starts=(0,)):
    """Every valid word with rank <= n_max and <= k_max factors, one
    copy per base exponent in starts."""
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, min(k_max, n) + 1):
            for nodes in combinations(range(1, n + 1), k):
                out.extend(words_on_nodes(n, nodes, starts))
    return out


def shape_grid(n_max=3, lam_max=2, gamma_max=3):
    """(lam, gamma) for every lam in {0..lam_max}^n and gamma in
    {0..gamma_max}^n with 1 <= n <= n_max."""
    return [(lam, gamma)
            for n in range(1, n_max + 1)
            for lam in product(range(lam_max + 1), repeat=n)
            for gamma in product(range(gamma_max + 1), repeat=n)]


def all_multipartitions(gamma):
    """Every multipartition of shape gamma, unpruned, in the order of
    the pruned search: the product of the partitions_of lists."""
    return list(product(*(partitions_of(g) for g in gamma)))


def multisets_by_product(r, lo, hi):
    """Weakly decreasing r-tuples over lo..hi, from the full product:
    decreasing lexicographic order, grouped by sum in order of first
    appearance."""
    tuples = sorted((t for t in product(range(lo, hi + 1), repeat=r)
                     if list(t) == sorted(t, reverse=True)), reverse=True)
    out = {}
    for t in tuples:
        out.setdefault(sum(t), []).append(t)
    return out


def full_tables(gamma, bounds):
    """The unfiltered node tables for `orbit_basis`: every multiset of
    each node's window, and the empty tuple for a node without
    variables (not in bounds)."""
    return [multisets_by_product(r, *bounds.get(i, (0, 0)))
            for i, r in enumerate(gamma, start=1)]


def live_paths(n, start, firsts, successors):
    """Every sequence (x_1, ..., x_n) with x_1 in firsts and x_{i+1} in
    successors(i, x_{i-1}, x_i) for i < n, where x_0 = start and
    successors(n, x_{n-1}, x_n) must be nonempty, in choice order: the
    `live_successors` memo of successors read by `read_live_paths`."""
    return read_live_paths(n, start, firsts, live_successors(n, successors))

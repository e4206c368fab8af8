"""Assemble, serialize and render graded decompositions.

A GradedDecomposition holds the multiplicity polynomial of V(lam - gamma)
for every dominant gamma with a nonzero contribution; the checked domain
is kept alongside (and serialized) so "zero" and "never computed" stay
distinguishable.
"""

from __future__ import annotations

import json

from .hl_category import DrinfeldWord, consecutive_pairs, weight_of
from .polytope_count import QPolynomial, multiplicity
from .root_system import gamma_domain, weight_minus_gamma, weyl_dim


class GradedDecomposition:
    """Graded branching data of one module.

    entries maps gamma (simple root coordinates) to the multiplicity
    polynomial of V(lam - gamma); zero polynomials are dropped.  domain
    lists every gamma that was checked.  word is kept for decompositions
    of graded limits, xi for truncation data, either may be None.
    """

    def __init__(self, n, lam, entries, domain, word=None, xi=None):
        self.n = n
        self.lam = tuple(lam)
        self.entries = {tuple(g): p for g, p in entries.items() if p}
        self.domain = [tuple(g) for g in domain]
        self.word = word
        self.xi = dict(xi) if xi else None

    def ordered_gammas(self):
        """Nonzero gammas sorted by height, then lexicographically."""
        return sorted(self.entries, key=lambda g: (sum(g), g))

    def __eq__(self, other):
        if not isinstance(other, GradedDecomposition):
            return NotImplemented
        return (self.n == other.n and self.lam == other.lam
                and self.entries == other.entries
                and sorted(self.domain) == sorted(other.domain)
                and self.word == other.word and self.xi == other.xi)

    __hash__ = None

    def __repr__(self):
        return "GradedDecomposition(n=%d, lam=%r, %d nonzero entries)" % (
            self.n, self.lam, len(self.entries))


def graded_decomposition(word: DrinfeldWord, gammas=None) -> GradedDecomposition:
    """Graded decomposition of the graded limit of a word's module,
    computed by lattice point counting."""
    lam = weight_of(word)
    domain = gamma_domain(lam, gammas)
    entries = {gamma: multiplicity(word, gamma) for gamma in domain}
    return GradedDecomposition(word.n, lam, entries, domain, word=word)


def total_dimension(dec: GradedDecomposition) -> int:
    """Sum of dim V(lam - gamma) times the ungraded multiplicity."""
    total = 0
    for gamma, poly in dec.entries.items():
        total += poly.at_one() * weyl_dim(dec.n, weight_minus_gamma(dec.lam, gamma))
    return total


def to_json_dict(dec: GradedDecomposition) -> dict:
    entries = []
    for g in dec.ordered_gammas():
        mu = weight_minus_gamma(dec.lam, g)
        entries.append({
            "gamma": list(g),
            "mu_weight": list(mu),
            "dim": weyl_dim(dec.n, mu),
            "poly": dec.entries[g].to_json(),
        })
    out = {
        "n": dec.n,
        "pi": [[i, m] for i, m in dec.word.factors] if dec.word else None,
        "weight": list(dec.lam),
        "entries": entries,
    }
    out["domain"] = [list(g) for g in sorted(dec.domain)]
    if dec.xi is not None:
        out["xi"] = [[i, j, v] for (i, j), v in sorted(dec.xi.items())]
    return out


def from_json_dict(data) -> GradedDecomposition:
    n = data["n"]
    lam = tuple(data["weight"])
    word = DrinfeldWord(n, [tuple(f) for f in data["pi"]]) if data.get("pi") else None
    xi = {(i, j): v for i, j, v in data["xi"]} if data.get("xi") else None
    entries = {}
    for ent in data["entries"]:
        entries[tuple(ent["gamma"])] = QPolynomial.from_json(ent["poly"])
    domain = [tuple(g) for g in data["domain"]]
    return GradedDecomposition(n, lam, entries, domain, word=word, xi=xi)


def to_json_text(dec: GradedDecomposition) -> str:
    return json.dumps(to_json_dict(dec), sort_keys=True, indent=2) + "\n"


def _header_lines(dec):
    lines = ["n: %d" % dec.n, "weight: %s" % (list(dec.lam),)]
    if dec.word is not None:
        lines.insert(0, "pi: %s" % (" ".join("%d:%d" % f for f in dec.word.factors)))
    if dec.xi is not None:
        lines.append("xi: %s" % (" ".join(
            "%d-%d:%d" % (i, j, v) for (i, j), v in sorted(dec.xi.items()))))
    return lines


def report(dec: GradedDecomposition, format: str = "plain") -> str:
    """Render the decomposition table.

    Rows carry (gamma, lam - gamma, dim V(lam - gamma), polynomial) and
    are ordered by height of gamma, then lexicographically.
    """
    if format == "json":
        return to_json_text(dec)
    if format not in ("plain", "latex"):
        raise ValueError("unknown format %r" % (format,))
    rows = []
    for g in dec.ordered_gammas():
        mu = weight_minus_gamma(dec.lam, g)
        poly = dec.entries[g]
        rows.append((g, mu, weyl_dim(dec.n, mu), poly))
    if format == "plain":
        lines = _header_lines(dec)
        lines.append("checked %d dominant gamma, %d nonzero" % (len(dec.domain), len(rows)))
        header = ("gamma", "mu = weight - gamma", "dim V(mu)", "multiplicity")
        table = [header] + [
            (str(list(g)), str(list(mu)), str(d), poly.plain())
            for g, mu, d, poly in rows
        ]
        widths = [max(len(r[c]) for r in table) for c in range(4)]
        for r in table:
            lines.append("  ".join(r[c].ljust(widths[c]) for c in range(4)).rstrip())
        return "\n".join(lines) + "\n"
    lines = ["% " + line for line in _header_lines(dec)]
    lines.append(r"\begin{tabular}{llrl}")
    lines.append(r"$\gamma$ & $\lambda-\gamma$ & $\dim$ & $[M:V(\lambda-\gamma)]_q$\\")
    lines.append(r"\hline")
    for g, mu, d, poly in rows:
        lines.append(r"$%s$ & $%s$ & %d & $%s$\\" % (list(g), list(mu), d, poly.latex()))
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def crosscheck(word: DrinfeldWord):
    """Compare the lattice point count with the dual realization.

    Returns (ok, mismatches) where mismatches lists
    (gamma, polytope poly, oracle poly) for every disagreement.
    """
    from .functional_oracle import oracle_decomposition

    poly_dec = graded_decomposition(word)
    orac_dec = oracle_decomposition(mode="pair", word=word)
    mismatches = []
    # both sides cover gamma_domain(weight_of(word)), in (height, lex) order
    for gamma in poly_dec.domain:
        a = poly_dec.entries.get(gamma, QPolynomial())
        b = orac_dec.entries.get(gamma, QPolynomial())
        if a != b:
            mismatches.append((gamma, a, b))
    return (not mismatches), mismatches

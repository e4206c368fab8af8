"""Workloads of the hldecomp benchmark and the checks on their answers.

A workload is a list of calls, one per weight, into a public entry
point (`graded_decomposition` or `oracle_decomposition`).  Every call
submits all dominant gammas of its weight through `gammas=`, in an
order drawn from the seed, so the seed changes the work order but never
the answer.  An operation is one (weight, gamma) job; it fails when its
call raises, when its polynomial differs from the recorded reference,
or when it breaks the workload's independent known answer.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RANK12_NODES = (1, 3, 5, 7, 9, 11, 12)


def weight_key(lam) -> str:
    return ",".join(str(c) for c in lam)


def word_on_nodes(n, nodes, start, first_sign):
    """Level-one word on the given nodes with alternating exponent steps."""
    from hldecomp.hl_category import DrinfeldWord

    factors = [(nodes[0], start)]
    sign = first_sign
    for a, b in zip(nodes, nodes[1:]):
        factors.append((b, factors[-1][1] + sign * (b - a + 2)))
        sign = -sign
    return DrinfeldWord(n, factors)


def _shuffled(gammas, rng):
    gammas = list(gammas)
    rng.shuffle(gammas)
    return gammas


def lattice_calls(seed, n=12, nodes=RANK12_NODES):
    """One graded_decomposition call.  The seed picks the base exponent
    and the sign pattern of the word, which keeps its weight and pairs,
    and the gamma order."""
    from hldecomp.decomposition import graded_decomposition
    from hldecomp.hl_category import weight_of
    from hldecomp.root_system import enumerate_dominant_gammas

    rng = random.Random(seed)
    word = word_on_nodes(n, nodes, rng.randrange(-4, 5), rng.choice((1, -1)))
    lam = weight_of(word)
    gammas = _shuffled(enumerate_dominant_gammas(lam), rng)
    return [(weight_key(lam), gammas,
             lambda: graded_decomposition(word, gammas=gammas))]


def tensor_calls(seed, lam=(4, 4)):
    """One full-mode oracle_decomposition call with xi = 2 on lam = 2 mu:
    the graded tensor square of V(mu)."""
    from hldecomp.functional_oracle import oracle_decomposition
    from hldecomp.root_system import enumerate_dominant_gammas, positive_roots

    lam = tuple(lam)
    xi = {root: 2 for root in positive_roots(len(lam))}
    gammas = _shuffled(enumerate_dominant_gammas(lam), random.Random(seed))
    return [(weight_key(lam), gammas,
             lambda: oracle_decomposition(lam=lam, mode="full", xi=xi, gammas=gammas))]


def run_calls(calls):
    """Run every call and serialize its result; one dict per call with
    its weight `key`, the number of `gammas` submitted, and the JSON
    `text` or the `error` it raised."""
    from hldecomp import decomposition

    results = []
    for key, gammas, call in calls:
        res = {"key": key, "gammas": len(gammas)}
        try:
            res["text"] = decomposition.to_json_text(call())
        except Exception as exc:  # a raising call fails its jobs
            res["error"] = "%s: %s" % (type(exc).__name__, exc)
        results.append(res)
    return results


def decode(text):
    """Per-gamma polynomials {gamma: {grade: coeff}} over the checked
    domain of one decomposition in the library's JSON format; gammas
    with multiplicity 0 map to {}."""
    data = json.loads(text)
    polys = {tuple(g): {} for g in data["domain"]}
    for entry in data["entries"]:
        polys[tuple(entry["gamma"])] = {int(p): c for p, c in entry["poly"].items()}
    return data["weight"], polys


def gamma_zero_failures(lam, polys):
    """Gamma 0 has multiplicity 1, in grade 0."""
    zero = (0,) * len(lam)
    return set() if polys.get(zero) == {0: 1} else {zero}


def tensor_square_failures(lam, polys):
    """With xi = 2 and lam = 2 mu the module is V(mu) (x) V(mu): gammas
    whose ungraded multiplicity is not that of V(lam - gamma) in it.  If
    the dimensions do not add up to dim V(mu)^2 every gamma fails."""
    from hldecomp.root_system import weight_minus_gamma, weyl_dim
    from hldecomp.weyl_characters import tensor_power_multiplicity

    n = len(lam)
    mu = tuple(c // 2 for c in lam)
    bad = set()
    total = 0
    for gamma, poly in polys.items():
        nu = weight_minus_gamma(lam, gamma)
        got = sum(poly.values())
        total += got * weyl_dim(n, nu)
        if got != tensor_power_multiplicity(n, mu, 2, nu):
            bad.add(gamma)
    if total != weyl_dim(n, mu) ** 2:
        bad = set(polys)
    return bad


# name -> (calls for a seed, independent known answer of one call)
WORKLOADS = {
    "lattice_rank12": (lattice_calls, gamma_zero_failures),
    "oracle_tensor_square": (tensor_calls, tensor_square_failures),
}


def failed_gammas(workload, text, reference):
    """Gammas of one call that fail the reference or the known answer.

    reference maps every gamma of the call's domain to its polynomial.
    A gamma missing from the result, or one the reference lacks, fails.
    """
    lam, polys = decode(text)
    bad = {g for g in set(polys) | set(reference)
           if polys.get(g) != reference.get(g)}
    return bad | WORKLOADS[workload][1](tuple(lam), polys)


def score(workload, results, reference):
    """(attempted, failed) jobs of one sample's `run_calls` results."""
    attempted = failed = 0
    for key in set(reference) - {res["key"] for res in results}:
        attempted += len(reference[key])
        failed += len(reference[key])
    for res in results:
        ref = reference.get(res["key"], {})
        jobs = max(res["gammas"], len(ref))
        attempted += jobs
        if "error" in res:
            failed += jobs
        else:
            failed += min(jobs, len(failed_gammas(workload, res["text"], ref)))
    return attempted, failed


def reference_to_json(ref):
    """{weight key: {gamma: poly}} in a stable, sorted JSON form."""
    return {
        key: {weight_key(g): {str(p): c for p, c in sorted(poly.items())}
              for g, poly in sorted(polys.items())}
        for key, polys in sorted(ref.items())
    }


def reference_from_json(data):
    return {
        key: {tuple(int(c) for c in g.split(",")): {int(p): c for p, c in poly.items()}
              for g, poly in polys.items()}
        for key, polys in data.items()
    }


def load_reference(workload):
    with open(REFERENCE_DIR / (workload + ".json")) as fh:
        return reference_from_json(json.load(fh))

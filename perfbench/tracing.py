"""Per-layer spans recorded from outside the library.

`traced()` replaces public functions at the module attribute where the
library looks them up, so every call records a span (name, start, end,
parent, info) in memory.  `layer_metrics` turns the spans into the
per-layer metrics; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
from math import prod
from time import perf_counter


def _gamma_counts(args, kwargs, out):
    from hldecomp.multipartition import partitions_of

    gamma = kwargs.get("gamma", args[0] if args else ())
    return [prod(len(partitions_of(g)) for g in gamma), len(out)]


def _row_kinds(args, kwargs, out):
    kinds = {"join": 0, "pole": 0, "interval": 0}
    for cond, _ in out:
        kinds[cond[0]] += 1
    return kinds


def _cells(args, kwargs, out):
    mat = kwargs.get("mat", args[0] if args else ())
    return len(mat) * len(mat[0]) if mat else 0


def _targets():
    """(span name, module, attribute, info) for every traced boundary.

    info(args, kwargs, result) runs after the span has ended and returns
    the counts kept with it."""
    from hldecomp import decomposition, functional_oracle, multipartition, polytope_count

    return [
        ("polytope_count.multiplicity", decomposition, "multiplicity", None),
        ("multipartition.enumerate", multipartition, "enumerate_multipartitions",
         _gamma_counts),
        ("multipartition.compute_K", multipartition, "compute_K", None),
        ("polytope_count.build", polytope_count, "build_polytope", None),
        ("polytope_count.count", polytope_count, "count_by_grade",
         lambda args, kwargs, out: out.at_one()),
        ("functional_oracle.dim_V", functional_oracle, "dim_V", None),
        ("functional_oracle.orbit_basis", functional_oracle, "orbit_basis",
         lambda args, kwargs, out: len(out)),
        ("functional_oracle.rows", functional_oracle, "constraint_rows", _row_kinds),
        ("functional_oracle.exact", functional_oracle, "integer_rank", _cells),
        ("decomposition.to_json", decomposition, "to_json_text", None),
    ]


@contextlib.contextmanager
def traced():
    """Record spans of the traced boundaries while the block runs;
    yields the list that receives them."""
    spans = []
    stack = []
    saved = []

    def wrap(name, fn, info):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out
        return traced_call

    for name, module, attr, info in _targets():
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, wrap(name, fn, info))
    try:
        yield spans
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


PER_LAYER = {
    "root_system.gammas": "count",
    "multipartition.enumerate_s": "s",
    "multipartition.candidates": "count",
    "multipartition.kept": "count",
    "multipartition.kept_ratio": "ratio",
    "multipartition.compute_K_s": "s",
    "polytope_count.build_s": "s",
    "polytope_count.count_s": "s",
    "polytope_count.multiplicity_self_s": "s",
    "polytope_count.polytopes": "count",
    "polytope_count.nonzero_ratio": "ratio",
    "polytope_count.lattice_points": "count",
    "functional_oracle.grades": "count",
    "functional_oracle.orbit_basis_s": "s",
    "functional_oracle.orbits": "count",
    "functional_oracle.rows_s": "s",
    "functional_oracle.rows": "count",
    "functional_oracle.rows_join": "count",
    "functional_oracle.rows_pole": "count",
    "functional_oracle.rows_interval": "count",
    "functional_oracle.modp_s": "s",
    "functional_oracle.certified_zero": "count",
    "functional_oracle.certify_ratio": "ratio",
    "functional_oracle.exact_fallbacks": "count",
    "functional_oracle.exact_s": "s",
    "functional_oracle.exact_max_cells": "count",
    "decomposition.to_json_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, gammas):
    """Per-layer metrics of one traced run, without trace.overhead_s.

    spans are [name, start, end, parent, info] lists as `traced` records
    them; gammas is the number of gammas submitted."""
    total = {}
    calls = {}
    own = [s[2] - s[1] for s in spans]
    kids = [set() for _ in spans]
    for k, (name, start, end, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            own[parent] -= end - start
            kids[parent].add(name)

    def infos(name):
        return [s[4] for s in spans if s[0] == name]

    def self_time(name):
        return sum(own[k] for k, s in enumerate(spans) if s[0] == name)

    enum = infos("multipartition.enumerate")
    candidates = sum(c for c, _ in enum)
    kept = sum(k for _, k in enum)
    counts = infos("polytope_count.count")
    kinds = infos("functional_oracle.rows")
    dims = [k for k, s in enumerate(spans) if s[0] == "functional_oracle.dim_V"]
    certifying = [k for k in dims if "functional_oracle.rows" in kids[k]]
    certified = sum(1 for k in certifying if "functional_oracle.exact" not in kids[k])
    rows = {kind: sum(c[kind] for c in kinds) for kind in ("join", "pole", "interval")}
    return {
        "root_system.gammas": gammas,
        "multipartition.enumerate_s": total.get("multipartition.enumerate", 0.0),
        "multipartition.candidates": candidates,
        "multipartition.kept": kept,
        "multipartition.kept_ratio": _ratio(kept, candidates),
        "multipartition.compute_K_s": total.get("multipartition.compute_K", 0.0),
        "polytope_count.build_s": total.get("polytope_count.build", 0.0),
        "polytope_count.count_s": total.get("polytope_count.count", 0.0),
        "polytope_count.multiplicity_self_s": self_time("polytope_count.multiplicity"),
        "polytope_count.polytopes": calls.get("polytope_count.build", 0),
        "polytope_count.nonzero_ratio": _ratio(sum(1 for c in counts if c), len(counts)),
        "polytope_count.lattice_points": sum(counts),
        "functional_oracle.grades": len(dims),
        "functional_oracle.orbit_basis_s": total.get("functional_oracle.orbit_basis", 0.0),
        "functional_oracle.orbits": sum(infos("functional_oracle.orbit_basis")),
        "functional_oracle.rows_s": total.get("functional_oracle.rows", 0.0),
        "functional_oracle.rows": sum(rows.values()),
        "functional_oracle.rows_join": rows["join"],
        "functional_oracle.rows_pole": rows["pole"],
        "functional_oracle.rows_interval": rows["interval"],
        "functional_oracle.modp_s": self_time("functional_oracle.dim_V"),
        "functional_oracle.certified_zero": certified,
        "functional_oracle.certify_ratio": _ratio(certified, len(certifying)),
        "functional_oracle.exact_fallbacks": calls.get("functional_oracle.exact", 0),
        "functional_oracle.exact_s": total.get("functional_oracle.exact", 0.0),
        "functional_oracle.exact_max_cells": max(infos("functional_oracle.exact"), default=0),
        "decomposition.to_json_s": total.get("decomposition.to_json", 0.0),
    }

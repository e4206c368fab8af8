"""One fresh-interpreter sample of a workload.

Usage: python worker.py WORKLOAD SEED {setup,run,trace}

Imports hldecomp, builds the workload's inputs from the seed and, unless
the mode is `setup`, runs every call and serializes its result with
`decomposition.to_json_text`.  Prints one JSON line: the perf_counter
reading when the inputs were ready (`ready`), the time to the complete
results (`wall_s`), the peak resident memory, every call's JSON text
or error, and in `trace` mode the spans.
"""

import contextlib
import json
import resource
import sys
from time import perf_counter

import tracing
import workloads


def main():
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    calls = workloads.WORKLOADS[workload][0](seed)
    ready = perf_counter()
    out = {"ready": ready}
    if mode != "setup":
        with (tracing.traced() if mode == "trace" else contextlib.nullcontext()) as spans:
            out["results"] = workloads.run_calls(calls)
        out["wall_s"] = perf_counter() - ready
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if spans is not None:
            out["spans"] = spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()

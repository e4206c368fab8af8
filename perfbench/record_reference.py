"""Record the per-gamma reference answers of every workload.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each named workload (all by default) once in this process with
seed 0 and writes reference/<workload>.json.  The references are meant
to be recorded once and then changed only when an answer is known to
have been wrong.
"""

import json
import sys

import workloads
from hldecomp.decomposition import to_json_text


def main():
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        ref = {key: workloads.decode(to_json_text(call()))[1]
               for key, _, call in workloads.WORKLOADS[name][0](0)}
        path = workloads.REFERENCE_DIR / (name + ".json")
        with open(path, "w") as fh:
            json.dump(workloads.reference_to_json(ref), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s (%d weights, %d gammas)"
              % (path.name, len(ref), sum(len(p) for p in ref.values())))


if __name__ == "__main__":
    main()

"""Benchmark of hldecomp: run one workload, check every answer, print
every metric by name with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh interpreter (worker.py), because the library's
process-wide caches make a second in-process run faster than what a
command-line user pays.  Samples run one after another, never
concurrently.  A run takes one sample and starts another while it
should still end within --seconds; set-up (interpreter start, import,
inputs) is measured in every sample and in SETUPS_PER_SAMPLE set-up-only
workers before each one.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it takes one untraced sample, then traced ones,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; the exit code is 1 when any answer is wrong and 2 when
the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUPS_PER_SAMPLE = 3
# every worker must end by this many seconds after the run starts
RUN_LIMIT_S = 170.0


class RunFailed(RuntimeError):
    pass


def spawn(env, workload, seed, mode, deadline):
    """Run one worker and return its JSON report, with `setup_s` (from
    spawning to ready inputs) and `sample_s` (spawn to exit) added."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("%s worker passed the %.0f s run limit" % (mode, RUN_LIMIT_S)) from exc
    if proc.returncode != 0:
        raise RunFailed("%s worker exited with %d:\n%s"
                        % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    out["sample_s"] = perf_counter() - t0
    return out


def environment():
    from hldecomp import polytope_count

    # kernel_name goes away with the compiled kernel; pure is all that is left
    kernel = getattr(polytope_count, "kernel_name", lambda: "pure")()
    return "python %s, nproc %d, HLDECOMP_PURE=%s, kernel %s" % (
        platform.python_version(), len(os.sched_getaffinity(0)),
        os.environ.get("HLDECOMP_PURE", "unset"), kernel)


def measure(args, env):
    """(set-up times, untraced samples, traced samples)."""
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    spawn(env, args.workload, args.seed, "setup", deadline)  # writes bytecode
    setups, plain, traced = [], [], []

    def sample(mode):
        # set-ups run between samples, so their median spans the whole run
        for _ in range(SETUPS_PER_SAMPLE):
            setups.append(spawn(env, args.workload, args.seed, "setup", deadline)["setup_s"])
        out = spawn(env, args.workload, args.seed, mode, deadline)
        setups.append(out["setup_s"])
        return out

    t_measure = perf_counter()
    if args.trace:
        plain.append(sample("run"))
    target, mode = (traced, "trace") if args.trace else (plain, "run")
    while True:
        target.append(sample(mode))
        # start another sample only if it should end within --seconds
        if perf_counter() - t_measure + target[-1]["sample_s"] > args.seconds:
            break
    return setups, plain, traced


def check(workload, samples, reference):
    attempted = failed = 0
    for sample in samples:
        a, f = workloads.score(workload, sample["results"], reference)
        attempted += a
        failed += f
        for res in sample["results"]:
            if "error" in res:
                print("error at weight %s: %s" % (res["key"], res["error"]), file=sys.stderr)
    return attempted, failed


def end_to_end(setups, plain):
    return {
        "wall_s": (statistics.median(s["wall_s"] for s in plain), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["rss_kb"] / 1024 for s in plain), "MiB"),
    }


def per_layer(plain, traced):
    layers = [tracing.layer_metrics(s["spans"], sum(r["gammas"] for r in s["results"]))
              for s in traced]
    out = {}
    for name in layers[0]:
        unit = tracing.PER_LAYER[name]
        # counts repeat exactly across samples; times are medians
        pick = statistics.median if unit == "s" else statistics.median_low
        out[name] = (pick(m[name] for m in layers), unit)
    out["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                               - statistics.median(s["wall_s"] for s in plain), "s")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "hldecomp" / "__init__.py").is_file():
        print("perfbench: no hldecomp package under %s; run from the repository root"
              % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    reference = workloads.load_reference(args.workload)
    try:
        setups, plain, traced = measure(args, env)
    except RunFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    attempted, failed = check(args.workload, plain + traced, reference)
    if failed:
        print("perfbench: %d of %d jobs gave a wrong answer or raised" % (failed, attempted),
              file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(setups, plain)

    print("perfbench %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("environment: %s" % environment())
    runs = traced if args.trace else plain
    print("samples: %d %s fresh-interpreter runs (wall_s %s), %d set-ups"
          % (len(runs), "traced" if args.trace else "untraced",
             " ".join("%.3f" % s["wall_s"] for s in runs), len(setups)))
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("%-40s %14.6g ratio  (%d failed of %d jobs)"
          % ("error_rate", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

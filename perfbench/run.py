"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload advise-paper --seed 1 \\
        --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` is a separate run that attributes the work to the
program's layers.  A human-readable report goes first; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root; ``perfbench/README.md`` maps each per-layer metric to
its layer module and the end-to-end metric it should move.  The
program is imported from ``src/`` of the same checkout; the benchmark
exits non-zero without printing a result when it is missing.
"""

import argparse
import json
import math
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one run (calibration cache, server state); removed
#: when the run ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Reference keys that measure answer quality (lower is better).
QUALITY_KEYS = (".util_vs_see", ".regularize_util_ratio")

WORKLOADS = {
    "advise-paper": "advise_paper",
    "serve-mixed": "serve_mixed",
    "simulate-paper": "simulate_paper",
}


def _git_sha():
    """The checkout's commit, read from ``.git`` (None outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, extra):
    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "calibration_cache": "fresh-empty",
    }
    record.update(extra)
    return record


def compare_reference(workload, seed, values):
    """Compare ``values`` with the recorded reference for this seed.

    References are recorded per seed, or under ``"*"`` for values that
    do not depend on the seed.  Keys ending in :data:`QUALITY_KEYS` are
    answer quality (lower is better): they may not exceed the recorded
    value by more than 1e-9 relative, and an improvement is reported
    rather than failed.  Other floats must agree to 1e-9 relative and
    everything else exactly.  Returns ``(mismatches, improvements)``,
    lists of descriptions (empty when nothing is recorded).
    """
    with open(os.path.join(HERE, "reference.json")) as handle:
        by_seed = json.load(handle).get(workload, {})
    recorded = dict(by_seed.get("*", {}))
    recorded.update(by_seed.get(str(seed), {}))
    mismatches, improvements = [], []
    for key, expected in sorted(recorded.items()):
        got = values.get(key)
        text = "%s = %r, reference %r" % (key, got, expected)
        if isinstance(expected, float) and isinstance(got, (int, float)):
            slack = 1e-9 * max(1.0, abs(expected))
            if key.endswith(QUALITY_KEYS) and got < expected - slack:
                improvements.append(text)
            elif abs(got - expected) > slack:
                mismatches.append(text)
        elif got != expected:
            mismatches.append(text)
    return mismatches, improvements


def _format(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="print this seed's reference values instead "
                             "of checking them")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no program under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get(
        "PYTHONPATH", "")
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload,
                                                  os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work_dir, "cache")
    try:
        module = __import__(WORKLOADS[args.workload])
        started = time.perf_counter()
        out = module.run(args.seed, args.seconds, bool(args.trace), work_dir)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    from stats import peak_rss_mb

    reference = out.get("reference", {})
    if args.record_reference:
        print(json.dumps({str(args.seed): reference}, indent=1,
                         sort_keys=True))
    else:
        mismatches, improvements = compare_reference(
            args.workload, args.seed, reference)
        if mismatches:
            out["correct"] = False
        out["notes"].extend("reference mismatch: " + m for m in mismatches)
        out["notes"].extend("better than reference: " + m
                            for m in improvements)

    end_to_end = {
        "setup_s": out["setup_s"],
        "wall_s": out["wall_s"],
        "util_vs_see": out["util_vs_see"],
        "peak_rss_mb": out.get("peak_rss_mb") or peak_rss_mb(),
    }
    env = environment(args, out.get("env", {}))
    print("# perfbench %s" % json.dumps(env, sort_keys=True))
    print("# run took %.2f s; %d attempted, %d failed"
          % (elapsed, out["attempted"], out["failed"]))
    samples = out.get("samples", {})
    for name, value in end_to_end.items():
        print("e2e   %-28s %12s  n=%s" % (name, _format(value),
                                          samples.get(name, 1)))
    for name, value in sorted(out.get("report", {}).items()):
        print("info  %-28s %12s  n=%s" % (name, _format(value),
                                          samples.get(name, 1)))
    for name, value in sorted(out.get("quality", {}).items()):
        print("qual  %-28s %s" % (name, json.dumps(value, sort_keys=True)))
    layers = out.get("layers", {})
    for name, value in sorted(layers.items()):
        print("layer %-28s %12s" % (name, _format(value)))
    for note in out.get("notes", []):
        print("note  %s" % note)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = end_to_end
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            out["correct"] = False
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

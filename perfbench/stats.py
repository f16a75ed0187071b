"""Small statistics helpers shared by the benchmark workloads.

Every timing the benchmark reports is a median plus, where the sample
supports it, one tail percentile.  A tail percentile is only named when
at least :data:`MIN_BEYOND` samples lie beyond it, so a run with 40
samples reports p75 rather than a p99 that is really its maximum.
"""

import math
import os
import resource
import statistics

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles considered, highest first.
TAILS = (99.0, 95.0, 90.0, 80.0, 75.0)


def percentile(samples, q):
    """The q-th percentile (0..100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_tail(count, tails=TAILS, min_beyond=MIN_BEYOND):
    """Highest percentile in ``tails`` with ``min_beyond`` samples past
    it among ``count`` samples, or None when even the lowest lacks them."""
    for q in tails:
        if count * (100.0 - q) / 100.0 >= min_beyond:
            return q
    return None


def summarize(samples):
    """``{"n", "p50", "tail_q", "tail"}`` for a list of numbers.

    ``tail_q`` is the percentile :func:`supported_tail` allows for the
    sample count (None, with ``tail`` None, when no tail is supported).
    """
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    tail_q = supported_tail(n)
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail_q": tail_q,
        "tail": percentile(samples, tail_q) if tail_q is not None else None,
    }


def median(values):
    return statistics.median(values)


def geomean(values):
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _vm_hwm_kib(pid):
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid):
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as handle:
            return [int(p) for p in handle.read().split()]
    except OSError:
        return []


def peak_rss_mb(extra_pids=()):
    """Peak resident set of this process plus live descendants of it and
    of ``extra_pids``, in MiB (each process's own high-water mark)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    seen = {os.getpid()}
    total = own
    stack = _children(os.getpid()) + list(extra_pids)
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _vm_hwm_kib(pid)
        stack.extend(_children(pid))
    return total / 1024.0

"""Workload ``serve-mixed``: advise and trace-feed traffic over HTTP.

The service runs as its own process (``repro serve``) with a fresh
``--state-dir`` (WAL fsyncs and a snapshot every 16 chunks), one solver
worker (``nproc - 1`` on the two-core reference machine), and request
tracing off unless the run is traced.  The load generator is this one
process with two keep-alive connections.  Traffic is 3 advises to 1
feed over a fixed population of 12 tenants whose advise cost spans
about 20x (see :mod:`loadgen`).

A run has two phases sharing the measured time:

* **closed loop** -- fixed batches of 48 requests (each tenant 3
  advises, 1 feed); both connections take the next request from one
  queue, back to back.  ``wall_s`` is the median batch wall time: the
  service's cost to serve the mix.
* **open loop** -- a short ladder of fixed arrival rates, each tenant
  pinned to one connection so its chunks arrive in order.  Latency is
  timed from each request's due time; the report gives advise and feed
  latency per rate with sample counts, how late the generator ran, and
  the highest rate meeting advise tail <= 250 ms and feed tail <=
  500 ms with no failed request and no growing backlog.

The traced run (``--trace 1``) drives the same closed-loop batches
against an untraced and then a traced server; the stitched request
traces from ``/debug/traces`` are rolled up into self time per layer,
and the traced/untraced advise latency ratio is the tracing overhead.
"""

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

from layers import rollup_spans
from loadgen import (CONNECTIONS, CONTROLLER, FeedClocks, backlog_grows,
                     open_loop_timings, population, schedule)
from stats import geomean, median, peak_rss_mb, percentile, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKERS = 1
BATCH = 48
#: Share of an untraced run's measured time given to the closed loop.
CLOSED_SHARE = 0.65
LADDER_RPS = (4.0, 8.0, 12.0)
REFERENCE_RPS = 4.0
ADVISE_LIMIT_S = 0.25
FEED_LIMIT_S = 0.5
TRACE_RING = 8192
#: Chunks between compacting snapshots.  Each tenant is sent one chunk
#: per closed-loop batch, so the service default (16) would never
#: snapshot within a run.
SNAPSHOT_EVERY = 4
START_TIMEOUT_S = 60.0
#: Server starts (with tenant creation) per untraced run; set-up time
#: is their median.
SETUP_REPEATS = 3


class Server:
    """One ``repro serve`` process on a free port."""

    def __init__(self, root, state_dir, traced, access_log=None):
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--port", "0", "--workers", str(WORKERS),
                   "--state-dir", state_dir,
                   "--snapshot-every", str(SNAPSHOT_EVERY)]
        if traced:
            command += ["--trace-ring", str(TRACE_RING)]
            if access_log:
                command += ["--access-log", access_log]
        else:
            command.append("--no-request-traces")
        self.proc = subprocess.Popen(command, cwd=root,
                                     stdout=subprocess.PIPE, text=True)
        line = self._first_line()
        match = re.search(r"http://([^:]+):(\d+)", line or "")
        if match is None:
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        self.host, self.port = match.group(1), int(match.group(2))

    def _first_line(self):
        box = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(START_TIMEOUT_S)
        return box[0] if box else None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


def _layout_ok(problem, layout):
    """Rows sum to one, fractions non-negative, capacities respected."""
    sizes = {o["name"]: o["size"] for o in problem["objects"]}
    capacity = [t["capacity"] for t in problem["targets"]]
    used = [0.0] * len(capacity)
    if set(layout) != set(sizes):
        return False
    for name, row in layout.items():
        if len(row) != len(capacity) or min(row) < -1e-12:
            return False
        if abs(sum(row) - 1.0) > 1e-6:
            return False
        for j, fraction in enumerate(row):
            used[j] += fraction * sizes[name]
    return all(u <= c * (1 + 1e-9) for u, c in zip(used, capacity))


class LoadGenerator:
    """The load generator: two connections, results and checks."""

    def __init__(self, server, tenants):
        from repro.serve.client import ServeClient

        self.tenants = {t[0]: t for t in tenants}
        self.clients = [ServeClient(server.host, server.port, retries=0)
                        for _ in range(CONNECTIONS)]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.util = {}            # tenant -> util_vs_see of its advises
        self.reg_ratio = {}       # tenant -> regular / solver max µ

    async def close(self):
        for client in self.clients:
            await client.close()

    async def create_all(self):
        for tenant_id, _, problem in self.tenants.values():
            await self.clients[0].create_tenant({
                "tenant_id": tenant_id, "problem": problem,
                "controller": CONTROLLER,
            })

    async def send(self, request):
        """Send one request; returns True on a valid 2xx response."""
        from repro.serve.client import ServeHttpError

        client = self.clients[request["conn"]]
        tenant_id = request["tenant"]
        self.attempted += 1
        try:
            if request["kind"] == "advise":
                _, payload = await client.advise(tenant_id)
                problem = self.tenants[tenant_id][2]
                if not _layout_ok(problem, payload["layout"]):
                    raise ValueError("invalid layout for %s" % tenant_id)
                utils = payload["max_utilization"]
                self.util[tenant_id] = utils["regular"] / utils["see"]
                self.reg_ratio[tenant_id] = utils["regular"] / utils["solver"]
            else:
                await client.feed(tenant_id, request["records"])
        except (ServeHttpError, ValueError, KeyError, ConnectionError,
                asyncio.IncompleteReadError) as error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s %s: %s" % (request["kind"],
                                                  tenant_id, error))
            return False
        return True

    async def closed_batch(self, requests):
        """Both connections take the next request from one queue, back
        to back; returns the batch wall time and per-request (kind,
        latency) pairs.  A batch holds at most one feed per tenant and
        batches run one after another, so no tenant's chunks can
        overtake each other."""
        timings = []
        queue = list(reversed(requests))

        async def lane(conn):
            while queue:
                request = dict(queue.pop(), conn=conn)
                started = time.perf_counter()
                ok = await self.send(request)
                if ok:
                    timings.append((request["kind"],
                                    time.perf_counter() - started))

        started = time.perf_counter()
        await asyncio.gather(*(lane(c) for c in range(CONNECTIONS)))
        return time.perf_counter() - started, timings

    async def open_step(self, requests):
        """Send on schedule; returns per-request timing records."""
        loop_start = time.perf_counter()
        records = []

        async def lane(conn):
            for request in requests:
                if request["conn"] != conn:
                    continue
                due = loop_start + request["due"]
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                ok = await self.send(request)
                timing = open_loop_timings(due, sent, time.perf_counter())
                timing.update(kind=request["kind"], ok=ok, due=due)
                records.append(timing)

        await asyncio.gather(*(lane(c) for c in range(CONNECTIONS)))
        return sorted(records, key=lambda r: r["due"])

    async def get(self, path):
        return (await self.clients[0].request("GET", path))[1]


def _phase_report(records):
    """Latency summaries (ms) and the pass/fail of one ladder step."""
    advise = [r["latency"] * 1e3 for r in records
              if r["kind"] == "advise" and r["ok"]]
    feed = [r["latency"] * 1e3 for r in records
            if r["kind"] == "feed" and r["ok"]]
    lates = [r["late"] * 1e3 for r in records]
    failed = sum(1 for r in records if not r["ok"])
    a, f = summarize(advise), summarize(feed)
    a_tail = a["tail"] if a["tail"] is not None else a["p50"]
    f_tail = f["tail"] if f["tail"] is not None else f["p50"]
    ok = (failed == 0 and a_tail is not None
          and a_tail <= ADVISE_LIMIT_S * 1e3
          and (f_tail is None or f_tail <= FEED_LIMIT_S * 1e3)
          and not backlog_grows([r["late"] for r in records]))
    return {"advise": a, "feed": f, "late_ms": summarize(lates),
            "late_max_ms": max(lates, default=0.0),
            "failed": failed, "meets_limits": ok}


async def _closed_phase(gen, rng, tenants, clocks, seconds,
                        after_batch=None):
    walls, timings = [], []
    deadline = time.perf_counter() + seconds
    while True:
        requests = schedule(rng, tenants, clocks, BATCH)
        wall, batch = await gen.closed_batch(requests)
        walls.append(wall)
        timings.extend(batch)
        if after_batch is not None:
            after_batch()
        if time.perf_counter() + wall > deadline:
            break
    return walls, timings


async def _open_phase(gen, rng, tenants, clocks, seconds):
    steps = {}
    step_s = seconds / len(LADDER_RPS)
    for rate in LADDER_RPS:
        requests = schedule(rng, tenants, clocks, int(rate * step_s),
                            duration_s=step_s)
        records = await gen.open_step(requests)
        steps[rate] = _phase_report(records)
    return steps


def _rollup(traces):
    """Per-layer numbers from stitched request traces; returns
    ``(layers, self seconds by span name, queue-wait samples)``."""
    by_name_s, by_name_n = {}, {}
    queue_ms, worker = [], {"worker.advise": [], "worker.resolve": []}
    requests = 0
    for trace in traces:
        requests += 1
        spans = trace["spans"]
        self_s, counts = rollup_spans(spans)
        for name, value in self_s.items():
            by_name_s[name] = by_name_s.get(name, 0.0) + value
            by_name_n[name] = by_name_n.get(name, 0) + counts[name]
        for span in spans:
            if span["name"] == "scheduler.queue":
                queue_ms.append(span["duration_s"] * 1e3)
            elif span["name"] in worker:
                worker[span["name"]].append(span["duration_s"] * 1e3)

    def mean_self_ms(name):
        count = by_name_n.get(name, 0)
        return 1e3 * by_name_s.get(name, 0.0) / count if count else 0.0

    queue = summarize(queue_ms)
    layers = {
        "http.admission_ms": 1e3 * (by_name_s.get("request", 0.0)
                                    + by_name_s.get("admission.wait", 0.0))
        / max(1, requests),
        "http.serialize_ms": mean_self_ms("response.serialize"),
        "scheduler.queue_ms.p50": queue["p50"] or 0.0,
        "scheduler.queue_ms.tail": queue["tail"] or queue["p50"] or 0.0,
        "pool.ipc_ms": mean_self_ms("pool.dispatch"),
        "worker.advise_ms": (sum(worker["worker.advise"])
                             / max(1, len(worker["worker.advise"]))),
        "worker.resolve_ms": (sum(worker["worker.resolve"])
                              / max(1, len(worker["worker.resolve"]))),
        "resolve.jobs": len(worker["worker.resolve"]),
        "tenant.feed_ms": mean_self_ms("tenant.feed"),
    }
    return layers, by_name_s, queue["n"]


def _metric_total(text, name, label=None):
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and (label is None or label in line):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _durability(state_dir):
    """``(wal_bytes, wal_records, snapshots)`` summed over the tenants'
    state directories: the WAL tails as they stand (a snapshot empties
    a tenant's WAL) and the index of each tenant's newest snapshot."""
    wal_bytes = wal_records = snapshots = 0
    for tenant in os.listdir(state_dir):
        directory = os.path.join(state_dir, tenant)
        if not os.path.isdir(directory):
            continue
        names = os.listdir(directory)
        if "wal.jsonl" in names:
            with open(os.path.join(directory, "wal.jsonl"), "rb") as handle:
                data = handle.read()
            wal_bytes += len(data)
            wal_records += data.count(b"\n")
        indices = [int(m.group(1)) for m in
                   (re.match(r"snapshot-(\d+)\.json$", n) for n in names)
                   if m]
        snapshots += max(indices, default=0)
    return wal_bytes, wal_records, snapshots


async def _session(root, work_dir, name, traced, seed, seconds, tenants,
                   open_loop):
    """Start a server, create tenants, drive traffic, collect, stop."""
    state_dir = os.path.join(work_dir, name + "-state")
    os.makedirs(state_dir)
    rng = random.Random(seed)
    clocks = FeedClocks()
    result = {}
    started = time.perf_counter()
    access_log = os.path.join(work_dir, name + "-access.jsonl")
    server = Server(root, state_dir, traced, access_log=access_log)
    try:
        gen = LoadGenerator(server, tenants)
        try:
            await gen.create_all()
            result["setup_s"] = time.perf_counter() - started
            closed_s = seconds * CLOSED_SHARE if open_loop else seconds
            # WAL tails sampled after every batch: snapshots compact
            # them, so one look at the end may find them empty.
            wal_samples = []
            walls, timings = await _closed_phase(
                gen, rng, tenants, clocks, closed_s,
                after_batch=(lambda: wal_samples.append(
                    _durability(state_dir))) if traced else None)
            result["wal_samples"] = wal_samples
            result["walls"] = walls
            result["timings"] = timings
            if open_loop:
                result["ladder"] = await _open_phase(
                    gen, rng, tenants, clocks, seconds - closed_s)
            status = await gen.get("/status")
            result["status"] = status
            result["metrics_text"] = await gen.get("/metrics")
            if traced:
                listing = await gen.get("/debug/traces")
                result["traces"] = [
                    await gen.get("/debug/traces/" + entry["trace_id"])
                    for entry in listing["traces"]
                    if entry["route"] in ("advise", "feed")
                ]
            result["peak_rss_mb"] = peak_rss_mb([server.proc.pid])
            # Read before the drain, which snapshots every tenant.
            result["snapshots"] = _durability(state_dir)[2]
            tenant_status = [await gen.get("/tenants/%s/status" % t[0])
                             for t in tenants]
            result["records_fed"] = sum(s["records_fed"]
                                        for s in tenant_status)
        finally:
            await gen.close()
        result["gen"] = gen
    finally:
        server.stop()
    if traced:
        with open(access_log) as handle:
            routes = [json.loads(line)["route"] for line in handle]
        result["logged"] = sum(1 for r in routes if r in ("advise", "feed"))
    return result


async def _setup_only(root, work_dir, name, tenants):
    """Start a server and create the tenants; returns the seconds taken."""
    state_dir = os.path.join(work_dir, name + "-state")
    os.makedirs(state_dir)
    started = time.perf_counter()
    server = Server(root, state_dir, traced=False)
    try:
        gen = LoadGenerator(server, tenants)
        try:
            await gen.create_all()
            return time.perf_counter() - started
        finally:
            await gen.close()
    finally:
        server.stop()


def run(seed, seconds, trace, work_dir):
    tenants = population()
    out = {"notes": [], "layers": {}, "env": {"pool_workers": WORKERS,
                                              "connections": CONNECTIONS}}
    if trace:
        half = seconds / 2
        plain = asyncio.run(_session(ROOT, work_dir, "untraced", False,
                                     seed, half, tenants, open_loop=False))
        main = asyncio.run(_session(ROOT, work_dir, "traced", True, seed,
                                    half, tenants, open_loop=False))
        sessions = [plain, main]
    else:
        setups = [asyncio.run(_setup_only(ROOT, work_dir, "setup%d" % k,
                                          tenants))
                  for k in range(SETUP_REPEATS - 1)]
        main = asyncio.run(_session(ROOT, work_dir, "untraced", False, seed,
                                    seconds, tenants, open_loop=True))
        sessions = [main]
        main["setup_s"] = median(setups + [main["setup_s"]])

    failures = []
    attempted = failed = 0
    for session in sessions:
        gen = session["gen"]
        attempted += gen.attempted
        failed += gen.failed
        failures.extend(gen.errors)
        queue = session["status"]["queue"]
        if queue["pending"] or queue["inflight"]:
            failures.append("queue ends with %d pending, %d inflight"
                            % (queue["pending"], queue["inflight"]))
        if "logged" in session and session["logged"] != gen.attempted:
            failures.append("access log holds %d advise/feed requests, %d "
                            "were sent" % (session["logged"],
                                           gen.attempted))
        if session["status"]["pool"]["generation"] != 0:
            failures.append("pool generation %d (a worker crashed)"
                            % session["status"]["pool"]["generation"])
    out["attempted"], out["failed"] = attempted, failed
    out["correct"] = not failures and failed == 0
    out["notes"].extend(failures)

    gen = main["gen"]
    by_class = {}
    for tenant_id, label, _ in tenants:
        if tenant_id in gen.util:
            by_class.setdefault(label, []).append(gen.util[tenant_id])
    out["setup_s"] = main["setup_s"]
    out["wall_s"] = median(main["walls"])
    out["notes"].append("closed-loop batch walls (s): %s" % ", ".join(
        "%.3f" % w for w in main["walls"]))
    out["util_vs_see"] = geomean(gen.util.values())
    out["peak_rss_mb"] = main["peak_rss_mb"]
    out["quality"] = {
        "class-" + label: {"util_vs_see_geomean": geomean(values),
                           "tenants": len(values)}
        for label, values in sorted(by_class.items())
    }
    out["quality"]["tenant-2x2-0"] = {"util_vs_see": gen.util.get("2x2-0")}
    out["reference"] = {t + ".util_vs_see": v
                        for t, v in gen.util.items()}
    out["reference"].update({t + ".regularize_util_ratio": v
                             for t, v in gen.reg_ratio.items()})
    report = {}
    samples = {"wall_s": len(main["walls"]),
               "setup_s": 1 if trace else SETUP_REPEATS,
               "util_vs_see": len(gen.util)}

    def latency(key, stats):
        report[key + "_p50_ms"] = stats["p50"]
        samples[key + "_p50_ms"] = stats["n"]
        if stats["tail"] is not None:
            tail_key = "%s_p%d_ms" % (key, stats["tail_q"])
            report[tail_key] = stats["tail"]
            samples[tail_key] = stats["n"]

    for kind in ("advise", "feed"):
        latency("closed." + kind, summarize(
            [lat * 1e3 for k, lat in main["timings"] if k == kind]))
    if "ladder" in main:
        for rate, step in main["ladder"].items():
            prefix = "open.%grps." % rate
            latency(prefix + "advise", step["advise"])
            latency(prefix + "feed", step["feed"])
            report[prefix + "generator_late_p50_ms"] = step["late_ms"]["p50"]
            report[prefix + "generator_late_max_ms"] = step["late_max_ms"]
            report[prefix + "meets_limits"] = step["meets_limits"]
        report["max_rate_rps"] = max(
            (rate for rate, step in main["ladder"].items()
             if step["meets_limits"]), default=0.0)
        report["reference_rps"] = REFERENCE_RPS
    out["report"] = report
    out["samples"] = samples

    if trace:
        layers = out["layers"]
        rolled, by_span, queue_n = _rollup(main["traces"])
        status = main["status"]
        text = main["metrics_text"]
        wal_bytes = sum(sample[0] for sample in main["wal_samples"])
        wal_records = sum(sample[1] for sample in main["wal_samples"])
        feed_self = by_span.get("tenant.feed", 0.0)
        layers.update(rolled)
        layers.update({
            "scheduler.rejected": status["queue"]["rejected"],
            "pool.crashes": status["pool"]["generation"],
            "monitor.records_per_s": (main["records_fed"] / feed_self
                                      if feed_self else 0.0),
            "resolve.accepted": _metric_total(
                text, "repro_online_resolves_total", 'decision="accept'),
            "wal.bytes_per_record": (wal_bytes / wal_records
                                     if wal_records else 0.0),
            "wal.snapshots": main["snapshots"],
        })
        plain_advise = [lat for k, lat in plain["timings"] if k == "advise"]
        traced_advise = [lat for k, lat in main["timings"] if k == "advise"]
        p = summarize(plain_advise)
        t = summarize(traced_advise)
        q = min(p["tail_q"] or 50.0, t["tail_q"] or 50.0)
        layers["trace.overhead_p50"] = t["p50"] / p["p50"]
        layers["trace.overhead_tail"] = (percentile(traced_advise, q)
                                         / percentile(plain_advise, q))
        out["report"]["trace.overhead_tail_q"] = q
        out["report"]["scheduler.queue_samples"] = queue_n
        for name, value in by_span.items():
            out["report"]["span_self_s." + name] = value
    return out

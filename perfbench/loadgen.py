"""Seeded traffic for ``serve-mixed``: tenants, feed chunks, schedules.

Pure functions and small classes with no I/O, so the accounting the
benchmark's numbers rest on can be tested on its own:

* :func:`population` -- the fixed tenant population (problem shapes
  whose per-advise cost spans about 20x);
* :class:`FeedClocks` -- per-tenant trace clocks: every chunk a tenant
  is sent starts at or after the end of its previous chunk, so the
  service never sees a chunk go back in time;
* :func:`schedule` -- a request list of advises and feeds in a fixed
  3:1 ratio; each tenant is assigned one connection, so on an open-loop
  schedule its requests reach the service in the order generated;
* :func:`open_loop_timings` -- latency measured from each request's due
  time, and how late the generator itself sent it.
"""

import random

#: Requests per tenant in one closed-loop batch: 3 advises, 1 feed.
ADVISES_PER_FEED = 3

#: Keep-alive connections of the load generator.
CONNECTIONS = 2

#: Seed of the tenant population and of its feed chunks.  Both are fixed
#: so the work per request stays the same from seed to seed; the
#: benchmark seed drives the traffic (request order, arrival times).
POPULATION_SEED = 20100606

#: Tenant classes: (label, objects, targets, tenants of the class).
CLASSES = (
    ("2x2", 2, 2, 6),
    ("3x3", 3, 3, 3),
    ("4x3", 4, 3, 2),
    ("6x4", 6, 4, 1),
)

#: Simulated seconds one feed chunk covers.
CHUNK_SPAN_S = 4.0

#: Controller tuned so one drifted chunk is enough to trigger a check
#: and a warm re-solve (as in the service's own load test).
CONTROLLER = {
    "check_interval_s": 2.0,
    "patience": 1,
    "cooldown_s": 0.0,
    "min_gain": 0.001,
    "amortization_s": 10000.0,
    "monitor_halflife_s": 4.0,
    "regular": True,
}

_KINDS = ("disk15k", "ssd", "raid0")
MIB = 1 << 20


def _problem(rng, n_objects, n_targets):
    targets = []
    for j in range(n_targets):
        kind = "disk15k" if j == 0 else rng.choice(_KINDS)
        target = {"name": "t%d" % j, "capacity": 64 * MIB, "kind": kind}
        if kind == "raid0":
            target["members"] = 2
        targets.append(target)
    objects = [{
        "name": "o%d" % i,
        "size": rng.choice((2, 4, 8)) * MIB,
        "read_rate": round(rng.uniform(10.0, 200.0), 3),
        "write_rate": round(rng.uniform(0.0, 50.0), 3),
        "run_count": rng.choice((1, 4, 16, 64)),
    } for i in range(n_objects)]
    return {"stripe_size": MIB, "targets": targets, "objects": objects}


#: The 2x2 tenant of the service's own load test: one disk, one SSD,
#: a hot and a cold object.  Its regular layout equals SEE.
TWO_BY_TWO = {
    "stripe_size": MIB,
    "targets": [
        {"name": "t0", "capacity": 8 * MIB, "kind": "disk15k"},
        {"name": "t1", "capacity": 4 * MIB, "kind": "ssd"},
    ],
    "objects": [
        {"name": "o0", "size": 3 * MIB, "read_rate": 120.0, "run_count": 4},
        {"name": "o1", "size": 3 * MIB, "read_rate": 20.0, "run_count": 4},
    ],
}


def population():
    """``[(tenant_id, class_label, problem)]`` -- the fixed population."""
    rng = random.Random(POPULATION_SEED)
    tenants = []
    for label, n_objects, n_targets, count in CLASSES:
        for k in range(count):
            if label == "2x2" and k == 0:
                problem = TWO_BY_TWO
            else:
                problem = _problem(rng, n_objects, n_targets)
            tenants.append(("%s-%d" % (label, k), label, problem))
    return tenants


class FeedClocks:
    """Per-tenant trace clocks and chunk generation.

    Each chunk covers ``[clock, clock + CHUNK_SPAN_S)`` of the tenant's
    simulated time; one object is hot (200 req/s) and the rest are cold
    (10 req/s), and the hot object rotates chunk by chunk, so drift
    detection, re-solves and WAL appends keep happening.  A tenant's
    k-th chunk depends only on the tenant and k, so the control work a
    tenant's feeds cause is the same whatever order the traffic takes.
    """

    def __init__(self):
        self.clock = {}
        self.chunks = {}

    def chunk(self, tenant_id, objects):
        start = self.clock.get(tenant_id, 0.0)
        index = self.chunks.get(tenant_id, 0)
        rng = random.Random("%d:%s:%d" % (POPULATION_SEED, tenant_id, index))
        hot = objects[index % len(objects)]
        records = []
        for obj in objects:
            rate = 200.0 if obj == hot else 10.0
            t = start + rng.uniform(0.0, 1.0 / rate)
            while t < start + CHUNK_SPAN_S:
                records.append({"obj": obj, "finish_time": round(t, 6),
                                "kind": "read", "size": 8192,
                                "service_time": 0.002})
                t += rng.expovariate(rate)
        records.sort(key=lambda r: r["finish_time"])
        self.clock[tenant_id] = start + CHUNK_SPAN_S
        self.chunks[tenant_id] = index + 1
        return records


def schedule(rng, tenants, clocks, count, duration_s=None):
    """``count`` requests, every tenant sent advises and feeds 3:1.

    Requests come in rounds: each round holds, for every tenant, three
    advises and one feed, in a seeded order; the schedule is the first
    ``count`` requests of consecutive rounds, so each tenant gets the
    same share of the work.  Returns ``{"due", "conn", "tenant",
    "class", "kind", "records"}`` dicts sorted by due time.  With
    ``duration_s`` the due times are ``count`` seeded uniform arrivals
    over the window (a Poisson process with a fixed count); without it
    every request is due at 0 (closed loop).  Each tenant is pinned to
    connection ``index % CONNECTIONS``.
    """
    items = []
    while len(items) < count:
        round_ = [(index, kind) for index in range(len(tenants))
                  for kind in ["advise"] * ADVISES_PER_FEED + ["feed"]]
        rng.shuffle(round_)
        items.extend(round_)
    items = items[:count]
    if duration_s is None:
        dues = [0.0] * count
    else:
        dues = sorted(rng.uniform(0.0, duration_s) for _ in range(count))
    requests = []
    for due, (index, kind) in zip(dues, items):
        tenant_id, label, problem = tenants[index]
        request = {"due": due, "conn": index % CONNECTIONS,
                   "tenant": tenant_id, "class": label, "kind": kind,
                   "records": None}
        if kind == "feed":
            request["records"] = clocks.chunk(
                tenant_id, [o["name"] for o in problem["objects"]])
        requests.append(request)
    return requests


def open_loop_timings(due, sent, done):
    """Latency and generator lateness of one open-loop request.

    Latency runs from the *due* time, so a stall also charges the wait
    it imposes on requests queued behind it.  ``late`` is how far
    behind schedule the generator sent the request.
    """
    return {"latency": done - due, "late": max(0.0, sent - due)}


def backlog_grows(lates, window=0.25):
    """True when sends fall further behind over a step: the mean
    lateness of the last ``window`` of requests exceeds that of the
    first by more than 100 ms."""
    if len(lates) < 8:
        return False
    k = max(1, int(len(lates) * window))
    head = sum(lates[:k]) / k
    tail = sum(lates[-k:]) / k
    return tail - head > 0.1

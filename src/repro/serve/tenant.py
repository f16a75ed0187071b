"""Per-tenant serving state: controller, clock, and accounting.

Each tenant the service hosts is one layout problem plus one ordinary
:class:`~repro.online.controller.OnlineController` (monitor → drift
detect → warm re-solve → migrate), configured for serving:

* re-solves run on the **shared solver pool** through the fair
  scheduler instead of in-process, via the ``solve_fn`` hook, so one
  tenant's drift storm cannot monopolize the service's CPU;
* the tenant's ``journal_dir`` makes accepted migrations **journaled at
  accept time** and paced by the tenant's own trace clock.  A served
  migration is in flight from the moment the decision lands until
  enough trace time has passed to pay the copy bill; a drain (SIGTERM)
  that lands mid-flight leaves an uncommitted journal on disk that the
  tenant's next incarnation finishes via
  :meth:`~repro.online.controller.OnlineController.resume_migration`.

Tenants advance on *their* time, not wall time: trace chunks carry
simulated timestamps and
:meth:`~repro.online.controller.OnlineController.advance` runs the
control loop (checks, migration pacing) against those, chunk by chunk,
holding the clock between HTTP requests.
"""

import threading
from dataclasses import asdict

from repro.errors import ReproError
from repro.obs import Instrumentation
from repro.online.controller import ControllerConfig, OnlineController
from repro.storage.request import CompletionRecord
from repro.workload.spec import ObjectWorkload
from repro.workload.trace_io import _FIELDS

#: Trace-chunk record fields a client may omit, with their defaults.
_RECORD_DEFAULTS = {
    "submit_time": None,   # defaults to finish_time
    "target": "",
    "stream_id": 0,
    "kind": "read",
    "lba": 0,
    "logical_offset": None,
    "size": 8192,
    "service_time": 0.0,
}


def records_from_payload(entries):
    """Parse a ``feed_trace_chunk`` body into completion records.

    Each entry needs ``obj`` and ``finish_time``; everything else in
    the archived-trace schema (:data:`repro.workload.trace_io._FIELDS`)
    is optional with sensible defaults, so a thin client can stream
    just ``{"obj": ..., "finish_time": ..., "kind": ..., "size": ...}``.
    """
    records = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ReproError(
                "trace chunk record %d is not an object" % position
            )
        if "obj" not in entry or "finish_time" not in entry:
            raise ReproError(
                "trace chunk record %d needs 'obj' and 'finish_time'"
                % position
            )
        values = {}
        for field in _FIELDS:
            if field in entry:
                values[field] = entry[field]
            elif field == "obj":
                values[field] = entry["obj"]
            elif field == "finish_time":
                values[field] = float(entry["finish_time"])
            else:
                values[field] = _RECORD_DEFAULTS[field]
        if values["submit_time"] is None:
            values["submit_time"] = values["finish_time"]
        values["finish_time"] = float(values["finish_time"])
        values["submit_time"] = float(values["submit_time"])
        records.append(CompletionRecord(**values))
    return records


class Tenant:
    """One hosted tenant: problem, controller, clock, and accounting.

    Args:
        tenant_id: The tenant's name (also its metrics label).
        problem: The tenant's :class:`~repro.core.problem.LayoutProblem`.
        initial_layout: Layout currently in effect for the tenant.
        config: The tenant's :class:`ControllerConfig` (its
            ``journal_dir`` should point at the tenant's state dir).
        weight: Fair-share weight in the solver scheduler.
        solve_fn: The controller's re-solve hook (see
            :class:`~repro.online.controller.OnlineController`).

    All feed/advise bookkeeping is guarded by a lock: trace chunks for
    one tenant are applied strictly one at a time even when the client
    pipelines requests.
    """

    def __init__(self, tenant_id, problem, initial_layout, config=None,
                 weight=1.0, solve_fn=None, problem_payload=None,
                 controller_overrides=None):
        self.tenant_id = str(tenant_id)
        self.problem = problem
        #: Raw create-time payloads, kept verbatim for the WAL create
        #: record and for snapshots — recovery reparses them through the
        #: same ``load_problem`` / ``ControllerConfig`` path as create.
        self.problem_payload = problem_payload
        self.controller_overrides = dict(controller_overrides or {})
        self.weight = float(weight)
        self.obs = Instrumentation.on()
        self.config = config or ControllerConfig()
        sizes = {name: int(size) for name, size in
                 zip(problem.object_names, problem.sizes)}
        self.controller = OnlineController(
            targets=problem.targets,
            object_sizes=sizes,
            initial_layout=initial_layout,
            solved_workloads=problem.workloads,
            stripe_size=problem.stripe_size,
            config=self.config,
            obs=self.obs,
            solve_fn=solve_fn,
            on_swap=self.record_swap,
        )
        self.lock = threading.Lock()
        self.records_fed = 0
        self.chunks_fed = 0
        self.advises = 0
        self.last_time = None
        self.deleted = False
        #: Durability (attached by the service when a state_dir is set).
        self.wal = None
        self.wal_skipped = 0
        self.snapshot_every = 0
        self._snapshot_fn = None
        self._swapped_journals = []
        #: The request trace of the feed currently holding the lock;
        #: the service's ``solve_fn`` reads it so a re-solve triggered
        #: by this chunk joins the same distributed trace.
        self.active_rtrace = None

    # ------------------------------------------------------------------

    def feed(self, records, rtrace=None):
        """Apply one trace chunk through the controller's
        :meth:`~repro.online.controller.OnlineController.advance`:
        observe records, run due checks, pace any in-flight migration.
        Blocking; call from a worker thread.
        """
        with self.lock:
            span = (rtrace.start("tenant.feed", tenant=self.tenant_id,
                                 records=len(records))
                    if rtrace is not None else None)
            self.active_rtrace = rtrace
            try:
                records = sorted(records, key=lambda r: r.finish_time)
                controller = self.controller
                if records:
                    if (self.last_time is not None
                            and records[0].finish_time < self.last_time):
                        raise ReproError(
                            "trace chunk goes back in time (%.3f < %.3f)"
                            % (records[0].finish_time, self.last_time)
                        )
                    controller.advance(records)
                    self.last_time = records[-1].finish_time
                    self.records_fed += len(records)
                    self.chunks_fed += 1
                    if self.wal is not None:
                        # The chunk's side effects (clock, counters, any
                        # swap pumped above — whose own record already
                        # landed via on_swap) become durable before the
                        # client sees the response.
                        self.wal.append(
                            "feed", clock_s=self.last_time,
                            next_check=controller._next_check,
                            records_fed=self.records_fed,
                            chunks_fed=self.chunks_fed,
                            resolves=controller.resolves,
                        )
                        if (self._snapshot_fn is not None
                                and self.snapshot_every > 0
                                and self.chunks_fed % self.snapshot_every
                                == 0):
                            self._snapshot_fn(self)
                return self.status()
            finally:
                self.active_rtrace = None
                if span is not None:
                    rtrace.finish(span,
                                  resolves=self.controller.resolves)

    def status(self):
        """JSON-safe snapshot of the tenant's serving state."""
        controller = self.controller
        return {
            "tenant": self.tenant_id,
            "weight": self.weight,
            "advises": self.advises,
            "chunks_fed": self.chunks_fed,
            "records_fed": self.records_fed,
            "clock_s": self.last_time,
            "resolves": controller.resolves,
            "migrating": controller.migrating,
            "events": len(controller.log),
            "layout": {name: [round(float(f), 6) for f in row]
                       for name, row in
                       controller.layout.fractions_by_name().items()},
        }

    def suspend(self):
        """Drain hook: leave any in-flight migration journaled on disk."""
        with self.lock:
            return self.controller.suspend_migration()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def attach_wal(self, wal, snapshot_every=0, snapshot_fn=None):
        """Wire a :class:`~repro.serve.durability.TenantWAL` in.

        ``snapshot_fn`` (called with this tenant every ``snapshot_every``
        chunks, on the feed thread under the tenant lock) is the
        service's compacting-snapshot hook — the service owns it because
        a snapshot also folds in SLO state and the idempotency cache.
        """
        self.wal = wal
        self.snapshot_every = int(snapshot_every)
        self._snapshot_fn = snapshot_fn
        return self

    def record_swap(self, journal_name):
        """WAL a completed placement swap (idempotent per journal)."""
        if journal_name in self._swapped_journals:
            return
        self._swapped_journals.append(journal_name)
        if self.wal is not None:
            controller = self.controller
            self.wal.append(
                "swap", journal=journal_name,
                journal_seq=controller._journal_seq,
                resolves=controller.resolves,
                layout={name: [float(f) for f in row] for name, row in
                        controller.layout.fractions_by_name().items()},
            )

    def persist_state(self):
        """The snapshot core: everything the tenant itself can vouch
        for (the service adds SLO state, idempotency, and ``wal_seq``).

        Call under the tenant lock (or before the tenant serves
        traffic) — snapshots taken mid-feed would tear the clock.
        """
        controller = self.controller
        return {
            "tenant_id": self.tenant_id,
            "problem": self.problem_payload,
            "controller": self.controller_overrides,
            "weight": self.weight,
            "layout": {name: [float(f) for f in row] for name, row in
                       controller.layout.fractions_by_name().items()},
            "clock_s": self.last_time,
            "next_check": controller._next_check,
            "records_fed": self.records_fed,
            "chunks_fed": self.chunks_fed,
            "advises": self.advises,
            "resolves": controller.resolves,
            "monitor": controller.monitor.to_state(),
            "solved": [asdict(w) for w in controller.solved_workloads],
            "journal_seq": controller._journal_seq,
            "swapped_journals": list(self._swapped_journals),
            "snapshot_skipped": self.wal_skipped,
        }

    def restore(self, state):
        """Load a replayed state dict (see
        :func:`~repro.serve.durability.load_tenant_state`) into this
        freshly-constructed tenant; call before it serves traffic."""
        controller = self.controller
        self.last_time = state.get("clock_s")
        controller._next_check = state.get("next_check")
        self.records_fed = int(state.get("records_fed") or 0)
        self.chunks_fed = int(state.get("chunks_fed") or 0)
        self.advises = int(state.get("advises") or 0)
        controller.resolves = int(state.get("resolves") or 0)
        controller.monitor.restore_state(state.get("monitor"))
        solved = state.get("solved")
        if solved:
            controller.solved_workloads = [
                ObjectWorkload(**spec) for spec in solved
            ]
        now = self.last_time if self.last_time is not None else 0.0
        solved_util = controller._predicted_util(
            controller.solved_workloads, controller.layout
        )
        controller.detector.rebase(controller.solved_workloads,
                                   solved_util, now)
        controller._journal_seq = int(state.get("journal_seq") or 0)
        self._swapped_journals = list(state.get("swapped_journals") or [])
        self.wal_skipped = int(state.get("wal_skipped") or 0)
        controller.log.emit(now, "recovered",
                            chunks_fed=self.chunks_fed,
                            records_fed=self.records_fed,
                            resolves=controller.resolves)
        return self

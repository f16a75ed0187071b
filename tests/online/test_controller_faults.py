"""Tests for the online controller's degraded-mode operation: fault
wiring, emergency evacuation, crash recovery, and chaos determinism."""

import glob
import os

import numpy as np
import pytest

from repro import units
from repro.core.layout import Layout
from repro.core.problem import TargetSpec
from repro.faults.injector import FaultInjector
from repro.faults.journal import MigrationJournal
from repro.faults.plan import FaultEvent, FaultPlan
from repro.models.analytic import analytic_disk_target_model
from repro.online.controller import ControllerConfig, OnlineController
from repro.storage.disk import DiskDrive
from repro.storage.engine import SimulationEngine
from repro.storage.mapping import PlacementMap
from repro.storage.request import CompletionRecord
from repro.storage.streams import SimContext, SteadyStream
from repro.storage.target import StorageTarget
from repro.workload.spec import ObjectWorkload

pytestmark = pytest.mark.chaos

SIZES = {"a": units.mib(64), "b": units.mib(64)}
CAPACITY = units.mib(256)


def _targets(n=2):
    return [
        TargetSpec("t%d" % j, CAPACITY, analytic_disk_target_model("t%d" % j))
        for j in range(n)
    ]


def _layout(rows):
    return Layout(np.array(rows, dtype=float), ["a", "b"], ["t0", "t1"])


def _records(obj, rate, t0, t1):
    n = int(round((t1 - t0) * rate))
    return [
        CompletionRecord(
            submit_time=t0 + (i + 0.5) / rate - 0.001,
            finish_time=t0 + (i + 0.5) / rate,
            target="t0", obj=obj, stream_id=1, kind="read", lba=0,
            logical_offset=None, size=8192, service_time=0.001,
        )
        for i in range(n)
    ]


def _config(**kwargs):
    defaults = dict(
        check_interval_s=5.0, monitor_window_s=1.0, monitor_halflife_s=10.0,
        patience=2, cooldown_s=20.0, min_gain=0.05, amortization_s=300.0,
    )
    defaults.update(kwargs)
    return ControllerConfig(**defaults)


def _controller(initial, solved, ctx=None, config=None):
    return OnlineController(
        targets=_targets(), object_sizes=SIZES, initial_layout=initial,
        solved_workloads=solved, ctx=ctx, config=config or _config(),
    )


def _live(initial, solved, config=None):
    engine = SimulationEngine()
    targets = [StorageTarget(DiskDrive("t%d" % j, CAPACITY), engine)
               for j in range(2)]
    placement = PlacementMap(SIZES, initial.fractions_by_name(),
                             [CAPACITY] * 2)
    ctx = SimContext(engine, placement, targets)
    controller = OnlineController(
        targets=_targets(), object_sizes=SIZES, initial_layout=initial,
        solved_workloads=solved, ctx=ctx, config=config or _config(),
    )
    return engine, ctx, controller


def _injector(*events, names=("t0", "t1"), live_targets=()):
    return FaultInjector(FaultPlan(list(events)),
                         targets=live_targets, target_names=list(names))


# ----------------------------------------------------------------------
# Degraded-mode planning: effective targets
# ----------------------------------------------------------------------

def test_effective_targets_shrink_dead_and_scale_degraded():
    controller = _controller(
        initial=_layout([[1.0, 0.0], [0.0, 1.0]]),
        solved=[ObjectWorkload("a", read_rate=50),
                ObjectWorkload("b", read_rate=50)],
    )
    injector = _injector(
        FaultEvent(time=1.0, kind="fail-stop", target="t0"),
        FaultEvent(time=2.0, kind="degrade", target="t1",
                   service_scale=3.0),
        FaultEvent(time=3.0, kind="capacity-loss", target="t1",
                   capacity_factor=0.5),
    )
    controller.faults = injector
    injector.pop_due(10.0)

    dead_spec, degraded_spec = controller._effective_targets()
    assert dead_spec.capacity == 1  # husk: must be evacuated
    assert degraded_spec.capacity == int(CAPACITY * 0.5)
    # The degraded target's model quotes 3x the nominal cost.
    nominal = _targets()[1].model
    sizes = np.array([8192.0])
    scaled = degraded_spec.model.read_model.lookup(
        sizes, np.array([1.0]), np.array([1.0]))
    base = nominal.read_model.lookup(
        sizes, np.array([1.0]), np.array([1.0]))
    assert np.allclose(scaled, base * 3.0)
    assert controller._dead_targets() == ["t0"]


# ----------------------------------------------------------------------
# Replay-mode emergencies
# ----------------------------------------------------------------------

def test_replay_fail_stop_evacuates_the_dead_target():
    controller = _controller(
        initial=_layout([[1.0, 0.0], [0.0, 1.0]]),
        solved=[ObjectWorkload("a", read_rate=50),
                ObjectWorkload("b", read_rate=50)],
    )
    faults = _injector(FaultEvent(time=15.0, kind="fail-stop", target="t0"))
    trace = _records("a", 50.0, 0.0, 60.0) + _records("b", 50.0, 0.0, 60.0)
    log = controller.replay(trace, faults=faults)

    assert log.of_kind("fault")
    assert [e["reason"] for e in log.of_kind("emergency")] == ["fail-stop"]
    evacuate = log.of_kind("evacuate")[0]
    assert evacuate["time"] == pytest.approx(15.0, abs=1.0)
    assert controller.emergency_resolves == 1
    # Everything moved off the dead target, nothing else was touched.
    assert controller.layout.fraction("a", "t0") <= 1e-9
    assert controller.layout.fraction("b", "t1") == pytest.approx(1.0)


def test_evacuation_bypasses_patience_and_cooldown():
    """A fresh trigger would need ``patience`` consecutive drifted
    checks plus an expired cooldown; the emergency path must ignore
    both."""
    controller = _controller(
        initial=_layout([[1.0, 0.0], [0.0, 1.0]]),
        solved=[ObjectWorkload("a", read_rate=50),
                ObjectWorkload("b", read_rate=50)],
        config=_config(patience=100, cooldown_s=10_000.0),
    )
    faults = _injector(FaultEvent(time=15.0, kind="fail-stop", target="t0"))
    trace = _records("a", 50.0, 0.0, 40.0) + _records("b", 50.0, 0.0, 40.0)
    log = controller.replay(trace, faults=faults)
    assert log.of_kind("evacuate")
    assert controller.layout.fraction("a", "t0") <= 1e-9


def test_repair_rebalances_through_the_economic_gate():
    controller = _controller(
        initial=_layout([[1.0, 0.0], [0.0, 1.0]]),
        solved=[ObjectWorkload("a", read_rate=50),
                ObjectWorkload("b", read_rate=50)],
    )
    faults = _injector(
        FaultEvent(time=15.0, kind="fail-stop", target="t0"),
        FaultEvent(time=40.0, kind="repair", target="t0"),
    )
    trace = _records("a", 50.0, 0.0, 90.0) + _records("b", 50.0, 0.0, 90.0)
    log = controller.replay(trace, faults=faults)
    assert log.of_kind("recovered")
    # The post-repair decision is a normal accept/reject, not a second
    # emergency.
    assert controller.emergency_resolves == 1
    decisions = log.of_kind("accept") + log.of_kind("reject")
    assert any(e["time"] >= 40.0 for e in decisions)


def test_all_targets_dead_is_reported_not_crashed():
    controller = _controller(
        initial=_layout([[1.0, 0.0], [0.0, 1.0]]),
        solved=[ObjectWorkload("a", read_rate=50),
                ObjectWorkload("b", read_rate=50)],
    )
    faults = _injector(
        FaultEvent(time=10.0, kind="fail-stop", target="t0"),
        FaultEvent(time=12.0, kind="fail-stop", target="t1"),
    )
    trace = _records("a", 50.0, 0.0, 30.0)
    log = controller.replay(trace, faults=faults)
    unsolvable = log.of_kind("emergency-unsolvable")
    assert unsolvable and unsolvable[0]["reason"] == "no-targets-alive"


def test_chaos_replay_is_deterministic():
    """Same seed ⇒ identical fault schedule and identical post-recovery
    layout, event for event."""
    def run():
        controller = _controller(
            initial=_layout([[1.0, 0.0], [0.0, 1.0]]),
            solved=[ObjectWorkload("a", read_rate=50),
                    ObjectWorkload("b", read_rate=50)],
        )
        plan = FaultPlan.random(21, ["t0", "t1"], horizon_s=90.0,
                                n_faults=4)
        faults = FaultInjector(plan, target_names=["t0", "t1"])
        trace = _records("a", 50.0, 0.0, 90.0) + _records("b", 50.0, 0.0, 90.0)
        log = controller.replay(trace, faults=faults)
        return plan, log, controller

    plan_a, log_a, ctrl_a = run()
    plan_b, log_b, ctrl_b = run()
    assert plan_a.signature() == plan_b.signature()
    assert [e["kind"] for e in log_a] == [e["kind"] for e in log_b]
    assert np.allclose(ctrl_a.layout.matrix, ctrl_b.layout.matrix)


# ----------------------------------------------------------------------
# Live-mode emergencies
# ----------------------------------------------------------------------

def test_live_fail_stop_triggers_emergency_migration():
    initial = _layout([[1.0, 0.0], [0.0, 1.0]])
    engine, ctx, controller = _live(
        initial,
        solved=[ObjectWorkload("a", read_rate=30),
                ObjectWorkload("b", read_rate=30)],
        config=_config(check_interval_s=2.0, migration_chunk=units.mib(4)),
    )
    controller.start()
    injector = FaultInjector(
        FaultPlan([FaultEvent(time=15.0, kind="fail-stop", target="t0")]),
        targets=ctx.targets,
    )
    controller.attach_faults(injector)
    rng = np.random.default_rng(5)
    SteadyStream(ctx, "a", rng=rng, think_s=0.03).start()
    SteadyStream(ctx, "b", rng=np.random.default_rng(6), think_s=0.03).start()
    engine.run(until=40.0)
    controller.stop()

    log = controller.log
    assert controller.emergency_resolves == 1
    assert log.of_kind("evacuate")
    migrated = [e for e in log.of_kind("migrated") if not e["virtual"]]
    assert migrated and migrated[0]["bytes_moved"] > 0
    assert controller.layout.fraction("a", "t0") <= 1e-9
    # The dead device served errors while the evacuation ran, and the
    # placement map no longer routes anything to it.
    assert ctx.targets[0].failed
    assert 0 not in ctx.placement.targets_of("a")


def test_live_emergency_cancels_in_flight_migration(tmp_path):
    """A fault mid-copy supersedes the running migration: the old copy
    is cancelled, the evacuation starts fresh."""
    initial = _layout([[1.0, 0.0], [1.0, 0.0]])
    engine, ctx, controller = _live(
        initial,
        solved=[ObjectWorkload("a", read_rate=30), ObjectWorkload("b")],
        config=_config(check_interval_s=2.0, monitor_halflife_s=4.0,
                       cooldown_s=10.0, migration_chunk=units.mib(1),
                       migration_pace_s=0.2,
                       journal_dir=str(tmp_path)),
    )
    controller.start()
    rng = np.random.default_rng(7)
    SteadyStream(ctx, "a", rng=rng, think_s=0.03).start()

    def wake_b():
        for seed in range(3):
            SteadyStream(ctx, "b", rng=np.random.default_rng(seed),
                         think_s=0.002).start()

    engine.schedule(10.0, wake_b)

    def fail_when_migrating():
        if controller.migrating:
            ctx.targets[1].fail()
            injector = FaultInjector(
                FaultPlan([]), targets=ctx.targets)
            controller.attach_faults(injector)
            injector.health["t1"].state = "failed"
            controller.failure_detector.observe(
                FaultEvent(time=engine.now, kind="fail-stop", target="t1"),
                injector.health,
            )
        else:
            engine.schedule(1.0, fail_when_migrating)

    engine.schedule(12.0, fail_when_migrating)
    engine.run(until=80.0)
    controller.stop()

    log = controller.log
    assert log.of_kind("migration-cancelled")
    assert log.of_kind("evacuate")
    assert controller.layout.fraction("a", "t1") <= 1e-9
    assert controller.layout.fraction("b", "t1") <= 1e-9


# ----------------------------------------------------------------------
# Crash recovery through the journal
# ----------------------------------------------------------------------

def _force_accept(controller, now=30.0):
    """Drive one accepted re-solve without replaying a long trace."""
    fitted = [ObjectWorkload("a", read_rate=50),
              ObjectWorkload("b", read_rate=150)]
    predicted = controller._predicted_util(fitted, controller.layout)
    controller._resolve(now, fitted, predicted)


def test_journal_dir_writes_commit_on_completion(tmp_path):
    engine, ctx, controller = _live(
        _layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(journal_dir=str(tmp_path),
                       migration_chunk=units.mib(4)),
    )
    _force_accept(controller)
    assert controller.migrating
    engine.run()
    paths = glob.glob(os.path.join(str(tmp_path), "migration-*.jsonl"))
    assert len(paths) == 1
    journal = MigrationJournal.load(paths[0])
    assert journal.committed
    assert journal.remaining() == []
    assert journal.meta["objects"] == ["a", "b"]


def test_crashed_migration_resumes_to_the_same_placement(tmp_path):
    """Kill the first controller mid-copy; a fresh controller resuming
    from the journal must land exactly the accepted layout."""
    engine, ctx, controller = _live(
        _layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(journal_dir=str(tmp_path),
                       migration_chunk=units.mib(1),
                       migration_pace_s=0.05),
    )
    _force_accept(controller)
    assert controller.migrating
    accepted_layout = controller._pending.layout
    engine.run(until=engine.now + 0.3)  # die mid-copy
    paths = glob.glob(os.path.join(str(tmp_path), "migration-*.jsonl"))
    assert len(paths) == 1
    probe = MigrationJournal.load(paths[0])
    assert not probe.committed
    first_done = len(probe.done)
    assert 0 < first_done < probe.total_chunks

    # Uninterrupted reference run for the same accepted migration.
    engine_r, ctx_r, reference = _live(
        _layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(migration_chunk=units.mib(1)),
    )
    _force_accept(reference)
    engine_r.run()

    # Second life: fresh engine/controller, resume from the journal.
    engine2, ctx2, resumed = _live(
        _layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(journal_dir=str(tmp_path),
                       migration_chunk=units.mib(1)),
    )
    journal = resumed.resume_migration(paths[0])
    assert resumed.migrating
    engine2.run()
    assert not resumed.migrating
    assert journal.committed
    # Resume = uninterrupted: identical final layout and placement.
    assert np.allclose(resumed.layout.matrix, accepted_layout.matrix)
    assert np.allclose(resumed.layout.matrix, reference.layout.matrix)
    assert (ctx2.placement.targets_of("b")
            == ctx_r.placement.targets_of("b"))
    # Only the tail was re-copied.
    skipped = resumed.log.of_kind("resume")[0]
    assert skipped["chunks_done"] == first_done
    migrated = [e for e in resumed.log.of_kind("migrated")
                if not e["virtual"]][0]
    assert migrated["bytes_moved"] == units.mib(1) * (
        journal.total_chunks - first_done
    )


def test_resume_of_committed_journal_is_a_noop(tmp_path):
    engine, ctx, controller = _live(
        _layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(journal_dir=str(tmp_path),
                       migration_chunk=units.mib(4)),
    )
    _force_accept(controller)
    engine.run()
    path = glob.glob(os.path.join(str(tmp_path), "migration-*.jsonl"))[0]

    engine2, ctx2, fresh = _live(
        _layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
    )
    journal = fresh.resume_migration(path)
    assert journal.committed
    assert not fresh.migrating
    assert not fresh.log.of_kind("resume")


def test_ctxless_resume_commits_so_a_second_resume_is_a_noop(tmp_path):
    """Recovery without a simulator finishes the copy and commits the
    journal; resuming the same journal again must change nothing."""
    engine, ctx, controller = _live(
        _layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(journal_dir=str(tmp_path),
                       migration_chunk=units.mib(1),
                       migration_pace_s=0.05),
    )
    _force_accept(controller)
    accepted_layout = controller._pending.layout
    engine.run(until=engine.now + 0.3)  # die mid-copy
    path = glob.glob(os.path.join(str(tmp_path), "migration-*.jsonl"))[0]
    assert not MigrationJournal.load(path).committed

    fresh = _controller(
        initial=_layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
    )
    assert fresh.resume_migration(path).committed
    assert MigrationJournal.load(path).committed
    assert MigrationJournal.load(path).remaining() == []
    assert np.allclose(fresh.layout.matrix, accepted_layout.matrix)

    fresh.resume_migration(path)
    assert len(fresh.log.of_kind("resume")) == 1
    assert len(fresh.log.of_kind("migrated")) == 1
    assert not fresh.migrating


def test_emergency_during_paced_migration_installs_the_evacuation(tmp_path):
    """Without a simulator but with a journal dir, migrations are paced
    by trace time.  A fail-stop mid-pace cancels the paced copy; the
    evacuation replaces it, installs, and the clock keeps running."""
    controller = _controller(
        initial=_layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(journal_dir=str(tmp_path),
                       transfer_bps=8 * (1 << 20)),
    )
    trace = sorted(
        _records("a", 50.0, 0.0, 120.0) + _records("b", 150.0, 20.0, 120.0),
        key=lambda r: r.finish_time,
    )
    chunks = [[r for r in trace if t <= r.finish_time < t + 1.0]
              for t in range(120)]
    clock = 0
    while not controller.migrating:
        controller.advance(chunks[clock])
        clock += 1
        assert clock < 100, "drift never triggered a migration"
    assert controller.log.of_kind("migration-journaled")
    assert controller.layout.fraction("b", "t1") == 0.0  # still pacing

    controller.attach_faults(_injector(
        FaultEvent(time=clock + 0.5, kind="fail-stop", target="t0")))
    for chunk in chunks[clock:]:
        controller.advance(chunk)

    log = controller.log
    assert log.of_kind("migration-cancelled")
    evacuate = log.of_kind("evacuate")[0]
    assert any(e["time"] > evacuate["time"]
               for e in log.of_kind("migrated"))
    assert not controller.migrating
    assert controller.layout.fraction("a", "t0") <= 1e-9
    assert controller.layout.fraction("b", "t0") <= 1e-9
    journals = sorted(glob.glob(os.path.join(str(tmp_path),
                                             "migration-*.jsonl")))
    assert len(journals) == 2
    assert not MigrationJournal.load(journals[0]).committed  # cancelled
    assert MigrationJournal.load(journals[1]).committed


# ----------------------------------------------------------------------
# Watchdog wiring
# ----------------------------------------------------------------------

def test_solver_budget_records_the_answering_rung():
    controller = _controller(
        initial=_layout([[1.0, 0.0], [1.0, 0.0]]),
        solved=[ObjectWorkload("a", read_rate=50), ObjectWorkload("b")],
        config=_config(solve_budget_s=30.0),
    )
    trace = _records("a", 50.0, 0.0, 120.0) + _records("b", 150.0, 20.0, 120.0)
    log = controller.replay(trace)
    decisions = log.of_kind("accept") + log.of_kind("reject")
    assert decisions
    assert all(e["watchdog_rung"] == "portfolio" for e in decisions)


def test_injected_solver_stall_degrades_the_emergency_solve():
    """A solver-stall fault makes the emergency watchdog time its first
    rung out; the evacuation must still complete, flagged degraded."""
    controller = _controller(
        initial=_layout([[1.0, 0.0], [0.0, 1.0]]),
        solved=[ObjectWorkload("a", read_rate=50),
                ObjectWorkload("b", read_rate=50)],
        config=_config(emergency_budget_s=0.2),
    )
    faults = _injector(
        FaultEvent(time=1.0, kind="solver-stall", duration_s=1.0),
        FaultEvent(time=15.0, kind="fail-stop", target="t0"),
    )
    trace = _records("a", 50.0, 0.0, 40.0) + _records("b", 50.0, 0.0, 40.0)
    log = controller.replay(trace, faults=faults)
    evacuate = log.of_kind("evacuate")[0]
    assert evacuate["degraded"] is True
    assert evacuate["watchdog_rung"] in ("serial", "greedy")
    assert controller.layout.fraction("a", "t0") <= 1e-9

"""Workload ``advise-paper``: the layout advisor on the paper's problems.

Closed loop, one caller, in process.  Set-up builds the problems the
way the paper does (traced SEE run of OLAP8-63 on four disks plus a
6 GB SSD, workload fitting, cost-model calibration into a fresh empty
cache).  The measured unit of work is one pass of
``LayoutAdvisor(regular=True, method="auto").recommend()`` over:

* ``olap8-ssd6`` -- the Figure 18 problem (N=20, M=5, heterogeneous;
  the SLSQP path).  Fixed: built with the pipeline seed, because its
  solve time swings 3x between neighbouring traces.
* ``olap8-x4`` -- the Figure 19 replication: the fitted OLAP8-63
  descriptions replicated four times onto ten disks (N=80, M=10, above
  the SLSQP variable limit, so the coordinate path with the incremental
  evaluator).  The benchmark seed scales each replica's request rates.
"""

import os
import time

import numpy as np

from stats import geomean, median

#: Scale of the paper's databases, as in the figure reproductions.
SCALE = 1 / 64
#: Seed of the traced SEE run the problems are fitted from.
PIPELINE_SEED = 1
#: Passes per run however long they take, so every run's median rests
#: on the same number of samples.
MIN_PASSES = 2
#: Relative agreement demanded between reported and recomputed µ.
UTIL_TOLERANCE = 1e-9


def _replicate(workloads, sizes, times, rng):
    """Replicate descriptions ``times`` times (paper Fig. 19); replicas
    after the first get rates scaled by a seeded factor in [0.8, 1.2]."""
    out, out_sizes = [], {}
    for copy in range(times):
        suffix = "" if copy == 0 else "#%d" % copy
        factor = 1.0 if copy == 0 else float(rng.uniform(0.8, 1.2))
        rename = {w.name: w.name + suffix for w in workloads}
        for spec in workloads:
            replica = spec.renamed(spec.name + suffix, overlap_rename=rename)
            out.append(replica.scaled(factor) if factor != 1.0 else replica)
        for name, size in sizes.items():
            out_sizes[name + suffix] = size
    return out, out_sizes


class _Catalog:
    def __init__(self, sizes):
        self._sizes = dict(sizes)
        self.object_names = list(sizes)

    def sizes(self):
        return self._sizes


def setup(seed, work_dir, engines):
    """Trace, fit and calibrate; returns ``(problems, timings)``."""
    from repro.db import tpch_database
    from repro.db.workloads import OLAP8_63
    from repro.experiments import runner
    from repro.experiments.scenarios import (disk_spec, disks_plus_ssd,
                                             scaled_stripe)

    stripe = scaled_stripe(SCALE)
    # A fresh, empty calibration cache: set-up cost must not depend on
    # what an earlier run left behind.
    runner.CACHE_DIR = os.path.join(work_dir, "calibration-cache")
    runner.clear_model_cache()
    timings = {}
    started = time.perf_counter()
    database = tpch_database(SCALE)
    specs = disks_plus_ssd(SCALE, ssd_capacity_gib=6)
    engines.take()
    traced = runner.measure_olap(
        database, OLAP8_63.profiles(),
        runner.see_fractions(database, len(specs)), specs,
        concurrency=OLAP8_63.concurrency, seed=PIPELINE_SEED,
        collect_trace=True, name="see", stripe_size=stripe,
    )
    timings["trace_s"] = time.perf_counter() - started
    timings["events"] = engines.take()
    mark = time.perf_counter()
    workloads = runner.fit_workloads_from_run(traced, database)
    timings["fit_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    ten_disks = [disk_spec("d%d" % j, SCALE) for j in range(10)]
    for spec in specs + ten_disks[:1]:
        runner.get_target_model(spec)
    timings["calibrate_s"] = time.perf_counter() - mark
    ssd6 = runner.build_problem(database, specs, workloads,
                                stripe_size=stripe)
    replicated, sizes = _replicate(workloads, database.sizes(), 4,
                                   np.random.default_rng(seed))
    x4 = runner.build_problem(_Catalog(sizes), ten_disks, replicated,
                              stripe_size=stripe)
    timings["setup_s"] = time.perf_counter() - started
    return [("olap8-ssd6", ssd6), ("olap8-x4", x4)], timings


def check_result(problem, result):
    """Validate one advisor result; returns its ``util_vs_see``.

    Raises ValueError when the layout is invalid or the reported
    utilizations disagree with an independent re-estimate.
    """
    from repro.models.target_model import estimate_utilizations

    layout = result.recommended
    problem.validate_layout(layout)
    if not layout.is_regular():
        raise ValueError("recommended layout is not regular")
    for stage, matrix in (("regular", layout.matrix),
                          ("see", problem.see_layout().matrix)):
        fresh = float(np.max(estimate_utilizations(
            problem.workloads, matrix, problem.models,
            stripe_size=problem.stripe_size)))
        reported = result.max_utilization(stage)
        if abs(fresh - reported) > UTIL_TOLERANCE * max(1.0, abs(fresh)):
            raise ValueError("%s max utilization %r != re-estimate %r"
                             % (stage, reported, fresh))
    return result.max_utilization("regular") / result.max_utilization("see")


def advise_pass(problems):
    """One closed-loop pass; returns ``(wall_s, [(name, result)])``.

    A problem whose advise raises gets the exception as its result.
    """
    from repro.core import LayoutAdvisor
    from repro.errors import ReproError

    started = time.perf_counter()
    results = []
    for name, problem in problems:
        try:
            result = LayoutAdvisor(problem, regular=True,
                                   method="auto").recommend()
        except ReproError as error:
            result = error
        results.append((name, result))
    return time.perf_counter() - started, results


def layer_clock(evaluators):
    """A :class:`LayerClock` over the advisor's layers."""
    from repro.core import advisor, objective, problem, solver
    from repro.core.objective import ObjectiveEvaluator
    from repro.models import analytic, table_model, target_model
    from layers import LayerClock

    clock = LayerClock()
    clock.wrap(advisor, "initial_layout", "initial")
    clock.wrap(advisor, "solve", "solver")
    clock.wrap(advisor, "regularize", "regularize")

    def count_restart(clk, args, kwargs):
        if kwargs.get("attempt") != "polish":
            clk.counters["solver.restarts"] += 1

    clock.wrap(solver, "solve_slsqp", "solver", on_call=count_restart)
    clock.wrap(solver, "solve_coordinate", "solver", on_call=count_restart)

    def count_candidates(clk, args, kwargs):
        if clk.active("regularize"):
            rows = args[3] if len(args) > 3 else kwargs["rows"]
            clk.counters["regularize.candidates"] += len(np.atleast_2d(rows))

    for method in ("utilization_matrix", "utilizations", "objective",
                   "object_loads", "bind", "utilizations_with_rows",
                   "evaluate_rows", "commit_row", "utilizations_for",
                   "object_loads_for"):
        clock.wrap(ObjectiveEvaluator, method, "objective",
                   on_call=count_candidates if method == "evaluate_rows"
                   else None)
    for cls in (table_model.TableCostModel, target_model.ScaledCostModel,
                analytic.AnalyticDiskCostModel, analytic.AnalyticSsdCostModel):
        clock.wrap(cls, "lookup", "models.lookup")
    clock.wrap(objective, "batch_model_groups", "models.group")
    clock.wrap(target_model, "batch_model_groups", "models.group")

    original = problem.LayoutProblem.__dict__["evaluator"]

    def evaluator(self, metrics=None):
        made = original(self, metrics=metrics)
        evaluators.append(made)
        return made

    clock.replace(problem.LayoutProblem, "evaluator", evaluator)
    return clock


def run(seed, seconds, trace, work_dir):
    from layers import EngineCounter

    out = {"attempted": 0, "failed": 0, "notes": [], "layers": {}}
    with EngineCounter() as engines:
        problems, timings = setup(seed, work_dir, engines)
    out["setup_s"] = timings["setup_s"]

    recorded = {}
    failures = []
    walls = []

    def checked(results):
        from repro.errors import ReproError

        for name, result in results:
            out["attempted"] += 1
            try:
                if isinstance(result, Exception):
                    raise result
                ratio = check_result(dict(problems)[name], result)
            except (ReproError, ValueError, ArithmeticError) as error:
                out["failed"] += 1
                failures.append("%s: %s" % (name, error))
                continue
            if name in recorded and recorded[name] != ratio:
                failures.append("%s: util_vs_see %r changed to %r between "
                                "passes" % (name, recorded[name], ratio))
            recorded.setdefault(name, ratio)

    deadline = time.perf_counter() + seconds
    while True:
        wall, results = advise_pass(problems)
        walls.append(wall)
        checked(results)
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() + wall > deadline):
            break
    last = {name: result for name, result in results
            if not isinstance(result, Exception)}

    out["wall_s"] = median(walls)
    out["util_vs_see"] = geomean(recorded.values()) if recorded else 1.0
    out["samples"] = {"wall_s": len(walls), "util_vs_see": len(recorded)}
    out["quality"] = {
        name: {
            "util_vs_see": recorded.get(name),
            "regular_max_util": result.max_utilization("regular"),
            "solver_max_util": result.max_utilization("solver"),
            "see_max_util": result.max_utilization("see"),
            "method": result.method,
        }
        for name, result in last.items()
    }
    out["reference"] = {}
    for name, result in last.items():
        out["reference"][name + ".util_vs_see"] = recorded.get(name)
        out["reference"][name + ".regularize_util_ratio"] = (
            result.max_utilization("regular")
            / result.max_utilization("solver"))
    layers = out["layers"]
    layers["setup.trace_s"] = timings["trace_s"]
    layers["setup.fit_s"] = timings["fit_s"]
    layers["setup.calibrate_s"] = timings["calibrate_s"]
    layers["sim.events"] = timings["events"]
    layers["sim.events_per_s"] = timings["events"] / timings["trace_s"]
    layers["regularize.util_ratio"] = geomean(
        r.max_utilization("regular") / r.max_utilization("solver")
        for r in last.values()) if last else 0.0

    if trace:
        evaluators = []
        clock = layer_clock(evaluators)
        with clock:
            traced_wall, results = advise_pass(problems)
        checked(results)
        attributed = sum(clock.self_s.values())
        layers.update({
            "initial.s": clock.self_s["initial"],
            "solver.s": clock.total_s["solver"],
            "solver.optimizer_s": clock.self_s["solver"],
            "solver.restarts": clock.counters["solver.restarts"],
            "objective.evals": sum(e.evaluations for e in evaluators),
            "objective.full_evals": sum(e.full_evaluations
                                        for e in evaluators),
            "objective.s": clock.self_s["objective"],
            "models.lookups": clock.calls["models.lookup"],
            "models.lookup_s": clock.self_s["models.lookup"],
            "models.group_s": clock.self_s["models.group"],
            "regularize.s": clock.self_s["regularize"],
            "regularize.candidates": clock.counters["regularize.candidates"],
            "advise.traced_wall_s": traced_wall,
            "advise.unattributed_s": traced_wall - attributed,
            "trace.overhead_wall": traced_wall / out["wall_s"],
        })
    out["correct"] = not failures
    out["notes"].extend(failures)
    return out

"""Workload ``simulate-paper``: the evaluation substrate, no solve.

Closed loop, in process.  One pass runs, on four simulated disks:

1. OLAP8-63 under SEE with tracing, then ``fit_workloads`` on the trace
   (the read path and the analyzer);
2. OLAP8-63 under a fixed non-SEE baseline (catalog-order round robin);
3. 3000 TPC-C transactions from nine terminals (the write path).

The benchmark seed is the simulation seed.  Simulated outputs are
bit-identical for a seed, so every pass must reproduce the first one
exactly (and the recorded reference, for recorded seeds).
``util_vs_see`` is the simulated elapsed time of the baseline layout
over that of SEE.
"""

import time

from stats import median

SCALE = 1 / 64
OLTP_TRANSACTIONS = 3000
SETUP_REPEATS = 51


def build_inputs():
    from repro.baselines.file_assignment import round_robin_layout
    from repro.db import tpch_database
    from repro.db.tpcc import sample_transaction, tpcc_database
    from repro.db.workloads import OLAP8_63
    from repro.experiments.runner import see_fractions
    from repro.experiments.scenarios import four_disks

    specs = four_disks(SCALE)
    names = [s.name for s in specs]
    tpch = tpch_database(SCALE)
    tpcc = tpcc_database(SCALE)
    return {
        "specs": specs,
        "tpch": tpch,
        "tpcc": tpcc,
        "profiles": OLAP8_63.profiles(),
        "concurrency": OLAP8_63.concurrency,
        "see": see_fractions(tpch, len(specs)),
        "baseline": round_robin_layout(tpch, names).fractions_by_name(),
        "tpcc_see": see_fractions(tpcc, len(specs)),
        "sampler": sample_transaction,
    }


def sim_pass(inputs, seed, engines):
    """One pass; returns ``(wall_s, outputs, timings)``."""
    from repro.db.engine import run_olap, run_oltp
    from repro.experiments.scenarios import scaled_stripe
    from repro.workload.analyzer import fit_workloads

    stripe = scaled_stripe(SCALE)
    outputs, timings = {}, {}
    started = time.perf_counter()
    mark = started
    see = run_olap(inputs["tpch"], inputs["profiles"], inputs["see"],
                   [s.build() for s in inputs["specs"]],
                   concurrency=inputs["concurrency"], seed=seed,
                   stripe_size=stripe, collect_trace=True, name="see")
    timings["olap_see_s"] = time.perf_counter() - mark
    outputs["see.events"] = engines.take()
    mark = time.perf_counter()
    fitted = fit_workloads(see.trace, duration=see.elapsed_s,
                           include_idle=inputs["tpch"].object_names)
    timings["fit_s"] = time.perf_counter() - mark
    timings["fit_records"] = len(see.trace)
    mark = time.perf_counter()
    base = run_olap(inputs["tpch"], inputs["profiles"], inputs["baseline"],
                    [s.build() for s in inputs["specs"]],
                    concurrency=inputs["concurrency"], seed=seed,
                    stripe_size=stripe, name="baseline")
    timings["olap_base_s"] = time.perf_counter() - mark
    outputs["baseline.events"] = engines.take()
    mark = time.perf_counter()
    oltp = run_oltp(inputs["tpcc"], inputs["sampler"], inputs["tpcc_see"],
                    [s.build() for s in inputs["specs"]], terminals=9,
                    n_transactions=OLTP_TRANSACTIONS, seed=seed,
                    stripe_size=stripe, name="tpcc")
    timings["oltp_s"] = time.perf_counter() - mark
    outputs["tpcc.events"] = engines.take()
    wall = time.perf_counter() - started
    outputs.update({
        "see.elapsed_s": see.elapsed_s,
        "see.queries": see.completed_queries,
        "see.trace_records": len(see.trace),
        "baseline.elapsed_s": base.elapsed_s,
        "baseline.queries": base.completed_queries,
        "tpcc.elapsed_s": oltp.elapsed_s,
        "tpcc.transactions": oltp.completed_transactions,
        "fit.total_rate": sum(w.total_rate for w in fitted),
        "fit.objects": len(fitted),
    })
    return wall, outputs, timings


def run(seed, seconds, trace, work_dir):
    from layers import EngineCounter

    del work_dir
    out = {"attempted": 0, "failed": 0, "notes": [], "layers": {}}
    # Set-up is building the catalogs, profiles and layouts; the first
    # build also imports the program and is reported apart.
    mark = time.perf_counter()
    inputs = build_inputs()
    first_build_s = time.perf_counter() - mark
    setups = []
    for _ in range(SETUP_REPEATS):
        mark = time.perf_counter()
        inputs = build_inputs()
        setups.append(time.perf_counter() - mark)
    out["setup_s"] = median(setups)

    walls, passes = [], []
    deadline = time.perf_counter() + seconds
    with EngineCounter() as engines:
        while True:
            wall, outputs, timings = sim_pass(inputs, seed, engines)
            walls.append(wall)
            passes.append((outputs, timings))
            out["attempted"] += 3
            if time.perf_counter() + wall > deadline:
                break

    first = passes[0][0]
    failures = []
    for outputs, _ in passes[1:]:
        for key, value in outputs.items():
            if value != first[key]:
                failures.append("pass output %s = %r, first pass %r"
                                % (key, value, first[key]))
    expected_queries = len(inputs["profiles"])
    for key in ("see.queries", "baseline.queries"):
        if first[key] != expected_queries:
            failures.append("%s = %d, expected %d"
                            % (key, first[key], expected_queries))
    if first["tpcc.transactions"] != OLTP_TRANSACTIONS:
        failures.append("tpcc.transactions = %d, expected %d"
                        % (first["tpcc.transactions"], OLTP_TRANSACTIONS))
    out["failed"] = 3 if failures else 0
    out["correct"] = not failures
    out["notes"].extend(failures)
    out["reference"] = first

    out["wall_s"] = median(walls)
    out["util_vs_see"] = first["baseline.elapsed_s"] / first["see.elapsed_s"]
    out["samples"] = {"wall_s": len(walls), "setup_s": len(setups)}
    out["report"] = dict(first, import_and_first_setup_s=first_build_s)
    if trace:
        outputs, timings = passes[-1]
        events = (outputs["see.events"] + outputs["baseline.events"]
                  + outputs["tpcc.events"])
        sim_s = (timings["olap_see_s"] + timings["olap_base_s"]
                 + timings["oltp_s"])
        out["layers"].update({
            "sim.events": events,
            "sim.events_per_s": events / sim_s,
            "db.olap_s": timings["olap_see_s"] + timings["olap_base_s"],
            "db.oltp_s": timings["oltp_s"],
            "analyzer.fit_s": timings["fit_s"],
            "analyzer.records_per_s": timings["fit_records"]
            / timings["fit_s"],
        })
    return out

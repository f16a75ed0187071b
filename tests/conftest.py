"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro import units
from repro.core.problem import LayoutProblem, TargetSpec
from repro.models.analytic import (
    analytic_disk_target_model,
    analytic_ssd_target_model,
)
from repro.storage.disk import DiskDrive
from repro.storage.engine import SimulationEngine
from repro.storage.mapping import PlacementMap
from repro.storage.streams import SimContext
from repro.storage.target import StorageTarget
from repro.workload.spec import ObjectWorkload


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def disk_target(engine):
    """A single bound disk target with a trace."""
    trace = []
    disk = DiskDrive("d0", units.gib(0.25))
    target = StorageTarget(disk, engine=engine, trace=trace)
    return target


@pytest.fixture
def single_disk_ctx(engine, disk_target):
    """One object spanning most of one disk, ready for streams."""
    placement = PlacementMap(
        {"obj": units.mib(64)}, {"obj": [1.0]}, [disk_target.capacity]
    )
    return SimContext(engine, placement, [disk_target])


def make_workloads():
    """Three-object workload set exercising every spec feature."""
    return [
        ObjectWorkload("big", read_rate=800.0, run_count=64.0,
                       overlap={"medium": 0.9, "small": 0.2}),
        ObjectWorkload("medium", read_rate=300.0, write_rate=40.0,
                       run_count=32.0, overlap={"big": 0.9}),
        ObjectWorkload("small", read_rate=60.0, write_rate=60.0,
                       run_count=1.0, overlap={"big": 0.2}),
    ]


def make_problem(n_targets=4, capacity=units.gib(2), pinning=None):
    """A small analytic-model layout problem (fast: no calibration)."""
    targets = [
        TargetSpec("t%d" % j, capacity, analytic_disk_target_model("t%d" % j))
        for j in range(n_targets)
    ]
    sizes = {
        "big": units.gib(1),
        "medium": units.mib(300),
        "small": units.mib(100),
    }
    return LayoutProblem(sizes, targets, make_workloads(), pinning=pinning)


@pytest.fixture
def small_problem():
    return make_problem()


@pytest.fixture
def ssd_problem():
    """Heterogeneous problem: three disks plus one SSD target."""
    targets = [
        TargetSpec("d%d" % j, units.gib(2), analytic_disk_target_model("d%d" % j))
        for j in range(3)
    ]
    targets.append(
        TargetSpec("ssd", units.gib(1), analytic_ssd_target_model("ssd"))
    )
    sizes = {
        "big": units.gib(1),
        "medium": units.mib(300),
        "small": units.mib(100),
    }
    return LayoutProblem(sizes, targets, make_workloads())


def random_table(rng, shape=None):
    """A :class:`TableCostModel` on a random strictly increasing grid.

    ``shape`` is the (sizes, run counts, contentions) axis-length triple;
    drawn from 1..3 per axis when omitted.
    """
    from repro.models.table_model import TableCostModel

    if shape is None:
        shape = tuple(int(k) for k in rng.integers(1, 4, 3))

    def axis(count, start, step):
        steps = np.cumsum(rng.uniform(0.5, 2.0, count))
        return start + step * (steps - steps[0])

    return TableCostModel(
        axis(shape[0], 4096.0, 16384.0),
        axis(shape[1], 1.0, 8.0),
        axis(shape[2], 0.0, 2.0),
        rng.uniform(1e-4, 1e-2, shape),
    )


#: Target-model kinds :func:`mixed_problem` can build.
MODEL_KINDS = ("table", "disk", "ssd", "scaled")


def mixed_problem(seed, n_objects=4, n_targets=4, kinds=MODEL_KINDS,
                  pinning=None):
    """A random problem whose targets cycle through ``kinds``.

    Targets of one kind share their cost models (tables by content:
    one calibrated read/write pair, rebuilt per target), so the
    estimator batches them; ``scaled`` targets wrap that table pair at
    factor 1.5.  Sizes are small against capacity: any layout fits.
    """
    from repro.models.target_model import TargetModel
    from repro.models.table_model import TableCostModel

    rng = np.random.default_rng(seed)
    names = ["o%d" % i for i in range(n_objects)]
    workloads = []
    for i, name in enumerate(names):
        overlap = {
            other: float(rng.uniform(0.0, 1.0))
            for k, other in enumerate(names)
            if k != i and rng.random() < 0.6
        }
        workloads.append(ObjectWorkload(
            name,
            read_size=float(rng.choice([4096.0, 8192.0, 65536.0])),
            write_size=float(rng.choice([4096.0, 8192.0])),
            read_rate=float(rng.uniform(10.0, 500.0)),
            write_rate=float(rng.uniform(0.0, 100.0)),
            run_count=float(rng.uniform(1.0, 64.0)),
            overlap=overlap,
        ))
    tables = [random_table(rng, (1, 4, 4)) for _ in range(2)]

    def table_model(name):
        read, write = (TableCostModel.from_dict(t.to_dict()) for t in tables)
        return TargetModel(name, read, write)

    builders = {
        "table": table_model,
        "disk": analytic_disk_target_model,
        "ssd": analytic_ssd_target_model,
        "scaled": lambda name: table_model(name).scaled(1.5),
    }
    targets = [
        TargetSpec("t%d" % j, units.gib(64),
                   builders[kinds[j % len(kinds)]]("t%d" % j))
        for j in range(n_targets)
    ]
    sizes = {name: units.mib(64) for name in names}
    return LayoutProblem(sizes, targets, workloads, pinning=pinning)


def random_layout(rng, n_objects, n_targets, zero_fraction=0.3):
    """A valid layout matrix with some exact-zero entries."""
    matrix = rng.random((n_objects, n_targets))
    matrix[rng.random(matrix.shape) < zero_fraction] = 0.0
    matrix[np.arange(n_objects), rng.integers(0, n_targets, n_objects)] += 0.1
    return matrix / matrix.sum(axis=1, keepdims=True)

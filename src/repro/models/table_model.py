"""Tabulated, interpolating request-cost model.

A :class:`TableCostModel` stores measured per-request service costs on a
three-dimensional grid — request size × run count × contention factor —
and answers lookups by trilinear interpolation (log-spaced in size and
run count, log1p-spaced in contention).  "Although the behavior of
storage devices can be complex and highly non-linear, the generality of
the tabulation/interpolation approach allows us to model them accurately"
(paper §5.2.2); the same generality lets one model serve disks, SSDs, and
RAID groups without code changes.
"""

import numpy as np

from repro.errors import CalibrationError


def _axis_coordinates(values, transform):
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise CalibrationError("grid axes must be non-empty 1-D sequences")
    if np.any(np.diff(array) <= 0):
        raise CalibrationError("grid axes must be strictly increasing")
    return transform(array)


def _bracket(coords, spans, queries):
    """Return (lower index, interpolation weight) clamped to the grid.

    ``spans`` is ``np.maximum(np.diff(coords), 1e-12)``, precomputed per
    table.
    """
    if coords.size == 1:
        weight = np.zeros(np.shape(queries))
        return weight.astype(np.intp), weight
    idx = coords.searchsorted(queries, side="right") - 1
    idx = np.minimum(np.maximum(idx, 0), coords.size - 2)
    weight = (queries - coords.take(idx)) / spans.take(idx)
    return idx, np.minimum(np.maximum(weight, 0.0), 1.0)


class TableCostModel:
    """Interpolated per-request cost table.

    Args:
        sizes: Grid of request sizes (bytes), strictly increasing.
        run_counts: Grid of run counts, strictly increasing, >= 1.
        contentions: Grid of contention factors, strictly increasing, >= 0.
        costs: Array of shape (len(sizes), len(run_counts),
            len(contentions)) of per-request service costs in seconds.
    """

    def __init__(self, sizes, run_counts, contentions, costs):
        self.sizes = np.asarray(sizes, dtype=float)
        self.run_counts = np.asarray(run_counts, dtype=float)
        self.contentions = np.asarray(contentions, dtype=float)
        self.costs = np.asarray(costs, dtype=float)
        expected = (len(self.sizes), len(self.run_counts), len(self.contentions))
        if self.costs.shape != expected:
            raise CalibrationError(
                "cost table shape %s does not match grid %s"
                % (self.costs.shape, expected)
            )
        if np.any(~np.isfinite(self.costs)) or np.any(self.costs < 0):
            raise CalibrationError("cost table contains invalid entries")
        self._size_coords = _axis_coordinates(self.sizes, np.log)
        self._run_coords = _axis_coordinates(self.run_counts, np.log)
        self._chi_coords = _axis_coordinates(self.contentions, np.log1p)
        self._size_spans, self._run_spans, self._chi_spans = (
            np.maximum(np.diff(coords), 1e-12)
            for coords in (self._size_coords, self._run_coords,
                           self._chi_coords)
        )
        self._flat_costs = self.costs.ravel()
        self._batch_key = ("table", self.sizes.tobytes(),
                           self.run_counts.tobytes(),
                           self.contentions.tobytes(), self.costs.tobytes())

    def batch_key(self):
        """Content identity: tables with equal grids and costs produce
        identical lookups, so targets sharing a calibrated table batch
        into one vectorized call.  Tables are immutable after
        construction."""
        return self._batch_key

    def lookup(self, sizes, run_counts, chis):
        """Interpolated per-request cost; fully vectorized.

        Inputs broadcast together; values outside the calibrated grid are
        clamped to the nearest edge, as the paper's model does when asked
        about uncalibrated operating points.

        With a single-point size axis (the pipeline's calibrations) the
        size weight is zero and both size corners coincide, so the blend
        reduces to 4 corners on the (run count × χ) plane; the result is
        bit-identical to the full trilinear blend.
        """
        run_q = np.log(np.maximum(np.asarray(run_counts, dtype=float), 1.0))
        chi_q = np.log1p(np.maximum(np.asarray(chis, dtype=float), 0.0))
        qi, qw = _bracket(self._run_coords, self._run_spans, run_q)
        ci, cw = _bracket(self._chi_coords, self._chi_spans, chi_q)
        # Flat indices into the C-ordered cost table; an axis with one
        # point has a zero upper-corner stride (its hi index is its lo).
        costs = self._flat_costs
        n_runs, n_chis = self.costs.shape[1:]
        q_step = n_chis if n_runs > 1 else 0
        c_step = 1 if n_chis > 1 else 0
        cw_lo, qw_lo = 1 - cw, 1 - qw

        def plane(base):
            c00 = costs.take(base) * cw_lo + costs.take(base + c_step) * cw
            c01 = (costs.take(base + q_step) * cw_lo
                   + costs.take(base + q_step + c_step) * cw)
            return c00 * qw_lo + c01 * qw

        base = qi * n_chis + ci
        if self._size_coords.size == 1:
            cost = plane(base)
            shape = np.broadcast(sizes, cost).shape
            return cost if shape == np.shape(cost) \
                else np.broadcast_to(cost, shape).copy()
        size_q = np.log(np.maximum(np.asarray(sizes, dtype=float), 1.0))
        si, sw = _bracket(self._size_coords, self._size_spans, size_q)
        base = base + si * (n_runs * n_chis)
        return (plane(base) * (1 - sw)
                + plane(base + n_runs * n_chis) * sw)

    @classmethod
    def from_samples(cls, samples, chi_grid=None):
        """Build a table from scattered calibration samples.

        Args:
            samples: Iterable of ``(size, run_count, chi, cost)`` tuples.
                Sizes and run counts must come from a grid (each distinct
                value becomes an axis point); chi values may be scattered
                (closed-loop calibration cannot pin them exactly) and are
                resampled onto ``chi_grid`` by 1-D interpolation.
            chi_grid: Contention axis; defaults to (0, 0.5, 1, 2, 4, 8, 16).
        """
        samples = list(samples)
        if not samples:
            raise CalibrationError("no calibration samples provided")
        if chi_grid is None:
            chi_grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        chi_grid = np.asarray(chi_grid, dtype=float)

        sizes = np.array(sorted({s for s, _, _, _ in samples}), dtype=float)
        runs = np.array(sorted({q for _, q, _, _ in samples}), dtype=float)
        costs = np.zeros((len(sizes), len(runs), len(chi_grid)))

        for i, size in enumerate(sizes):
            for j, run in enumerate(runs):
                points = sorted(
                    (chi, cost)
                    for s, q, chi, cost in samples
                    if s == size and q == run
                )
                if not points:
                    raise CalibrationError(
                        "missing calibration cell size=%g run=%g" % (size, run)
                    )
                chis = np.array([p[0] for p in points])
                vals = np.array([p[1] for p in points])
                # Collapse duplicate chi values by averaging.
                unique_chis, inverse = np.unique(chis, return_inverse=True)
                averaged = np.zeros(len(unique_chis))
                counts = np.zeros(len(unique_chis))
                np.add.at(averaged, inverse, vals)
                np.add.at(counts, inverse, 1)
                averaged /= counts
                costs[i, j, :] = np.interp(chi_grid, unique_chis, averaged)

        return cls(sizes, runs, chi_grid, costs)

    def to_dict(self):
        """JSON-serializable representation (for on-disk caching)."""
        return {
            "sizes": self.sizes.tolist(),
            "run_counts": self.run_counts.tolist(),
            "contentions": self.contentions.tolist(),
            "costs": self.costs.tolist(),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["sizes"], data["run_counts"], data["contentions"], data["costs"]
        )

    def slice_by_contention(self, size, run_count, chis=None):
        """One Figure-8-style curve: cost vs contention for fixed size/Q."""
        if chis is None:
            chis = self.contentions
        chis = np.asarray(chis, dtype=float)
        return chis, self.lookup(
            np.full_like(chis, float(size)),
            np.full_like(chis, float(run_count)),
            chis,
        )

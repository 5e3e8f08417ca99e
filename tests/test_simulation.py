"""Tests for the Monte Carlo estimator-validation harness."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from unitfrechet.errors import DomainError
from unitfrechet.inference import DataSeries, fit_uf
from unitfrechet.core import uf_sample
from unitfrechet import simulation
from unitfrechet.simulation import (
    CellResult,
    SimConfig,
    SimReport,
    default_theta_grid,
    replication_seed,
    run_study,
)


def assert_cells_equal(a: CellResult, b: CellResult) -> None:
    assert a.theta_index == b.theta_index
    assert a.theta == b.theta
    assert a.n == b.n
    assert_array_equal(a.rb, b.rb)
    assert_array_equal(a.mse, b.mse)
    assert_array_equal(a.rmse, b.rmse)
    assert (a.failure_count, a.boundary_count, a.used) == (
        b.failure_count,
        b.boundary_count,
        b.used,
    )


class TestSimConfig:
    def test_defaults(self):
        c = SimConfig(thetas=((1.0, 2.0, 0.5),))
        assert c.sample_sizes == (30, 50, 100)
        assert c.replications == 1000
        assert c.master_seed == 0
        assert c.parallelism == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(thetas=())
        with pytest.raises(DomainError):
            SimConfig(thetas=((1.0, 2.0),))
        with pytest.raises(DomainError):
            SimConfig(thetas=((0.0, 2.0, 0.5),))
        with pytest.raises(DomainError):
            SimConfig(thetas=((1.0, 2.0, 1.5),))
        with pytest.raises(DomainError):
            SimConfig(thetas=((1.0, 2.0, 0.5),), sample_sizes=())
        with pytest.raises(DomainError):
            SimConfig(thetas=((1.0, 2.0, 0.5),), sample_sizes=(30, 3))
        with pytest.raises(DomainError):
            SimConfig(thetas=((1.0, 2.0, 0.5),), replications=0)
        with pytest.raises(DomainError):
            SimConfig(thetas=((1.0, 2.0, 0.5),), master_seed=-1)
        with pytest.raises(DomainError):
            SimConfig(thetas=((1.0, 2.0, 0.5),), parallelism=0)
        # non-integral numbers and booleans are rejected, not truncated,
        # and every defect is reported with its field path
        with pytest.raises(DomainError) as info:
            SimConfig(
                thetas=((1, 2, 0.5),), sample_sizes=(30.7,), replications=True,
                master_seed=2.9, parallelism=1.5,
            )
        for path in ("sample_sizes[0]", "replications", "master_seed", "parallelism"):
            assert f"{path}: must be an integer" in str(info.value)

    def test_theta_rules_are_core_rules(self):
        # each entry is checked by UfParams' rule for its field, under its path
        with pytest.raises(DomainError) as info:
            SimConfig(thetas=((0, -1, 2),))
        assert str(info.value).splitlines() == [
            "thetas[0][0]: sigma must be finite and > 0, got 0.0",
            "thetas[0][1]: alpha must be finite and > 0, got -1.0",
            "thetas[0][2]: rho must lie in [0, 1], got 2.0",
        ]

    @pytest.mark.parametrize("j, field", [(0, "sigma"), (1, "alpha"), (2, "rho")])
    def test_theta_past_the_double_range(self, j, field):
        theta = [1.0, 2.0, 0.5]
        theta[j] = 10**400
        with pytest.raises(DomainError) as info:
            SimConfig(thetas=(theta,))
        assert str(info.value) == (
            f"thetas[0][{j}]: {field} must be a number within the double range, "
            f"got {10**400!r}"
        )

    def test_coercion(self):
        c = SimConfig(
            thetas=[[1, 2, 0.5]], sample_sizes=[30.0], replications=5.0
        )
        assert c.thetas == ((1.0, 2.0, 0.5),)
        assert c.sample_sizes == (30,)
        assert c.replications == 5


class TestDefaultGrid:
    def test_shape(self):
        grid = default_theta_grid()
        assert len(grid) == 27
        assert len(set(grid)) == 27
        for th in grid:
            assert len(th) == 3
            SimConfig(thetas=(th,))  # validates


class TestReplicationSeed:
    def test_deterministic(self):
        assert replication_seed(7, 0, 30, 4) == replication_seed(7, 0, 30, 4)

    def test_distinct_across_axes(self):
        base = replication_seed(7, 0, 30, 4)
        assert replication_seed(7, 0, 30, 5) != base
        assert replication_seed(7, 1, 30, 4) != base
        assert replication_seed(7, 0, 50, 4) != base
        assert replication_seed(8, 0, 30, 4) != base

    def test_uint64_range(self):
        s = replication_seed(2**32, 26, 100, 999)
        assert 0 <= s < 2**64

    @pytest.mark.parametrize(
        "key", [(-1, 0, 30, 4), (7, -1, 30, 4), (7, 0, -30, 4), (7, 0, 30, -4)]
    )
    def test_negative_entry(self, key):
        with pytest.raises(DomainError, match="must be >= 0"):
            replication_seed(*key)

    @pytest.mark.parametrize(
        "key", [("a", 0, 30, 1), (1.5, 0, 30, 1), (7, math.nan, 30, 1), (0, 0, 30, True)],
        ids=("text", "fraction", "nan", "bool"),
    )
    def test_entry_not_an_integer(self, key):
        # each entry passes core's integer rule, as SimConfig's fields do
        with pytest.raises(DomainError, match=r"must be >= 0 and integral, got \("):
            replication_seed(*key)

    def test_integral_float_entry(self):
        assert replication_seed(7, 0, 30.0, 4) == replication_seed(7, 0, 30, 4)


class TestRunStudy:
    CONFIG = dict(
        thetas=((1.0, 2.0, 0.5), (0.5, 1.0, 0.2)),
        sample_sizes=(30, 50),
        replications=4,
        master_seed=7,
    )

    def test_layout_and_bookkeeping(self):
        rep = run_study(SimConfig(**self.CONFIG))
        assert isinstance(rep, SimReport)
        # theta-major, sample-size-minor order
        assert [(c.theta_index, c.n) for c in rep.cells] == [
            (0, 30), (0, 50), (1, 30), (1, 50),
        ]
        for cell in rep.cells:
            assert cell.failure_count + cell.used == 4
            assert 0 <= cell.boundary_count <= cell.used

    def test_serial_parallel_identical(self):
        serial = run_study(SimConfig(**self.CONFIG, parallelism=1))
        parallel = run_study(SimConfig(**self.CONFIG, parallelism=2))
        assert len(serial.cells) == len(parallel.cells)
        for a, b in zip(serial.cells, parallel.cells):
            assert_cells_equal(a, b)

    def test_sharded_parallel_identical(self):
        # 7 replications split into uneven ranges; parallelism 3 is
        # capped at the machine's CPU count and the number of shards
        config = dict(self.CONFIG, replications=7)
        serial = run_study(SimConfig(**config, parallelism=1))
        parallel = run_study(SimConfig(**config, parallelism=3))
        assert repr(serial.cells) == repr(parallel.cells)
        assert all(c.failure_count + c.used == 7 for c in parallel.cells)

    def test_serial_runs_one_shard_per_cell(self, monkeypatch):
        # one worker maps _run_cell over the cells in this process, one
        # call per cell with the whole replication range
        calls = []
        run_cell = simulation._run_cell

        def counting(args):
            calls.append(args[:4])
            return run_cell(args)

        monkeypatch.setattr(simulation, "_run_cell", counting)
        run_study(SimConfig(**self.CONFIG, parallelism=1))
        assert calls == [
            (i, th, n, range(4))
            for i, th in enumerate(self.CONFIG["thetas"])
            for n in self.CONFIG["sample_sizes"]
        ]

    def test_cell_recomputation(self):
        # recompute one cell by hand from the published seeding rule;
        # the study must match to rounding
        theta, n, reps, master = (1.0, 2.0, 0.5), 40, 3, 11
        rep = run_study(
            SimConfig(thetas=(theta,), sample_sizes=(n,), replications=reps,
                      master_seed=master)
        )
        cell = rep.cells[0]

        estimates = []
        for j in range(reps):
            seed = replication_seed(master, 0, n, j)
            sample = uf_sample(theta, n, seed)
            r = fit_uf(DataSeries(tuple(float(v) for v in sample)))
            if r.converged and all(math.isfinite(v) for v in r.theta_hat):
                estimates.append(r.theta_hat)
        est = np.asarray(estimates)
        truth = np.asarray(theta)
        assert cell.used == len(estimates)
        assert_allclose(cell.rb, (est.mean(axis=0) - truth) / truth, rtol=1e-12)
        assert_allclose(
            cell.mse, np.mean((est - truth) ** 2, axis=0), rtol=1e-12
        )
        assert_allclose(cell.rmse, np.sqrt(cell.mse), rtol=1e-15)

    def test_relative_bias_undefined_at_zero(self):
        rep = run_study(
            SimConfig(thetas=((1.0, 2.0, 0.0),), sample_sizes=(30,),
                      replications=3, master_seed=5)
        )
        cell = rep.cells[0]
        assert math.isnan(cell.rb[2])
        assert math.isfinite(cell.rb[0]) and math.isfinite(cell.rb[1])
        # absolute error metrics stay defined
        assert all(math.isfinite(v) for v in cell.rmse)

    def test_iter_rows_schema(self):
        rep = run_study(SimConfig(**self.CONFIG))
        rows = list(rep.iter_rows())
        assert len(rows) == 4 * 3
        assert [r["param"] for r in rows[:3]] == ["sigma", "alpha", "rho"]
        for row in rows:
            assert set(row) == {
                "theta_index", "n", "param", "rb", "mse", "rmse", "failures",
            }

"""Monte Carlo study of the UF maximum-likelihood estimator.

Runs a grid of (true parameter, sample size) cells, fitting every
replication and accumulating relative bias, MSE and RMSE per
coordinate. Seeding is derived, not sequential: replication j of cell
(theta index i, size n) uses the seed spawned from the tuple
(master_seed, i, n, j), so any cell or replication can be reproduced in
isolation and results do not depend on execution order. That is what
makes every parallelism give the same cells bit for bit.
"""

from __future__ import annotations

import numbers
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

import numpy as np

from .core import UfParams, as_integer, uf_sample
from .errors import DomainError, ParameterError, UnitFrechetError
from .inference import MODELS, DataSeries, fit_uf

__all__ = [
    "CellResult",
    "SimConfig",
    "SimReport",
    "default_theta_grid",
    "replication_seed",
    "run_study",
]


def default_theta_grid() -> tuple[tuple[float, float, float], ...]:
    """27-point parameter grid covering mild to strong dependence."""
    return tuple(
        (sg, al, rh)
        for sg in (0.5, 1.0, 2.0)
        for al in (1.0, 2.0, 4.0)
        for rh in (0.2, 0.5, 0.8)
    )


def _entries(value) -> tuple:
    """The entries of a list, tuple or array; () for anything else."""
    if isinstance(value, (list, tuple)) or (
        isinstance(value, np.ndarray) and value.ndim > 0
    ):
        return tuple(value)
    return ()


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Study layout: parameter points, sample sizes, replication count.

    ``parallelism`` > 1 splits every cell's replications into
    contiguous ranges and fits those (cell, range) shards on worker
    processes, at most ``min(parallelism, os.cpu_count())`` of them and
    never more than there are shards; one worker fits one shard per cell
    in the calling process. Results are identical either way: every
    replication seeds itself from (master_seed, theta_index, n, j) and
    each cell is summarised from its outcomes in replication order.

    This is the one validator of a study config. Construction checks
    every field and raises a single DomainError that lists each defect
    on its own line with its field path: ``thetas[1][0]: `` followed by
    ``UfParams``' complaint about that entry, or
    ``sample_sizes[1]: must be an integer >= 4``. The integer fields
    accept integral floats (30.0) but reject fractions and booleans.
    """

    thetas: tuple[tuple[float, float, float], ...]
    sample_sizes: tuple[int, ...] = (30, 50, 100)
    replications: int = 1000
    master_seed: int = 0
    parallelism: int = 1

    def __post_init__(self) -> None:
        problems: list[str] = []

        def integer(path: str, value, low: int) -> Optional[int]:
            n = as_integer(value)
            if n is None or n < low:
                problems.append(f"{path}: must be an integer >= {low}")
            return n

        thetas = _entries(self.thetas)
        if self.thetas is None:
            problems.append("thetas: required field")
        elif not thetas:
            problems.append("thetas: expected a nonempty array")
        for i, th in enumerate(thetas):
            th = _entries(th)
            if len(th) != 3 or not all(_is_number(v) for v in th):
                problems.append(f"thetas[{i}]: expected an array of 3 numbers")
                continue
            for j, v in enumerate(th):
                try:  # UfParams' rule for field j; 0.5 is valid in every field
                    UfParams.of((0.5,) * j + (v,) + (0.5,) * (2 - j))
                except ParameterError as exc:
                    problems.append(f"thetas[{i}][{j}]: {exc}")
        sizes = _entries(self.sample_sizes)
        if not sizes:
            problems.append("sample_sizes: expected a nonempty array")
        clean = {
            "sample_sizes": tuple(
                integer(f"sample_sizes[{j}]", n, MODELS["uf"].min_n)
                for j, n in enumerate(sizes)
            ),
            "replications": integer("replications", self.replications, 1),
            "master_seed": integer("master_seed", self.master_seed, 0),
            "parallelism": integer("parallelism", self.parallelism, 1),
        }
        if problems:
            raise DomainError("\n".join(problems))
        clean["thetas"] = tuple(tuple(float(v) for v in th) for th in thetas)
        for name, value in clean.items():
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, raw: object) -> "SimConfig":
        """Build a config from a mapping such as a parsed JSON object.

        Only ``thetas`` is required; the other fields take their
        defaults. An unknown key is reported as ``<key>: unknown field``
        together with every defect construction finds.
        """
        if not isinstance(raw, Mapping):
            raise DomainError("config: expected a JSON object")
        known = {f.name for f in fields(cls)}
        problems = [f"{key}: unknown field" for key in raw if key not in known]
        values = {key: value for key, value in raw.items() if key in known}
        values.setdefault("thetas", None)  # reported as a required field
        try:
            config = cls(**values)
        except DomainError as exc:
            problems.append(str(exc))
        if problems:
            raise DomainError("\n".join(problems))
        return config


@dataclass(frozen=True)
class CellResult:
    """Accumulated estimator quality for one (theta, n) cell.

    ``rb`` is relative bias (mean estimate minus truth, over truth); a
    coordinate whose true value is 0 gets NaN there since relative bias
    is undefined. ``failure_count + used = replications`` always holds:
    failed replications contribute to no average.
    """

    theta_index: int
    theta: tuple[float, float, float]
    n: int
    rb: tuple[float, float, float]
    mse: tuple[float, float, float]
    rmse: tuple[float, float, float]
    failure_count: int
    boundary_count: int
    used: int


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    cells: tuple[CellResult, ...]

    def iter_rows(self) -> Iterator[dict]:
        """Long-format rows, one per (cell, parameter)."""
        for cell in self.cells:
            for k, name in enumerate(MODELS["uf"].param_names):
                yield {
                    "theta_index": cell.theta_index,
                    "n": cell.n,
                    "param": name,
                    "rb": cell.rb[k],
                    "mse": cell.mse[k],
                    "rmse": cell.rmse[k],
                    "failures": cell.failure_count,
                }

    def iter_cells(self) -> Iterator[dict]:
        """One cells.json record per cell: CellResult's fields in order,
        with failure_count and boundary_count written as failures and
        boundary."""
        keys = {"failure_count": "failures", "boundary_count": "boundary"}
        for cell in self.cells:
            yield {keys.get(k, k): v for k, v in asdict(cell).items()}


def replication_seed(master_seed: int, theta_index: int, n: int, j: int) -> int:
    """Seed for replication j of cell (theta_index, n); entries are integers >= 0."""
    entries = (master_seed, theta_index, n, j)
    key = tuple(map(as_integer, entries))
    if None in key or min(key) < 0:
        raise DomainError(f"replication_seed entries must be >= 0 and integral, got {entries}")
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def _run_cell(args) -> list:
    """One shard: fit a range of one cell's replications. Per
    replication, (theta_hat, boundary_hit), or None when it failed."""
    theta_index, theta, n, replications, master_seed = args
    outcomes = []
    for j in replications:
        seed = replication_seed(master_seed, theta_index, n, j)
        sample = uf_sample(theta, n, seed)
        try:
            report = fit_uf(DataSeries(sample))
        except UnitFrechetError:
            report = None
        usable = report is not None and report.converged
        outcomes.append((report.theta_hat, report.boundary_hit) if usable else None)
    return outcomes


def _summarise(theta_index, theta, n, outcomes) -> CellResult:
    """A cell's result from its replication outcomes, in replication
    order."""
    truth = np.asarray(theta, dtype=float)
    estimates = [o[0] for o in outcomes if o is not None]
    used = len(estimates)
    if used:
        est = np.asarray(estimates, dtype=float)
        err = est - truth
        with np.errstate(divide="ignore", invalid="ignore"):
            rb_arr = np.where(
                truth != 0.0, (est.mean(axis=0) - truth) / truth, np.nan
            )
        mse_arr = np.mean(err * err, axis=0)
        rmse_arr = np.sqrt(mse_arr)
    else:
        rb_arr = mse_arr = rmse_arr = np.full(3, np.nan)
    return CellResult(
        theta_index=theta_index,
        theta=tuple(float(v) for v in theta),
        n=n,
        rb=tuple(float(v) for v in rb_arr),
        mse=tuple(float(v) for v in mse_arr),
        rmse=tuple(float(v) for v in rmse_arr),
        failure_count=len(outcomes) - used,
        boundary_count=sum(o is not None and o[1] for o in outcomes),
        used=used,
    )


def run_study(config: SimConfig) -> SimReport:
    """Run the full study described by ``config``.

    Every replication is fitted by ``fit_uf(data)`` with its fixed
    settings; the study takes no tuning options. A replication counts
    as failed when fitting raises or the report does not converge;
    failed replications are excluded from the averages and only show up
    in ``failure_count``. Cells are processed in grid order (theta
    major, sample size minor).

    Every cell's replications are split into contiguous ranges, and
    ``_run_cell`` fits each (cell, range) shard: in this process, one
    shard per cell, when one worker remains, and on worker processes
    otherwise. Each cell's outcomes merge back in replication order.
    Workers start with numpy's default thread settings: a fit is numpy
    array passes plus 3 x 3 eigendecompositions, too small for a BLAS
    thread pool to contend over.
    """
    cells = [
        (i, th, n) for i, th in enumerate(config.thetas) for n in config.sample_sizes
    ]
    reps, seed = config.replications, config.master_seed
    workers = min(config.parallelism, os.cpu_count() or 1)
    size = -(-reps // workers)
    shards = [
        (k, range(lo, min(lo + size, reps)))
        for k in range(len(cells))
        for lo in range(0, reps, size)
    ]
    workers = min(workers, len(shards))
    jobs = [(*cells[k], js, seed) for k, js in shards]
    if workers == 1:
        parts = map(_run_cell, jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_cell, jobs))
    outcomes: list[list] = [[] for _ in cells]
    for (k, _), part in zip(shards, parts):
        outcomes[k].extend(part)
    return SimReport(config=config, cells=tuple(
        _summarise(*cell, part) for cell, part in zip(cells, outcomes)
    ))

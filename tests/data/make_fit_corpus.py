"""Regenerate fit_corpus.json, the fit regression corpus.

    PYTHONPATH=src python3 tests/data/make_fit_corpus.py

The corpus is every point of ``default_theta_grid()`` plus five points
on or near the rho boundary, times n in {30, 100}, times 4
replications, sampled with ``replication_seed(MASTER_SEED, i, n, j)``.
For each sample it records the fitted log-likelihood and the
``converged`` flag. ``tests/test_fit_corpus.py`` then asserts that a
fit never ends below the frozen log-likelihood (minus 1e-9) and that a
sample that converged keeps converging.

The committed file was generated at commit 5434a8a, the last commit
with the Nelder-Mead fit engine. Regenerating it with a later engine
would move the bar that engine has to clear, so do that only on
purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

from unitfrechet import DataSeries, fit_uf, uf_sample
from unitfrechet.simulation import default_theta_grid, replication_seed

MASTER_SEED = 0
SIZES = (30, 100)
REPLICATIONS = 4
BOUNDARY_THETAS = (
    (1.0, 2.0, 0.0),
    (0.5, 1.0, 0.0),
    (0.3, 3.0, 0.0),
    (2.0, 4.0, 0.95),
    (1.0, 0.5, 0.99),
)
PATH = Path(__file__).with_name("fit_corpus.json")


def corpus_thetas() -> tuple[tuple[float, float, float], ...]:
    return default_theta_grid() + BOUNDARY_THETAS


def corpus_sample(i: int, theta, n: int, j: int) -> DataSeries:
    seed = replication_seed(MASTER_SEED, i, n, j)
    return DataSeries(tuple(float(v) for v in uf_sample(theta, n, seed)))


def main() -> None:
    entries = []
    for i, theta in enumerate(corpus_thetas()):
        for n in SIZES:
            for j in range(REPLICATIONS):
                report = fit_uf(corpus_sample(i, theta, n, j))
                entries.append({
                    "theta_index": i, "theta": list(theta), "n": n, "j": j,
                    "loglik": report.loglik, "converged": report.converged,
                })
    PATH.write_text(json.dumps({
        "master_seed": MASTER_SEED,
        "generated_at": "5434a8a",
        "fits": entries,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()

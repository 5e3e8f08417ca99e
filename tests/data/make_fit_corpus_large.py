"""Regenerate fit_corpus_large.json, the large-sample fit regression corpus.

    PYTHONPATH=src python3 tests/data/make_fit_corpus_large.py

The corpus is one sample at each theta of ``make_fit_corpus.py``
(``default_theta_grid()`` plus its five points on or near the rho
boundary), with n cycling through SIZES, sampled with
``replication_seed(MASTER_SEED, i, n, 0)``, plus the tied sample
``[0.4] * 5000 + [0.5]``, whose midpoint quantiles all coincide. For
each sample it records the fitted log-likelihood and the ``converged``
flag. ``tests/test_fit_corpus.py`` asserts that a fit never ends below
the frozen log-likelihood (minus 1e-9) and that a sample that converged
keeps converging.

The committed file was generated at commit 6ea0a7d, the last commit
whose fit ran its rho profile on the full sample at every n.
Regenerating it with a later engine would move the bar that engine has
to clear, so do that only on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

from make_fit_corpus import MASTER_SEED, corpus_sample, corpus_thetas

from unitfrechet import DataSeries, fit_uf

SIZES = (3000, 5000, 10000, 20000)
# (value, count) runs of the tied sample
TIED_RUNS = ((0.4, 5000), (0.5, 1))
PATH = Path(__file__).with_name("fit_corpus_large.json")


def tied_sample(runs) -> DataSeries:
    return DataSeries(tuple(float(v) for v, k in runs for _ in range(k)))


def main() -> None:
    entries = []
    for i, theta in enumerate(corpus_thetas()):
        n = SIZES[i % len(SIZES)]
        report = fit_uf(corpus_sample(i, theta, n, 0))
        entries.append({
            "theta_index": i, "theta": list(theta), "n": n, "j": 0,
            "loglik": report.loglik, "converged": report.converged,
        })
    report = fit_uf(tied_sample(TIED_RUNS))
    entries.append({
        "runs": [list(r) for r in TIED_RUNS], "n": report.n,
        "loglik": report.loglik, "converged": report.converged,
    })
    PATH.write_text(json.dumps({
        "master_seed": MASTER_SEED,
        "generated_at": "6ea0a7d",
        "fits": entries,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()

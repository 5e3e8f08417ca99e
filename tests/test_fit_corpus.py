"""Fit regression corpus: a change to fit_uf must not find worse maxima.

tests/data/fit_corpus.json holds, for 256 seeded samples, the fitted
log-likelihood and the converged flag of an earlier fit engine
(tests/data/make_fit_corpus.py says which, and how to regenerate it).
"""

import json
from pathlib import Path

from unitfrechet import DataSeries, fit_uf, uf_sample
from unitfrechet.simulation import replication_seed

CORPUS = json.loads((Path(__file__).parent / "data" / "fit_corpus.json").read_text())
LOGLIK_SLACK = 1e-9


def test_fits_reach_frozen_loglik_and_keep_converging():
    low, lost = [], []
    for e in CORPUS["fits"]:
        seed = replication_seed(CORPUS["master_seed"], e["theta_index"], e["n"], e["j"])
        data = DataSeries(tuple(float(v) for v in uf_sample(e["theta"], e["n"], seed)))
        report = fit_uf(data)
        key = (tuple(e["theta"]), e["n"], e["j"])
        if not report.loglik >= e["loglik"] - LOGLIK_SLACK:
            low.append((key, report.loglik, e["loglik"]))
        if e["converged"] and not report.converged:
            lost.append(key)
    assert len(CORPUS["fits"]) == 256
    assert not low, f"fits below the frozen log-likelihood: {low}"
    assert not lost, f"fits that stopped converging: {lost}"

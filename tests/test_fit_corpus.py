"""Fit regression corpus: a change to fit_uf must not find worse maxima.

tests/data/fit_corpus.json holds, for 256 seeded samples, the fitted
log-likelihood and the converged flag of an earlier fit engine
(tests/data/make_fit_corpus.py says which, and how to regenerate it).
"""

import json
import warnings
from pathlib import Path

from unitfrechet import DataSeries, fit_uf, loglik_uf, uf_sample
from unitfrechet.simulation import replication_seed

CORPUS = json.loads((Path(__file__).parent / "data" / "fit_corpus.json").read_text())
LOGLIK_SLACK = 1e-9


def corpus_sample(e) -> DataSeries:
    seed = replication_seed(CORPUS["master_seed"], e["theta_index"], e["n"], e["j"])
    return DataSeries(tuple(float(v) for v in uf_sample(e["theta"], e["n"], seed)))


def test_fits_reach_frozen_loglik_and_keep_converging():
    low, lost, apart = [], [], []
    for e in CORPUS["fits"]:
        data = corpus_sample(e)
        report = fit_uf(data)
        key = (tuple(e["theta"]), e["n"], e["j"])
        # the report's log-likelihood is loglik_uf's, bit for bit
        if report.loglik != loglik_uf(report.theta_hat, data):
            apart.append(key)
        if not report.loglik >= e["loglik"] - LOGLIK_SLACK:
            low.append((key, report.loglik, e["loglik"]))
        if e["converged"] and not report.converged:
            lost.append(key)
    assert len(CORPUS["fits"]) == 256
    assert not low, f"fits below the frozen log-likelihood: {low}"
    assert not lost, f"fits that stopped converging: {lost}"
    assert not apart, f"fits whose loglik is not loglik_uf at theta_hat: {apart}"


def test_fits_raise_no_warnings():
    # trial points of the Newton runs overflow on the way (alpha = e^b,
    # rho = 1 with underflowing kernel arguments); none of that may leak
    samples = [corpus_sample(e) for e in CORPUS["fits"]]
    # the samples of test_extreme_data_converges and test_reaches_rho_one_mode
    rho_one = uf_sample((0.5, 4.0, 0.2), 100, replication_seed(1, 6, 100, 3))
    samples += [
        DataSeries((1e-300, 2e-300, 3e-300, 1.0 - 1e-16, 0.5)),
        DataSeries(tuple(float(v) for v in rho_one)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in samples:
            fit_uf(data)

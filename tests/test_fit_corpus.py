"""Fit regression corpora: a change to fit_uf must not find worse maxima.

tests/data/fit_corpus.json holds, for 256 seeded samples of n = 30 and
100, the fitted log-likelihood and the converged flag of an earlier fit
engine; tests/data/fit_corpus_large.json holds the same for 33 samples
of n = 3000-20000, one of them tied. Each generating script in
tests/data says which engine, and how to regenerate its file.
"""

import json
import warnings
from pathlib import Path

from unitfrechet import DataSeries, fit_uf, loglik_uf, uf_sample
from unitfrechet.simulation import replication_seed

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "fit_corpus.json").read_text())
LARGE = json.loads((DATA / "fit_corpus_large.json").read_text())
LOGLIK_SLACK = 1e-9
# the tied sample of fit_corpus_large.json, whose midpoint quantiles
# all coincide
TIED = DataSeries((0.4,) * 5000 + (0.5,))


def corpus_sample(e, master_seed=CORPUS["master_seed"]) -> DataSeries:
    if "runs" in e:
        return DataSeries(tuple(float(v) for v, k in e["runs"] for _ in range(k)))
    seed = replication_seed(master_seed, e["theta_index"], e["n"], e["j"])
    return DataSeries(tuple(float(v) for v in uf_sample(e["theta"], e["n"], seed)))


def assert_fits_hold(corpus):
    low, lost, apart = [], [], []
    for e in corpus["fits"]:
        data = corpus_sample(e, corpus["master_seed"])
        report = fit_uf(data)
        key = (tuple(e.get("theta", ())), e["n"], e.get("j"))
        # the report's log-likelihood is loglik_uf's, bit for bit
        if report.loglik != loglik_uf(report.theta_hat, data):
            apart.append(key)
        if not report.loglik >= e["loglik"] - LOGLIK_SLACK:
            low.append((key, report.loglik, e["loglik"]))
        if e["converged"] and not report.converged:
            lost.append(key)
    assert not low, f"fits below the frozen log-likelihood: {low}"
    assert not lost, f"fits that stopped converging: {lost}"
    assert not apart, f"fits whose loglik is not loglik_uf at theta_hat: {apart}"


def test_fits_reach_frozen_loglik_and_keep_converging():
    assert len(CORPUS["fits"]) == 256
    assert_fits_hold(CORPUS)


def test_large_fits_reach_frozen_loglik_and_keep_converging():
    assert len(LARGE["fits"]) == 33
    assert corpus_sample(LARGE["fits"][-1]) == TIED
    assert_fits_hold(LARGE)


def test_fits_raise_no_warnings():
    # trial points of the Newton runs overflow on the way (alpha = e^b,
    # rho = 1 with underflowing kernel arguments); none of that may leak
    samples = [corpus_sample(e) for e in CORPUS["fits"]]
    # the samples of test_extreme_data_converges and test_reaches_rho_one_mode
    rho_one = uf_sample((0.5, 4.0, 0.2), 100, replication_seed(1, 6, 100, 3))
    samples += [
        DataSeries((1e-300, 2e-300, 3e-300, 1.0 - 1e-16, 0.5)),
        DataSeries(tuple(float(v) for v in rho_one)),
        TIED,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in samples:
            fit_uf(data)

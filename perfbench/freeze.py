"""Regenerate frozen.json, the reference log-likelihoods of the
benchmark's correctness gates.

    python3 perfbench/freeze.py

A run that fits any of these samples again must reach at least the
frozen value minus 1e-9. The file records the program as it was when
the benchmark was defined; regenerate it only in a change to the
benchmark itself, never in a change that claims a speedup.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

from common import FROZEN_PATH, SRC

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (needs src/ on the path)
from unitfrechet import fit_beta, fit_kumaraswamy, fit_uf, load_uefa  # noqa: E402

SEEDS = range(20)
# Rounds of the bulk workload covered, the same for every seed: a 40 s
# run makes about 12-15.
BULK_ROUNDS = 20
WORKERS = 2


def _loglik(report):
    return None if report is None else report.loglik


def _task(task):
    kind, seed, k = task
    if kind == "study":
        fits = workloads.replay_fits(workloads.study_config(seed, 0))
        return task, (
            {str(n): [_loglik(r) for r in reports] for n, reports in fits.items()},
            {str(n): sum(not workloads.usable(r) for r in reports)
             for n, reports in fits.items()},
        )
    report = workloads.fit_large(workloads.bulk_fit_values(k))
    return task, (report.loglik, report.converged)


def main() -> int:
    tasks = [("study", s, 0) for s in SEEDS]
    tasks += [("bulk", None, k) for k in range(BULK_ROUNDS)]
    study: dict = {}
    study_failures: dict = {}
    bulk: list = [None] * BULK_ROUNDS
    bulk_converged: list = [None] * BULK_ROUNDS
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        for (kind, seed, k), value in pool.imap_unordered(_task, tasks):
            if kind == "study":
                study[str(seed)], study_failures[str(seed)] = value
            else:
                bulk[k], bulk_converged[k] = value
    uefa = load_uefa()
    frozen = {
        "study": {str(s): study[str(s)] for s in SEEDS},
        "study_failures": {str(s): study_failures[str(s)] for s in SEEDS},
        "bulk": bulk,
        "bulk_converged": bulk_converged,
        "uefa": {
            "uf": fit_uf(uefa).loglik,
            "beta": fit_beta(uefa).loglik,
            "kumaraswamy": fit_kumaraswamy(uefa).loglik,
        },
    }
    FROZEN_PATH.write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

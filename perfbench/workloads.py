"""The three end-to-end workloads. Each is a closed loop: one caller
issues a round of operations, waits for every result, and starts the
next round until the run's time is up. Inputs come from --seed only;
the program sees nothing but the generated inputs. See NOTES.md for why
each workload exists and which layer it stresses.

Nothing here is traced: the end-to-end numbers are taken with the
program exactly as shipped. Correctness is verified after the timed
loop and never inside a timed region.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from unitfrechet import (
    BivParams,
    DataSeries,
    SimConfig,
    UnitFrechetError,
    approx_moment,
    approx_var,
    biv_sample,
    estimate_cov,
    fit_uf,
    frechet_moments,
    replication_seed,
    run_study,
    uf_cdf,
    uf_pdf,
    uf_quantile,
    uf_sample,
)

from common import (
    BULK_TAG,
    CLI_TAG,
    LOGLIK_SLACK,
    OUT,
    ROOT,
    STUDY_TAG,
    Checks,
    derive,
    fresh_dir,
    run_timed,
    subprocess_env,
)

# Criterion 8's study point, the reference law of every workload.
THETA = (1.0, 2.0, 0.5)
MIN_ROUNDS = 2

STUDY_SIZES = (30, 50, 100)
STUDY_REPS = 20
STUDY_WORKERS = 2

BULK_N = 10**6
BULK_FIT_N = 10**5
BIV = (1.0, 1.0, 2.0, 0.5)
# uf_quantile documents its cdf roundtrip to 1e-10 on [1e-6, 1 - 1e-6].
P_EDGE = 1e-6
ROUNDTRIP_N = 10**4
ROUNDTRIP_TOL = 1e-10

CLI_SAMPLE_N = 100_000
CLI_MOMENTS = (1.0, 1.0, 6.0, 0.5)
CLI_MOMENTS_MC_N = 100_000
CLI_ORDER = ("cdf", "fit", "sample", "moments")
CLI_MODELS = ("uf", "beta", "kumaraswamy")
CLI_TIMEOUT_S = 120


@dataclass
class Outcome:
    """What one end-to-end run measured. ``named`` maps each issue-level
    metric to (unit, per-round values, higher_is_better).

    ``op_failed`` counts operations that raised. A fit that returns with
    ``converged`` false has still returned the documented value, and
    ``run_study`` reports such replications in ``failure_count``; those
    are counted in ``nonconverged`` and gated against frozen.json."""

    round_s: list[float] = field(default_factory=list)
    named: dict = field(default_factory=dict)
    ops: int = 0
    op_failed: int = 0
    nonconverged: int = 0


def _attempt(outcome: Outcome, fn, *args, **kwargs):
    """Call one program operation; (result or None, seconds)."""
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except UnitFrechetError:
        result = None
    dt = perf_counter() - t0
    outcome.ops += 1
    outcome.op_failed += result is None
    return result, dt


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# study: the paper's Monte Carlo validation, bound by per-fit overhead
# ---------------------------------------------------------------------------

def study_config(seed: int, k: int, parallelism: int = STUDY_WORKERS) -> SimConfig:
    """Round k of the study workload: criterion 8's grid shape."""
    return SimConfig(
        thetas=(THETA,),
        sample_sizes=STUDY_SIZES,
        replications=STUDY_REPS,
        master_seed=derive(seed, STUDY_TAG, k),
        parallelism=parallelism,
    )


def study_inputs(seed: int) -> SimConfig:
    return study_config(seed, 0)


def replay_fits(config: SimConfig) -> dict:
    """Fit every replication of a one-theta study directly, through the
    public API, in the order run_study uses: {n: [report or None]}."""
    out = {}
    for n in config.sample_sizes:
        reports = []
        for j in range(config.replications):
            seed = replication_seed(config.master_seed, 0, n, j)
            data = DataSeries(tuple(float(v) for v in uf_sample(THETA, n, seed)))
            try:
                reports.append(fit_uf(data))
            except UnitFrechetError:
                reports.append(None)
        out[n] = reports
    return out


def usable(report) -> bool:
    return (
        report is not None
        and report.converged
        and all(math.isfinite(v) for v in report.theta_hat)
    )


def check_study_cells(checks: Checks, label: str, config: SimConfig, cells) -> None:
    ok = len(cells) == len(config.sample_sizes) and all(
        c.used + c.failure_count == config.replications
        and (c.used == 0 or all(math.isfinite(v) for v in c.rmse))
        for c in cells
    )
    checks.check(f"{label}: cells complete and finite", ok)


def check_study_replay(
    checks: Checks, label: str, cells, fits: dict, frozen: dict, seed: int
) -> None:
    """The replayed fits must explain the study's failure and boundary
    counts, fail no more often than when frozen, and reach at least the
    frozen log-likelihoods."""
    frozen_seed = frozen.get("study", {}).get(str(seed))
    frozen_failures = frozen.get("study_failures", {}).get(str(seed))
    for cell in cells:
        reports = fits[cell.n]
        bad = sum(not usable(r) for r in reports)
        boundary = sum(usable(r) and r.boundary_hit for r in reports)
        checks.check(
            f"{label} n={cell.n}: failure and boundary counts match replay",
            bad == cell.failure_count and boundary == cell.boundary_count,
            f"cell {cell.failure_count}/{cell.boundary_count}, replay {bad}/{boundary}",
        )
        if frozen_failures is not None:
            ref_bad = frozen_failures[str(cell.n)]
            checks.check(
                f"{label} n={cell.n}: failed replications <= frozen",
                bad <= ref_bad, f"{bad} vs {ref_bad}",
            )
        if frozen_seed is None:
            continue
        ref = frozen_seed[str(cell.n)]
        low = [
            j for j, r in enumerate(reports[: len(ref)])
            if ref[j] is not None and (r is None or not r.loglik >= ref[j] - LOGLIK_SLACK)
        ]
        checks.check(
            f"{label} n={cell.n}: loglik >= frozen - {LOGLIK_SLACK:g}",
            not low,
            f"below at replications {low}",
        )


def run_study_workload(seed: int, seconds: float, checks: Checks, frozen: dict) -> Outcome:
    # warm-up: scipy's lazily loaded optimizer code and the pool's paths
    fit_uf(DataSeries(tuple(float(v) for v in uf_sample(THETA, 30, 1))))
    run_study(SimConfig(thetas=(THETA,), sample_sizes=(30, 31), replications=1,
                        parallelism=STUDY_WORKERS))

    out = Outcome()
    fits_per_round = STUDY_REPS * len(STUDY_SIZES)
    first = None
    start = perf_counter()
    k = 0
    while k < MIN_ROUNDS or perf_counter() - start < seconds:
        config = study_config(seed, k)
        t0 = perf_counter()
        report = run_study(config)
        out.round_s.append(perf_counter() - t0)
        out.ops += fits_per_round
        out.nonconverged += sum(c.failure_count for c in report.cells)
        check_study_cells(checks, f"study round {k}", config, report.cells)
        if first is None:
            first = (config, report)
        k += 1

    config, report = first
    fits = replay_fits(config)
    replayed = [r for reports in fits.values() for r in reports]
    out.ops += len(replayed)
    out.op_failed += sum(r is None for r in replayed)
    check_study_replay(checks, "study round 0", report.cells, fits, frozen, seed)
    out.named["study_fits_per_s"] = (
        "1/s", [fits_per_round / t for t in out.round_s], True,
    )
    return out


# ---------------------------------------------------------------------------
# bulk: large arrays in one process, bound by array throughput
# ---------------------------------------------------------------------------

@dataclass
class BulkInputs:
    w: np.ndarray
    p: np.ndarray
    sample_seed: int
    biv_seed: int


def bulk_inputs(seed: int) -> BulkInputs:
    rng = np.random.default_rng(derive(seed, BULK_TAG))
    return BulkInputs(
        w=rng.uniform(P_EDGE, 1.0 - P_EDGE, BULK_N),
        p=rng.uniform(P_EDGE, 1.0 - P_EDGE, BULK_N),
        sample_seed=derive(seed, BULK_TAG, 1),
        biv_seed=derive(seed, BULK_TAG, 2),
    )


def bulk_fit_values(k: int) -> np.ndarray:
    """The n = 10^5 sample fitted in round k. Every round fits a new
    sample, so a run averages over fits of differing difficulty. The
    samples do not depend on --seed: runs with any seed walk the same
    corpus, so they time the same fits, and frozen.json's large-fit
    values gate every seed."""
    return uf_sample(THETA, BULK_FIT_N, derive(0, BULK_TAG, 3, k))


def fit_large(values: np.ndarray):
    return fit_uf(DataSeries(tuple(values.tolist())))


def run_bulk_workload(seed: int, seconds: float, checks: Checks, frozen: dict) -> Outcome:
    inp = bulk_inputs(seed)
    frozen_fits = frozen.get("bulk", [])
    frozen_converged = frozen.get("bulk_converged", [])
    # Warm-up at full size for the array calls: the first call of each
    # pays page faults for its fresh buffers, later calls reuse them.
    uf_pdf(inp.w, THETA), uf_cdf(inp.w, THETA), uf_quantile(inp.p, THETA)
    uf_sample(THETA, BULK_N, 1), biv_sample(BIV, BULK_N, 1)
    fit_large(uf_sample(THETA, 1000, 1))

    out = Outcome()
    eval_rate, draw_rate, pair_rate, fit_s = [], [], [], []
    digests = None
    start = perf_counter()
    k = 0
    while k < MIN_ROUNDS or perf_counter() - start < seconds:
        values = bulk_fit_values(k)
        pdf, t_pdf = _attempt(out, uf_pdf, inp.w, THETA)
        cdf, t_cdf = _attempt(out, uf_cdf, inp.w, THETA)
        q, t_q = _attempt(out, uf_quantile, inp.p, THETA)
        draws, t_draw = _attempt(out, uf_sample, THETA, BULK_N, inp.sample_seed)
        biv, t_biv = _attempt(out, biv_sample, BIV, BULK_N, inp.biv_seed)
        fit, t_fit = _attempt(out, fit_large, values)
        t_eval = t_pdf + t_cdf + t_q
        out.round_s.append(t_eval + t_draw + t_biv + t_fit)
        eval_rate.append(3 * BULK_N / t_eval)
        draw_rate.append(BULK_N / t_draw)
        pair_rate.append(BULK_N / t_biv)
        fit_s.append(t_fit)

        tag = f"bulk round {k}"
        if pdf is not None:
            checks.check(f"{tag}: pdf finite and >= 0",
                         np.all(np.isfinite(pdf) & (pdf >= 0.0)))
        if cdf is not None:
            checks.check(f"{tag}: cdf in [0, 1]", np.all((cdf >= 0.0) & (cdf <= 1.0)))
        if q is not None:
            checks.check(f"{tag}: quantiles in (0, 1)", np.all((q > 0.0) & (q < 1.0)))
        if draws is not None:
            checks.check(f"{tag}: draws strictly in (0, 1)",
                         np.all((draws > 0.0) & (draws < 1.0)))
        if biv is not None:
            checks.check(f"{tag}: pairs finite and positive",
                         np.all(np.isfinite(biv) & (biv > 0.0)))
        if fit is not None:
            out.nonconverged += not fit.converged
            if k < len(frozen_converged) and frozen_converged[k]:
                checks.check(f"{tag}: large fit converges, as when frozen", fit.converged)
            if k < len(frozen_fits):
                checks.check(
                    f"{tag}: large-fit loglik >= frozen - {LOGLIK_SLACK:g}",
                    fit.loglik >= frozen_fits[k] - LOGLIK_SLACK,
                    f"{fit.loglik!r} vs {frozen_fits[k]!r}",
                )
        if draws is not None and biv is not None:
            now = (_digest(draws), _digest(biv))
            if digests is None:
                digests = now
            else:
                checks.check(f"{tag}: samples byte-identical to round 0", now == digests)
        # release this round's arrays before the next round allocates its own
        del pdf, cdf, q, draws, biv
        k += 1

    sub = inp.p[:ROUNDTRIP_N]
    err = float(np.max(np.abs(uf_cdf(uf_quantile(sub, THETA), THETA) - sub)))
    checks.check(f"bulk: cdf(quantile(p)) roundtrip <= {ROUNDTRIP_TOL:g}",
                 err <= ROUNDTRIP_TOL, f"max error {err:.3g}")
    out.named.update({
        "bulk_eval_points_per_s": ("1/s", eval_rate, True),
        "bulk_uf_draws_per_s": ("1/s", draw_rate, True),
        "bulk_biv_pairs_per_s": ("1/s", pair_rate, True),
        "bulk_fit_large_s": ("s", fit_s, False),
    })
    return out


# ---------------------------------------------------------------------------
# cli: fresh interpreters, bound by cold start
# ---------------------------------------------------------------------------

@dataclass
class CliInputs:
    w: float
    sample_seed: int
    moments_seed: int


def cli_inputs(seed: int) -> CliInputs:
    rng = np.random.default_rng(derive(seed, CLI_TAG))
    return CliInputs(
        w=float(rng.uniform(0.05, 0.95)),
        sample_seed=derive(seed, CLI_TAG, 1) % 2**31,
        moments_seed=derive(seed, CLI_TAG, 2) % 2**31,
    )


def cli_argv(name: str, inp: CliInputs, outdir: str) -> list[str]:
    sigma, alpha, rho = (repr(v) for v in THETA)
    law = ["--sigma", sigma, "--alpha", alpha, "--rho", rho]
    if name == "cdf":
        return ["cdf", "-w", repr(inp.w), *law]
    if name == "fit":
        return ["fit", "bundled:uefa", "--models", ",".join(CLI_MODELS),
                "--outdir", outdir]
    if name == "sample":
        return ["sample", *law, "-n", str(CLI_SAMPLE_N),
                "--seed", str(inp.sample_seed), "--outdir", outdir]
    s1, s2, a, r = (repr(v) for v in CLI_MOMENTS)
    return ["moments", "--sigma1", s1, "--sigma2", s2, "--alpha", a, "--rho", r,
            "--seed", str(inp.moments_seed)]


def cli_expected(inp: CliInputs) -> dict:
    """What each command must print, computed in-process."""
    params = BivParams.of(CLI_MOMENTS)
    cov = estimate_cov(params, CLI_MOMENTS_MC_N, inp.moments_seed).value
    moments = frechet_moments(params).with_cov(cov)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mean, var = approx_moment(1.0, moments), approx_var(moments)
    return {
        "cdf": f"{uf_cdf(inp.w, THETA):.12g}",
        "moments": [f"E(W) = {mean:.12g}", f"Var(W) = {var:.12g}"],
        "draws": uf_sample(THETA, CLI_SAMPLE_N, inp.sample_seed),
    }


def run_cli(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """One fresh-interpreter invocation of the console entry point."""
    return run_timed(
        [sys.executable, "-m", "unitfrechet.cli", *argv], CLI_TIMEOUT_S,
        cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )


def _check_cli(checks: Checks, tag: str, name: str, proc, outdir, expected: dict,
               frozen: dict, state: dict) -> None:
    if not checks.check(f"{tag} {name}: exit 0", proc.returncode == 0,
                        proc.stderr.strip()[-200:]):
        return
    lines = proc.stdout.strip().splitlines()
    if name == "cdf":
        checks.check(f"{tag} cdf: prints the cdf", lines == [expected["cdf"]],
                     f"{lines!r} vs {expected['cdf']!r}")
    elif name == "moments":
        checks.check(f"{tag} moments: prints E(W) and Var(W)",
                     lines[:2] == expected["moments"], f"{lines!r}")
    elif name == "fit":
        rows = (outdir / "comparison.csv").read_text().splitlines()[1:]
        loglik = {r.split(",")[1]: float(r.split(",")[3]) for r in rows}
        ref = frozen.get("uefa", {})
        low = [m for m in CLI_MODELS
               if m not in loglik or not loglik[m] >= ref.get(m, -math.inf) - LOGLIK_SLACK]
        checks.check(f"{tag} fit: every model at or above frozen loglik", not low,
                     f"{loglik!r}")
        checks.check(f"{tag} fit: manifest written", (outdir / "manifest.json").is_file())
    elif name == "sample":
        raw = (outdir / "sample.csv").read_bytes()
        if "sample" not in state:
            text = raw.decode().splitlines()
            draws = np.array([float(v) for v in text[1:]])
            state["sample"] = raw
            checks.check(f"{tag} sample: header and draws equal uf_sample",
                         text[0] == "w" and np.array_equal(draws, expected["draws"]))
        else:
            checks.check(f"{tag} sample: byte-identical to round 0", raw == state["sample"])


def run_cli_workload(seed: int, seconds: float, checks: Checks, frozen: dict) -> Outcome:
    inp = cli_inputs(seed)
    expected = cli_expected(inp)
    run_cli(cli_argv("cdf", inp, ""))  # warm the file cache, untimed

    out = Outcome()
    times = {name: [] for name in CLI_ORDER}
    state: dict = {}
    start = perf_counter()
    k = 0
    while k < MIN_ROUNDS or perf_counter() - start < seconds:
        total = 0.0
        for name in CLI_ORDER:
            # A fresh, empty directory per invocation: on ext4, truncating
            # and rewriting files that were already flushed costs ~50 ms
            # each, which would time disk writeback rather than the program.
            outdir = fresh_dir("cli", f"{k}-{name}")
            proc, dt = run_cli(cli_argv(name, inp, str(outdir)))
            out.ops += 1
            out.op_failed += proc.returncode != 0
            times[name].append(dt)
            total += dt
            _check_cli(checks, f"cli round {k}", name, proc, outdir, expected,
                       frozen, state)
            shutil.rmtree(outdir)
        out.round_s.append(total)
        k += 1
    shutil.rmtree(OUT / "cli", ignore_errors=True)
    for name in CLI_ORDER:
        out.named[f"cli_{name}_s"] = ("s", times[name], False)
    return out


WORKLOADS = {
    "study": (study_inputs, run_study_workload),
    "bulk": (bulk_inputs, run_bulk_workload),
    "cli": (cli_inputs, run_cli_workload),
}

"""The traced run: per-layer numbers for core, bivariate, moments,
inference, simulation and cli.

Layers are measured from outside. Spans come from wrappers that this
file swaps in for module attributes at run time (for example
``unitfrechet.inference.loglik_uf`` or ``unitfrechet.simulation.fit_uf``)
and swaps back afterwards; no file of the package changes. Per-call
costs of short functions come from repeated timing with medians rather
than from spans, so the wrapper's own cost does not enter them.

The study is replayed serially so that every span stays in this
process. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import warnings
from time import perf_counter

import unitfrechet.cli as uf_cli
import unitfrechet.inference as uf_inference
import unitfrechet.simulation as uf_simulation
from unitfrechet import (
    BivParams,
    DataSeries,
    UnitFrechetError,
    approx_var,
    biv_sample,
    estimate_cov,
    fit_beta,
    fit_kumaraswamy,
    frechet_moments,
    load_uefa,
    loglik_uf,
    run_study,
    score_uf,
    uf_cdf,
    uf_pdf,
    uf_quantile,
    uf_sample,
)

from common import (
    LOGLIK_SLACK,
    OUT,
    STUDY_TAG,
    Checks,
    derive,
    fresh_dir,
    median,
    subprocess_env,
)
from workloads import (
    BIV,
    BULK_N,
    CLI_MOMENTS,
    CLI_MOMENTS_MC_N,
    THETA,
    Outcome,
    bulk_fit_values,
    bulk_inputs,
    check_study_replay,
    cli_argv,
    cli_inputs,
    fit_large,
    study_config,
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.uf_pdf_ns_per_pt", "ns", "lower"),
    ("core.uf_cdf_ns_per_pt", "ns", "lower"),
    ("core.uf_quantile_ns_per_pt", "ns", "lower"),
    ("core.uf_sample_ns_per_draw", "ns", "lower"),
    ("core.uf_sample_us_per_call", "us", "lower"),
    ("bivariate.biv_sample_ns_per_pair", "ns", "lower"),
    ("bivariate.accept_ratio", "ratio", "higher"),
    ("bivariate.estimate_cov_s", "s", "lower"),
    ("moments.approx_var_us", "us", "lower"),
    ("inference.fit_uf_ms", "ms", "lower"),
    ("inference.fit_uf_tail_ms", "ms", "lower"),
    ("inference.fit_uf_large_s", "s", "lower"),
    ("inference.loglik_uf_calls_per_fit", "count", "lower"),
    ("inference.score_uf_calls_per_fit", "count", "lower"),
    ("inference.loglik_uf_calls_large", "count", "lower"),
    ("inference.score_uf_calls_large", "count", "lower"),
    ("inference.loglik_uf_us_n100", "us", "lower"),
    ("inference.loglik_uf_us_n1e5", "us", "lower"),
    ("inference.score_uf_us_n100", "us", "lower"),
    ("inference.score_uf_us_n1e5", "us", "lower"),
    ("inference.fit_self_ms", "ms", "lower"),
    ("inference.report_ms", "ms", "lower"),
    ("inference.iterations_per_fit", "count", "lower"),
    ("inference.converged_ratio", "ratio", "higher"),
    ("inference.boundary_ratio", "ratio", "lower"),
    ("inference.fit_beta_us", "us", "lower"),
    ("inference.fit_kumaraswamy_us", "us", "lower"),
    ("simulation.parallel_efficiency", "ratio", "higher"),
    ("simulation.cell_s_n30", "s", "lower"),
    ("simulation.cell_s_n50", "s", "lower"),
    ("simulation.cell_s_n100", "s", "lower"),
    ("simulation.cell_imbalance", "ratio", "lower"),
    ("simulation.worker_idle_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_inference_s", "s", "lower"),
    ("cli.main_fit_inproc_s", "s", "lower"),
    ("cli.files_written", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.main_sample_inproc_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

IMPORT_PROBES = 5
IMPORTTIME_PROBES = 3
EVAL_REPS = 5
BIV_REPS = 3
INPROC_REPS = 3


class Tracer:
    """Spans (id, parent id, name, start, end) kept in memory. The
    parent is the innermost span open when a span starts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._open: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.spans.append((sid, parent, name, t0, t1))
        return traced

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, n, t0, t1 in self.spans if n == name]

    def children(self, parent_name: str) -> list[tuple[float, dict]]:
        """Per span called ``parent_name``: (duration, {child name:
        [child durations]}) over its direct children."""
        kids: dict[int, dict] = {}
        for _, parent, name, t0, t1 in self.spans:
            kids.setdefault(parent, {}).setdefault(name, []).append(t1 - t0)
        return [
            (t1 - t0, kids.get(sid, {}))
            for sid, _, n, t0, t1 in self.spans if n == parent_name
        ]


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Swap each (owner, attribute, span name) for a traced wrapper;
    ``owner`` is a module or a dict. Restores the originals on exit."""
    saved = []
    try:
        for owner, attr, name in targets:
            if isinstance(owner, dict):
                orig = owner[attr]
                owner[attr] = tracer.wrap(name, orig)
            else:
                orig = getattr(owner, attr)
                setattr(owner, attr, tracer.wrap(name, orig))
            saved.append((owner, attr, orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)


def per_call_s(fn, args, reps: int) -> float:
    """Median wall time of one call over ``reps`` calls."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return median(times)


def _cells_key(cells) -> str:
    # repr is exact for doubles and treats NaN as equal to itself
    return repr(tuple(cells))


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def measure_imports(checks: Checks) -> dict:
    code = ("import time; t = time.perf_counter(); import unitfrechet; "
            "print(time.perf_counter() - t)")
    env = subprocess_env()
    walls, inference = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        if checks.check("cli: import probe exits 0", proc.returncode == 0, proc.stderr[-200:]):
            walls.append(float(proc.stdout.strip()))
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import unitfrechet"],
                              env=env, capture_output=True, text=True, timeout=120)
        cumulative = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "unitfrechet.inference":
                cumulative = float(parts[1]) * 1e-6
        inference.append(cumulative)
    return {
        "cli.import_s": median(walls) if walls else 0.0,
        "cli.import_inference_s": median(inference),
    }


def measure_study(seed: int, checks: Checks, frozen: dict, spans: dict) -> tuple[dict, Outcome]:
    config = study_config(seed, 0)
    serial_config = study_config(seed, 0, parallelism=1)
    workers = min(config.parallelism, len(config.sample_sizes))

    parallel_walls = []
    for _ in range(2):
        t0 = perf_counter()
        parallel = run_study(config)
        parallel_walls.append(perf_counter() - t0)

    # serial, with one span per cell only
    cell_tracer = Tracer()
    with patched(cell_tracer, [(uf_simulation, "_run_cell", "simulation.run_cell")]):
        t0 = perf_counter()
        serial = run_study(serial_config)
        serial_wall = perf_counter() - t0
    cell_s = cell_tracer.durations("simulation.run_cell")

    # serial, fully traced, capturing every fit report
    tracer = Tracer()
    reports: list = []

    def record(fn):
        def recorded(data, *args, **kwargs):
            try:
                rep = fn(data, *args, **kwargs)
            except UnitFrechetError:
                reports.append((data.n, None))
                raise
            reports.append((data.n, rep))
            return rep
        return recorded

    targets = [
        (uf_simulation, "_run_cell", "simulation.run_cell"),
        (uf_simulation, "uf_sample", "core.uf_sample"),
        (uf_simulation, "fit_uf", "inference.fit_uf"),
        (uf_inference, "loglik_uf", "inference.loglik_uf"),
        (uf_inference, "score_uf", "inference.score_uf"),
        (uf_inference, "ks_test", "inference.ks_test"),
        (uf_inference, "residuals", "inference.residuals"),
    ]
    with patched(tracer, targets):
        # the recorder wraps the span wrapper; leaving the block restores
        # the original fit_uf
        uf_simulation.fit_uf = record(uf_simulation.fit_uf)
        t0 = perf_counter()
        traced = run_study(serial_config)
        traced_wall = perf_counter() - t0
    spans["study_replay"] = tracer.spans

    checks.check("trace study: serial cells identical to parallel cells",
                 _cells_key(serial.cells) == _cells_key(parallel.cells))
    checks.check("trace study: traced replay cells identical to parallel cells",
                 _cells_key(traced.cells) == _cells_key(parallel.cells))
    fits = {n: [r for m, r in reports if m == n] for n in config.sample_sizes}
    check_study_replay(checks, "trace study replay", parallel.cells, fits, frozen, seed)

    fit_rows = tracer.children("inference.fit_uf")
    fit_ms = sorted(d * 1e3 for d, _ in fit_rows)
    loglik_calls = [len(k.get("inference.loglik_uf", [])) for _, k in fit_rows]
    score_calls = [len(k.get("inference.score_uf", [])) for _, k in fit_rows]
    self_ms = [
        (d - sum(k.get("inference.loglik_uf", [])) - sum(k.get("inference.score_uf", []))) * 1e3
        for d, k in fit_rows
    ]
    report_ms = [
        (sum(k.get("inference.ks_test", [])) + sum(k.get("inference.residuals", []))) * 1e3
        for _, k in fit_rows
    ]
    done = [r for _, r in reports if r is not None]
    parallel_wall = median(parallel_walls)
    tail_index = max(0, len(fit_ms) - 11)

    out = Outcome(ops=len(reports))
    out.op_failed = sum(r is None for _, r in reports)
    out.nonconverged = sum(r is not None and not r.converged for _, r in reports)
    metrics = {
        "core.uf_sample_us_per_call": median(tracer.durations("core.uf_sample")) * 1e6,
        "inference.fit_uf_ms": median(fit_ms),
        "inference.fit_uf_tail_ms": fit_ms[tail_index],
        "inference.loglik_uf_calls_per_fit": sum(loglik_calls) / len(loglik_calls),
        "inference.score_uf_calls_per_fit": sum(score_calls) / len(score_calls),
        "inference.fit_self_ms": median(self_ms),
        "inference.report_ms": median(report_ms),
        "inference.iterations_per_fit": sum(r.iterations for r in done) / max(1, len(done)),
        "inference.converged_ratio": sum(r.converged for r in done) / max(1, len(reports)),
        "inference.boundary_ratio": sum(r.boundary_hit for r in done) / max(1, len(reports)),
        "simulation.parallel_efficiency": serial_wall / (parallel_wall * workers),
        "simulation.cell_imbalance": max(cell_s) / (sum(cell_s) / len(cell_s)),
        "simulation.worker_idle_s": max(0.0, workers * parallel_wall - sum(cell_s)),
        "trace.overhead_ratio": traced_wall / serial_wall,
    }
    for n, secs in zip(config.sample_sizes, cell_s):
        metrics[f"simulation.cell_s_n{n}"] = secs
    return metrics, out


def measure_kernels(seed: int, checks: Checks, frozen: dict, spans: dict) -> tuple[dict, Outcome]:
    inp = bulk_inputs(seed)
    n = len(inp.w)
    metrics = {
        "core.uf_pdf_ns_per_pt": per_call_s(uf_pdf, (inp.w, THETA), EVAL_REPS) / n * 1e9,
        "core.uf_cdf_ns_per_pt": per_call_s(uf_cdf, (inp.w, THETA), EVAL_REPS) / n * 1e9,
        "core.uf_quantile_ns_per_pt": per_call_s(uf_quantile, (inp.p, THETA), EVAL_REPS) / n * 1e9,
        "core.uf_sample_ns_per_draw":
            per_call_s(uf_sample, (THETA, BULK_N, inp.sample_seed), EVAL_REPS) / BULK_N * 1e9,
        "bivariate.biv_sample_ns_per_pair":
            per_call_s(biv_sample, (BIV, BULK_N, inp.biv_seed), BIV_REPS) / BULK_N * 1e9,
    }
    _, stats = biv_sample(BIV, BULK_N, inp.biv_seed, return_stats=True)
    metrics["bivariate.accept_ratio"] = BULK_N / (BULK_N + stats.resampled)

    small_data = DataSeries(tuple(uf_sample(THETA, 100, derive(seed, STUDY_TAG)).tolist()))
    values = bulk_fit_values(0)
    large_data = DataSeries(tuple(values.tolist()))
    for name, fn in (("loglik_uf", loglik_uf), ("score_uf", score_uf)):
        metrics[f"inference.{name}_us_n100"] = per_call_s(fn, (THETA, small_data), 300) * 1e6
        metrics[f"inference.{name}_us_n1e5"] = per_call_s(fn, (THETA, large_data), 20) * 1e6

    tracer = Tracer()
    targets = [
        (uf_inference, "loglik_uf", "inference.loglik_uf"),
        (uf_inference, "score_uf", "inference.score_uf"),
    ]
    with patched(tracer, targets):
        t0 = perf_counter()
        report = fit_large(values)
        metrics["inference.fit_uf_large_s"] = perf_counter() - t0
    spans["bulk_large_fit"] = tracer.spans
    metrics["inference.loglik_uf_calls_large"] = len(tracer.durations("inference.loglik_uf"))
    metrics["inference.score_uf_calls_large"] = len(tracer.durations("inference.score_uf"))
    ref = frozen.get("bulk", [])
    if ref:
        checks.check("trace bulk: large-fit loglik >= frozen",
                     report.loglik >= ref[0] - LOGLIK_SLACK, f"{report.loglik!r} vs {ref[0]!r}")
    if frozen.get("bulk_converged", [False])[0]:
        checks.check("trace bulk: large fit converges, as when frozen", report.converged)
    return metrics, Outcome(ops=1, nonconverged=int(not report.converged))


def _inproc_main(argv: list[str]) -> tuple[int, float]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        rc = uf_cli.main(argv)
        return rc, perf_counter() - t0


def measure_cli_inproc(seed: int, checks: Checks, spans: dict) -> dict:
    inp = cli_inputs(seed)
    metrics = {}
    for name in ("fit", "sample"):
        times, first = [], None
        for i in range(INPROC_REPS):
            outdir = fresh_dir("trace", f"{name}-{i}")
            rc, dt = _inproc_main(cli_argv(name, inp, str(outdir)))
            checks.check(f"trace cli {name}: in-process main returns 0", rc == 0)
            times.append(dt)
            first = first or outdir
        metrics[f"cli.main_{name}_inproc_s"] = median(times)
        if name == "fit":
            files = [f for f in first.iterdir() if f.is_file()]
            metrics["cli.files_written"] = len(files)
            metrics["cli.bytes_written"] = sum(f.stat().st_size for f in files)
    shutil.rmtree(OUT / "trace")

    tracer = Tracer()
    with patched(tracer, [(uf_cli, "estimate_cov", "bivariate.estimate_cov")]):
        for _ in range(INPROC_REPS):
            rc, _ = _inproc_main(cli_argv("moments", inp, ""))
            checks.check("trace cli moments: in-process main returns 0", rc == 0)
    spans["cli_moments"] = tracer.spans
    metrics["bivariate.estimate_cov_s"] = median(tracer.durations("bivariate.estimate_cov"))

    params = BivParams.of(CLI_MOMENTS)
    moments = frechet_moments(params).with_cov(
        estimate_cov(params, CLI_MOMENTS_MC_N, inp.moments_seed).value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics["moments.approx_var_us"] = per_call_s(approx_var, (moments,), 2000) * 1e6
    uefa = load_uefa()
    metrics["inference.fit_beta_us"] = per_call_s(fit_beta, (uefa,), 30) * 1e6
    metrics["inference.fit_kumaraswamy_us"] = per_call_s(fit_kumaraswamy, (uefa,), 30) * 1e6
    return metrics


def traced_run(seed: int, checks: Checks, frozen: dict) -> tuple[dict, Outcome]:
    """Every per-layer metric, {name: value}, and the operation counts."""
    spans: dict = {}
    metrics = measure_imports(checks)
    study, study_ops = measure_study(seed, checks, frozen, spans)
    kernels, kernel_ops = measure_kernels(seed, checks, frozen, spans)
    metrics.update(study)
    metrics.update(kernels)
    metrics.update(measure_cli_inproc(seed, checks, spans))
    OUT.mkdir(exist_ok=True)
    (OUT / "spans.json").write_text(json.dumps(
        {"fields": ["id", "parent", "name", "start", "end"], "spans": spans}))
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    checks.check("trace: every metric finite", not bad, ", ".join(bad))
    ops = Outcome(ops=study_ops.ops + kernel_ops.ops,
                  op_failed=study_ops.op_failed + kernel_ops.op_failed,
                  nonconverged=study_ops.nonconverged + kernel_ops.nonconverged)
    return {name: metrics[name] for name, _, _ in PER_LAYER}, ops

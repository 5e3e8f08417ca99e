"""Command-line front end.

Subcommands: fit, sample, simulate, quantile, cdf, moments. File-writing
commands (fit, sample, simulate) drop a ``manifest.json`` next to their
outputs recording the command, the resolved options, a SHA-256 digest of
the ingested input and the tool version, so a run can be reproduced and
checked bit for bit. The manifest carries no timestamp on purpose.

Exit codes:

    0   success
    2   usage error (bad flags, invalid parameter values, n <= 0)
    3   ingestion error (unreadable file, non-numeric rows, values
        outside (0, 1), empty input, invalid simulate config)
    4   numerical failure

Output directory resolution: ``--outdir`` flag, else the
``UNITFRECHET_OUTDIR`` environment variable, else the current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bivariate import BivParams, biv_sample, estimate_cov, ratio_transform
from .core import UNIT_OPEN, UfParams, uf_cdf, uf_quantile, uf_sample
from .datasets import load_uefa
from .errors import (
    DataError,
    DomainError,
    NumericalError,
    UnitFrechetError,
)
from .inference import (
    DataSeries,
    FitReport,
    describe,
    fit_beta,
    fit_kumaraswamy,
    fit_uf,
    model_handle,
    model_select,
)
from .moments import MomentInputs, approx_moment, approx_var, frechet_moments
from .simulation import SimConfig, run_study

FITTERS = {"uf": fit_uf, "beta": fit_beta, "kumaraswamy": fit_kumaraswamy}
PDF_GRID_SIZE = 401


def _fmt(x: float) -> str:
    """Full-precision decimal serialization; round-trips every double."""
    return "%.17g" % x


def _resolve_outdir(flag_value: Optional[str]) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("UNITFRECHET_OUTDIR")
    return Path(env) if env else Path(".")


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest_values(values) -> str:
    return _digest_text("\n".join(_fmt(float(v)) for v in values))


def _write_manifest(
    outdir: Path,
    command: str,
    options: dict,
    input_digest: str,
    master_seed: Optional[int] = None,
) -> None:
    doc = {
        "command": command,
        "options": options,
        "input_digest": input_digest,
        "tool_version": __version__,
        "master_seed": master_seed,
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _read_series(source: str, ratio: bool) -> DataSeries:
    """Read a one-column proportion file, or a two-column positive-pair
    file reduced to first/(first+second) by ``ratio_transform`` when
    ``ratio`` is set.

    Accepts headerless CSV or a single header row; blank lines are
    skipped. Every complaint carries the 1-based row number.
    """
    if source == "bundled:uefa":
        if ratio:
            raise DataError("bundled:uefa is univariate; --ratio does not apply")
        return load_uefa()
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc.strerror or exc}") from None
    ncols = 2 if ratio else 1
    values: list = []
    rows: list[int] = []  # the file row of each value
    seen_data = False
    for rowno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = [f.strip() for f in stripped.split(",")]
        try:
            nums = [float(f) for f in fields]
        except ValueError:
            if not seen_data:
                # single header row is allowed
                seen_data = True
                continue
            raise DataError(f"row {rowno}: non-numeric value {stripped!r}") from None
        seen_data = True
        if len(nums) != ncols:
            raise DataError(
                f"row {rowno}: expected {ncols} column(s), got {len(nums)}"
            )
        if ratio and not (nums[0] > 0.0 and nums[1] > 0.0):
            raise DataError(f"row {rowno}: ratio input needs strictly positive pairs")
        values.append(nums if ratio else nums[0])
        rows.append(rowno)
    if not values:
        raise DataError(f"no data in {source}")
    # x2/x1 can underflow to 0 or overflow, rounding a ratio to 1 or 0
    w = ratio_transform(values) if ratio else np.array(values)
    bad = ~UNIT_OPEN.test(w)
    if bad.any():
        i = int(bad.argmax())
        raise DataError(
            f"row {rows[i]}: value {float(w[i])!r} outside the open interval (0, 1)"
        )
    return DataSeries(tuple(w.tolist()))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _parse_models(csv_arg: str) -> list[str]:
    models = []
    for name in csv_arg.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name not in FITTERS:
            raise DomainError(
                f"unknown model {name!r}; choose from {', '.join(FITTERS)}"
            )
        if name not in models:
            models.append(name)
    if not models:
        raise DomainError("no models requested")
    return models


def _write_report_file(outdir: Path, report: FitReport) -> None:
    """Text block then JSON block, both in FitReport's field order; the
    residuals go to their own CSV."""
    doc = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(FitReport)
        if f.name != "residuals"
    }
    lines = []
    for key, value in doc.items():
        if key == "param_names":
            continue
        if key == "theta_hat":
            value = "  ".join(
                f"{name}={v:.10g}" for name, v in zip(report.param_names, value)
            )
        elif isinstance(value, bool):
            value = json.dumps(value)
        elif isinstance(value, float):
            value = f"{value:.10g}"
        lines.append(f"{key:<13} {value}")
    lines.append("")
    lines.append("--- machine readable ---")
    lines.append(json.dumps(doc, indent=2))
    (outdir / f"report_{report.model}.txt").write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then one line per row of cells: strings as they
    are, numbers through _fmt."""
    lines = [header]
    lines.extend(
        ",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows
    )
    path.write_text("\n".join(lines) + "\n")


def _pdf_grid() -> np.ndarray:
    # 401 interior points; endpoints excluded because several densities
    # here are unbounded at 0 or 1
    return np.arange(1, PDF_GRID_SIZE + 1) / (PDF_GRID_SIZE + 1.0)


def cmd_fit(args: argparse.Namespace) -> int:
    data = _read_series(args.input, args.ratio)
    models = _parse_models(args.models)
    outdir = _resolve_outdir(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    desc = describe(data)
    print("descriptives")
    for key, value in desc.items():
        shown = str(value) if key == "n" else f"{value:.6g}"
        print(f"  {key:<16} {shown}")

    reports = [FITTERS[name](data) for name in models]

    w = data.array
    grid = _pdf_grid()
    for report in reports:
        _write_report_file(outdir, report)
        _write_csv(
            outdir / f"residuals_{report.model}.csv",
            "index,w,residual",
            zip(range(1, data.n + 1), w, report.residuals),
        )
        if all(math.isfinite(v) for v in report.theta_hat):
            handle = model_handle(report.model, report.theta_hat)
            pdf_vals = np.asarray(handle.pdf(grid), dtype=float)
            cdf_vals = np.asarray(handle.cdf(grid), dtype=float)
            _write_csv(
                outdir / f"plot_pdf_{report.model}.csv",
                "w,pdf",
                zip(grid, pdf_vals),
            )
            _write_csv(
                outdir / f"plot_cdf_{report.model}.csv",
                "w,cdf",
                zip(grid, cdf_vals),
            )
            pit = np.sort(np.asarray(handle.cdf(np.sort(w)), dtype=float))
            theo = (np.arange(1, data.n + 1) - 0.5) / data.n
            _write_csv(
                outdir / f"plot_qq_{report.model}.csv",
                "theoretical,sample",
                zip(theo, pit),
            )

    nbins = int(np.ceil(np.log2(data.n))) + 1 if data.n > 1 else 1
    hist, edges = np.histogram(w, bins=nbins, density=True)
    _write_csv(
        outdir / "plot_hist.csv",
        "bin_left,bin_right,density",
        zip(edges[:-1], edges[1:], hist),
    )
    ecdf = np.arange(1, data.n + 1) / data.n
    _write_csv(
        outdir / "plot_ecdf.csv",
        "w,ecdf",
        zip(np.sort(w), ecdf),
    )

    if len(reports) >= 2:
        ranked = model_select(reports).ranked
    else:
        ranked = tuple(reports)
    _write_csv(
        outdir / "comparison.csv",
        "rank,model,k_params,loglik,aic,bic,ks_stat,ks_pvalue,converged,boundary_hit",
        (
            (i + 1, r.model, r.k_params, r.loglik, r.aic, r.bic, r.ks_stat,
             r.ks_pvalue, json.dumps(r.converged), json.dumps(r.boundary_hit))
            for i, r in enumerate(ranked)
        ),
    )

    print("model ranking (AIC, ties by BIC)")
    for i, r in enumerate(ranked):
        print(
            f"  {i + 1}. {r.model:<12} loglik={r.loglik:.6g}  "
            f"aic={r.aic:.6g}  bic={r.bic:.6g}"
        )

    _write_manifest(
        outdir,
        command="fit",
        options={
            "input": args.input,
            "models": ",".join(models),
            "ratio": bool(args.ratio),
        },
        input_digest=_digest_values(data.values),
    )
    print(f"wrote reports to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args: argparse.Namespace) -> int:
    # draw before touching the disk, so a rejected call leaves no --outdir
    if args.bivariate:
        if args.sigma1 is None or args.sigma2 is None:
            raise DomainError("--bivariate needs --sigma1 and --sigma2")
        if args.alpha is None or args.rho is None:
            raise DomainError("--bivariate needs --alpha and --rho")
        params = BivParams.of((args.sigma1, args.sigma2, args.alpha, args.rho))
        header, rows = "x1,x2", biv_sample(params, args.n, args.seed)
    else:
        if args.sigma is None or args.alpha is None or args.rho is None:
            raise DomainError("sample needs --sigma, --alpha and --rho")
        params = UfParams.of((args.sigma, args.alpha, args.rho))
        header, rows = "w", zip(uf_sample(params, args.n, args.seed))
    outdir = _resolve_outdir(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sample.csv"
    _write_csv(path, header, rows)
    options = {
        "bivariate": args.bivariate,
        **dataclasses.asdict(params),
        "n": args.n,
        "seed": args.seed,
    }
    digest_src = json.dumps(options, sort_keys=True)
    _write_manifest(
        outdir,
        command="sample",
        options=options,
        input_digest=_digest_text(digest_src),
        master_seed=args.seed,
    )
    print(f"wrote {path} (n={args.n})")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise DataError(
            f"cannot read {args.config}: {exc.strerror or exc}"
        ) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"config: invalid JSON: {exc}") from None
    try:
        config = SimConfig.of(raw)
    except DomainError as exc:
        raise DataError(str(exc)) from None

    report = run_study(config)
    outdir = _resolve_outdir(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    _write_csv(
        outdir / "simreport.csv",
        ",".join(next(report.iter_rows())),
        (row.values() for row in report.iter_rows()),
    )
    # CellResult's fields in order, the two counts under shorter keys
    keys = {"failure_count": "failures", "boundary_count": "boundary"}
    cells_doc = [
        {keys.get(k, k): v for k, v in dataclasses.asdict(c).items()}
        for c in report.cells
    ]
    (outdir / "cells.json").write_text(json.dumps(cells_doc, indent=2) + "\n")

    canonical = json.dumps(dataclasses.asdict(config), sort_keys=True)
    _write_manifest(
        outdir,
        command="simulate",
        options={"config": args.config},
        input_digest=_digest_text(canonical),
        master_seed=config.master_seed,
    )
    print(
        f"wrote {outdir / 'simreport.csv'} "
        f"({len(report.cells)} cells, {config.replications} replications each)"
    )
    return 0


# ---------------------------------------------------------------------------
# quantile / cdf / moments
# ---------------------------------------------------------------------------

def _theta_from_args(args: argparse.Namespace) -> UfParams:
    return UfParams.of((args.sigma, args.alpha, args.rho))


def cmd_quantile(args: argparse.Namespace) -> int:
    print(f"{uf_quantile(args.p, _theta_from_args(args)):.12g}")
    return 0


def cmd_cdf(args: argparse.Namespace) -> int:
    print(f"{uf_cdf(args.w, _theta_from_args(args)):.12g}")
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    """E(W) and Var(W), and E(W^p) with -p, from the margins or from
    direct inputs. ``approx_moment`` rejects inputs left incomplete,
    saying why (a margin with alpha <= 2 has no variance)."""
    margins_given = args.sigma1 is not None or args.sigma2 is not None
    direct_given = args.mu1 is not None or args.mu2 is not None
    if margins_given and direct_given:
        raise DomainError("give either --sigma1/--sigma2/--alpha/--rho or --mu1/--mu2, not both")
    if direct_given:
        if args.mu1 is None or args.mu2 is None:
            raise DomainError("direct input needs both --mu1 and --mu2")
        inputs = MomentInputs(
            mu1=args.mu1, mu2=args.mu2,
            var1=args.var1, var2=args.var2, cov=args.cov,
        )
    else:
        if args.sigma1 is None or args.sigma2 is None or args.alpha is None:
            raise DomainError("margin input needs --sigma1, --sigma2 and --alpha")
        rho = args.rho if args.rho is not None else 0.0
        params = BivParams.of((args.sigma1, args.sigma2, args.alpha, rho))
        inputs = frechet_moments(params)
        if args.cov is not None:
            inputs = inputs.with_cov(args.cov)
        elif rho == 0.0:
            inputs = inputs.with_cov(0.0)
        elif inputs.var1 is not None:
            if args.seed is None:
                raise DomainError(
                    "rho > 0 without --cov needs Monte Carlo; pass --seed "
                    "(and optionally --mc-n)"
                )
            est = estimate_cov(params, args.mc_n, args.seed)
            inputs = inputs.with_cov(est.value)
            print(f"cov_estimate = {est.value:.12g} (se {est.se:.3g}, n={est.n})",
                  file=sys.stderr)
    mean = approx_moment(1.0, inputs)
    var = approx_var(inputs)
    print(f"E(W) = {mean:.12g}")
    print(f"Var(W) = {var:.12g}")
    if args.p is not None:
        print(f"E(W^{args.p:g}) = {approx_moment(args.p, inputs):.12g}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitfrechet",
        description="UF distribution: fitting, sampling, moments, simulation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit models to a proportion sample")
    p_fit.add_argument("input", help='data file or "bundled:uefa"')
    p_fit.add_argument(
        "--models", default="uf,beta,kumaraswamy",
        help="comma-separated subset of uf,beta,kumaraswamy",
    )
    p_fit.add_argument(
        "--ratio", action="store_true",
        help="input has two positive columns; analyze first/(first+second)",
    )
    p_fit.add_argument("--outdir", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sample = sub.add_parser("sample", help="draw a reproducible sample")
    p_sample.add_argument("--sigma", type=float, default=None)
    p_sample.add_argument("--alpha", type=float, default=None)
    p_sample.add_argument("--rho", type=float, default=None)
    p_sample.add_argument("--bivariate", action="store_true")
    p_sample.add_argument("--sigma1", type=float, default=None)
    p_sample.add_argument("--sigma2", type=float, default=None)
    p_sample.add_argument("-n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--outdir", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo estimator study")
    p_sim.add_argument("--config", required=True, help="JSON config file")
    p_sim.add_argument("--outdir", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_q = sub.add_parser("quantile", help="evaluate the quantile function")
    p_q.add_argument("-p", type=float, required=True)
    p_q.add_argument("--sigma", type=float, required=True)
    p_q.add_argument("--alpha", type=float, required=True)
    p_q.add_argument("--rho", type=float, required=True)
    p_q.set_defaults(func=cmd_quantile)

    p_c = sub.add_parser("cdf", help="evaluate the CDF")
    p_c.add_argument("-w", type=float, required=True)
    p_c.add_argument("--sigma", type=float, required=True)
    p_c.add_argument("--alpha", type=float, required=True)
    p_c.add_argument("--rho", type=float, required=True)
    p_c.set_defaults(func=cmd_cdf)

    p_m = sub.add_parser("moments", help="approximate E(W) and Var(W)")
    p_m.add_argument("--sigma1", type=float, default=None)
    p_m.add_argument("--sigma2", type=float, default=None)
    p_m.add_argument("--alpha", type=float, default=None)
    p_m.add_argument("--rho", type=float, default=None)
    p_m.add_argument("--mu1", type=float, default=None)
    p_m.add_argument("--mu2", type=float, default=None)
    p_m.add_argument("--var1", type=float, default=None)
    p_m.add_argument("--var2", type=float, default=None)
    p_m.add_argument("--cov", type=float, default=None)
    p_m.add_argument("--mc-n", type=int, default=100000, dest="mc_n")
    p_m.add_argument("--seed", type=int, default=None)
    p_m.add_argument("-p", type=float, default=None,
                     help="also print the approximate p-th moment")
    p_m.set_defaults(func=cmd_moments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnitFrechetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DataError) else 4 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())

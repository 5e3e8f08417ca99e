"""Command-line front end.

Subcommands: fit, sample, simulate, quantile, cdf, moments. File-writing
commands (fit, sample, simulate) drop a ``manifest.json`` next to their
outputs recording the command, the resolved options, a SHA-256 digest of
the ingested input and the tool version, so a run can be reproduced and
checked bit for bit. The manifest carries no timestamp on purpose.

Exit codes:

    0   success
    2   usage error: bad flags, a missing flag or one of the other input
        mode, invalid parameter values, n <= 0, an output directory that
        cannot be made, an output file that cannot be written
    3   input error: unreadable, empty or malformed data (non-numeric
        rows, values outside (0, 1)), an invalid simulate config
    4   numerical failure during evaluation

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
    MODELS,
    DataSeries,
    FitReport,
    describe,
    model_handle,
    model_key,
    model_select,
)
from .moments import MomentInputs, approx_moment, approx_var, frechet_moments
from .simulation import SimConfig, run_study

PDF_GRID_SIZE = 401


def _fmt(x: float) -> str:
    """Full-precision decimal serialization; round-trips every double."""
    return "%.17g" % x


def _outdir(flag_value: Optional[str]) -> Path:
    """The output directory, made if missing; one that cannot be made is
    a usage error naming the path."""
    outdir = Path(flag_value or os.environ.get("UNITFRECHET_OUTDIR") or ".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(
            f"cannot make output directory {outdir}: {exc.strerror or exc}"
        ) from None
    return outdir


def _write(path: Path, text: str) -> None:
    """Write one output file; one that cannot be written is a usage
    error naming the path."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


# The law's flags, each declared once: the input modes that need the
# flag, then those that may leave it out. A parser takes the flags of
# its modes, and _law_input checks a call against one mode.
_LAW_FLAGS = {
    "--sigma": ("UF", ""),
    "--sigma1": ("bivariate margin", ""),
    "--sigma2": ("bivariate margin", ""),
    "--alpha": ("UF bivariate margin", ""),
    "--rho": ("UF bivariate", "margin"),
    "--mu1": ("direct", ""),
    "--mu2": ("direct", ""),
    "--var1": ("", "direct"),
    "--var2": ("", "direct"),
}


def _add_law_flags(parser: argparse.ArgumentParser, *modes: str) -> None:
    for flag, (needs, takes) in _LAW_FLAGS.items():
        if set(modes) & set(f"{needs} {takes}".split()):
            parser.add_argument(flag, type=float)


def _law_input(args: argparse.Namespace, mode: str) -> tuple:
    """The values of ``mode``'s flags in table order, None where left
    out. One error names every flag the mode needs and lacks and every
    law flag given that it does not read."""
    values, missing, stray = [], [], []
    for flag, (needs, takes) in _LAW_FLAGS.items():
        value = getattr(args, flag[2:], None)
        if mode in f"{needs} {takes}".split():
            values.append(value)
            if value is None and mode in needs.split():
                missing.append(flag)
        elif value is not None:
            stray.append(flag)
    clauses = [f"{verb} {', '.join(flags)}"
               for verb, flags in (("needs", missing), ("does not take", stray)) if flags]
    if clauses:
        raise DomainError(f"{mode} input " + " and ".join(clauses))
    return tuple(values)


def _write_manifest(outdir: Path, command: str, options: dict, digested: str,
                    master_seed: Optional[int] = None) -> None:
    """Write manifest.json: the command, its options, the SHA-256 of
    ``digested`` (the ingested input), the tool version and the seed."""
    doc = {
        "command": command,
        "options": options,
        "input_digest": hashlib.sha256(digested.encode("utf-8")).hexdigest(),
        "tool_version": __version__,
        "master_seed": master_seed,
    }
    _write(outdir / "manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    return DataSeries(w)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _parse_models(csv_arg: str) -> list[str]:
    """The requested model names, case folded, each once in first-mention
    order; model_key rejects any other name."""
    names = [model_key(name.strip().lower()) for name in csv_arg.split(",") if name.strip()]
    if not names:
        raise DomainError("no models requested")
    return list(dict.fromkeys(names))


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
    _write(outdir / f"report_{report.model}.txt", "\n".join(lines) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then one line per row of cells: strings as they
    are, numbers through _fmt."""
    lines = [header]
    lines.extend(
        ",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows
    )
    _write(path, "\n".join(lines) + "\n")


def cmd_fit(args: argparse.Namespace) -> int:
    data = _read_series(args.input, args.ratio)
    models = _parse_models(args.models)
    outdir = _outdir(args.outdir)

    desc = describe(data)
    print("descriptives")
    for key, value in desc.items():
        shown = str(value) if key == "n" else f"{value:.6g}"
        print(f"  {key:<16} {shown}")

    reports = [MODELS[name].fit(data) for name in models]

    sorted_w = np.sort(data.array)
    # interior points only: several densities here are unbounded at 0 or 1
    grid = np.arange(1, PDF_GRID_SIZE + 1) / (PDF_GRID_SIZE + 1.0)
    theo = (np.arange(1, data.n + 1) - 0.5) / data.n
    for report in reports:
        _write_report_file(outdir, report)
        _write_csv(
            outdir / f"residuals_{report.model}.csv",
            "index,w,residual",
            zip(range(1, data.n + 1), data.array, report.residuals),
        )
        if math.isfinite(report.loglik) and all(map(math.isfinite, report.theta_hat)):
            handle = model_handle(report.model, report.theta_hat)
            for kind, header, x, y in (
                ("pdf", "w,pdf", grid, handle.pdf(grid)),
                ("cdf", "w,cdf", grid, handle.cdf(grid)),
                ("qq", "theoretical,sample", theo, np.sort(handle.cdf(sorted_w))),
            ):
                _write_csv(outdir / f"plot_{kind}_{report.model}.csv", header,
                           zip(x, np.asarray(y, dtype=float)))

    nbins = int(np.ceil(np.log2(data.n))) + 1 if data.n > 1 else 1
    # a range a few doubles wide holds fewer finite-sized bins; one
    # always fits
    for bins in range(nbins, 0, -1):
        try:
            hist, edges = np.histogram(sorted_w, bins=bins, density=True)
            break
        except ValueError:
            continue
    _write_csv(
        outdir / "plot_hist.csv",
        "bin_left,bin_right,density",
        zip(edges[:-1], edges[1:], hist),
    )
    ecdf = np.arange(1, data.n + 1) / data.n
    _write_csv(outdir / "plot_ecdf.csv", "w,ecdf", zip(sorted_w, ecdf))

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

    options = {"input": args.input, "models": ",".join(models), "ratio": bool(args.ratio)}
    _write_manifest(outdir, "fit", options, "\n".join(_fmt(v) for v in data.array))
    print(f"wrote reports to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args: argparse.Namespace) -> int:
    # draw before touching the disk, so a rejected call leaves no --outdir
    values = _law_input(args, "bivariate" if args.bivariate else "UF")
    if args.bivariate:
        params = BivParams.of(values)
        header, rows = "x1,x2", biv_sample(params, args.n, args.seed)
    else:
        params = UfParams.of(values)
        header, rows = "w", zip(uf_sample(params, args.n, args.seed))
    outdir = _outdir(args.outdir)
    path = outdir / "sample.csv"
    _write_csv(path, header, rows)
    options = {
        "bivariate": args.bivariate,
        **dataclasses.asdict(params),
        "n": args.n,
        "seed": args.seed,
    }
    _write_manifest(outdir, "sample", options, json.dumps(options, sort_keys=True),
                    master_seed=args.seed)
    print(f"wrote {path} (n={args.n})")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        config = SimConfig.of(json.loads(Path(args.config).read_text()))
    except OSError as exc:
        raise DataError(f"cannot read {args.config}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"config: invalid JSON: {exc}") from None
    except DomainError as exc:
        raise DataError(str(exc)) from None

    outdir = _outdir(args.outdir)  # before the study, which can run for hours
    report = run_study(config)

    _write_csv(
        outdir / "simreport.csv",
        ",".join(next(report.iter_rows())),
        (row.values() for row in report.iter_rows()),
    )
    _write(outdir / "cells.json", json.dumps(list(report.iter_cells()), indent=2) + "\n")

    canonical = json.dumps(dataclasses.asdict(config), sort_keys=True)
    _write_manifest(outdir, "simulate", {"config": args.config}, canonical,
                    master_seed=config.master_seed)
    print(
        f"wrote {outdir / 'simreport.csv'} "
        f"({len(report.cells)} cells, {config.replications} replications each)"
    )
    return 0


# ---------------------------------------------------------------------------
# quantile / cdf / moments
# ---------------------------------------------------------------------------

def cmd_quantile(args: argparse.Namespace) -> int:
    print(f"{uf_quantile(args.p, _law_input(args, 'UF')):.12g}")
    return 0


def cmd_cdf(args: argparse.Namespace) -> int:
    print(f"{uf_cdf(args.w, _law_input(args, 'UF')):.12g}")
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    """E(W) and Var(W), and E(W^p) with -p, from the margins or, when
    --mu1 or --mu2 is given, from direct inputs. ``approx_moment``
    rejects inputs left incomplete, saying why (a margin with
    alpha <= 2 has no variance)."""
    if args.mu1 is not None or args.mu2 is not None:
        inputs = MomentInputs(*_law_input(args, "direct"), cov=args.cov)
    else:
        sigma1, sigma2, alpha, rho = _law_input(args, "margin")
        rho = 0.0 if rho is None else rho
        params = BivParams.of((sigma1, sigma2, alpha, rho))
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
    # every value is formed before any is printed, so an error prints none
    lines = [f"E(W) = {approx_moment(1.0, inputs):.12g}",
             f"Var(W) = {approx_var(inputs):.12g}"]
    if args.p is not None:
        lines.append(f"E(W^{args.p:g}) = {approx_moment(args.p, inputs):.12g}")
    print("\n".join(lines))
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
        "--models", default=",".join(MODELS),
        help=f"comma-separated subset of {','.join(MODELS)}",
    )
    p_fit.add_argument(
        "--ratio", action="store_true",
        help="input has two positive columns; analyze first/(first+second)",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_sample = sub.add_parser("sample", help="draw a reproducible sample")
    p_sample.add_argument("--bivariate", action="store_true")
    _add_law_flags(p_sample, "UF", "bivariate")
    p_sample.add_argument("-n", type=int, required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo estimator study")
    p_sim.add_argument("--config", required=True, help="JSON config file")
    p_sim.set_defaults(func=cmd_simulate)

    p_q = sub.add_parser("quantile", help="evaluate the quantile function")
    p_q.add_argument("-p", type=float, required=True)
    _add_law_flags(p_q, "UF")
    p_q.set_defaults(func=cmd_quantile)

    p_c = sub.add_parser("cdf", help="evaluate the CDF")
    p_c.add_argument("-w", type=float, required=True)
    _add_law_flags(p_c, "UF")
    p_c.set_defaults(func=cmd_cdf)

    p_m = sub.add_parser("moments", help="approximate E(W) and Var(W)")
    _add_law_flags(p_m, "margin", "direct")
    p_m.add_argument("--cov", type=float)
    p_m.add_argument("--mc-n", type=int, default=100000)
    p_m.add_argument("-p", type=float, help="also print the approximate p-th moment")
    p_m.set_defaults(func=cmd_moments)

    # flags that several commands take, declared once
    for p, seed_required in ((p_sample, True), (p_m, False)):
        p.add_argument("--seed", type=int, required=seed_required)
    for p in (p_fit, p_sample, p_sim):
        p.add_argument("--outdir")

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

"""unitfrechet benchmark.

    python3 perfbench/run.py --workload {study,bulk,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seconds S

Run from the root of a checkout; the package is imported from its
``src/``. With ``--trace 0`` a run measures one workload untraced and
reports the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` it
makes the traced run and reports every per-layer metric. ``all`` runs
the three workloads in turn and reports every issue-level metric by
name. The last line of standard output is one JSON object; the lines
before it, prefixed ``#``, give the detail, and a copy of everything
goes to ``.perfbench_out/``. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter

from common import (
    OUT,
    SRC,
    Checks,
    env_block,
    load_frozen,
    median,
    peak_rss_mb,
    run_timed,
    src_present,
    subprocess_env,
    summary,
)

WORKLOAD_NAMES = ("study", "bulk", "cli")
SETUP_WARMUPS = 1
SETUP_PROBES = 5


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports the package
    and generates the workload's inputs (after one untimed warm-up, which
    also writes the bytecode caches)."""
    cmd = [sys.executable, __file__, "--probe-setup", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for i in range(SETUP_WARMUPS + SETUP_PROBES):
        proc, dt = run_timed(cmd, 120, env=subprocess_env(), stdout=subprocess.DEVNULL)
        proc.check_returncode()
        if i >= SETUP_WARMUPS:
            times.append(dt)
    return median(times)


def probe_setup(workload: str, seed: int) -> None:
    import workloads

    workloads.WORKLOADS[workload][0](seed)
    if workload == "bulk":
        workloads.bulk_fit_values(0)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> dict:
    import workloads

    checks = Checks()
    frozen = load_frozen()
    t_start = perf_counter()
    details: dict = {"env": env_block(args.seed), "workload": args.workload,
                     "trace": args.trace}
    if args.trace:
        import traced

        values, outcome = traced.traced_run(args.seed, checks, frozen)
        metrics = {name: {"value": v, "unit": traced.UNITS[name]} for name, v in values.items()}
    else:
        setup_s = measure_setup(args.workload, args.seed)
        outcome = workloads.WORKLOADS[args.workload][1](args.seed, args.seconds, checks, frozen)
        metrics = {
            "round_s": {"value": median(outcome.round_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        details["rounds"] = len(outcome.round_s)
        details["round_s"] = dict(summary(outcome.round_s), values=outcome.round_s)
        details["named"] = {
            name: dict(summary(vals, higher), unit=unit, values=vals)
            for name, (unit, vals, higher) in outcome.named.items()
        }
    attempted = outcome.ops + len(checks.items)
    failed = outcome.op_failed + len(checks.failures)
    details.update(
        wall_s=perf_counter() - t_start,
        operations=outcome.ops,
        operations_failed=outcome.op_failed,
        fits_nonconverged=outcome.nonconverged,
        checks=len(checks.items),
        check_failures=[f"{name}: {detail}" for name, _, detail in checks.failures],
        fail_ratio=failed / attempted,
    )
    result = {"correct": not checks.failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details["result"] = result
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")

    print(f"# env {json.dumps(details['env'])}")
    if not args.trace:
        print(f"# {args.workload}: {details['rounds']} rounds, "
              f"{outcome.ops} operations, {details['wall_s']:.1f} s wall")
        for name, s in details["named"].items():
            tail = (f"  p{s['tail_pct']:g} {_fmt(s['tail'])}" if "tail" in s else "")
            print(f"# {name:<24} median {_fmt(s['median'])} {s['unit']}{tail}  n={s['count']}")
    for name, m in metrics.items():
        print(f"# {name:<40} {_fmt(m['value'])} {m['unit']}")
    print(f"# fail_ratio {failed}/{attempted}, non-converged fits {outcome.nonconverged}")
    for line in details["check_failures"]:
        print(f"# FAILED {line}")
    return result


def run_all(args) -> dict:
    """The three workloads in turn, each in its own interpreter; every
    issue-level end-to-end metric by name."""
    metrics: dict = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details = json.loads(
            (OUT / f"result_{workload}_seed{args.seed}_trace0.json").read_text())
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name in ("setup_s", "peak_rss_mb", "round_s"):
            metrics[f"{workload}.{name}"] = result["metrics"][name]
        metrics[f"{workload}.fail_ratio"] = {"value": details["fail_ratio"], "unit": "ratio"}
        for name, s in details["named"].items():
            metrics[name] = {"value": s["median"], "unit": s["unit"]}
            if "tail" in s:
                metrics[f"{name}.p{s['tail_pct']:g}"] = {"value": s["tail"], "unit": s["unit"]}
            print(f"# {name:<24} median {_fmt(s['median'])} {s['unit']}  n={s['count']}")
        print(f"# {workload}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} " + " ".join(
                  f"{k}={_fmt(v['value'])}{v['unit']}" for k, v in result["metrics"].items()))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all" and args.trace:
        parser.error("the traced run is made per workload, not with --workload all")
    if not src_present():
        print(f"error: no package source at {SRC}; run from a unitfrechet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

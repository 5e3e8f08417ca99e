"""Shared helpers: paths, seeds, summaries, correctness checks, env block."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"

# Fitted log-likelihoods may not fall below their frozen value by more
# than this: a speedup must not buy a worse answer.
LOGLIK_SLACK = 1e-9

# Workload tags mixed into every derived seed, so the workloads never
# share a random stream for the same --seed.
STUDY_TAG, BULK_TAG, CLI_TAG = 1, 2, 3


def src_present() -> bool:
    return (SRC / "unitfrechet" / "__init__.py").is_file()


def subprocess_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_timed(cmd: list[str], timeout: float, **kwargs):
    """Run ``cmd`` to completion: (CompletedProcess, wall seconds from
    start to reaping). A timer kills a child that outlives ``timeout``.
    subprocess's own timeout would poll for the exit in sleeps of up to
    50 ms, which quantizes the measured times."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err), perf_counter() - t0


def derive(seed: int, *keys: int) -> int:
    """A 62-bit seed that depends only on (seed, keys)."""
    ss = np.random.SeedSequence([int(seed), *(int(k) for k in keys)])
    return int(ss.generate_state(1, np.uint64)[0] >> 2)


def fresh_dir(*parts: str) -> Path:
    """An empty directory under the benchmark's output tree."""
    path = OUT.joinpath(*parts)
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def summary(values, higher_better: bool = False) -> dict:
    """Median, sample count and the tail: the highest percentile with at
    least ten samples beyond it on the worse side (above for times, below
    for rates). The tail is left out below 21 samples, where it would not
    lie beyond the median."""
    s = sorted(values)
    n = len(s)
    out = {"median": median(s), "count": n}
    if n >= 21:
        out["tail"] = s[10] if higher_better else s[n - 11]
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Checks:
    """Correctness verdicts of one run. Each check is one attempted unit
    in the reported counts; a check that fails is one failed unit."""

    def __init__(self) -> None:
        self.items: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failures(self) -> list[tuple[str, bool, str]]:
        return [item for item in self.items if not item[1]]


def load_frozen() -> dict:
    try:
        return json.loads(FROZEN_PATH.read_text())
    except FileNotFoundError:
        return {}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git, so
    nothing outside the checkout is searched."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_block(seed: int) -> dict:
    import scipy  # here, so that the setup probe never imports scipy itself

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "argv": sys.argv[1:],
    }

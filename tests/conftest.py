import sys

import numpy as np
import pytest

from unitfrechet import DataSeries, core, load_uefa


@pytest.fixture(scope="session")
def uefa() -> DataSeries:
    return load_uefa()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


@pytest.fixture()
def whole(monkeypatch):
    """``whole(fn, *args)`` calls fn with the block size raised to 2^40,
    so every input is one block: the whole-array evaluation that blocked
    results must equal bit for bit."""
    def call(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(core, "BLOCK_ELEMENTS", 2**40)
            return fn(*args, **kwargs)
    return call


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdicts where capture cannot hide them."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

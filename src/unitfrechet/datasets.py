"""Bundled example data."""

from __future__ import annotations

from importlib import resources

from .inference import DataSeries

__all__ = ["load_uefa"]


def load_uefa() -> DataSeries:
    """The bundled football proportions sample.

    37 medium pass completion proportions (successful passes of 14 to
    18 meters, as a fraction of attempts) from UEFA Champions League
    matches in the 2004/05 and 2005/06 seasons, recorded to three
    decimals. Addressable on the command line as ``bundled:uefa``.
    """
    text = (
        resources.files("unitfrechet")
        .joinpath("data/uefa_pass_completion.csv")
        .read_text(encoding="utf-8")
    )
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return DataSeries(values=lines[1:])  # skip the header row

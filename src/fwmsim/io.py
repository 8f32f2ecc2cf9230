"""Deterministic CSV/JSON writers.

Every output file starts with a comment line carrying the tool version and
the resolved-config hash; no timestamps, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import os

from . import __version__

_ROWS_PER_WRITE = 32    # rows per % call; 128 raised frame-batch peak RSS by ~0.5 MB


def meta_line(cfg_hash: str) -> str:
    return f"# fwmsim {__version__} config={cfg_hash}"


def format_frequency(value_ghz: float) -> str:
    """Quote small frequencies in MHz, larger ones in GHz."""
    if abs(value_ghz) < 0.1:
        return f"{value_ghz * 1e3:.6g} MHz"
    return f"{value_ghz:.6g} GHz"


def write_csv(path: str, header: list[str], rows, cfg_hash: str) -> None:
    """One line per row of the 2-D float array ``rows``, each value as
    ``%.12g``; up to _ROWS_PER_WRITE rows are formatted and written at a time."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    line = ",".join(["%.12g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(meta_line(cfg_hash) + "\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _ROWS_PER_WRITE):
            block = rows[start:start + _ROWS_PER_WRITE]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _finite(value):
    """``value`` with every non-finite float, also in nested dicts and
    lists, replaced by None: strict JSON has no NaN or Infinity."""
    if isinstance(value, float):
        return value if abs(value) < float("inf") else None  # False for NaN too
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def write_json(path: str, payload: dict, cfg_hash: str) -> None:
    """Write ``payload`` under a version and config-hash header as strict
    JSON; a non-finite number (an infinite gate time at chi = 0) is null."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    doc = {"version": __version__, "config_hash": cfg_hash}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(_finite(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

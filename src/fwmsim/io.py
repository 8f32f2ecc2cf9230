"""Deterministic CSV/JSON writers.

Every output file starts with a comment line carrying the tool version and
the resolved-config hash; no timestamps, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import os

from . import __version__


def meta_line(cfg_hash: str) -> str:
    return f"# fwmsim {__version__} config={cfg_hash}"


def format_frequency(value_ghz: float) -> str:
    """Quote small frequencies in MHz, larger ones in GHz."""
    if abs(value_ghz) < 0.1:
        return f"{value_ghz * 1e3:.6g} MHz"
    return f"{value_ghz:.6g} GHz"


def write_csv(path: str, header: list[str], rows, cfg_hash: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(meta_line(cfg_hash) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.12g" % v for v in row) + "\n")


def write_json(path: str, payload: dict, cfg_hash: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    doc = {"version": __version__, "config_hash": cfg_hash}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

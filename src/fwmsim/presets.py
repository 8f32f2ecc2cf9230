"""Bundled reference operating points, one per scheme: the validated working
points of the tests and the README, kept once as the config documents
``configs/<scheme name>.json`` of this package and read through
``config.resolve`` like any CLI config.
"""

from __future__ import annotations

import json
from importlib import resources

from .schemes import Scheme


def config_document(scheme: Scheme) -> dict:
    """A fresh dict of the shipped config document of ``scheme``."""
    path = resources.files(__package__) / "configs" / f"{scheme.name.lower()}.json"
    return json.loads(path.read_text())


def operating_point(scheme: Scheme) -> dict:
    """``{"scheme", "params", "drives", "detunings"}`` of the shipped config."""
    from .config import resolve  # config imports optimize, which imports this module
    cfg = resolve(config_document(scheme))
    return {"scheme": cfg.scheme, "params": cfg.params, "drives": cfg.drives,
            "detunings": cfg.detunings}


def cross_kerr_point() -> dict:
    """Cross-Kerr working point: no drives, pi controlled phase in ~79 ns."""
    return operating_point(Scheme.CROSS_KERR)

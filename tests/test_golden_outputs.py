"""Byte-level pins of the physics numbers.

``derive.json`` of the four shipped configs, with and without the
dressed-energy oracle, the frame matrices of every preset operating point,
and the files of short ``run``, ``optimize`` and ``sweep`` jobs are pinned
by sha256. A change in the last bit of a
closed form, a detuning, a dispersive entry, a note or a frame entry breaks
one of these digests. A change that is meant to move a number must update
the digest and say why the new value is more correct.

The config hash in each output header covers ``outputs.dir``, so every
command is run with the same relative ``--out`` from a fresh working
directory.
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from fwmsim.cli import main
from fwmsim.operators import FockCutoffs
from fwmsim.presets import operating_point
from fwmsim.schemes import Scheme, build_scheme_frame

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")

DERIVE_SHA256 = {
    "beam_splitter.json": "a287822e45a0f941f92d42c8c2b68da05c91ee3d5dbdc397ecdf460077c2d5ff",
    "cross_kerr.json": "3ff260c08b249fe85afd987254d9107167ba22b7b900091164d4b3a777c0f73a",
    "single_mode_squeeze.json":
        "3b67637b97571406036fb393aafdbd2f432dd8489aff50e82a1f79a235f292ef",
    "two_mode_squeeze.json": "91472f4aae7df5bbb40099855e542108438008bf12d556663a5412c38722b3a9",
}

# derive --oracle adds the dressed-energy cross-check to derive.json
ORACLE_SHA256 = {
    "beam_splitter.json": "4ab187a17758756d5f99f38138009e33fcb18532ecd729b7dd3f8fdb8759aa6b",
    "cross_kerr.json": "e96b1f2a4b2f9bdb026e12c7126f1cd56010bc7e29914f8efe4bfd768ca4bef7",
    "single_mode_squeeze.json":
        "b3f783f6ce5b0c73cac374a0a8eaa5293904dc77113348e9a9289010e9ae96ab",
    "two_mode_squeeze.json": "f55c9aff459bb0b0316271451acf022c08352411cf4d39ed13f1fa216c18e715",
}

# per preset scheme at cutoffs (2, 2): h_i0, v_static, and (matrix, frequency)
# of each oscillating term
FRAME_SHA256 = {
    Scheme.BEAM_SPLITTER: (
        "10b13cf791429829b376f081458a15a9f576e349ce29003a22fbce9d230a9352",
        "88d5499fb644ae8a00f64d0779348cf77f839991a05ac871619fecb350f4e116",
        (("79874e559058d31d73481e1ed94ccef39148bc95492fd6fcd5e89865e7822314",
          -0.0011872653350578338),)),
    Scheme.CROSS_KERR: (
        "a24e70b793ac605c2c3438f965f2e1918d2c99ff013ca944ac280545bcde7a56",
        "66c1b5a8cc0481f91bdb6eab7658e7cc9fe755babe3dd900a1eebe75434984ae",
        ()),
    Scheme.TWO_MODE_SQUEEZE: (
        "ee7e48b33dc50dd4ddb252a350b2bc40c053f26780c2562cf71484b6dda0aa4d",
        "27543f976f8015b70309e462a60384574532c8b97487c108a839ba181662cc7d",
        (("42300197b443c683c9d9e6f22c1158675361d2b75d8a9a61643ee3b456472f04",
          0.010040841250216963),)),
    Scheme.SINGLE_MODE_SQUEEZE: (
        "6dc74d71d2cf9cc119dbbf099b2e7c3b760de0f0d68d115103722779e14d60fd",
        "fd86d601367e0ddc321c75de9b4698c63feb80c0c19a8689a36bef43d9ab6041",
        (("a5da650361a4fe4e2e0ea13115dd09788ad8e987760e34652ebdfc1117054cb2",
          0.03762072434996809),)),
}


def _sha(matrix: np.ndarray) -> str:
    # + 0.0 turns -0.0 into 0.0, so signed zeros do not count
    return hashlib.sha256(np.ascontiguousarray(matrix + 0.0).tobytes()).hexdigest()


def _derive_digest(name, tmp_path, monkeypatch, *flags):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["derive", "--config", os.path.join(CONFIG_DIR, name),
                     "--out", "out", *flags]) == 0
    return hashlib.sha256((tmp_path / "out" / "derive.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DERIVE_SHA256))
def test_derive_json_bytes(name, tmp_path, monkeypatch):
    assert _derive_digest(name, tmp_path, monkeypatch) == DERIVE_SHA256[name]


@pytest.mark.parametrize("name", sorted(ORACLE_SHA256))
def test_derive_oracle_json_bytes(name, tmp_path, monkeypatch):
    assert _derive_digest(name, tmp_path, monkeypatch, "--oracle") == ORACLE_SHA256[name]


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_frame_matrix_bytes(scheme):
    point = operating_point(scheme)
    frame, _ = build_scheme_frame(point["params"], scheme, point["drives"],
                                  FockCutoffs(2, 2), detunings=point["detunings"])
    h_i0, v_static, osc = FRAME_SHA256[scheme]
    assert _sha(frame.h_i0) == h_i0
    assert _sha(frame.v_static) == v_static
    assert tuple((_sha(m), nu) for m, nu in frame.osc_terms) == osc


_LAB_SHORT = {"frame": "lab", "duration_ns": 0.005, "points": 11}

# case -> (config, command, extra flags, replaced config sections,
#          {output file: sha256})
JOB_SHA256 = {
    "run-interaction-bm": ("beam_splitter.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "a1c209be17fd957ff9e699a08eff4a4536cd7582e669602a6685da4b1f80334c",
        "trajectory.csv": "596cfd5a0995d678f4513bc7985943cd87b113fda529ba19d14656f893be9adf"}),
    "run-interaction-ck": ("cross_kerr.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "c775e5916de079d46dd7140de8adab7ceaaba997672e0f880119a2e3814b8c9d",
        "trajectory.csv": "3cbdfae13e582aa35318d38ed7a2502f15f0b527fb02ec45c2dc2552b7aa46f9"}),
    "run-interaction-sq1": ("single_mode_squeeze.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "a03ca493a429208bf433f3c4305897c8f71c0f58f22c0c179a092a87582625d1",
        "trajectory.csv": "cf3be8f075e5f15c252c54253d1cac5adf4ce3b584c95e071af1a2222eda42c8"}),
    "run-interaction-sq2": ("two_mode_squeeze.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "6df928957ea26c25e928061542759b8a6b7e8e970f3696155c2c601a231a3786",
        "trajectory.csv": "5580103172ccd8bf02bed9ede411f99e90756bb11518129425d9684b584f3617"}),
    "run-lab-bm": ("beam_splitter.json", "run", (), {"simulation": _LAB_SHORT}, {
        "summary.json": "155287919c0bebc829e0e7f85399e7c2fcc0217737b9e05897069b1334f41738",
        "trajectory.csv": "fbb80f764d25b054e84e47bde76ec5965fd876827e48e4a75536c96cf0f78da9"}),
    "run-lab-sq1": ("single_mode_squeeze.json", "run", (), {"simulation": _LAB_SHORT}, {
        "summary.json": "cbe121b5a6ba57fd9fa013f4ed74c8e0c86a8d2ef78fe8c5b07c7daa8dc93c6e",
        "trajectory.csv": "8762607f21cb06a595bb8a2e3e2470e61abd9dc848334bf4a859d42457437d64"}),
    # static lab Hamiltonian over the whole gate; its norm_drift shows a
    # change in the last bit of the propagated states
    "run-lab-ck": ("cross_kerr.json", "run", (), {"simulation": {"frame": "lab"}}, {
        "summary.json": "7fcc137fd790097609baf9c480c949c26aa8fecda8d5ec231b06e164da5ade36",
        "trajectory.csv": "f44e51217eff8b915f53c6aa6376902fa788586893d091a9873abfeca4662cdb"}),
    "optimize-ck": ("cross_kerr.json", "optimize", (), {"optimize": {"budget": 40}}, {
        "optimize.json": "4f36af871cac4406e4068754dc8d617277c3d394784a55e255d7dd70c1f3d56d"}),
    "sweep-b0-ck": ("cross_kerr.json", "sweep", (),
                    {"sweep": {"variable": "b0", "start": -1.5, "stop": 1.5,
                               "points": 51}},
                    {"energy_sweep.csv":
                     "452627d0c271cc0d9f4791becd47e17b8b205ed372887fdb074a1316d96a20a6"}),
    "sweep-emx-ck": ("cross_kerr.json", "sweep", (),
                     {"sweep": {"variable": "emx", "start": 3.8, "stop": 4.2,
                                "points": 2, "budget": 15}},
                     {"fidelity_sweep.csv":
                      "35bead7974b1ea9af285cf59fef70224764220ba651760591bc6feb928f667b4"}),
}


@pytest.mark.parametrize("case", sorted(JOB_SHA256))
def test_job_output_bytes(case, tmp_path, monkeypatch):
    name, command, flags, sections, want = JOB_SHA256[case]
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        doc = json.load(fh)
    doc.update(sections)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", "config.json", "--out", "out", *flags]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in (tmp_path / "out").iterdir()}
    assert got == want

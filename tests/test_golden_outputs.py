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

from fwmsim import dynamics
from fwmsim.cli import main
from fwmsim.operators import FockCutoffs
from fwmsim.presets import operating_point
from fwmsim.schemes import Scheme, build_scheme_frame

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "src", "fwmsim", "configs")

DERIVE_SHA256 = {
    "beam_splitter.json": "a287822e45a0f941f92d42c8c2b68da05c91ee3d5dbdc397ecdf460077c2d5ff",
    "cross_kerr.json": "3ff260c08b249fe85afd987254d9107167ba22b7b900091164d4b3a777c0f73a",
    "single_mode_squeeze.json":
        "3b67637b97571406036fb393aafdbd2f432dd8489aff50e82a1f79a235f292ef",
    "two_mode_squeeze.json": "91472f4aae7df5bbb40099855e542108438008bf12d556663a5412c38722b3a9",
}

# derive --oracle adds the dressed-energy cross-check to derive.json. The
# three pair digests were re-recorded when the oracle changed from half the
# minimum dressed-pair gap over a Delta_F scan to |H_eff[0, 1]| of the
# all-order effective Hamiltonian where the pair's diagonal balances: the
# coupling of a two-state problem is by definition that off-diagonal element,
# while the minimum gap also holds the diagonal mismatch left at its minimum.
# chi moved in the fifth digit (bm -6.537742 -> -6.537887 MHz, sq2 -2.966436
# -> -2.966444 MHz, sq1 0.764864 -> 0.764865 MHz); cross-Kerr is unchanged.
ORACLE_SHA256 = {
    "beam_splitter.json": "0ee2108a9aa04143e50ec307d7f592153415e0dc664fa9d21dffe2a4a379ab94",
    "cross_kerr.json": "e96b1f2a4b2f9bdb026e12c7126f1cd56010bc7e29914f8efe4bfd768ca4bef7",
    "single_mode_squeeze.json":
        "925d135d7dbcaa31e7ad5bb7e4351c761c1229e93d2042b75f6eb5c25fcde147",
    "two_mode_squeeze.json": "b9e1986259b741545ba70bda33cc4160960cf30845d560c095dc9c3aa9efcf62",
}

# stdout of derive --oracle: the dispersive report, its unwanted-transition
# lines in per-qubit report order, the notes and the oracle line
ORACLE_STDOUT_SHA256 = {
    "beam_splitter.json": "54a9b1a6122d50398ec979779460806d09f838d19306546239055f27a8548399",
    "cross_kerr.json": "7bd1923632bd93779c37ee8189acef8f6b7284a339379258f68c9ec22a059e11",
    "single_mode_squeeze.json":
        "7be0af4c40a52e963a465757d291e33fdbdaac3081f28f2a9ac799c7af2ae9ff",
    "two_mode_squeeze.json": "3ae7d6fc529aad69e58901f40635e29722c88312adc8ca918407a711c98e5a76",
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


def _derive(name, tmp_path, monkeypatch, *flags):
    """(sha256 of derive.json, sha256 of stdout) of one derive job."""
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["derive", "--config", os.path.join(CONFIG_DIR, name),
                     "--out", "out", *flags]) == 0
    return (hashlib.sha256((tmp_path / "out" / "derive.json").read_bytes()).hexdigest(),
            hashlib.sha256(out.getvalue().encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(DERIVE_SHA256))
def test_derive_json_bytes(name, tmp_path, monkeypatch):
    assert _derive(name, tmp_path, monkeypatch)[0] == DERIVE_SHA256[name]


@pytest.mark.parametrize("name", sorted(ORACLE_SHA256))
def test_derive_oracle_json_bytes(name, tmp_path, monkeypatch):
    assert _derive(name, tmp_path, monkeypatch, "--oracle")[0] == ORACLE_SHA256[name]


@pytest.mark.parametrize("name", sorted(ORACLE_STDOUT_SHA256))
def test_derive_oracle_stdout_bytes(name, tmp_path, monkeypatch):
    assert _derive(name, tmp_path, monkeypatch, "--oracle")[1] == ORACLE_STDOUT_SHA256[name]


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
with open(os.path.join(CONFIG_DIR, "beam_splitter.json")) as _fh:
    _BM_CIRCUIT = json.load(_fh)["circuit"]

# case -> (config, command, extra flags, replaced config sections,
#          {output file: sha256}, or {"exit": code, "stderr": text} of a rejected job)
JOB_SHA256 = {
    # interaction-frame runs solve only the sectors psi0 populates. Outside
    # them the states are now exactly 0, where the full solve left up to 3e-13
    # in 93-100% of entries; inside, the mean error per amplitude against a
    # 40-digit evaluation is 3.0/0.7/8.0/3.6e-14 (bm/ck/sq1/sq2) before and
    # 3.9/2.0/2.9/3.7e-14 after: the same roundoff level.
    # Re-recorded when every static-trajectory phase, the eigen-phases and the
    # frame phase, became reduced modulo one cycle (dynamics.phase_rows) instead
    # of exp of the unreduced argument: against a 40-digit evaluation of the
    # same eigensystem, at every 5th time, the largest error of a written
    # overlap fell from 2.8e-14/1.3e-15/1.1e-14/1.7e-14 to
    # 5.4e-16/2.2e-16/4.7e-16/2.1e-16 (bm/ck/sq1/sq2). 143/11/71/131 of the
    # 2001 CSV rows moved in their 12th digit; ck's fidelity moved by 4e-16
    "run-interaction-bm": ("beam_splitter.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "bb75c3c34f88e12166fe4bf2f669567f85980204d7ac5d2aea4fb043b05112b9",
        "trajectory.csv": "b5d3914a26ac87c091bc8b5d2485e3c7990df65689a4683da2de1c7c01b02555"}),
    "run-interaction-ck": ("cross_kerr.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "0fbd3108e32967002a432feb2cf3a0a50817f3aee50430c278095c9ee79918d7",
        "trajectory.csv": "8bf75f5d323ccc1dbf2c70c2de7edac5fe97564a9c7cbeb3e72aa45401698ef2"}),
    "run-interaction-sq1": ("single_mode_squeeze.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "c783bb8a4773e8a20a7d7d40965569110cf0fdb5d6bd28682739a93c5c9082c6",
        "trajectory.csv": "c8bef314283d93c1e911c3f75758170f38cc099891857a439ea3a2488e86421f"}),
    "run-interaction-sq2": ("two_mode_squeeze.json", "run", ("--cutoff", "2"), {}, {
        "summary.json": "6df928957ea26c25e928061542759b8a6b7e8e970f3696155c2c601a231a3786",
        "trajectory.csv": "54fb53a549769ab346414a47d353c5c88b339fbfe8e8e1a7f58cbd8c350c17c0"}),
    # driven lab runs: summary.json carries norm_drift, which fell (bm 3.2e-15 ->
    # 5.6e-16, sq1 1.6e-15 -> 4.4e-16) when the Magnus step became the Taylor
    # action exp(-i G) psi, accurate to about 1e-16 per step against a 40-digit
    # reference where the eigh step was off by up to 1.5e-15
    "run-lab-bm": ("beam_splitter.json", "run", (), {"simulation": _LAB_SHORT}, {
        "summary.json": "a18c84f95b981733cb7619023e4878bd5c91b1bc07cfcbb4f3d5ee452bb77087",
        "trajectory.csv": "fbb80f764d25b054e84e47bde76ec5965fd876827e48e4a75536c96cf0f78da9"}),
    "run-lab-sq1": ("single_mode_squeeze.json", "run", (), {"simulation": _LAB_SHORT}, {
        "summary.json": "b15a311b0d97bf0ef3ddf8191c5f006975f2281eed5b37cc35517c31edccfdc1",
        "trajectory.csv": "8762607f21cb06a595bb8a2e3e2470e61abd9dc848334bf4a859d42457437d64"}),
    # cross-talk couplings g2_1, g2_2 and g3 on both sigma_x projections
    "run-lab-bm-crosstalk": ("beam_splitter.json", "run", (), {
        "circuit": {**_BM_CIRCUIT, "g2_1": 0.02, "g2_2": 0.03, "g3": 0.005},
        "simulation": _LAB_SHORT}, {
        "summary.json": "a6580a895b6122a4719fdf826a57ad26d42f8d0a05067d6820f061a669413dad",
        "trajectory.csv": "1cc67ac9c64f34e995ff5735c2896d431afce1c7fdcd8d6ffd9bcda953081af1"}),
    # static lab Hamiltonian over the whole gate; its norm_drift shows a
    # change in the last bit of the propagated states. Re-recorded with the
    # interaction runs when the phases became reduced modulo one cycle: its
    # arguments reach 4e4 rad, and the largest overlap error against a
    # 40-digit evaluation of the same eigensystem (every 5th time) fell from
    # 7.3e-13 to 3.9e-16; 1358 of 2001 CSV rows and the fidelity (by 1.5e-13)
    # moved
    "run-lab-ck": ("cross_kerr.json", "run", (), {"simulation": {"frame": "lab"}}, {
        "summary.json": "46e7fe500406dc0e2f5f198adc653723f79a0aee3f73a66923d74d6e0e5ca354",
        "trajectory.csv": "4e6140c80ea44442881293b66d74341851ed90ca042ebd136b61c812ad263853"}),
    # the fidelity search solves the real drive-free H per parity sector and
    # reduces every scan phase modulo one cycle without error. chi_lab moves
    # at roundoff (its error against a 40-digit eigsy is 1.9e-14 instead of
    # 3.1e-14 at the ck preset, cutoff 2), which moves the scan grid: the
    # reported fidelity by 1.7e-12, the gate time by 2.5e-10 ns, the best
    # parameters not at all. The scan is within 6.5e-16 of a 40-digit
    # evaluation, where the cos/sin table was off by up to 2.0e-14
    "optimize-ck": ("cross_kerr.json", "optimize", (), {"optimize": {"budget": 40}}, {
        "optimize.json": "475694426163666d88ef3b0073c822c6c0c6854d9b98376afce5a014d76ad84b"}),
    # the sweep files' header hashes moved when the sweep section lost its
    # budget and gate_time_ns (an emx sweep runs the optimize section's
    # search); every line below the header is byte for byte unchanged
    "sweep-b0-ck": ("cross_kerr.json", "sweep", (),
                    {"sweep": {"variable": "b0", "start": -1.5, "stop": 1.5,
                               "points": 51}},
                    {"energy_sweep.csv":
                     "e29bd83dcee299a682acc81dc64acf2c65e55c0e83a44e10868618122e078075"}),
    # moved with optimize-ck: each row's fidelity by 2e-12 and gate time by
    # 2e-10 ns, at the same parameters
    "sweep-emx-ck": ("cross_kerr.json", "sweep", (),
                     {"sweep": {"variable": "emx", "start": 3.8, "stop": 4.2,
                                "points": 2}, "optimize": {"budget": 15}},
                     {"fidelity_sweep.csv":
                      "dc520c4c7834742885a96b078d019f4fc7598665170db3475309ddf678d6f246"}),
    # drive and detuning inputs that disagree with the circuit: derive.json
    # pins the resolved detunings, drive frequencies and every note. A None
    # section drops that key from the config
    "derive-sq1-drive1-detuned": ("single_mode_squeeze.json", "derive", (), {"drives": [
        {"slot": 1, "rabi": 1.0, "detuning": 2.0, "frequency": 5.5},
        {"slot": 2, "rabi": 1.0, "detuning": -5.0}]}, {
        "derive.json": "ae991f4a0081c6995e52c0ebe2657ccaf131374c3859007e0987941dceda176f"}),
    "derive-sq1-frequency-drives": ("single_mode_squeeze.json", "derive", (), {"drives": [
        {"slot": 1, "rabi": 1.0, "frequency": 4.9},
        {"slot": 2, "rabi": 1.0, "frequency": 25.1}]}, {
        "derive.json": "edf3663d2ce90fbd033ba940cc37b3ba6f4f6345d0c6d47162fa393db5c72da2"}),
    "derive-sq1-no-detunings": ("single_mode_squeeze.json", "derive", (),
                                {"detunings": None}, {
        "derive.json": "88224bd17dea18c8f6c4de3ab6bf7118f759896b9884d871a535b5bbb0336c1d"}),
    "derive-bm-frequency-drive1": ("beam_splitter.json", "derive", (), {"drives": [
        {"slot": 1, "rabi": 1.5, "frequency": 18.4},
        {"slot": 2, "rabi": 1.5, "detuning": -4.0, "frequency": 11.2}]}, {
        "derive.json": "5f0551db4c90e04d60151ba0f649a42797ccc4d80b0cdfbeb6f526cc4f244314"}),
    "derive-sq2-detunings": ("two_mode_squeeze.json", "derive", (), {
        "detunings": {"delta1": 3.0, "delta2": -4.9, "delta": -3.5}}, {
        "derive.json": "4501c411c38602b75ab9c7f6d84ccd1bda79bf3d3337938e02e6f8cac84b3680"}),
    # rejected drive lists exit 2 with the error on stderr and write nothing
    "derive-ck-one-drive": ("cross_kerr.json", "derive", (), {"drives": [
        {"slot": 1, "rabi": 1.0, "detuning": 1.0}]}, {
        "exit": 2, "stderr": "config error: scheme ck takes exactly 0 drives, got 1\n"}),
    "derive-bm-duplicate-slot": ("beam_splitter.json", "derive", (), {"drives": [
        {"slot": 1, "rabi": 1.5, "detuning": -4.0},
        {"slot": 1, "rabi": 1.5, "detuning": -4.0}]}, {
        "exit": 2, "stderr": "config error: drives must occupy distinct slots 1..n\n"}),
    "derive-bm-one-drive": ("beam_splitter.json", "derive", (), {"drives": [
        {"slot": 1, "rabi": 1.5, "detuning": -4.0}]}, {
        "exit": 2, "stderr": "config error: scheme bm takes exactly 2 drives, got 1\n"}),
}


@pytest.mark.parametrize("case", sorted(JOB_SHA256))
def test_job_output_bytes(case, tmp_path, monkeypatch):
    name, command, flags, sections, want = JOB_SHA256[case]
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        doc = json.load(fh)
    doc = {k: v for k, v in {**doc, **sections}.items() if v is not None}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", "config.json", "--out", "out", *flags])
    if code:
        assert {"exit": code, "stderr": err.getvalue()} == want
        assert not (tmp_path / "out").exists()
        return
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in (tmp_path / "out").iterdir()}
    assert got == want


# states are propagated in blocks of sample times; a block of one time and a
# block of every time give the same bytes (the jobs run 2001 points)
@pytest.mark.parametrize("block", [1, dynamics.DEFAULT_POINTS + 1])
@pytest.mark.parametrize("case", ["run-interaction-bm", "run-lab-ck"])
def test_run_bytes_independent_of_state_block(case, block, tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "_STATE_BLOCK", block)
    test_job_output_bytes(case, tmp_path, monkeypatch)

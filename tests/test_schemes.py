"""Scheme frames: detuning derivation, frame matrices, static co-rotating
frames, lab-frame correspondence, dispersive checks."""

import dataclasses
import functools

import numpy as np
import pytest

from fwmsim import circuit, schemes
from fwmsim.circuit import CircuitParams, eigensystem
from fwmsim.errors import FrameError, SchemeError
from fwmsim.operators import (FockCutoffs, basis_state, destroy, embed_level_matrix,
                              mode_operator, product_state)
from fwmsim.presets import cross_kerr_point, operating_point
from fwmsim.schemes import (Detunings, DriveSpec, Scheme, SchemeFrame,
                            build_full_hamiltonian, build_scheme_frame, dispersive_check,
                            frame_h0_diagonal, lab_drives, lab_hamiltonian_from_frame,
                            static_frame)
from fwmsim.schemes import _mode_pieces

CUT = FockCutoffs(2, 2)
ALL_SCHEMES = [Scheme.BEAM_SPLITTER, Scheme.CROSS_KERR,
               Scheme.TWO_MODE_SQUEEZE, Scheme.SINGLE_MODE_SQUEEZE]


def _frame_for(scheme, cutoffs=CUT):
    pt = operating_point(scheme)
    return build_scheme_frame(pt["params"], scheme, pt["drives"], cutoffs,
                              detunings=pt["detunings"])


def test_cross_kerr_derived_detunings():
    pt = cross_kerr_point()
    _, det = build_scheme_frame(pt["params"], pt["scheme"], (), CUT)
    assert det.delta1 == pytest.approx(-4.59, abs=0.1)
    assert det.delta2 == pytest.approx(-4.93, abs=0.1)
    assert det.delta == pytest.approx(0.17, abs=0.1)


def test_two_mode_squeeze_detunings_and_frequencies():
    pt = operating_point(Scheme.TWO_MODE_SQUEEZE)
    frame, det = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], CUT)
    assert det.delta1 == 3.0 and det.delta2 == -5.0
    assert det.delta == pytest.approx(-3.67, abs=0.1)
    assert frame.drive_frequencies[1] == pytest.approx(10.9, abs=0.1)
    assert frame.drive_frequencies[2] == pytest.approx(24.9, abs=0.1)


def test_resonant_mode_gives_zero_detuning():
    pt = cross_kerr_point()
    es = eigensystem(pt["params"])
    p = dataclasses.replace(pt["params"], omega_a1=es.transition_energy("b", "a"))
    _, det = build_scheme_frame(p, Scheme.CROSS_KERR, (), CUT)
    assert det.delta1 == pytest.approx(0.0, abs=1e-12)


def test_detuning_override_recorded_in_notes():
    pt = cross_kerr_point()
    frame, det = build_scheme_frame(pt["params"], pt["scheme"], (), CUT,
                                    detunings=pt["detunings"])
    assert det.delta == 0.17
    assert any("delta input" in n for n in frame.notes)


def test_drive_count_validation():
    pt = cross_kerr_point()
    with pytest.raises(SchemeError):
        build_scheme_frame(pt["params"], Scheme.CROSS_KERR,
                           (DriveSpec(slot=1, rabi=1.0, detuning=-4.0),), CUT)
    bs = operating_point(Scheme.BEAM_SPLITTER)
    with pytest.raises(SchemeError):
        build_scheme_frame(bs["params"], Scheme.BEAM_SPLITTER,
                           (bs["drives"][0],), CUT)
    with pytest.raises(SchemeError):
        build_scheme_frame(bs["params"], Scheme.BEAM_SPLITTER,
                           (bs["drives"][0], bs["drives"][0]), CUT)


def test_delta_f_only_where_a_term_oscillates_at_it():
    pt = cross_kerr_point()
    for value in (0.05, -1e-9, float("nan")):
        with pytest.raises(SchemeError, match="^delta_f: scheme ck"):
            build_scheme_frame(pt["params"], Scheme.CROSS_KERR, (), CUT, delta_f=value)
    for value in (None, 0.0, -0.0):
        _, det = build_scheme_frame(pt["params"], Scheme.CROSS_KERR, (), CUT, delta_f=value)
        assert det.delta_f == 0.0
    bs = operating_point(Scheme.BEAM_SPLITTER)
    _, det = build_scheme_frame(bs["params"], Scheme.BEAM_SPLITTER, bs["drives"], CUT,
                                delta_f=0.05)
    assert det.delta_f == 0.05


def test_drive_without_detuning_or_frequency_rejected():
    bs = operating_point(Scheme.BEAM_SPLITTER)
    with pytest.raises(SchemeError, match="detuning"):
        build_scheme_frame(bs["params"], Scheme.BEAM_SPLITTER,
                           (DriveSpec(slot=1, rabi=1.5),
                            DriveSpec(slot=2, rabi=1.5, detuning=-4.0)), CUT)


def test_drive_frequency_beside_detuning_noted_as_ignored():
    bs = operating_point(Scheme.BEAM_SPLITTER)
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    set_freq = frame.drive_frequencies[1]
    for given, noted in ((3.0, True), (set_freq + 5e-4, False)):
        drives = (dataclasses.replace(bs["drives"][0], frequency=given), bs["drives"][1])
        moved, _ = build_scheme_frame(bs["params"], Scheme.BEAM_SPLITTER, drives, CUT,
                                      detunings=bs["detunings"])
        note = (f"drive-1 frequency input {given:.6g} GHz ignored: "
                f"its detuning sets {set_freq:.6g} GHz")
        assert (note in moved.notes) is noted
        assert [n for n in moved.notes if n != note] == list(frame.notes)
        assert moved.drive_frequencies == frame.drive_frequencies


def test_cross_kerr_frame_has_no_drive_terms():
    frame, _ = _frame_for(Scheme.CROSS_KERR)
    assert frame.coefficients["rabi1"] == 0.0 and frame.coefficients["rabi2"] == 0.0
    assert frame.drive_frequencies == {}
    assert frame.osc_terms == ()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_frame_hamiltonian_hermitian_at_random_times(scheme):
    frame, _ = _frame_for(scheme)
    ham = frame.hamiltonian()
    rng = np.random.RandomState(1)
    for t in rng.uniform(0.0, 100.0, 20):
        h = ham.at(t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_full_hamiltonian_hermitian_with_drives():
    bs = operating_point(Scheme.BEAM_SPLITTER)
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    ham = build_full_hamiltonian(bs["params"], lab_drives(frame), CUT)
    rng = np.random.RandomState(2)
    for t in rng.uniform(0.0, 10.0, 20):
        h = ham.at(t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_full_hamiltonian_dimension_and_decoupled_spectrum():
    pt = cross_kerr_point()
    p = dataclasses.replace(pt["params"], g1=0.0, g2=0.0)
    cut = FockCutoffs(2, 3)
    ham = build_full_hamiltonian(p, (), cut)
    assert ham.static.shape == (cut.dim, cut.dim)
    es = eigensystem(p)
    expected = sorted(es.energy(l) + n1 * p.omega_a1 + n2 * p.omega_a2
                      for l in "abcd" for n1 in range(cut.dim1)
                      for n2 in range(cut.dim2))
    np.testing.assert_allclose(np.linalg.eigvalsh(ham.static), expected, atol=1e-10)


def test_full_hamiltonian_matches_hand_assembly():
    # independent small-matrix assembly at n_max = 1, kron order (level, n1, n2)
    pt = cross_kerr_point()
    p = pt["params"]
    cut = FockCutoffs(1, 1)
    es = eigensystem(p)
    v = es.eigenvector_matrix()
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    i2 = np.eye(2)
    x1 = v.conj().T @ np.kron(sx, i2) @ v
    x2 = v.conj().T @ np.kron(i2, sx) @ v
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    num = a.T @ a
    hand = np.kron(np.diag(es.energies), np.kron(i2, i2))
    hand = hand + p.omega_a1 * np.kron(np.eye(4), np.kron(num, i2))
    hand = hand + p.omega_a2 * np.kron(np.eye(4), np.kron(i2, num))
    hand = hand + p.g1 * np.kron(x1, np.kron(a + a.T, i2))
    hand = hand + p.g2 * np.kron(x2, np.kron(i2, a + a.T))
    ham = build_full_hamiltonian(p, (), cut)
    np.testing.assert_allclose(ham.static, hand, atol=1e-13)


def test_full_hamiltonian_crosstalk_terms():
    pt = cross_kerr_point()
    p = dataclasses.replace(pt["params"], g2_1=0.02, g2_2=0.03, g3=0.005)
    with_ct = build_full_hamiltonian(p, (), CUT).static
    without = build_full_hamiltonian(dataclasses.replace(p, g2_1=0.0, g2_2=0.0, g3=0.0),
                                     (), CUT).static
    assert np.max(np.abs(with_ct - without)) > 0.001
    assert np.max(np.abs(with_ct - with_ct.conj().T)) < 1e-12


def _matmul_full_hamiltonian(params, drives, cut):
    """Full Hamiltonian assembled from full-dimension operators and
    full-dimension matrix products."""
    s1, s2 = eigensystem(params).sigma_x
    x1, x2 = embed_level_matrix(cut, s1), embed_level_matrix(cut, s2)
    h = embed_level_matrix(cut, np.diag(eigensystem(params).energies))
    h = h + params.omega_a1 * mode_operator(cut, 1, "number") \
        + params.omega_a2 * mode_operator(cut, 2, "number")
    q1 = mode_operator(cut, 1, "annihilate") + mode_operator(cut, 1, "create")
    q2 = mode_operator(cut, 2, "annihilate") + mode_operator(cut, 2, "create")
    h = h + params.g1 * (x1 @ q1) + params.g2 * (x2 @ q2)
    if params.g2_1:
        h = h + params.g2_1 * (x1 @ q2)
    if params.g2_2:
        h = h + params.g2_2 * (x2 @ q1)
    if params.g3:
        h = h + params.g3 * (q1 @ q2)
    return h, [(d.rabi * (x1 if d.slot == 1 else x2), d.frequency) for d in drives]


@pytest.mark.parametrize("cut", [FockCutoffs(2, 2), FockCutoffs(3, 3), FockCutoffs(4, 3)])
@pytest.mark.parametrize("crosstalk", [{}, {"g2_1": 0.02, "g2_2": 0.03, "g3": 0.005}])
def test_full_hamiltonian_equals_matmul_construction(cut, crosstalk):
    bs = operating_point(Scheme.BEAM_SPLITTER)
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    drives = lab_drives(frame)
    for params, drv in ((cross_kerr_point()["params"], ()), (bs["params"], drives)):
        params = dataclasses.replace(params, **crosstalk)
        ham = build_full_hamiltonian(params, drv, cut)
        static, osc = _matmul_full_hamiltonian(params, drv, cut)
        assert np.array_equal(ham.static, static)
        assert len(ham.osc) == len(osc) == len(drv)
        for (m, nu), (m_ref, nu_ref) in zip(ham.osc, osc):
            assert np.array_equal(m, m_ref) and nu == nu_ref


def _kron_full_hamiltonian(params, drives, cut):
    """Full Hamiltonian with every term an ``np.kron`` of a 4x4 level matrix
    and a Fock-space piece, summed in the order of the matmul construction."""
    es = eigensystem(params)
    s1, s2 = es.sigma_x
    a1, a2 = destroy(cut.dim1), destroy(cut.dim2)
    i1, i2, i4 = np.eye(cut.dim1), np.eye(cut.dim2), np.eye(4)
    q1, q2 = np.kron(a1 + a1.conj().T, i2), np.kron(i1, a2 + a2.conj().T)
    h = embed_level_matrix(cut, np.diag(es.energies))
    h = h + params.omega_a1 * np.kron(i4, np.kron(a1.conj().T @ a1, i2)) \
        + params.omega_a2 * np.kron(i4, np.kron(i1, a2.conj().T @ a2))
    h = h + params.g1 * np.kron(s1, q1) + params.g2 * np.kron(s2, q2)
    if params.g2_1:
        h = h + params.g2_1 * np.kron(s1, q2)
    if params.g2_2:
        h = h + params.g2_2 * np.kron(s2, q1)
    if params.g3:
        h = h + params.g3 * np.kron(i4, np.kron(a1 + a1.conj().T, a2 + a2.conj().T))
    return h, [(d.rabi * embed_level_matrix(cut, s1 if d.slot == 1 else s2), d.frequency)
               for d in drives]


@pytest.mark.parametrize("cut", [FockCutoffs(3, 3), FockCutoffs(2, 4), FockCutoffs(1, 1)])
@pytest.mark.parametrize("crosstalk", [{}, {"g2_1": 0.02, "g2_2": 0.03, "g3": 0.005}])
def test_full_hamiltonian_bytes_equal_kron_construction(cut, crosstalk):
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    for params, drv in ((cross_kerr_point()["params"], ()),
                        (operating_point(Scheme.BEAM_SPLITTER)["params"],
                         lab_drives(frame))):
        params = dataclasses.replace(params, **crosstalk)
        ham = build_full_hamiltonian(params, drv, cut)
        static, osc = _kron_full_hamiltonian(params, drv, cut)
        # the static part is real, and its complex form is the kron
        # construction bit for bit, whose imaginary part is exactly 0
        assert ham.static.dtype == np.float64 and ham.static.flags.c_contiguous
        assert ham.static.astype(complex).tobytes() == static.tobytes()
        assert not static.imag.any()
        assert [(m.tobytes(), nu) for m, nu in ham.osc] == \
            [(m.tobytes(), nu) for m, nu in osc]


def test_full_hamiltonian_mode_pieces_read_only():
    pieces = _mode_pieces(FockCutoffs(3, 2))
    assert pieces is _mode_pieces(FockCutoffs(3, 2))
    # I4 x n1, I4 x n2 and I4 x q1 q2 on the full space, q1 and q2 on the Fock space
    for m, dim in zip(pieces, (48, 48, 12, 12, 48)):
        assert m.shape == (dim, dim)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


FRAME_CUTOFFS = [FockCutoffs(1, 1), FockCutoffs(2, 1), FockCutoffs(3, 3), FockCutoffs(4, 2)]


def _frame_bytes(frame):
    return (frame.h_i0.tobytes(), frame.v_static.tobytes(),
            [(m.tobytes(), nu) for m, nu in frame.osc_terms])


@pytest.mark.parametrize("cut", FRAME_CUTOFFS, ids=str)
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_at_cutoffs_bytes_equal_fresh_frame(scheme, cut):
    frame, _ = _frame_for(scheme)
    frame.matrices  # assembled at CUT before the replace
    moved = dataclasses.replace(frame, cutoffs=cut)
    fresh, _ = _frame_for(scheme, cut)
    assert moved.cutoffs == cut
    assert _frame_bytes(moved) == _frame_bytes(fresh)
    assert moved.detunings == fresh.detunings and moved.coefficients == fresh.coefficients
    assert moved.corotating_system[0].tobytes() == fresh.corotating_system[0].tobytes()


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_replace_coefficients_bytes_equal_fresh_frame(scheme):
    pt = operating_point(scheme)
    frame, det = _frame_for(scheme)
    frame.matrices  # assembled from the old coefficients before the replace
    weaker = tuple(dataclasses.replace(d, rabi=d.rabi / 3.0) for d in pt["drives"])
    p = dataclasses.replace(pt["params"], g1=0.7 * pt["params"].g1)
    fresh, _ = build_scheme_frame(p, scheme, weaker, CUT, detunings=pt["detunings"],
                                  delta_f=det.delta_f)
    assert fresh.coefficients != frame.coefficients
    moved = dataclasses.replace(frame, coefficients=fresh.coefficients)
    assert _frame_bytes(moved) == _frame_bytes(fresh)


def _matmul_frame_matrices(frame):
    """(h_i0, v_static, osc_terms) from ``np.kron`` embeddings and
    full-dimension matrix products: each term is its coefficient times the
    full ladder operator times the summed full transition operators."""
    cut, spec = frame.cutoffs, frame.spec
    i4, i1, i2 = (np.eye(d, dtype=complex) for d in (4, cut.dim1, cut.dim2))
    fock = np.eye(cut.dim1 * cut.dim2, dtype=complex)

    def sigma(i, j):
        m = np.zeros((4, 4), dtype=complex)
        m["abcd".index(i), "abcd".index(j)] = 1.0
        return np.kron(m, fock)

    a1 = np.kron(i4, np.kron(destroy(cut.dim1), i2))
    a2 = np.kron(i4, np.kron(i1, destroy(cut.dim2)))
    ladders = {"a1": a1, "a2": a2, "a2dag": a2.conj().T}
    coefs = frame.coefficients

    def term(coef, ladder, pairs):
        s = functools.reduce(np.add, (sigma(*p) for p in pairs))
        return coefs[coef] * (s if ladder is None else ladders[ladder] @ s)

    det = frame.detunings
    _, l1, l2, l3 = spec.levels
    h_i0 = (-det.delta1 * sigma(l1, l1) - det.delta2 * sigma(l2, l2)
            - det.delta * sigma(l3, l3))
    v = functools.reduce(np.add, (term(*t) for t in spec.v_terms))
    osc = ()
    if spec.osc_term and coefs[spec.osc_term[0]]:
        osc = ((term(*spec.osc_term), det.delta_f),)
    return h_i0, v + v.conj().T, osc


@pytest.mark.parametrize("cut", FRAME_CUTOFFS, ids=str)
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_frame_matrices_equal_matmul_construction(scheme, cut):
    frame, _ = _frame_for(scheme, cut)
    h_i0, v_static, osc = _matmul_frame_matrices(frame)
    assert _frame_bytes(frame) == (h_i0.tobytes(), v_static.tobytes(),
                                   [(m.tobytes(), nu) for m, nu in osc])


def test_full_hamiltonian_requires_drive_frequencies():
    bs = operating_point(Scheme.BEAM_SPLITTER)
    with pytest.raises(SchemeError):
        build_full_hamiltonian(bs["params"],
                               (DriveSpec(slot=1, rabi=1.0, detuning=-4.0),), CUT)


# ---------------------------------------------------------------------------
# static co-rotating frame and lab correspondence

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_static_frame_reconstructs_hamiltonian(scheme):
    frame, _ = _frame_for(scheme)
    h_static, g_diag = static_frame(frame)
    ham = frame.hamiltonian()
    rng = np.random.RandomState(4)
    for t in rng.uniform(0.0, 50.0, 5):
        u = np.diag(np.exp(2j * np.pi * g_diag * t))
        rebuilt = u.conj().T @ (h_static + np.diag(g_diag)) @ u
        np.testing.assert_allclose(rebuilt, ham.at(t), atol=1e-10)


class _DoubledFrame(SchemeFrame):
    """A frame whose one oscillating term also oscillates 1 GHz faster."""

    @property
    def osc_terms(self):
        (m, nu), = super().osc_terms
        return (m, nu), (m, nu + 1.0)


def test_static_frame_infeasible_raises():
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    doubled = _DoubledFrame(**{f.name: getattr(frame, f.name)
                               for f in dataclasses.fields(frame)})
    assert len(doubled.osc_terms) == 2
    with pytest.raises(FrameError):
        static_frame(doubled)


def _static_frame_per_entry(frame, osc_freqs=None):
    """The per-entry construction the vectorised frame system replaced: one
    row per nonzero matrix entry, static rows deduplicated up to sign,
    oscillating rows by (row, rounded frequency)."""
    cut = frame.cutoffs
    block = cut.dim1 * cut.dim2

    def parts(idx):
        q, rem = divmod(idx, block)
        return (q, *divmod(rem, cut.dim2))

    freqs = tuple(nu for _, nu in frame.osc_terms) if osc_freqs is None else tuple(osc_freqs)
    rows, rhs, seen = [], [], set()

    def add_entries(matrix, nu):
        for r, c in zip(*np.nonzero(matrix)):
            qr, m1r, m2r = parts(int(r))
            qc, m1c, m2c = parts(int(c))
            coeff = np.zeros(6)
            coeff[qr] += 1.0
            coeff[qc] -= 1.0
            coeff[4] = m1r - m1c
            coeff[5] = m2r - m2c
            key = (tuple(coeff), round(nu, 12))
            negkey = (tuple(-coeff), round(-nu, 12))
            if key in seen or negkey in seen:
                continue
            seen.add(key)
            rows.append(coeff)
            rhs.append(-nu)

    add_entries(frame.v_static - np.diag(np.diag(frame.v_static)), 0.0)
    for (m, _), nu in zip(frame.osc_terms, freqs):
        add_entries(m, nu)
    gauge = np.zeros(6)
    gauge["abcd".index(frame.ground_level)] = 1.0
    rows.append(gauge)
    rhs.append(0.0)
    a, b = np.array(rows), np.array(rhs)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.max(np.abs(a @ sol - b)) <= 1e-9
    g_diag = np.empty(cut.dim)
    for i in range(cut.dim):
        q, n1, n2 = parts(i)
        g_diag[i] = sol[q] + sol[4] * n1 + sol[5] * n2
    h_static = frame.h_i0 + frame.v_static - np.diag(g_diag).astype(complex)
    for m, _ in frame.osc_terms:
        h_static = h_static + m + m.conj().T
    return h_static, g_diag


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("n_max", [(1, 1), (2, 1), (3, 3), (4, 2)])
def test_static_frame_matches_per_entry_construction(scheme, n_max):
    frame, _ = _frame_for(scheme, FockCutoffs(*n_max))
    scan = [None]
    if frame.osc_terms:
        nu = frame.osc_terms[0][1]
        scan += [(mu,) for mu in (0.0, 1e-13, -1e-13, nu - 0.01, nu, nu + 0.037, -0.2)]
    for osc_freqs in scan:
        h_static, g_diag = static_frame(frame, osc_freqs)
        h_ref, g_ref = _static_frame_per_entry(frame, osc_freqs)
        assert np.array_equal(h_static, h_ref) and np.array_equal(g_diag, g_ref), osc_freqs


@pytest.mark.parametrize("n_max", [(1, 1), (2, 1), (3, 3), (4, 2)])
def test_basis_table_round_trips_through_index(n_max):
    cut = FockCutoffs(*n_max)
    level, n1, n2 = cut.basis
    assert level.shape == (cut.dim,) and not cut.basis.flags.writeable
    assert [cut.index(*map(int, col)) for col in zip(level, n1, n2)] == list(range(cut.dim))
    assert cut.basis is cut.basis


def test_cross_kerr_lab_frame_equivalence_full_gate():
    # exact retained-term lab model: F(t) U_frame(t) == U_lab(t) at all times
    from fwmsim.effective import effective_params
    frame, _ = _frame_for(Scheme.CROSS_KERR, FockCutoffs(3, 3))
    ep = effective_params(frame)
    lab = lab_hamiltonian_from_frame(frame)
    assert lab.is_static
    h0 = frame_h0_diagonal(frame)
    wl, ul = np.linalg.eigh(lab.static)
    wf, uf = np.linalg.eigh(frame.h_i0 + frame.v_static)
    for t in np.linspace(0.0, ep.gate_time, 7):
        u_lab = ul @ np.diag(np.exp(-2j * np.pi * wl * t)) @ ul.conj().T
        u_frame = uf @ np.diag(np.exp(-2j * np.pi * wf * t)) @ uf.conj().T
        rotated = np.diag(np.exp(2j * np.pi * h0 * t)) @ u_lab
        assert np.max(np.abs(rotated - u_frame)) < 1e-9


@pytest.mark.parametrize("scheme", [Scheme.BEAM_SPLITTER, Scheme.TWO_MODE_SQUEEZE,
                                    Scheme.SINGLE_MODE_SQUEEZE])
def test_driven_lab_frame_equivalence_short_time(scheme):
    from fwmsim.dynamics import propagate, propagate_frame
    frame, _ = _frame_for(scheme, FockCutoffs(1, 1))
    lab = lab_hamiltonian_from_frame(frame)
    psi0 = product_state(frame.cutoffs, frame.ground_level, [1, 1], [1, 0])
    t_end = 2.0
    times = np.linspace(0.0, t_end, 5)
    traj_lab = propagate(lab, psi0, t_end, times=times, store_states=True)
    traj_frm = propagate_frame(frame, psi0, t_end, times=times, store_states=True)
    h0 = frame_h0_diagonal(frame)
    for t, pl, pf in zip(times, traj_lab.states, traj_frm.states):
        rotated = np.exp(2j * np.pi * h0 * t) * pl
        assert np.linalg.norm(rotated - pf) < 1e-6


def test_lab_drives_mapping():
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    drives = lab_drives(frame)
    assert len(drives) == 2
    # drive 1 addresses the (c, a) transition through the stronger sigma_x
    for d, pair, rabi in zip(drives, (("c", "a"), ("b", "a")), (1.5, 1.5)):
        coef = frame.eigen.coupling(d.slot, *pair)
        assert d.rabi * abs(coef) == pytest.approx(rabi, rel=1e-12)
        assert d.frequency > 0


def test_frame_reuses_its_build_eigensystem(monkeypatch):
    # the build's eigensystem is the frame's: reading it again (through
    # dispersive_check and lab_drives) computes nothing
    calls = []

    def counted(params):
        calls.append(params)
        return eigensystem(params)

    monkeypatch.setattr(circuit, "eigensystem", counted)
    monkeypatch.setattr(schemes, "eigensystem", counted)
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    dispersive_check(frame)
    lab_drives(frame)
    assert len(calls) == 1
    # a frame replaced with other params computes their eigensystem
    p2 = dataclasses.replace(frame.params, b0=frame.params.b0 + 0.05)
    moved = dataclasses.replace(frame, params=p2)
    assert moved.eigen == eigensystem(p2) != frame.eigen


# ---------------------------------------------------------------------------
# dispersive check

def test_dispersive_check_cross_kerr_point():
    frame, _ = _frame_for(Scheme.CROSS_KERR)
    report = dispersive_check(frame)
    assert report.passed
    by_label = {e.label: e for e in report.entries}
    entry = by_label["mode1 ab single-photon"]
    assert entry.ratio == pytest.approx(0.3 / 4.59, rel=0.02)


def test_dispersive_check_zero_couplings():
    pt = cross_kerr_point()
    p = dataclasses.replace(pt["params"], g1=0.0, g2=0.0)
    frame, _ = build_scheme_frame(p, Scheme.CROSS_KERR, (), CUT,
                                  detunings=pt["detunings"])
    report = dispersive_check(frame)
    assert report.passed
    assert all(e.ratio == 0.0 for e in report.entries)


def test_dispersive_check_zero_detuning_flags_not_crashes():
    pt = cross_kerr_point()
    det = Detunings(delta1=0.0, delta2=-4.93, delta=0.17)
    frame, _ = build_scheme_frame(pt["params"], Scheme.CROSS_KERR, (), CUT,
                                  detunings=det)
    report = dispersive_check(frame)
    assert not report.passed
    assert any(np.isinf(e.ratio) for e in report.flagged)


def test_dispersive_check_reports_unwanted_detunings():
    frame, _ = _frame_for(Scheme.BEAM_SPLITTER)
    report = dispersive_check(frame)
    assert report.unwanted
    detunings = [det for _, _, det in report.unwanted]
    assert max(detunings) > 3.0  # several-GHz unwanted splittings reported


def test_scheme_codes():
    assert Scheme("ck") is Scheme.CROSS_KERR

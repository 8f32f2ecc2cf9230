"""Analytic eigensystem against brute-force diagonalization, capacitance
closed forms, the sigma_x projections, and the b0 energy sweep."""

import math

import numpy as np
import pytest
from scipy.constants import e as Q_E, h as PLANCK

from fwmsim.circuit import (ELEMENTARY_CHARGE, PLANCK_H, SIGMA_X_PAIRS, CapacitanceSet,
                            CircuitParams, EigenSystem, derive_couplings, eigensystem,
                            energy_sweep)
from fwmsim.errors import DegeneracyError
from fwmsim.operators import LEVEL_INDEX
from fwmsim.presets import operating_point
from fwmsim.schemes import Scheme

# ---------------------------------------------------------------------------
# brute-force oracle, built independently of the package internals:
# |0_i> is the lower sigma_z eigenstate, basis order (|00>,|01>,|10>,|11>)

_SZ = np.diag([-1.0, 1.0])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
_I2 = np.eye(2)


def brute_force_h(e_j1, e_j2, e_mx, b0):
    h = e_j1 / 2 * np.kron(_SZ, _I2) + e_j2 / 2 * np.kron(_I2, _SZ)
    h = h + e_mx * (np.kron(_SX, _SX) + b0 * np.kron(_SY, _SY).real
                    + b0 * np.kron(_SZ, _SZ))
    return h.real


def _params(e_j1, e_j2, e_mx, b0):
    return CircuitParams(e_j1=e_j1, e_j2=e_j2, e_mx=e_mx, b0=b0,
                         omega_a1=10.0, omega_a2=16.0, g1=0.3, g2=0.3)


def _assert_matches_bruteforce(p: CircuitParams, tol=1e-10):
    es = eigensystem(p)
    h = brute_force_h(p.e_j1, p.e_j2, p.e_mx, p.b0)
    w, u = np.linalg.eigh(h)
    np.testing.assert_allclose(np.sort(es.energies), w, atol=tol)
    for level in "abcd":
        v = es.eigenvector(level)
        k = int(np.argmin(np.abs(w - es.energy(level))))
        assert abs(np.vdot(u[:, k], v)) >= 1.0 - 1e-10


def test_eigensystem_matches_bruteforce_random():
    rng = np.random.RandomState(11)
    for _ in range(300):
        p = _params(rng.uniform(-20, 20), rng.uniform(-20, 20),
                    rng.uniform(0.05, 8.0), rng.uniform(-2.5, 2.5))
        _assert_matches_bruteforce(p)


def test_eigensystem_reference_point_energies():
    # cross-Kerr operating point: level splittings and detunings
    p = _params(8.45, 13.95, 4.0, -0.61)
    es = eigensystem(p)
    assert es.transition_energy("d", "a") == pytest.approx(25.84, abs=0.1)
    assert es.transition_energy("b", "a") == pytest.approx(14.6, abs=0.1)
    assert es.transition_energy("c", "a") == pytest.approx(20.9, abs=0.1)
    # consistency with the quoted detunings at the stated resonator frequencies
    assert 10.0 - es.transition_energy("b", "a") == pytest.approx(-4.59, abs=0.1)
    assert 16.0 - es.transition_energy("c", "a") == pytest.approx(-4.93, abs=0.1)


def test_eigensystem_uncoupled_limit():
    p = _params(7.0, 12.0, 0.0, 0.0)
    es = eigensystem(p)
    expected = np.array([-(7 + 12) / 2, -abs(7 - 12) / 2, abs(7 - 12) / 2, (7 + 12) / 2])
    np.testing.assert_allclose(np.sort(es.energies), expected, atol=1e-12)


def test_eigensystem_traceless():
    rng = np.random.RandomState(3)
    for _ in range(50):
        p = _params(rng.uniform(1, 20), rng.uniform(1, 20),
                    rng.uniform(0.1, 6), rng.uniform(-2, 2))
        assert abs(np.sum(eigensystem(p).energies)) < 1e-10


def test_spectrum_invariant_under_ej_swap():
    rng = np.random.RandomState(5)
    for _ in range(25):
        a, b, m, r = rng.uniform(1, 20), rng.uniform(1, 20), rng.uniform(0.1, 6), rng.uniform(-2, 2)
        s1 = np.sort(eigensystem(_params(a, b, m, r)).energies)
        s2 = np.sort(eigensystem(_params(b, a, m, r)).energies)
        np.testing.assert_allclose(s1, s2, atol=1e-10)


def test_degeneracy_error_names_splitting():
    # E_s- vanishes when e_j1 = e_j2 and b0 = -1
    with pytest.raises(DegeneracyError, match="E_s-"):
        eigensystem(_params(9.0, 9.0, 2.0, -1.0))


# ---------------------------------------------------------------------------
# sigma_x projections onto the transitions

def test_transition_table_basis_change_oracle():
    rng = np.random.RandomState(17)
    for _ in range(100):
        p = _params(rng.uniform(-15, 15), rng.uniform(-15, 15),
                    rng.uniform(0.05, 6), rng.uniform(-2, 2))
        es = eigensystem(p)
        v = es.eigenvector_matrix()
        x1_oracle = v.conj().T @ np.kron(_SX, _I2) @ v
        x2_oracle = v.conj().T @ np.kron(_I2, _SX) @ v
        np.testing.assert_allclose(es.sigma_x[0], x1_oracle, atol=1e-12)
        np.testing.assert_allclose(es.sigma_x[1], x2_oracle, atol=1e-12)


def test_transition_table_hermitian_involutory():
    rng = np.random.RandomState(23)
    for _ in range(30):
        p = _params(rng.uniform(1, 20), rng.uniform(1, 20),
                    rng.uniform(0.1, 6), rng.uniform(-2, 2))
        for x in eigensystem(p).sigma_x:
            assert np.max(np.abs(x - x.conj().T)) < 1e-10
            assert np.max(np.abs(x @ x - np.eye(4))) < 1e-10


def test_transition_table_zero_angles():
    es = EigenSystem(e_a=-1, e_b=-0.5, e_c=0.5, e_d=1, e_s_plus=2, e_s_minus=1,
                     theta_plus=0.0, theta_minus=0.0)
    assert es.coupling(1, "a", "b") == pytest.approx(1.0)
    assert es.coupling(1, "d", "c") == pytest.approx(1.0)
    assert es.coupling(1, "d", "b") == pytest.approx(0.0, abs=1e-15)
    assert es.coupling(1, "a", "c") == pytest.approx(0.0, abs=1e-15)


def test_transition_table_cross_kerr_point_selectivity():
    # wanted transitions near full strength, unwanted angle-suppressed
    es = eigensystem(_params(8.45, 13.95, 4.0, -0.61))
    assert abs(es.coupling(1, "d", "c")) >= 0.95
    assert abs(es.coupling(1, "a", "b")) >= 0.95
    assert abs(es.coupling(1, "d", "b")) <= 0.05
    assert abs(es.coupling(1, "a", "c")) <= 0.05
    # effective coupling scale: gtilde ~ g for the wanted ones
    assert 0.3 * es.coupling(1, "d", "c") == pytest.approx(0.3, abs=0.01)


def test_sigma_x_read_only_cached_and_pair_symmetric():
    es = eigensystem(_params(8.45, 13.95, 4.0, -0.61))
    first = es.sigma_x
    assert es.sigma_x is first
    assert all(x is y for x, y in zip(es.sigma_x, first))
    for x in first:
        assert x.shape == (4, 4) and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 1] = 0.0
    for q in (1, 2):
        for i in "abcd":
            for j in "abcd":
                assert es.coupling(q, i, j) == es.coupling(q, j, i)
        # sigma_x couples neither a-d nor b-c
        for i, j in ("ad", "bc"):
            assert es.coupling(q, i, j) == 0.0
            assert type(es.coupling(q, i, j)) is float


def _loop_sigma_x(es):
    """(sigma_x1, sigma_x2) entry by entry: += on zeros, once per pair and mirror."""
    dif = es.theta_plus - es.theta_minus
    tot = es.theta_plus + es.theta_minus
    values = ((math.cos(dif), math.cos(dif), math.sin(dif), -math.sin(dif)),
              (-math.sin(tot), math.sin(tot), math.cos(tot), math.cos(tot)))
    out = []
    for pairs, coefs in zip(SIGMA_X_PAIRS.values(), values):
        m = np.zeros((4, 4))
        for (i, j), coef in zip(pairs, coefs):
            m[LEVEL_INDEX[i], LEVEL_INDEX[j]] += coef
            m[LEVEL_INDEX[j], LEVEL_INDEX[i]] += coef
        out.append(m)
    return out


@pytest.mark.parametrize("where", ["preset", "signed-zero"])
def test_sigma_x_bytes_equal_loop_construction(where):
    if where == "preset":
        params = [operating_point(s)["params"] for s in Scheme]
    else:
        # e_mx = 0 and e_j1 < e_j2: theta_plus = theta_minus = pi/2, so the
        # coefficient -sin(theta_plus - theta_minus) is -0.0
        params = [_params(8.45, 13.95, 0.0, 0.3)]
        es = eigensystem(params[0])
        assert math.copysign(1.0, -math.sin(es.theta_plus - es.theta_minus)) == -1.0
    for p in params:
        es = eigensystem(p)
        for got, want in zip(es.sigma_x, _loop_sigma_x(es)):
            assert got.shape == (4, 4) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# capacitance-derived couplings

def _caps(c_m=2e-17):
    return CapacitanceSet(c_j1=4e-16, c_j2=5e-16, c_g1=6e-17, c_g2=7e-17,
                          c_m=c_m, c_r1=9e-15, c_r2=1.1e-14,
                          c_01=4e-16, c_02=5e-16)


def test_decoupled_islands():
    d = derive_couplings(_caps(c_m=0.0), 10.0, 16.0)
    assert d.e_mx == 0.0 and d.g2_1 == 0.0 and d.g2_2 == 0.0 and d.g3 == 0.0
    assert d.g1 > 0 and d.g2 > 0


def test_si_constants_equal_scipy():
    # exact in the 2019 SI, so the literals are scipy's values to the bit
    assert ELEMENTARY_CHARGE == Q_E
    assert PLANCK_H == PLANCK


def test_symmetric_capacitance_formula():
    caps = CapacitanceSet(c_j1=4e-16, c_j2=4.3e-16, c_g1=5e-17, c_g2=2e-17,
                          c_m=3e-17, c_r1=9e-15, c_r2=9e-15, c_01=4e-16, c_02=4e-16)
    # symmetric totals: adjust c_j2 so c_sigma1 == c_sigma2
    caps = CapacitanceSet(c_j1=4e-16, c_j2=4e-16 + (5e-17 - 2e-17), c_g1=5e-17,
                          c_g2=2e-17, c_m=3e-17, c_r1=9e-15, c_r2=9e-15,
                          c_01=4e-16, c_02=4e-16)
    assert caps.c_sigma1 == pytest.approx(caps.c_sigma2, rel=1e-12)
    c = caps.c_sigma1
    expected = caps.c_m * Q_E**2 / (c**2 - caps.c_m**2) / (PLANCK * 1e9)
    d = derive_couplings(caps, 10.0, 16.0)
    assert d.e_mx == pytest.approx(expected, rel=1e-12)


def test_crosstalk_ratio_identity():
    # both closed forms evaluated independently here; their ratio must be
    # exactly C_m / C_sigma_of_the_far_qubit
    rng = np.random.RandomState(31)
    for _ in range(50):
        caps = CapacitanceSet(
            c_j1=rng.uniform(2, 8) * 1e-16, c_j2=rng.uniform(2, 8) * 1e-16,
            c_g1=rng.uniform(2, 9) * 1e-17, c_g2=rng.uniform(2, 9) * 1e-17,
            c_m=rng.uniform(0.5, 3) * 1e-17,
            c_r1=rng.uniform(0.5, 2) * 1e-14, c_r2=rng.uniform(0.5, 2) * 1e-14,
            c_01=rng.uniform(2, 6) * 1e-16, c_02=rng.uniform(2, 6) * 1e-16)
        denom = caps.c_sigma1 * caps.c_sigma2 - caps.c_m**2
        ec1 = Q_E**2 / (2 * caps.c_sigma_r1 * PLANCK * 1e9)
        g1 = (caps.c_g1 * caps.c_sigma2 / denom) * np.sqrt(ec1 * 10.0)
        g2_1 = (caps.c_g1 * caps.c_m / denom) * np.sqrt(ec1 * 10.0)
        d = derive_couplings(caps, 10.0, 16.0)
        assert d.g1 == pytest.approx(g1, rel=1e-12)
        assert d.g2_1 / d.g1 == pytest.approx(caps.c_m / caps.c_sigma2, rel=1e-12)
        assert d.g2_2 / d.g2 == pytest.approx(caps.c_m / caps.c_sigma1, rel=1e-12)


def test_crosstalk_small_in_regime():
    d = derive_couplings(_caps(), 10.0, 16.0)
    assert not d.warnings
    assert d.g2_1 / d.g1 < 1.0 and d.g2_2 / d.g2 < 1.0
    assert d.g3 / d.g1 < 1.0 and d.g3 / d.g2 < 1.0


def test_regime_violation_warns_not_fails():
    caps = CapacitanceSet(c_j1=4e-16, c_j2=5e-16, c_g1=6e-17, c_g2=7e-17,
                          c_m=3e-16, c_r1=9e-15, c_r2=1.1e-14,
                          c_01=4e-16, c_02=5e-16)
    d = derive_couplings(caps, 10.0, 16.0)
    assert d.warnings
    assert np.isfinite([d.e_mx, d.g1, d.g2, d.g2_1, d.g2_2, d.g3]).all()


def test_params_from_capacitances():
    p = CircuitParams.from_capacitances(_caps(), 8.0, 14.0, -0.6, 10.0, 16.0)
    assert p.e_mx > 0 and p.g1 > 0 and p.g2_1 > 0 and p.g3 > 0


# ---------------------------------------------------------------------------
# energy sweep

def test_energy_sweep_crossings():
    p = _params(8.45, 13.95, 4.0, -0.61)
    sweep = energy_sweep(p, (-2.0, 2.0), 81)
    pairs = {c[0] for c in sweep.crossings}
    assert "a-b" in pairs and "c-d" in pairs
    ab = [c for c in sweep.crossings if c[0] == "a-b"][0]
    assert 0.0 < ab[1] < 1.0  # order exchange at positive b0 for this point
    # at 201 points both differences are exactly 0 on the b0 = 0 sample: the
    # crossing is bracketed by the nonzero samples on either side of it
    for points, width in ((200, 2 / 199), (201, 2 * 2 / 200)):
        sweep = energy_sweep(_params(8.0, 0.0, 4.0, 0.0), (-1.0, 1.0), points)
        assert [c[0] for c in sweep.crossings] == ["a-b", "c-d"], points
        for _, lo, hi in sweep.crossings:
            assert lo < 0.0 < hi and hi - lo == pytest.approx(width)


def test_energy_sweep_rows_match_oracle():
    p = _params(8.45, 13.95, 4.0, -0.61)
    sweep = energy_sweep(p, (-1.5, 1.5), 31)
    for b0, *energies in sweep.rows():
        w = np.linalg.eigvalsh(brute_force_h(p.e_j1, p.e_j2, p.e_mx, b0))
        np.testing.assert_allclose(np.sort(energies), w, atol=1e-10)


def test_energy_sweep_shift_symmetry():
    # shifting both Josephson energies by +s leaves E_s- (and hence the
    # minus-sector splitting) unchanged, per the difference combination
    p1 = _params(8.0, 14.0, 4.0, 0.7)
    p2 = _params(8.0 + 2.5, 14.0 + 2.5, 4.0, 0.7)
    es1, es2 = eigensystem(p1), eigensystem(p2)
    assert es1.e_s_minus == pytest.approx(es2.e_s_minus, abs=1e-12)
    assert es2.e_s_plus == pytest.approx(
        np.hypot(8.0 + 14.0 + 5.0, 2 * 4.0 * (1 - 0.7)), abs=1e-12)


def test_energy_sweep_needs_two_points():
    with pytest.raises(ValueError):
        energy_sweep(_params(8.0, 14.0, 4.0, 0.0), (0.0, 1.0), 1)

"""Operator-algebra substrate: ladder elements, transition operators,
Kronecker embedding order, overlaps."""

import numpy as np
import pytest

from fwmsim.operators import (FockCutoffs, basis_state, destroy, fock_ladders,
                              level_product, mode_operator, overlap, product_state,
                              require_hermitian, transition_operator)

CUT = FockCutoffs(2, 3)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockCutoffs(0, 3)
    assert FockCutoffs(2, 3).dim == 4 * 3 * 4


def test_index_convention():
    cut = FockCutoffs(2, 2)
    # index = level*dim1*dim2 + n1*dim2 + n2
    assert cut.index("a", 0, 0) == 0
    assert cut.index("b", 0, 0) == 9
    assert cut.index("a", 1, 2) == 5
    psi = basis_state(cut, "c", 2, 1)
    assert psi[2 * 9 + 2 * 3 + 1] == 1.0
    assert np.sum(np.abs(psi)) == 1.0


def test_ladder_element_sqrt2():
    cut = FockCutoffs(2, 2)
    a1 = mode_operator(cut, 1, "annihilate")
    # <a;1,0| a_1 |a;2,0> = sqrt(2)
    row = cut.index("a", 1, 0)
    col = cut.index("a", 2, 0)
    assert a1[row, col] == pytest.approx(np.sqrt(2.0), abs=0)


def test_ladder_elements_all_sqrt_n():
    dim = 9
    a = destroy(dim)
    for n in range(1, dim):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n), abs=0)


def test_number_equals_create_annihilate():
    for mode in (1, 2):
        num = mode_operator(CUT, mode, "number")
        prod = mode_operator(CUT, mode, "create") @ mode_operator(CUT, mode, "annihilate")
        assert np.max(np.abs(num - prod)) < 1e-14


def test_commutator_identity_below_cutoff():
    # oracle: direct matrix arithmetic; the commutator equals the identity on
    # the subspace strictly below the cutoff and fails only in the top row
    for mode, n_max in ((1, CUT.n_max1), (2, CUT.n_max2)):
        a = mode_operator(CUT, mode, "annihilate")
        comm = a @ a.conj().T - a.conj().T @ a
        keep = [i for i in range(CUT.dim)
                if (divmod(divmod(i, CUT.dim1 * CUT.dim2)[1], CUT.dim2)[mode - 1]) < n_max]
        sub = comm[np.ix_(keep, keep)]
        assert np.max(np.abs(sub - np.eye(len(keep)))) < 1e-14


def test_invalid_mode_and_kind():
    with pytest.raises(ValueError):
        mode_operator(CUT, 3, "annihilate")
    with pytest.raises(ValueError):
        mode_operator(CUT, 1, "destroy")


def test_transition_completeness():
    total = sum(transition_operator(CUT, l, l) for l in "abcd")
    assert np.max(np.abs(total - np.eye(CUT.dim))) == 0.0


def test_transition_adjoint():
    assert np.array_equal(transition_operator(CUT, "a", "b").conj().T,
                          transition_operator(CUT, "b", "a"))


def test_transition_product():
    # matrix-product oracle: sigma_ab sigma_bc = sigma_ac
    lhs = transition_operator(CUT, "a", "b") @ transition_operator(CUT, "b", "c")
    assert np.max(np.abs(lhs - transition_operator(CUT, "a", "c"))) == 0.0


def test_factors_commute():
    pairs = [
        (mode_operator(CUT, 1, "annihilate"), mode_operator(CUT, 2, "create")),
        (transition_operator(CUT, "a", "d"), mode_operator(CUT, 1, "number")),
        (transition_operator(CUT, "b", "c"), mode_operator(CUT, 2, "annihilate")),
    ]
    for x, y in pairs:
        assert np.max(np.abs(x @ y - y @ x)) < 1e-13


def test_overlap_basics():
    psi = product_state(CUT, "a", [1, 1], [1, 0])
    assert overlap(psi, psi) == pytest.approx(1.0, abs=1e-12)
    phi = basis_state(CUT, "b", 0, 0)
    assert overlap(psi, phi) == 0.0


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap(basis_state(CUT, "a", 0, 0), basis_state(FockCutoffs(1, 1), "a", 0, 0))


def test_overlap_global_phase_invariance():
    rng = np.random.RandomState(7)
    for _ in range(20):
        psi = rng.randn(CUT.dim) + 1j * rng.randn(CUT.dim)
        phi = rng.randn(CUT.dim) + 1j * rng.randn(CUT.dim)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(overlap(phase * psi, phase * phi)) == pytest.approx(
            abs(overlap(psi, phi)), rel=1e-12)


def test_product_state_normalized():
    psi = product_state(CUT, "d", [1, 1, 1], [2, 0, 1, 1])
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        product_state(CUT, "a", [1] * 10, [1])


def test_hermiticity_helpers():
    h = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    assert require_hermitian(h) is h
    with pytest.raises(ValueError):
        require_hermitian(h + np.array([[0, 1e-9], [0, 0]]))


@pytest.mark.parametrize("kind", ["complex", "real", "signed-zero"])
def test_level_product_bytes_equal_kron(kind):
    rng = np.random.RandomState(11)
    m4, piece = rng.randn(4, 4), rng.randn(6, 6)
    if kind == "complex":
        m4, piece = m4 + 1j * rng.randn(4, 4), piece - 1j * rng.randn(6, 6)
    if kind == "signed-zero":
        m4[rng.rand(4, 4) < 0.5] = -0.0
        piece = (piece * (rng.rand(6, 6) < 0.5)).astype(complex).conj()
    product = level_product(m4, piece)
    assert product.dtype == np.kron(m4, piece).dtype
    assert product.tobytes() == np.kron(m4, piece).tobytes()


def test_fock_ladders_cached_and_read_only():
    cut = FockCutoffs(3, 2)
    a1, a2 = fock_ladders(cut)
    assert all(x is y for x, y in zip(fock_ladders(FockCutoffs(3, 2)), (a1, a2)))
    assert np.array_equal(a1, np.kron(destroy(4), np.eye(3)))
    assert np.array_equal(a2, np.kron(np.eye(4), destroy(3)))
    for a in (a1, a2):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 1] = 2.0

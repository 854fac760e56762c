import math

import numpy as np
import pytest

import circuit_reference as ref
from catamp import (DensityOperator, MultiModeState, coherent_state,
                    fidelity_mixed, fock_state, projector)

# The three-mode product states and partial traces below are the brute-force
# reference's; with dead detectors (eta = 0) its double no-click conditioning
# is the plain partial trace onto mode 0.


def _partial_trace(psi, keep):
    psi = np.moveaxis(psi, keep, 0)
    return DensityOperator(ref.condition(psi, (False, False), 0.0))


def test_tensor_vacuum_outer_product():
    two = ref.product(fock_state(0, 8).amplitudes, fock_state(0, 8).amplitudes)
    assert two.shape == (8, 8)
    assert two[0, 0] == 1.0
    assert np.count_nonzero(two) == 1


def test_tensor_single_photon_placement():
    two = ref.product(fock_state(1, 8).amplitudes, fock_state(0, 8).amplitudes)
    assert two[1, 0] == 1.0
    assert np.count_nonzero(two) == 1


def test_tensor_coherent_pair_vacuum_amplitude():
    # c_0(0.5)^2 = e^{-0.25}
    two = ref.product(coherent_state(0.5).amplitudes, coherent_state(0.5).amplitudes)
    assert np.isclose(two[0, 0].real, math.exp(-0.25), atol=1e-12)


def test_tensor_norm_is_product_of_norms():
    a = MultiModeState(0.9 * coherent_state(0.7).amplitudes)
    b = MultiModeState(0.8 * coherent_state(0.3).amplitudes)
    ab = ref.product(a.amplitudes, b.amplitudes)
    assert np.isclose(np.vdot(ab, ab).real, a.norm_sq * b.norm_sq, atol=1e-12)


def test_tensor_cutoff_mismatch_rejected():
    # a two-mode product is no single-mode state
    with pytest.raises(ValueError):
        MultiModeState(ref.product(fock_state(0, 8).amplitudes, fock_state(0, 10).amplitudes))


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    amp = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
    psi = amp / np.linalg.norm(amp) * 0.9
    for keep in range(3):
        rho = _partial_trace(psi, keep)
        assert abs(rho.trace_value - 0.81) < 1e-12
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)


def test_partial_trace_of_product_state_gives_projectors():
    a, b = coherent_state(0.8, 12), coherent_state(-0.4, 12)
    vac = fock_state(0, 12)
    psi = ref.product(a.amplitudes, b.amplitudes, vac.amplitudes)
    rho_a = _partial_trace(psi, 0)
    rho_b = _partial_trace(psi, 1)
    assert np.allclose(rho_a.matrix, projector(a).matrix, atol=1e-12)
    assert np.allclose(rho_b.matrix, projector(b).matrix, atol=1e-12)
    # purity equals ||psi||^4 for a (sub-normalized) product state
    assert np.isclose(_partial_trace(0.9 * psi, 0).purity(), 0.81 ** 2, atol=1e-12)


def test_partial_trace_bell_like_is_maximally_mixed():
    amp = np.zeros((4, 4, 4), dtype=complex)
    amp[0, 0, 0] = amp[1, 1, 0] = 1 / math.sqrt(2)
    rho = _partial_trace(amp, 0)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 0.5
    assert np.allclose(rho.matrix, expected, atol=1e-12)


# The pure-state fidelity |<psi|phi>|^2 is fidelity_mixed(projector(psi), phi).

def _fidelity_pure(psi, phi):
    return fidelity_mixed(projector(psi), phi)


def test_fidelity_pure_self_and_orthogonal():
    psi = coherent_state(0.6)
    assert np.isclose(_fidelity_pure(psi, psi), 1.0, atol=1e-12)
    assert _fidelity_pure(fock_state(0), fock_state(1)) == 0.0


def test_fidelity_pure_opposite_coherent_states():
    # |<alpha|-alpha>|^2 = e^{-4 alpha^2}; alpha = 1
    f = _fidelity_pure(coherent_state(1.0), coherent_state(-1.0))
    assert np.isclose(f, 0.01831563888873418, atol=1e-10)


def test_fidelity_pure_symmetric_and_phase_invariant():
    a, b = coherent_state(0.9), coherent_state(0.2)
    f = _fidelity_pure(a, b)
    assert abs(f - _fidelity_pure(b, a)) < 1e-14
    rotated = MultiModeState(np.exp(1j * 0.83) * a.amplitudes)
    assert abs(_fidelity_pure(rotated, b) - f) < 1e-14


def test_fidelity_pure_requires_normalized_matching_shapes():
    with pytest.raises(ValueError):
        _fidelity_pure(fock_state(0, 8), fock_state(0, 10))
    with pytest.raises(ValueError):
        _fidelity_pure(fock_state(0), MultiModeState(0.5 * fock_state(0).amplitudes))


def test_fidelity_mixed_projector_and_mixture():
    psi = coherent_state(0.7)
    assert np.isclose(fidelity_mixed(projector(psi), psi), 1.0, atol=1e-10)
    c = psi.cutoff
    assert np.isclose(fidelity_mixed(DensityOperator(np.eye(c) / c), psi), 1 / c, atol=1e-12)
    mix = DensityOperator(np.diag([0.6, 0.4] + [0.0] * (c - 2)))
    assert np.isclose(fidelity_mixed(mix, fock_state(1)), 0.4, atol=1e-12)


def test_density_operator_validation():
    good = np.diag([0.5, 0.5, 0.0])
    DensityOperator(good)
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.1, -0.1]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.9, 0.9]))  # trace above 1
    for bad in (np.nan, np.inf):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(m)
    with pytest.raises(ValueError, match="finite"):
        DensityOperator(np.full((3, 3), np.nan))
    for empty in (np.zeros((0, 0)), np.zeros((0, 3))):
        with pytest.raises(ValueError, match="non-empty"):
            DensityOperator(empty)


def test_operations_are_deterministic():
    a = coherent_state(0.8)
    b = coherent_state(0.8)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(projector(a).matrix, projector(b).matrix)


def test_states_reject_null_and_bad_shapes():
    with pytest.raises(ValueError):
        MultiModeState(np.zeros(5))
    with pytest.raises(ValueError):
        MultiModeState(np.ones((3, 4)))
    with pytest.raises(ValueError):
        MultiModeState(np.ones((4, 4)))  # one mode per state

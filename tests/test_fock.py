import math

import numpy as np
import pytest

import circuit_reference as ref
from catamp import (DensityOperator, MultiModeState, SourceModel, cat_state,
                    fidelity_mixed, plan_schedule, prepare_source, projector,
                    run_schedule, squeezed_photon, squeezed_vacuum)
from catamp.fock import EIGEN_FLOOR
from catamp.protocol import SOURCE_KINDS
from circuit_reference import coherent_state, fock_state

# The three-mode product states and partial traces below are the brute-force
# reference's; with dead detectors (eta = 0) its double no-click conditioning
# is the plain partial trace onto mode 0. The partial traces stay plain
# arrays, as a sub-normalized one is no DensityOperator.


def _partial_trace(psi, keep):
    return ref.condition(np.moveaxis(psi, keep, 0), (False, False), 0.0)


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
    a = 0.9 * coherent_state(0.7).amplitudes
    b = 0.8 * coherent_state(0.3).amplitudes
    ab = ref.product(a, b)
    assert np.isclose(np.vdot(ab, ab).real, np.vdot(a, a).real * np.vdot(b, b).real,
                      atol=1e-12)


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
        assert abs(np.trace(rho).real - 0.81) < 1e-12
        assert np.array_equal(rho, rho.conj().T)


def test_partial_trace_of_product_state_gives_projectors():
    a, b = coherent_state(0.8, 12), coherent_state(-0.4, 12)
    vac = fock_state(0, 12)
    psi = ref.product(a.amplitudes, b.amplitudes, vac.amplitudes)
    rho_a = _partial_trace(psi, 0)
    rho_b = _partial_trace(psi, 1)
    assert np.allclose(rho_a, projector(a).matrix, atol=1e-12)
    assert np.allclose(rho_b, projector(b).matrix, atol=1e-12)
    # purity tr(rho^2) equals ||psi||^4 for a (sub-normalized) product state
    assert np.isclose(np.sum(np.abs(_partial_trace(0.9 * psi, 0)) ** 2), 0.81 ** 2,
                      atol=1e-12)


def test_partial_trace_bell_like_is_maximally_mixed():
    amp = np.zeros((4, 4, 4), dtype=complex)
    amp[0, 0, 0] = amp[1, 1, 0] = 1 / math.sqrt(2)
    rho = _partial_trace(amp, 0)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 0.5
    assert np.allclose(rho, expected, atol=1e-12)


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
    # an unnormalized target is refused where it would be built
    with pytest.raises(ValueError, match="unit norm"):
        MultiModeState(0.5 * fock_state(0).amplitudes)


def test_fidelity_mixed_projector_and_mixture():
    psi = coherent_state(0.7)
    assert np.isclose(fidelity_mixed(projector(psi), psi), 1.0, atol=1e-10)
    # a projector keeps its state's truncation deficit
    short = squeezed_photon(1.0)
    assert short.leakage > 1e-4 and projector(short).leakage == short.leakage
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


def test_states_have_unit_norm_and_trace_from_construction():
    e0 = fock_state(0, 4).amplitudes
    for nsq in (1.0 - 2e-8, 1.0 + 2e-8, np.nan):
        with pytest.raises(ValueError, match="unit norm"):
            MultiModeState(math.sqrt(nsq) * e0)
    for nsq in (1.0 - 5e-9, 1.0 + 5e-9):
        MultiModeState(math.sqrt(nsq) * e0)
    # the trace may fall short of one by UNIT_TOL but pass it only by OPERATOR_TOL
    for tr in (1.0 - 2e-8, 1.0 + 2e-10):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.diag([tr, 0.0, 0.0]))
    for tr in (1.0 - 5e-11, 1.0 + 5e-11):
        assert np.trace(DensityOperator(np.diag([tr, 0.0, 0.0])).matrix) == tr


def test_eigenbranches_of_a_real_matrix_are_real():
    psi = coherent_state(0.8, 10).amplitudes
    phi = fock_state(1, 10).amplitudes
    rho = DensityOperator(0.7 * np.outer(psi, psi) + 0.3 * np.outer(phi, phi))
    w, v, discarded = rho.eigenbranches()
    assert v.dtype == np.float64 and len(w) == 2 and discarded < 1e-15
    assert np.abs((v * w) @ v.T - rho.matrix).max() < 1e-14
    twisted = coherent_state(0.8j, 10)
    w, v, _ = projector(twisted).eigenbranches()
    assert v.dtype == np.complex128
    assert abs(abs(np.vdot(v[:, 0], twisted.amplitudes)) - 1.0) < 1e-14


def _argsort_branches(rho):
    """Spectral branches as an explicit argsort orders them, descending."""
    w, v = np.linalg.eigh(rho.matrix)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    keep = w >= EIGEN_FLOOR
    return w[keep], v[:, keep], float(np.clip(w[~keep], 0.0, None).sum())


def _stage_outputs():
    """Every stage output of a mixed schedule whose input rank reaches 21."""
    res = run_schedule(plan_schedule(2.5, 2), SourceModel("mixed-photon", p=0.15))
    return [r.output for r in res[1:]]


def test_eigenbranches_contract():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    spectrum = np.array([0.4, 0.3, 0.2, 0.1 - 3e-11, 2e-11, 1e-11] + [0.0] * 6)
    for rho in [DensityOperator((q * spectrum) @ q.T), *_stage_outputs()]:
        w, v, discarded = rho.eigenbranches()
        assert np.all(np.diff(w) <= 0.0) and w[-1] >= EIGEN_FLOOR
        assert np.abs(rho.matrix @ v - v * w).max() < 1e-13
        full = np.linalg.eigh(rho.matrix)[0]
        below = full[full < EIGEN_FLOOR][::-1]
        assert len(w) + len(below) == rho.cutoff
        assert discarded == float(np.clip(below, 0.0, None).sum())


def test_eigenbranches_match_the_argsort_order_on_stage_outputs():
    for rho in _stage_outputs():
        got, want = rho.eigenbranches(), _argsort_branches(rho)
        assert len(got[0]) > 16  # past insertion-sort sizes
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]


def test_eigenbranches_of_a_degenerate_spectrum_rebuild_the_matrix():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    for spectrum in ([0.25] * 4 + [0.0] * 6, [0.3, 0.3, 0.2, 0.2] + [0.0] * 6):
        for m in (np.diag(spectrum), (q * spectrum) @ q.T):
            rho = DensityOperator(m)
            w, v, discarded = rho.eigenbranches()
            assert len(w) == 4 and discarded < 1e-15
            assert np.abs((v * w) @ v.T - rho.matrix).max() < 1e-14


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


@pytest.mark.parametrize("stored,entries,twist", [
    (lambda a: MultiModeState(a).amplitudes, np.array([0.6, 0.8]), np.array([1.0, 1j])),
    (lambda m: DensityOperator(m).matrix, np.array([[0.5, 0.1], [0.1, 0.5]]),
     np.array([[1.0, 1j], [-1j, 1.0]])),
], ids=["MultiModeState", "DensityOperator"])
def test_constructors_store_float64_unless_an_entry_is_complex(stored, entries, twist):
    for real in (entries, entries.astype(np.complex128), np.conj(entries.astype(np.complex128))):
        kept = stored(real)
        assert kept.dtype == np.float64 and np.array_equal(kept, entries)
        assert not np.shares_memory(kept, real)
    assert stored(entries * twist).dtype == np.complex128
    assert stored(entries + 1e-300j * twist.imag).dtype == np.complex128


def test_real_parameters_give_float64_states_and_stage_outputs():
    for state in (fock_state(1), squeezed_photon(0.3), squeezed_vacuum(0.3),
                  cat_state(0.8, 0.0), cat_state(0.8, math.pi), coherent_state(0.5)):
        assert state.amplitudes.dtype == np.float64
    mixed = prepare_source(SourceModel("mixed-photon", r=0.3, p=0.2), 0.5)
    assert mixed.matrix.dtype == np.float64
    for kind in SOURCE_KINDS:
        source = SourceModel(kind, p=0.2 if kind == "mixed-photon" else 0.0)
        for res in run_schedule(plan_schedule(2.0, 3, eta=0.8), source):
            assert res.output.matrix.dtype == np.float64, kind


def test_complex_parameters_give_complex128_states():
    assert coherent_state(0.3 + 0.4j).amplitudes.dtype == np.complex128
    assert cat_state(0.8, 0.3).amplitudes.dtype == np.complex128
    assert projector(cat_state(0.8, 0.3)).matrix.dtype == np.complex128

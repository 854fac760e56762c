import math

import numpy as np
import pytest

import circuit_reference as ref
from catamp import (BeamSplitterParams, beam_splitter_unitary, cat_state,
                    coherent_state, fock_state, squeezed_photon)
from catamp.optics import _beam_splitter_cached

FIFTY = BeamSplitterParams.fifty_fifty()


def _mix(params, a, b):
    """U1 applied to the product |a>|b>, as a c x c amplitude array."""
    c = len(a)
    return (beam_splitter_unitary(params, c) @ np.kron(a, b)).reshape(c, c)


def _overlap(x, y):
    return abs(np.vdot(x, y)) ** 2


def test_beam_splitter_params_validation():
    BeamSplitterParams(0.6, 0.8)
    with pytest.raises(ValueError):
        BeamSplitterParams(0.5, 0.5)
    with pytest.raises(ValueError):
        BeamSplitterParams(-0.6, 0.8)


# The squeeze unitary is the reference's matrix exponential, which the
# closed-form squeezed states are checked against.

def test_squeeze_unitary_identity_at_zero():
    assert np.allclose(ref.squeeze_unitary(0.0, 12), np.eye(12), atol=1e-15)


def test_squeeze_unitary_reproduces_quoted_cat_fidelity():
    # squeezing a photon at r = 0.313 approximates the odd cat of size 1
    f = _overlap(ref.squeezed(0.313, 1, 30), cat_state(1.0, math.pi).amplitudes)
    assert abs(f - 0.997) < 1e-3


def test_squeeze_unitary_column_matches_series_at_r02():
    diff = np.abs(ref.squeeze_unitary(0.2, 30)[:, 1] - squeezed_photon(0.2).amplitudes)
    assert diff.max() < 1e-10


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5])
def test_squeeze_unitary_unitarity_on_low_block(r):
    u = ref.squeeze_unitary(r, 30)
    gram = u.conj().T @ u - np.eye(u.shape[0])
    assert np.abs(gram[:20, :20]).max() < 1e-8


def test_beam_splitter_identity_when_fully_transmitting():
    u = beam_splitter_unitary(BeamSplitterParams(0.0, 1.0), 10)
    assert np.allclose(u, np.eye(100), atol=1e-15)


def test_beam_splitter_block_structure_is_exact():
    c = 10
    u = beam_splitter_unitary(FIFTY, c)
    i1, i2 = np.divmod(np.arange(c * c), c)
    total = i1 + i2
    off_block = u[total[:, None] != total[None, :]]
    assert np.all(off_block == 0.0)


def test_beam_splitter_coherent_displacement_rule():
    # 50:50 on |1> x |0> -> |1/sqrt2> x |-1/sqrt2>
    psi = _mix(FIFTY, coherent_state(1.0).amplitudes, coherent_state(0.0).amplitudes)
    want = np.outer(coherent_state(2 ** -0.5).amplitudes,
                    coherent_state(-(2 ** -0.5)).amplitudes)
    assert _overlap(psi, want) >= 1 - 1e-10


@pytest.mark.parametrize("params", [FIFTY, BeamSplitterParams(0.6, 0.8),
                                    BeamSplitterParams(0.28, math.sqrt(1 - 0.28 ** 2))])
def test_beam_splitter_coherent_covariance_grid(params):
    # the convention anchor: B|a>|b> = |ta+rb>|-ra+tb> across an amplitude grid
    r, t = params.reflectivity, params.transmittivity
    for a in np.linspace(-1.5, 1.5, 5):
        for b in np.linspace(-1.5, 1.5, 5):
            psi = _mix(params, coherent_state(a).amplitudes, coherent_state(b).amplitudes)
            want = np.outer(coherent_state(t * a + r * b).amplitudes,
                            coherent_state(-r * a + t * b).amplitudes)
            assert _overlap(psi, want) >= 1 - 1e-8


def test_beam_splitter_single_photon_split():
    psi = _mix(FIFTY, fock_state(1, 8).amplitudes, fock_state(0, 8).amplitudes)
    s = 1 / math.sqrt(2)
    assert np.isclose(psi[1, 0], s, atol=1e-12)
    assert np.isclose(psi[0, 1], -s, atol=1e-12)


def test_apply_beam_splitter_preserves_norm_and_vacuum():
    vac = fock_state(0, 12).amplitudes
    assert np.array_equal(_mix(FIFTY, vac, vac), np.outer(vac, vac))
    a, b = coherent_state(1.2, 25).amplitudes, cat_state(0.8, math.pi, 25).amplitudes
    assert abs(np.linalg.norm(_mix(FIFTY, a, b)) - 1.0) < 1e-10


def test_apply_beam_splitter_inverse_pair():
    # B(r, t)^-1 = B(-r, t), realized by feeding the modes in reverse order
    params = BeamSplitterParams(0.6, 0.8)
    u = beam_splitter_unitary(params, 20)
    a, b = coherent_state(0.9, 20).amplitudes, coherent_state(-0.5, 20).amplitudes
    fwd = (u @ np.kron(a, b)).reshape(20, 20)
    back = (u @ fwd.T.ravel()).reshape(20, 20).T
    assert np.max(np.abs(back - np.outer(a, b))) < 1e-10


def test_apply_beam_splitter_mode_collision():
    # the reference cannot mix a mode with itself
    psi = ref.product(*(fock_state(0, 8).amplitudes,) * 3)
    with pytest.raises(ValueError):
        ref.apply_two_mode(beam_splitter_unitary(FIFTY, 8), psi, 1, 1)


def test_two_cat_interference_matches_coherent_construction():
    # two equal odd cats through 50:50 collapse onto two branches:
    # (cat arms in the first mode) x vacuum minus vacuum x (cat arms)
    a = 2 ** -0.5
    cat = cat_state(a, math.pi).amplitudes
    psi = _mix(FIFTY, cat, cat)
    big = math.sqrt(2) * a
    vac = coherent_state(0.0).amplitudes
    arms = coherent_state(big).amplitudes + coherent_state(-big).amplitudes
    want = np.outer(arms, vac) - np.outer(vac, arms)
    assert _overlap(psi, want / np.linalg.norm(want)) >= 1 - 1e-6


def test_unitary_cache_returns_consistent_readonly_matrices():
    u1 = beam_splitter_unitary(FIFTY, 12)
    u2 = beam_splitter_unitary(BeamSplitterParams.fifty_fifty(), 12)
    assert np.array_equal(u1, u2)
    assert not u1.flags.writeable


def test_unitary_cache_holds_one_matrix():
    # every spelling of 50:50 is one mixing angle, so a schedule whose
    # planned ratios differ in the last bit still reuses its matrix
    half = BeamSplitterParams(0.7071067811865476, 0.7071067811865476)
    assert half != FIFTY
    assert beam_splitter_unitary(half, 12) is beam_splitter_unitary(FIFTY, 12)
    for params in (BeamSplitterParams(0.6, 0.8), FIFTY, BeamSplitterParams(0.28, 0.96)):
        for cutoff in (8, 12):
            beam_splitter_unitary(params, cutoff)
            assert _beam_splitter_cached.cache_info().currsize == 1
